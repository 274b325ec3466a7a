"""Killing forms of conjugacy-class differential calculi on finite groups.

The form on the calculus over a class C is K(a, b) = |Z(ab) & C|, a class
function of the product ab, so it is read from one commuting count per class
rather than from the double loop over the class.
Everything that decides a yes/no question (nondegeneracy, signature,
integrality, irrep multiplicities) is computed in exact arithmetic; floating
point only ever proposes candidates that are then certified.
"""
from .characters import (CharTable, ClassFunction, Decomposition,
                         character_table, conjugation_character,
                         eigenspace_decomposition, integrality_audit,
                         multiplicities, roth_check)
from .errors import KillformError
from .exactlinalg import (IntSymMatrix, Signature, SpectrumEntry,
                          connected_components, exact_rank, rank_mod_p,
                          signature, spectrum)
from .groups import (ConjClass, Group, alternating_group, build_named_group,
                     generate_group, parse_group_file, psl2, psl3,
                     symmetric_class, symmetric_group)
from .killing import (CasimirExpansion, KillingForm, analyze, casimir,
                      killing_matrix, universal_killing)
from .perms import Perm
from .specht import (Partition, euler_count, sign_rep_multiplicity,
                     sign_rep_occurs, sn_character, specht_dimension,
                     specht_multiplicity, specht_occurs,
                     two_cycles_eigenvalues)

__version__ = "0.1.0"

__all__ = [
    "CasimirExpansion", "CharTable", "ClassFunction", "ConjClass",
    "Decomposition", "Group", "IntSymMatrix", "KillformError",
    "KillingForm", "Partition", "Perm", "Signature", "SpectrumEntry",
    "alternating_group", "analyze", "build_named_group", "casimir",
    "character_table", "conjugation_character", "connected_components",
    "eigenspace_decomposition", "euler_count", "exact_rank",
    "generate_group", "integrality_audit", "killing_matrix",
    "multiplicities", "parse_group_file", "psl2", "psl3", "rank_mod_p",
    "roth_check", "sign_rep_multiplicity", "sign_rep_occurs", "signature",
    "sn_character", "specht_dimension", "specht_multiplicity",
    "specht_occurs", "spectrum", "symmetric_class", "symmetric_group",
    "two_cycles_eigenvalues", "universal_killing",
]
