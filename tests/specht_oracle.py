"""Young symmetrizers projected into a conjugation module, kept as the
constructive oracle for specht_occurs and for the exact eigenvalues.

S^lam occurs in C C_mu iff project_to_class(c_T, C_mu) != 0 for some standard
tableau T of shape lam, where c_T is the Young symmetrizer of T; the library
decides the same question from the exact character multiplicity.  A projected
symmetrizer that is an eigenvector of the form gives its eigenvalue exactly
(eigenvalue_from_vector).
"""
import itertools
from dataclasses import dataclass
from fractions import Fraction

from form_oracle import AlgebraVector, apply_form, basis, basis_index
from group_oracle import conj_by, sign
from killform.errors import CapExceeded, KillformError
from killform.groups import ConjClass
from killform.killing import KillingForm
from killform.perms import Perm
from killform.specht import Partition

SYMMETRIZER_TERM_CAP = 10**6


class NotAnEigenvector(KillformError):
    pass


@dataclass(frozen=True)
class Tableau:
    rows: tuple

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        entries = [x for r in rows for x in r]
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError("tableau entries must be a bijection onto 1..n")
        if any(len(rows[i]) < len(rows[i + 1]) for i in range(len(rows) - 1)):
            raise ValueError("row lengths must be weakly decreasing")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def columns(self) -> tuple:
        ncols = len(self.rows[0]) if self.rows else 0
        return tuple(tuple(r[j] for r in self.rows if len(r) > j)
                     for j in range(ncols))

    def is_standard(self) -> bool:
        for r in self.rows:
            if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
                return False
        for c in self.columns():
            if any(c[i] >= c[i + 1] for i in range(len(c) - 1)):
                return False
        return True

    @staticmethod
    def row_reading(shape: Partition) -> "Tableau":
        rows = []
        k = 1
        for p in shape:
            rows.append(tuple(range(k, k + p)))
            k += p
        return Tableau(rows)

    def __str__(self) -> str:
        return " / ".join(",".join(map(str, r)) for r in self.rows)


def standard_tableaux(shape: Partition):
    """All standard tableaux of the shape; the row-reading one comes first."""
    parts = shape.parts
    n = shape.n
    filled = [0] * len(parts)
    rows = [[] for _ in parts]

    def place(k):
        if k > n:
            yield Tableau(tuple(tuple(r) for r in rows))
            return
        for r in range(len(parts)):
            if filled[r] < parts[r] and (r == 0 or filled[r - 1] > filled[r]):
                rows[r].append(k)
                filled[r] += 1
                yield from place(k + 1)
                rows[r].pop()
                filled[r] -= 1

    yield from place(1)


def _block_permutations(blocks, n: int):
    """All permutations of {0..n-1} permuting each block (1-based entries) within itself."""
    blocks = [tuple(b) for b in blocks if len(b) > 1]
    out = []
    for assignment in itertools.product(*[itertools.permutations(b) for b in blocks]):
        images = list(range(n))
        for block, img in zip(blocks, assignment):
            for src, dst in zip(block, img):
                images[src - 1] = dst - 1
        out.append(Perm(images))
    return out


def row_and_column_groups(T: Tableau) -> tuple:
    """(R(T), C(T)): permutations preserving each row set / each column set."""
    n = T.n
    return (set(_block_permutations(T.rows, n)),
            set(_block_permutations(T.columns(), n)))


def young_symmetrizer(T: Tableau, cap: int = SYMMETRIZER_TERM_CAP) -> AlgebraVector:
    """c_T = (sum of sgn(s)*s over C(T)) * (sum over R(T)), with +-1 coefficients."""
    R, C = row_and_column_groups(T)
    if len(R) * len(C) > cap:
        raise CapExceeded(f"symmetrizer would have {len(R) * len(C)} terms (cap {cap})")
    coeffs: dict[Perm, int] = {}
    for s in C:
        sgn = sign(s)
        for t in R:
            g = s * t
            coeffs[g] = coeffs.get(g, 0) + sgn
    return AlgebraVector(coeffs)


def project_to_class(v: AlgebraVector, C: ConjClass,
                     rep: Perm | None = None) -> AlgebraVector:
    """The quotient map sigma -> sigma * rep * sigma^-1, extended linearly.

    rep defaults to the class representative; any other member may be chosen
    (the image differs by a right translation but spans the same components).
    """
    if rep is None:
        rep = C.representative
    elif rep not in C:
        raise ValueError(f"{rep} is not a member of the class")
    out: dict[Perm, object] = {}
    for sigma, coef in v.coeffs.items():
        h = conj_by(rep, sigma)
        out[h] = out.get(h, 0) + coef
    result = AlgebraVector(out)
    for h in result.coeffs:
        if h not in C:
            raise ValueError(f"projection left the class: {h}")
    return result


def eigenvalue_from_vector(K: KillingForm, v: AlgebraVector) -> Fraction:
    """The exact eigenvalue of K on v, verifying K v = lambda v with no residual."""
    if v.is_zero():
        raise NotAnEigenvector("the zero vector spans no eigenspace")
    for b in v.coeffs:
        try:
            basis_index(K, b)
        except KeyError:
            raise ValueError(f"{b} is not in the form's basis") from None
    Kv = apply_form(K, v)
    pivot = next(b for b in basis(K) if v[b] != 0)
    lam = Fraction(Kv[pivot]) / Fraction(v[pivot])
    if Kv != v.scale(lam):
        raise NotAnEigenvector("K v is not proportional to v")
    return lam
