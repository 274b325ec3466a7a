"""The dense eigenspace decomposition, kept as the oracle for the orbital one.

Every eigenspace of the |C|-dim form comes from a float `eigh` of the whole
matrix (exactlinalg.spectrum), and the multiplicity of V_i in E_lam is the
projector trace (1/|G|) sum_j |C_j| conj(chi_i(g_j)) tr(rho(g_j) E_lam),
evaluated through the orthonormal eigenbasis and gated to integers within
PROJECTOR_TOL.
"""
import numpy as np

from killform.characters import (
    PROJECTOR_TOL,
    CharTable,
    DecompEntry,
    Decomposition,
    conjugation_character,
    multiplicities,
)
from killform.errors import ElementNotInGroup, ProjectorMismatch
from killform.exactlinalg import spectrum
from killform.killing import KillingForm


def dense_decomposition(K: KillingForm, T: CharTable) -> Decomposition:
    G = K.group
    C = K.conj_class
    classes = G.classes()
    k = len(classes)
    sizes = np.array([c.size for c in classes], dtype=float)

    B = C.arr
    in_C = np.full(G.order, -1, dtype=np.intp)
    in_C[G.locator.locate(B)] = np.arange(C.size)
    perms = []
    for g in G.class_reps:
        ginv = np.argsort(g).astype(B.dtype)
        perm = in_C[G.locator.locate(ginv[B[:, g]])]  # a -> g^-1 a g
        if (perm < 0).any():
            raise ElementNotInGroup(f"{C!r} is not closed under conjugation in {G.name}")
        perms.append(perm)

    chars = np.array(T.chars, dtype=complex)
    entries = []
    totals = np.zeros(k, dtype=np.int64)
    for e in spectrum(K.matrix):
        U = e.vectors
        traces = np.array([(U[perm] * U).sum() for perm in perms])
        raw = (sizes * traces) @ chars.conj().T / G.order
        mults = []
        for i in range(k):
            m = round(raw[i].real)
            if abs(raw[i] - m) > PROJECTOR_TOL:
                raise ProjectorMismatch(
                    f"mult of {T.irrep_labels[i]} in E_{e.value:.4g} is {raw[i]:.6f}, "
                    f"not an integer within {PROJECTOR_TOL}")
            mults.append(m)
        if sum(m * d for m, d in zip(mults, T.degrees)) != e.multiplicity:
            raise ProjectorMismatch(
                f"irrep dims in E_{e.value:.4g} sum to "
                f"{sum(m * d for m, d in zip(mults, T.degrees))}, eigenspace dim {e.multiplicity}")
        totals += np.array(mults)
        entries.append(DecompEntry(value=e.value, dim=e.multiplicity,
                                   mults=tuple(mults), integral=e.integral))
    expected = multiplicities(conjugation_character(G, C), T)
    if list(totals) != expected:
        raise ProjectorMismatch(
            f"eigenspace totals {list(totals)} != conjugation-character multiplicities {expected}")
    return Decomposition(class_label=C.label, group_name=G.name or "G",
                         irrep_labels=list(T.irrep_labels), entries=entries, table=T)
