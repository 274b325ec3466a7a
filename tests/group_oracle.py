"""Permutation and group checks that only the tests need.

The sign, conjugate and extension of a single Perm, products of rows checked
to be elements, centraliser orders from a direct commuting count, and the
simplicity test by class generation: each nontrivial class of a simple group
generates it.
"""
import numpy as np

from killform.groups import BaseLocator, ConjClass, Group, _closure, _commuting_counts
from killform.perms import Perm


def sign(p: Perm) -> int:
    """+1 for an even permutation, -1 for an odd one."""
    return -1 if sum(len(c) - 1 for c in p.cycles()) % 2 else 1


def conj_by(p: Perm, g: Perm) -> Perm:
    """Return g * p * g^{-1}."""
    return g * p * g.inverse()


def extended(p: Perm, degree: int) -> Perm:
    """The same permutation acting on a larger point set (new points fixed)."""
    if degree < p.degree:
        raise ValueError("cannot shrink a permutation")
    return Perm(p.images + tuple(range(p.degree, degree)))


def product_indices(locator: BaseLocator, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """locator.products(A, B), after both blocks are checked to be elements
    (ElementNotInGroup otherwise)."""
    locator.locate(A)
    locator.locate(B)
    return locator.products(A, B)


def centralizer_count(G: Group, g: Perm) -> int:
    """|Z(g)| in G."""
    return int(_commuting_counts(G.arr, G.arr[[G.index(g)]])[0])


def class_generates(G: Group, C: ConjClass) -> bool:
    """Does the subgroup generated by the class equal G?  Each generator taken
    is the first member outside the subgroup generated so far."""
    if C.is_trivial():
        raise ValueError("trivial class never generates a nontrivial group")
    members = G.locator.locate(C.arr)
    in_sub = np.zeros(G.order, dtype=bool)
    gens = []
    while not in_sub[members].all():
        gens.append(C.arr[np.argmin(in_sub[members])])
        sub = _closure(gens, G.degree, cap=G.order)
        if len(sub) == G.order:
            return True
        in_sub[G.locator.locate(sub)] = True
    return False


def is_simple_via_classes(G: Group) -> bool:
    """True iff every nontrivial conjugacy class generates G."""
    if G.order <= 1:
        raise ValueError("simplicity test needs |G| > 1")
    return all(class_generates(G, c) for c in G.classes() if not c.is_trivial())
