"""Permutation and group checks that only the tests need.

The sign, conjugate and extension of a single Perm, products of rows checked
to be elements, centraliser orders from a direct commuting count, the
breadth-first closure of generators and the centre from their commuting, and
the simplicity test by class generation: each nontrivial class of a simple
group generates it.
"""
import numpy as np

from killform.errors import CapExceeded
from killform.groups import (BaseLocator, ConjClass, Group, _closure, _commuting_counts,
                             _row_dtype)
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


def bfs_closure(generators: np.ndarray, degree: int, cap: int) -> np.ndarray:
    """`groups._closure` by breadth-first search: each row is held as one
    opaque bytes key; each step maps the frontier through every generator and
    inserts the keys not yet among the sorted keys seen, the next frontier."""
    generators = np.asarray(generators, dtype=_row_dtype(degree)).reshape(-1, degree)
    key = np.dtype((np.void, degree * generators.itemsize))
    seen = frontier = np.arange(degree, dtype=generators.dtype).view(key)
    while len(frontier):
        rows = frontier.view(generators.dtype).reshape(-1, degree)
        keys = np.unique(np.ascontiguousarray(generators[:, rows]).view(key))
        at = np.searchsorted(seen, keys)
        new = seen[np.minimum(at, len(seen) - 1)] != keys
        if len(seen) + new.sum() > cap:
            raise CapExceeded(f"group closure exceeds cap {cap}")
        seen = np.insert(seen, at[new], keys[new])
        frontier = keys[new]
    rows = seen.view(generators.dtype).reshape(-1, degree)
    return rows[np.lexsort(rows.T[::-1])]


def centre(G: Group) -> list[Perm]:
    """The elements of G that commute with every generator, in .arr order."""
    mask = np.ones(G.order, dtype=bool)
    for g in G.generators:
        g = np.array(g.images)
        mask &= (G.arr[:, g] == g[G.arr]).all(axis=1)
    return [Perm(row) for row in G.arr[mask].tolist()]


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
        sub = _closure(gens, G.degree, cap=G.order).arr
        if len(sub) == G.order:
            return True
        in_sub[G.locator.locate(sub)] = True
    return False


def is_simple_via_classes(G: Group) -> bool:
    """True iff every nontrivial conjugacy class generates G."""
    if G.order <= 1:
        raise ValueError("simplicity test needs |G| > 1")
    return all(class_generates(G, c) for c in G.classes() if not c.is_trivial())
