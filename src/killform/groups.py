"""Permutation groups, conjugacy classes, centralizers, named constructors.

Groups are fully enumerated: the survey operates at desk scale, default cap
10^5 elements.  A group is stored as one array: its element image rows, in
lexicographic order, enumerated from a base and strong generating set found
by Schreier–Sims (Sims 1970); a conjugacy class is stored the same way, as
its member rows.  `Group.locator`, built from the same stabiliser chain as
the elements, finds elements, their products and conjugates among them by
the images of its base, one integer table per base point; every element
lookup goes through it.  `Group.class_map` gives the class of every element,
read off one labelling of the elements by their least conjugate, and
`Group.class_products` the classes of its products with the class
representatives, which give the structure constants.
"""
from __future__ import annotations

import re
from collections.abc import Iterator
from functools import cached_property
from itertools import permutations as _itt_permutations
from math import factorial, lcm, prod
from pathlib import Path

import numpy as np

from .errors import CapExceeded, DegreeMismatch, ElementNotInGroup, UnknownSpec
from .gf import GFField, projective_perms, projective_points
from .perms import Perm

DEFAULT_ELEMENT_CAP = 100_000

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _class_letter(i: int) -> str:
    """Bijective base 26: A..Z, AA..ZZ, AAA, ..."""
    letters = ""
    while i >= 0:
        i, r = divmod(i, 26)
        letters = _LETTERS[r] + letters
        i -= 1
    return letters


def _row_dtype(degree: int) -> np.dtype:
    if degree > 65535:  # the element cap would no longer bound the memory of wider rows
        raise CapExceeded(f"degree {degree} is above the limit of 65535 points")
    return np.dtype(np.uint8 if degree <= 255 else np.uint16)


class BaseLocator:
    """Finds elements of a group by their images of a base (Sims 1970).

    ``arr`` holds the group's element rows, identity first, and ``base`` the
    base of the stabiliser chain they were formed from (`_closure`), so the
    images of the base determine an element.  Level i keeps an int32 table
    from (prefix state, position of x(beta_i) in the G-orbit of beta_i) to
    the next state, -1 where no element has that prefix; the last state is
    the row index in ``arr``.  ``preimages`` holds h^-1(beta) for each base
    point beta (rows) and element h (columns), in the row dtype.
    """

    def __init__(self, arr: np.ndarray, base: list[int], positions: list[np.ndarray],
                 tables: list[np.ndarray], preimages: np.ndarray):
        self.arr, self.base, self.positions, self.tables = arr, base, positions, tables
        self.preimages = preimages

    def locate(self, X: np.ndarray) -> np.ndarray:
        """Row index of each row of X; ElementNotInGroup if a row is absent."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.arr.shape[1]:
            raise ElementNotInGroup(f"rows of shape {X.shape} are not elements of degree "
                                    f"{self.arr.shape[1]}")
        state = np.zeros(len(X), dtype=np.int32)
        for beta, pos, table in zip(self.base, self.positions, self.tables):
            col = pos.take(X[:, beta], mode="clip")
            if (col < 0).any():
                raise ElementNotInGroup("a permutation row maps a base point outside its orbit")
            state = table[state, col]
            if (state < 0).any():
                raise ElementNotInGroup("a permutation row has no element with its base images")
        if (self.arr[state] != X).any():
            raise ElementNotInGroup("a permutation row is not an element of the group")
        return state

    def products(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row index of a * b for each row a of A and b of B, as a (len(A), len(B))
        array, for rows already known to be elements: only the base images
        a[b[beta]] of each product are formed, and nothing is checked, so a
        row outside the group gives a wrong index, not an error."""
        return self._walk((len(A), len(B)), (pos.take(A)[:, B[:, beta]]
                                             for beta, pos in zip(self.base, self.positions)))

    def conjugates(self, X: np.ndarray, H=slice(None)) -> np.ndarray:
        """Row index of h x h^-1 for each row x of X and h = arr[i], i in the
        index array H (all of G by default, read in place), as a (len(X), |H|)
        array; as for `products`, every row of X must be an element.  Only the
        base images h(x(h^-1(beta))) are formed, h^-1(beta) from ``preimages``."""
        rows = self.arr[H]
        cols = np.arange(len(rows))
        return self._walk((len(X), len(rows)),
                          (pos[rows[cols, X[:, pre[H]]]]
                           for pos, pre in zip(self.positions, self.preimages)))

    def _walk(self, shape, columns) -> np.ndarray:
        """Row indices of the given shape, from the orbit positions of the base
        images: one array of that shape per base point, in base order."""
        state = np.zeros(shape, dtype=np.int32)
        for col, table in zip(columns, self.tables):
            state *= table.shape[1]
            state += col
            state = table.ravel().take(state)
        return state


# bounds the entries of the Schreier generators sifted at once
_SIFT_ENTRIES = 1 << 20


class _Level:
    """One base point beta of a Schreier–Sims chain: the strong generators that
    fix the base points before it, and the orbit of beta under them with the
    row v_x (v_x(x) = beta) of each orbit point x."""

    def __init__(self, beta: int, identity: np.ndarray):
        self.beta, self.orbit, self.images = beta, [beta], []  # images: gens as lists
        self.gens, self.V = identity[None, :][:0], identity[None]
        self.pos = np.full(len(identity), -1, dtype=np.intp)
        self.pos[beta] = 0

    def add(self, s: np.ndarray) -> None:
        """Take s as a strong generator and close the orbit breadth-first: a
        point y = t(x) new from x by the generator t gets v_y = v_x t^-1."""
        self.gens = np.vstack([self.gens, s])
        self.images.append(s.tolist())
        known, seen, tree = len(self.orbit), set(self.orbit), []
        # the loop reaches the points it appends: s on the known points, then
        # every generator on the new ones
        for i, x in enumerate(self.orbit):
            for t in range(len(self.images)) if i >= known else [-1]:
                y = self.images[t][x]
                if y not in seen:
                    seen.add(y)
                    self.orbit.append(y)
                    tree.append((i, t))
        self.pos[self.orbit[known:]] = np.arange(known, len(self.orbit))
        self.V = np.concatenate([self.V, np.empty((len(tree), len(s)), dtype=s.dtype)])
        for y, (i, t) in enumerate(tree, start=known):
            self.V[y, self.gens[t]] = self.V[i]  # v_y(t(z)) = v_x(z)

    def schreier_generators(self, pairs: np.ndarray) -> np.ndarray:
        """The Schreier generator v_{s(x)} s v_x^-1 for each (orbit index of x,
        generator index of s) row of pairs, by its values at v_x(y): v_{s(x)}(s(y))."""
        x, s = np.take(self.orbit, pairs[:, 0]), self.gens[pairs[:, 1]]
        values = np.take_along_axis(self.V[self.pos[s[np.arange(len(s)), x]]], s, axis=1)
        out = np.empty_like(values)
        out[np.arange(len(s))[:, None], self.V[pairs[:, 0]]] = values
        return out


def _sift(chain: list[_Level], X: np.ndarray) -> np.ndarray:
    """Sift the rows of X in place through the levels of chain: at each level
    x becomes v_{x(beta)} x.  Returns the index of the level where each row
    dropped out, its image of beta outside the orbit; len(chain) if none."""
    drop = np.full(len(X), len(chain))
    alive = np.arange(len(X))
    for i, level in enumerate(chain):
        at = level.pos[X[alive, level.beta]]
        drop[alive[at < 0]] = i
        alive, at = alive[at >= 0], at[at >= 0]
        X[alive] = np.take_along_axis(level.V[at], X[alive], axis=1)
    return drop


def _stabiliser_chain(generators: np.ndarray, identity: np.ndarray, cap: int) -> list[_Level]:
    """A base and strong generating set of the group generated by the image
    rows ``generators``, by deterministic Schreier–Sims (Sims 1970), as its
    levels; CapExceeded as soon as the product of the orbit sizes exceeds cap.

    Each generator is sifted through the chain, and each level, deepest
    first, sifts its Schreier generators through the levels below it.  The
    first residue that is not the identity becomes a strong generator of the
    levels down to where it dropped out (of a new level at its first moved
    point if it sifted through), and the work resumes there; a level sifts
    all its Schreier generators again on each visit.  Each orbit is at most
    its index in the stabiliser chain of G, so the product exceeds cap only
    when |G| does.
    """
    chain: list[_Level] = []
    step = max(1, _SIFT_ENTRIES // len(identity))  # Schreier generators sifted at once

    def strengthen(h: np.ndarray, first: int, last: int) -> None:
        if last == len(chain):
            chain.append(_Level(int(np.argmax(h != identity)), identity))
        for level in chain[first:last + 1]:
            level.add(h)
        if prod(len(level.orbit) for level in chain) > cap:
            raise CapExceeded(f"group closure exceeds cap {cap}")

    for s in generators:
        h = s[None].copy()
        drop = _sift(chain, h)
        if (h != identity).any():
            strengthen(h[0], 0, drop[0])
    i = len(chain) - 1
    while i >= 0:
        level = chain[i]
        pairs = np.indices((len(level.orbit), len(level.gens))).reshape(2, -1).T
        for c in range(0, len(pairs), step):
            X = level.schreier_generators(pairs[c:c + step])
            drop = _sift(chain[i + 1:], X)
            bad = np.flatnonzero((X != identity).any(axis=1))
            if len(bad):
                strengthen(X[bad[0]], i + 1, i + 1 + drop[bad[0]])
                i += 1 + drop[bad[0]]
                break
        else:
            i -= 1
    return chain


def _closure(generators: np.ndarray, degree: int, cap: int) -> BaseLocator:
    """The locator of the group generated by the image rows ``generators``,
    its rows sorted lexicographically; CapExceeded as soon as the group has
    more than ``cap``.

    The base and strong generating set come first (`_stabiliser_chain`), so
    a group over the cap is refused before any of its elements is formed.
    The elements are then the products u_1 ... u_k, u_x = v_x^-1, of one row
    per level, each formed once, with no deduplication.  The same walk builds
    the locator: state s of level i is the prefix R_s = u_1 ... u_(i-1), and
    R_s u_x takes beta_i to R_s(x), as the later rows fix it.
    """
    identity = np.arange(degree, dtype=_row_dtype(degree))
    generators = np.asarray(generators, dtype=identity.dtype).reshape(-1, degree)
    chain = _stabiliser_chain(generators, identity, cap)
    base = [level.beta for level in chain]
    # rows: R_s for each state s; pre: R_s^-1(beta) for each base point beta
    rows, pre = identity[None], np.array(base, dtype=identity.dtype)[:, None]
    positions, tables = [], []
    while chain:
        level = chain.pop(0)
        images = rows[:, level.orbit]
        pos = np.full(degree, -1, dtype=np.int32)
        pos[images] = 0
        orbit = np.flatnonzero(pos == 0)  # the G-orbit of beta_i
        pos[orbit] = np.arange(len(orbit))
        table = np.full((len(rows), len(orbit)), -1, dtype=np.int32)
        np.put_along_axis(table, pos[images], np.arange(images.size).reshape(images.shape), 1)
        positions.append(pos)
        tables.append(table)
        pre = level.V.T[pre].reshape(len(base), -1)  # (R_s u_x)^-1 = v_x R_s^-1
        U = np.empty_like(level.V)
        np.put_along_axis(U, level.V, identity[None], 1)
        del level  # v_x is let go before the next rows are formed, and u_x after
        rows = rows[:, U].reshape(-1, degree)
        del U
    order = np.lexsort(rows.T[::-1])
    if tables:  # the last states become indices of the sorted rows
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        tables[-1] = np.where(tables[-1] < 0, -1, rank[tables[-1]])
    return BaseLocator(rows[order], base, positions, tables, pre[:, order])


class Group:
    """A permutation group held as ``arr``, the (order x degree) array of its
    element image rows in lexicographic order; the identity is row 0."""

    def __init__(self, degree: int, generators: list[Perm], locator: BaseLocator, name: str = ""):
        self.degree = degree
        self.generators = list(generators)
        self.locator = locator  # finds elements and products of elements among the rows
        self.arr = locator.arr
        self.order = len(self.arr)
        self.name = name or f"group of order {self.order}"
        self.identity = Perm.identity(degree)
        self._classes = None
        self._class_map = None

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """The elements as Perms, aligned with the rows of .arr."""
        return tuple(map(Perm, self.arr.tolist()))

    def __contains__(self, p: Perm) -> bool:
        try:
            return self.index(p) >= 0
        except ElementNotInGroup:
            return False

    def index(self, p: Perm) -> int:
        """Row of p in .arr; ElementNotInGroup if p is not an element."""
        if p.degree == self.degree:
            try:
                return int(self.locator.locate(np.array([p.images], dtype=self.arr.dtype))[0])
            except ElementNotInGroup:
                pass
        raise ElementNotInGroup(f"{p} not in {self.name}")

    def classes(self) -> list["ConjClass"]:
        if self._classes is None:
            self._classes = conjugacy_classes(self)
        return self._classes

    @property
    def class_map(self) -> np.ndarray:
        """Index into classes() of the class of each element, aligned with .arr."""
        self.classes()
        return self._class_map

    @cached_property
    def class_reps(self) -> np.ndarray:
        """The representative row of each class, aligned with classes()."""
        return np.array([c.arr[0] for c in self.classes()])

    def class_products(self) -> Iterator[np.ndarray]:
        """For each class C_i in turn, the (|C_i|, k) array of the classes of
        x^-1 z_l, for x in C_i and z_l the representative of class l (rows in
        the order of C_i^-1): every product of G with the representatives, one
        class of factors at a time."""
        reps, classes = self.class_reps, self.classes()
        inverses = np.argsort(reps, axis=1).astype(reps.dtype)
        # C_i^-1 is the class of z_i^-1; products of rows of G are in G, so
        # nothing is located twice
        for dual in self.class_map[self.locator.locate(inverses)]:
            yield self.class_map[self.locator.products(classes[dual].arr, reps)]

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """M[i][j][l] = #{x in C_i : x^-1 z_l in C_j}, z_l the representative of
        class l: the class sums multiply as C_i C_j = sum_l M[i][j][l] C_l."""
        k = len(self.classes())
        # x in C_i with x^-1 z_l in class j is counted at j*k + l
        return np.array([np.bincount((b * k + np.arange(k)).ravel(), minlength=k * k).reshape(k, k)
                         for b in self.class_products()])

    def class_index_of(self, p: Perm) -> int:
        """Index into classes() of the class containing p."""
        return int(self.class_map[self.index(p)])

    def centre(self) -> list[Perm]:
        """The elements alone in their class, in the order of .arr."""
        sizes = np.array([c.size for c in self.classes()])
        return [Perm(row) for row in self.arr[sizes[self.class_map] == 1].tolist()]

    def exponent(self) -> int:
        return lcm(*(c.element_order for c in self.classes()))

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order}, degree={self.degree})"


class ConjClass:
    """A conjugacy class held as ``arr``, the (size x degree) array of its
    member image rows in lexicographic order; the representative is row 0."""

    def __init__(self, arr: np.ndarray, label: str = ""):
        self.arr = arr
        self.label = label
        self.size, self.degree = arr.shape
        self.representative = Perm(self.arr[0].tolist())
        self.element_order = self.representative.order()

    @cached_property
    def members(self) -> tuple[Perm, ...]:
        """The members as Perms, aligned with the rows of .arr."""
        return tuple(map(Perm, self.arr.tolist()))

    def is_trivial(self) -> bool:
        return self.size == 1 and self.representative.is_identity()

    def __contains__(self, p: Perm) -> bool:
        return p.degree == self.degree and bool((self.arr == p.images).all(axis=1).any())

    @property
    def is_real(self) -> bool:
        return self.representative.inverse() in self

    def commuting_count(self, X: np.ndarray) -> np.ndarray:
        """|Z(x) ∩ C| for each row x of X."""
        return _commuting_counts(self.arr, X)

    def __repr__(self) -> str:
        return f"ConjClass({self.label or str(self.representative)}, size={self.size})"


# bounds the (members, rows, degree) temporaries of _commuting_counts
_COMMUTING_ENTRIES = 1 << 20


def _commuting_counts(members: np.ndarray, X: np.ndarray) -> np.ndarray:
    """For each row x of X, the number of rows c of members with cx = xc,
    taking rows of X in blocks of about _COMMUTING_ENTRIES compared entries."""
    step = max(1, _COMMUTING_ENTRIES // members.size)
    counts = np.empty(len(X), dtype=np.int64)
    for i in range(0, len(X), step):
        B = X[i:i + step]
        # cx[j] = c[x[j]] and xc[j] = x[c[j]], laid out as (member, row, point)
        cx = members[:, B]
        xc = B[:, members].transpose(1, 0, 2)
        counts[i:i + step] = (cx == xc).all(axis=2).sum(axis=0)
    return counts


def generate_group(generators: list[Perm], name: str = "", degree: int | None = None,
                   cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Enumerate the group generated by ``generators`` (Schreier–Sims)."""
    if generators:
        degrees = {g.degree for g in generators}
        if len(degrees) != 1:
            raise DegreeMismatch(f"generators of mixed degrees {sorted(degrees)}")
        if degree is not None and degree != degrees.pop():
            raise DegreeMismatch("explicit degree disagrees with generators")
        degree = generators[0].degree
    elif degree is None:
        raise DegreeMismatch("empty generating set needs an explicit degree")
    return Group(degree, generators, _closure([g.images for g in generators], degree, cap),
                 name=name)


def conjugacy_classes(G: Group) -> list[ConjClass]:
    """Classes of G sorted by (element order, size, members), labelled nA, nB, ...

    Each generator g acts on element indices by h -> g h g^-1, read off the
    base images of the conjugates (`BaseLocator.conjugates`); the classes are
    the orbits of these index permutations.  Every element is labelled with
    the least index of its orbit by min-label propagation: each step takes
    the least of an element's label, the labels of its images and preimages,
    then the label of that label, until no label moves.  Elements are sorted,
    so the least index in a class is its lexicographically smallest member,
    the representative.  Also fills G's class map.
    """
    arr = G.arr
    gens = np.array([g.images for g in G.generators], dtype=arr.dtype).reshape(-1, G.degree)
    # each generator's row in arr, as the product g * e, from its base images
    conj = G.locator.conjugates(arr, G.locator.products(gens, arr[:1])[:, 0]).T
    label, last = np.arange(G.order), None
    while not np.array_equal(label, last):
        last, label = label, label.copy()
        for c in conj:
            np.minimum(label, label[c], out=label)
            label[c] = np.minimum(label[c], label)  # c is a permutation: no index repeats
        label = label[label]
    members = np.argsort(label, kind="stable")
    seeds, sizes = np.unique(label, return_counts=True)
    raw = []
    for seed, idx in zip(seeds.tolist(), np.split(members, np.cumsum(sizes)[:-1])):
        cl = ConjClass(arr[idx])
        raw.append((cl.element_order, cl.size, seed, idx, cl))
    raw.sort(key=lambda t: t[:3])
    G._class_map = np.empty(G.order, dtype=np.intp)
    by_order: dict[int, int] = {}
    for ci, (order, _, _, idx, cl) in enumerate(raw):
        G._class_map[idx] = ci
        i = by_order.get(order, 0)
        by_order[order] = i + 1
        cl.label = f"{order}{_class_letter(i)}"
    return [t[-1] for t in raw]


# ---------------------------------------------------------------------------
# direct construction of symmetric-group classes (no S_n enumeration)

def _full_cycle_type(n: int, mu) -> tuple[int, ...]:
    mu = tuple(sorted((int(m) for m in mu), reverse=True))
    if any(m < 1 for m in mu) or sum(mu) > n:
        raise ValueError(f"bad cycle type {mu} for degree {n}")
    return mu + (1,) * (n - sum(mu))


def class_size(n: int, mu) -> int:
    """|C_mu| in S_n: n! / prod(k^m_k m_k!) over cycle lengths k (mu may omit its 1s)."""
    mu = tuple(mu) + (1,) * (n - sum(mu))
    z = 1
    for k in set(mu):
        m = mu.count(k)
        z *= k**m * factorial(m)
    return factorial(n) // z


def _perms_of_cycle_type(n: int, lens: tuple[int, ...]):
    """All images-tuples in S_n whose nontrivial cycle lengths are ``lens``.

    Each cycle is anchored at its smallest point, and anchors are taken in
    increasing order, so every permutation comes out exactly once.
    """
    big = sorted((l for l in lens if l >= 2), reverse=True)

    def rec(remaining: tuple, todo: tuple, acc: list):
        if not todo:
            yield list(acc)
            return
        anchor = remaining[0]
        rest = remaining[1:]
        tried = set()
        for k, l in enumerate(todo):
            if l in tried:
                continue
            tried.add(l)
            sub = todo[:k] + todo[k + 1:]
            for tail in _itt_permutations(rest, l - 1):
                cyc = (anchor,) + tail
                left = tuple(x for x in rest if x not in set(tail))
                yield from rec(left, sub, acc + [cyc])
        # anchor may also stay fixed, provided enough points remain for todo
        if sum(todo) <= len(rest):
            yield from rec(rest, todo, acc)

    for cycs in rec(tuple(range(n)), tuple(big), []):
        images = list(range(n))
        for cyc in cycs:
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        yield tuple(images)


def symmetric_class(n: int, mu) -> ConjClass:
    """The conjugacy class of S_n with cycle type mu, built combinatorially.

    Works even when S_n itself is too big to enumerate; this is how the
    2-cycles classes of large symmetric groups are analysed.
    """
    dtype, lens = _row_dtype(n), _full_cycle_type(n, mu)
    arr = np.array(sorted(_perms_of_cycle_type(n, lens)), dtype=dtype)
    return ConjClass(arr, label=",".join(str(l) for l in lens))


# ---------------------------------------------------------------------------
# named constructors

def symmetric_group(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    if n < 1:
        raise UnknownSpec("S_n needs n >= 1")
    if n == 1:
        return generate_group([], name="S1", degree=1, cap=cap)
    _row_dtype(n)  # refuse an over-wide degree before building its n-cycle
    gens = [Perm.from_cycles([(0, 1)], n), Perm.from_cycles([tuple(range(n))], n)]
    return generate_group(gens, name=f"S{n}", cap=cap)


def alternating_group(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    if n < 1:
        raise UnknownSpec("A_n needs n >= 1")
    if n <= 2:
        return generate_group([], name=f"A{n}", degree=max(n, 1), cap=cap)
    _row_dtype(n)  # refuse an over-wide degree before building its long cycle
    if n == 3:
        gens = [Perm.from_cycles([(0, 1, 2)], 3)]
    elif n % 2 == 1:
        gens = [Perm.from_cycles([(0, 1, 2)], n), Perm.from_cycles([tuple(range(n))], n)]
    else:
        gens = [Perm.from_cycles([(0, 1, 2)], n), Perm.from_cycles([tuple(range(1, n))], n)]
    return generate_group(gens, name=f"A{n}", cap=cap)


def psl2(q: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """PSL(2,q) acting on the q+1 points of the projective line.

    Points: (1:x) at index x (integer encoding), infinity (0:1) at q.
    Generators: x -> x+1, x -> m*x, x -> -1/x, where m = w for even q and w^2
    for odd q (w a primitive element) so the multiplier has square determinant.
    """
    F = GFField(q)
    m = F.generator if q % 2 == 0 else F.mul(F.generator, F.generator)
    matrices = [[[1, 0], [1, 1]], [[1, 0], [0, m]], [[0, 1], [F.neg(1), 0]]]
    gens = projective_perms(F, matrices, projective_points(F, 2))
    return generate_group(gens, name=f"PSL(2,{q})", cap=cap)


def psl3(q: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """PSL(3,q) acting on the q^2+q+1 points of the projective plane.

    SL(3,q) is generated by the transvections E12(w^i) plus the cyclic
    coordinate shift; scalars act trivially on points, so the permutation
    image is PSL(3,q).
    """
    F = GFField(q)
    matrices = [[[1, F.pow(F.generator, i), 0], [0, 1, 0], [0, 0, 1]] for i in range(F.k)]
    matrices.append([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    gens = projective_perms(F, matrices, projective_points(F, 3))
    return generate_group(gens, name=f"PSL(3,{q})", cap=cap)


def parse_group_file(path) -> tuple[str, int, list[Perm]]:
    """Read the text generator format: `name X`, `degree n`, then 1-based cycles."""
    name = None
    degree = None
    gens = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UnknownSpec(f"{path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name "):
            if name is not None:
                raise UnknownSpec(f"{path}:{lineno}: a second name line (name is {name})")
            name = line[5:].strip()
        elif line.startswith("degree "):
            if degree is not None:
                raise UnknownSpec(f"{path}:{lineno}: a second degree line (degree is {degree})")
            text = line[7:].strip()
            degree = int(text) if text.isdecimal() else 0
            if degree < 1:
                raise UnknownSpec(f"{path}:{lineno}: degree must be at least 1, not {text}")
            _row_dtype(degree)  # refuse a degree too large before reading any generator
        else:
            if degree is None:
                raise UnknownSpec(f"{path}:{lineno}: generator before degree line")
            try:
                gens.append(Perm.parse(line, degree))
            except ValueError as exc:
                raise UnknownSpec(f"{path}:{lineno}: {exc}") from None
    if name is None or degree is None:
        raise UnknownSpec(f"{path}: missing name/degree header")
    return name, degree, gens


_SPEC_RE = re.compile(
    r"^(?:S(?P<sn>\d+)|A(?P<an>\d+)|PSL\(\s*2\s*,\s*(?P<q2>\d+)\s*\)|"
    r"PSL\(\s*3\s*,\s*(?P<q3>\d+)\s*\)|file:(?P<path>.+))$"
)


def build_named_group(spec: str, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Grammar: "S<n>" | "A<n>" | "PSL(2,<q>)" | "PSL(3,<q>)" | "file:<path>"."""
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise UnknownSpec(f"unrecognized group spec {spec!r}")
    if m.group("sn"):
        return symmetric_group(int(m.group("sn")), cap=cap)
    if m.group("an"):
        return alternating_group(int(m.group("an")), cap=cap)
    if m.group("q2"):
        return psl2(int(m.group("q2")), cap=cap)
    if m.group("q3"):
        return psl3(int(m.group("q3")), cap=cap)
    name, degree, gens = parse_group_file(m.group("path"))
    return generate_group(gens, name=name, degree=degree, cap=cap)
