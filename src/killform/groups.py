"""Permutation groups, conjugacy classes, centralizers, named constructors.

Groups are fully enumerated: the survey operates at desk scale, default cap
10^5 elements.  A group is stored as one array: its element image rows, in
lexicographic order, built by a breadth-first closure on whole arrays of
rows; a conjugacy class is stored the same way, as its member rows.
`Group.locator` finds elements, and products of elements, among them by the
images of a base (Sims 1970) through one integer table per base point; every
element lookup goes through it.  `Group.class_map` gives the class of every
element.
"""
from __future__ import annotations

import re
from functools import cached_property
from itertools import permutations as _itt_permutations
from math import factorial, lcm
from pathlib import Path

import numpy as np

from .errors import BadField, CapExceeded, DegreeMismatch, ElementNotInGroup, UnknownSpec
from .gf import GFField
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
    return np.dtype(np.uint8 if degree <= 255 else np.uint16)


class BaseLocator:
    """Finds elements of a group by their images of a base (Sims 1970).

    ``arr`` holds the group's element rows, identity first.  Each base point
    is the first point moved by the pointwise stabiliser of the points before
    it, so the images of the base determine an element.  Level i keeps an
    int32 table from (prefix state, position of x(beta_i) in the G-orbit of
    beta_i) to the next state, -1 where no element has that prefix; the last
    state is the row index in ``arr``.
    """

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        order, degree = arr.shape
        self.base = []
        stab = arr
        while len(stab) > 1:
            beta = int(np.argmax((stab != np.arange(degree)).any(axis=0)))
            self.base.append(beta)
            stab = stab[stab[:, beta] == beta]
        self.positions, self.tables = [], []
        state, n_states = np.zeros(order, dtype=np.int32), 1
        for level, beta in enumerate(self.base):
            orbit = np.unique(arr[:, beta])
            pos = np.full(degree, -1, dtype=np.int32)
            pos[orbit] = np.arange(len(orbit), dtype=np.int32)
            key = state * len(orbit) + pos[arr[:, beta]]
            prefixes, nxt = np.unique(key, return_inverse=True)
            if level == len(self.base) - 1:
                if len(prefixes) != order:
                    raise ValueError("the images of the base do not determine the elements")
                nxt = np.arange(order)
            table = np.full((n_states, len(orbit)), -1, dtype=np.int32)
            table.ravel()[key] = nxt
            self.positions.append(pos)
            self.tables.append(table)
            state, n_states = nxt.astype(np.int32), len(prefixes)

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

    def product_indices(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row index of a * b for each row a of A and b of B, as a (len(A), len(B)) array.

        Both blocks are checked to be elements; their products then are too,
        so only the base images a[b[beta]] of each product are formed.
        """
        self.locate(A)
        self.locate(B)
        state = np.zeros((len(A), len(B)), dtype=np.int32)
        for beta, pos, table in zip(self.base, self.positions, self.tables):
            state *= table.shape[1]
            state += pos[A][:, B[:, beta]]
            state = table.ravel().take(state)
        return state


def _closure(generators: np.ndarray, degree: int, cap: int) -> np.ndarray:
    """Rows of the group generated by the image rows ``generators``, sorted
    lexicographically; CapExceeded as soon as the group has more than ``cap``.

    Each row is held as one opaque bytes key.  Breadth-first: each step maps
    the frontier through every generator and inserts the keys not yet among
    the sorted keys seen; they are the next frontier.
    """
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


class Group:
    """A permutation group held as ``arr``, the (order x degree) array of its
    element image rows in lexicographic order; the identity is row 0."""

    def __init__(self, degree: int, generators: list[Perm], arr: np.ndarray, name: str = ""):
        self.degree = degree
        self.generators = list(generators)
        self.arr = arr
        self.order = len(arr)
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

    @cached_property
    def locator(self) -> BaseLocator:
        """Finds elements and products of elements among the rows of .arr."""
        return BaseLocator(self.arr)

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

    def class_index_of(self, p: Perm) -> int:
        """Index into classes() of the class containing p."""
        return int(self.class_map[self.index(p)])

    def centre(self) -> list[Perm]:
        gen_arrs = [np.array(g.images) for g in self.generators]
        arr = self.arr
        mask = np.ones(self.order, dtype=bool)
        for g in gen_arrs:
            mask &= (arr[:, g] == g[arr]).all(axis=1)
        return [Perm(row) for row in arr[mask].tolist()]

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
    """Enumerate the group generated by ``generators`` (BFS closure)."""
    if generators:
        degrees = {g.degree for g in generators}
        if len(degrees) != 1:
            raise DegreeMismatch(f"generators of mixed degrees {sorted(degrees)}")
        if degree is not None and degree != degrees.pop():
            raise DegreeMismatch("explicit degree disagrees with generators")
        degree = generators[0].degree
    elif degree is None:
        raise DegreeMismatch("empty generating set needs an explicit degree")
    arr = _closure([g.images for g in generators], degree, cap)
    return Group(degree, generators, arr, name=name)


def conjugacy_classes(G: Group) -> list[ConjClass]:
    """Classes of G sorted by (element order, size, members), labelled nA, nB, ...

    Each generator g acts on element indices by h -> g h g^-1; the classes are
    the orbits of these index permutations.  Elements are sorted, so the
    smallest index in a class is its lexicographically smallest member, the
    representative.  Also fills G's class map.
    """
    arr = G.arr
    conj = []
    for g in G.generators:
        g_arr = np.asarray(g.images, dtype=arr.dtype)
        conj.append(G.locator.locate(g_arr[arr[:, np.argsort(g_arr)]]))
    unseen = np.ones(G.order, dtype=bool)
    raw = []
    left, seed = G.order, 0
    while left:
        # the first unseen index; argmax of a bool array stops at the first True
        seed += int(np.argmax(unseen[seed:]))
        unseen[seed] = False
        layers = [np.array([seed])]
        while layers[-1].size:
            frontier = np.unique(np.array([c[layers[-1]] for c in conj], dtype=np.intp))
            layers.append(frontier[unseen[frontier]])
            unseen[layers[-1]] = False
        idx = np.sort(np.concatenate(layers))
        left -= idx.size
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
    lens = _full_cycle_type(n, mu)
    arr = np.array(sorted(_perms_of_cycle_type(n, lens)), dtype=_row_dtype(n))
    return ConjClass(arr, label=",".join(str(l) for l in lens))


# ---------------------------------------------------------------------------
# named constructors

def symmetric_group(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    if n < 1:
        raise UnknownSpec("S_n needs n >= 1")
    if n == 1:
        return generate_group([], name="S1", degree=1, cap=cap)
    gens = [Perm.from_cycles([(0, 1)], n), Perm.from_cycles([tuple(range(n))], n)]
    return generate_group(gens, name=f"S{n}", cap=cap)


def alternating_group(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    if n < 1:
        raise UnknownSpec("A_n needs n >= 1")
    if n <= 2:
        return generate_group([], name=f"A{n}", degree=max(n, 1), cap=cap)
    if n == 3:
        gens = [Perm.from_cycles([(0, 1, 2)], 3)]
    elif n % 2 == 1:
        gens = [Perm.from_cycles([(0, 1, 2)], n), Perm.from_cycles([tuple(range(n))], n)]
    else:
        gens = [Perm.from_cycles([(0, 1, 2)], n), Perm.from_cycles([tuple(range(1, n))], n)]
    return generate_group(gens, name=f"A{n}", cap=cap)


def psl2(q: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """PSL(2,q) acting on the q+1 points of the projective line.

    Points: field elements at indices 0..q-1 (integer encoding), infinity at q.
    Generators: x -> x+1, x -> m*x, x -> -1/x, where m = w for even q and w^2
    for odd q (w a primitive element) so the multiplier has square determinant.
    """
    F = GFField(q)
    inf = q
    t = [0] * (q + 1)
    for e in range(q):
        t[e] = F.add(e, 1)
    t[inf] = inf
    m = F.generator if q % 2 == 0 else F.mul(F.generator, F.generator)
    w = [F.mul(m, e) for e in range(q)] + [inf]
    s = [0] * (q + 1)
    s[0] = inf
    s[inf] = 0
    for e in range(1, q):
        s[e] = F.neg(F.inv(e))
    gens = [Perm(t), Perm(w), Perm(s)]
    return generate_group(gens, name=f"PSL(2,{q})", cap=cap)


def psl3(q: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """PSL(3,q) acting on the q^2+q+1 points of the projective plane.

    SL(3,q) is generated by the transvections E12(w^i) plus the cyclic
    coordinate shift; scalars act trivially on points, so the permutation
    image is PSL(3,q).
    """
    F = GFField(q)
    points = [(1, b, c) for b in range(q) for c in range(q)]
    points += [(0, 1, c) for c in range(q)]
    points.append((0, 0, 1))
    index = {v: i for i, v in enumerate(points)}

    def normalize(v):
        for x in v:
            if x:
                xi = F.inv(x)
                return tuple(F.mul(xi, y) for y in v)
        raise ValueError("zero vector")

    def perm_of_matrix(M):
        images = []
        for v in points:
            u = tuple(
                F.add(F.add(F.mul(M[r][0], v[0]), F.mul(M[r][1], v[1])), F.mul(M[r][2], v[2]))
                for r in range(3)
            )
            images.append(index[normalize(u)])
        return Perm(images)

    gens = []
    for i in range(F.k):
        lam = F.pow(F.generator, i) if F.k > 1 else 1
        gens.append(perm_of_matrix([[1, lam, 0], [0, 1, 0], [0, 0, 1]]))
    gens.append(perm_of_matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    return generate_group(gens, name=f"PSL(3,{q})", cap=cap)


def parse_group_file(path) -> tuple[str, int, list[Perm]]:
    """Read the text generator format: `name X`, `degree n`, then 1-based cycles."""
    name = None
    degree = None
    gens = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name "):
            name = line[5:].strip()
        elif line.startswith("degree "):
            degree = int(line[7:].strip())
            if degree < 1:
                raise UnknownSpec(f"{path}:{lineno}: degree must be at least 1, not {degree}")
        else:
            if degree is None:
                raise UnknownSpec(f"{path}:{lineno}: generator before degree line")
            gens.append(Perm.parse(line, degree))
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
    if not gens:
        return generate_group([], name=name, degree=degree, cap=cap)
    g = generate_group(gens, name=name, cap=cap)
    if g.degree != degree:
        raise DegreeMismatch(f"{spec}: header degree {degree} != generator degree {g.degree}")
    return g
