"""Killing forms K(x_a, x_b) = |Z(ab) ∩ C| of class calculi, and their analysis.

Every form is a class function of a product: |Z(x) ∩ C| is invariant under
conjugation, so K[a][b] = phi_C(ab) with phi_C the conjugation character,
evaluated once per class of G; the universal form takes phi = |Z| - 1.  The
brute-force double loop over |Z(ab) ∩ C| is a test oracle
(killing_matrix_bruteforce in tests/form_oracle.py).

A form is formed lazily (_FormMatrix): its dimension is known at once, the
rows a caller asks for are formed on request, and the dense matrix only on
the first read of `.data`.  A class form built by killing_matrix with its
group carries its orbital data (KillingForm.orbital): the r rows at the
first members x_s of the orbits of the centraliser Z(g) on C, r * |C|
entries instead of |C|^2 (_orbital_data).  lambda_max, the component count,
the signature, the spectrum and decomposition (one eigensolve) and the
Casimir all come from them.  The signature is decided one block per
rational central idempotent of QG, on matrices of total size r = sum of
m_i^2 (_orbital_signature).  A universal form built by universal_killing is
one component, and its signature comes in closed form from Roth's property
(_universal_signature).  Every other form, a matrix handed in among them, is
analysed as a matrix: `signature`, `spectrum` and `connected_components` of
the dense matrix, which stay the test oracle.  The per-class values, Roth's
property and the idempotents come from `characters`, imported one way.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import characters
from .errors import CapExceeded, NotCentral, ProjectorMismatch, RowSumMismatch, SingularMatrix
from .exactlinalg import (
    IntSymMatrix,
    Signature,
    SpectrumEntry,
    _clustered_eigh,
    _lift_nullspace,
    _pivot_columns,
    connected_components,
    signature,
    spectrum,
)
from .groups import ConjClass, Group, class_size

MATRIX_CAP = 4096


@dataclass
class KillingAnalysis:
    is_real: bool | None
    lambda_max: int | None
    component_count: int
    signature: Signature
    nondegenerate: bool
    chi_on_class: int | None


class KillingForm:
    """A form over the basis rows ``basis_arr``, aligned with those of ``matrix``."""

    def __init__(self, matrix: IntSymMatrix, basis_arr: np.ndarray,
                 group: Group | None = None, conj_class: ConjClass | None = None,
                 universal: bool = False, includes_identity: bool = False):
        self.matrix = matrix
        self.basis_arr = basis_arr
        self.group = group
        self.conj_class = conj_class
        self.universal = universal
        self.includes_identity = includes_identity
        self.analysis: KillingAnalysis | None = None

    @property
    def is_class_calculus(self) -> bool:
        return self.conj_class is not None

    @cached_property
    def orbital(self) -> _OrbitalData | None:
        """The orbital data (_orbital_data) of a class form built by
        killing_matrix with its group, formed on first read; None for every
        other form, which is read as a matrix."""
        built = isinstance(self.matrix, _FormMatrix) and self.conj_class is not None
        return _orbital_data(self) if built and self.group is not None else None

    def spectrum(self) -> list[SpectrumEntry]:
        """The eigenvalue clusters of the form, as exactlinalg.spectrum gives them.

        A class form built by killing_matrix with its group is solved on its
        orbital data (_OrbitalData.eigenspaces), without vectors: every
        eigenspace of K is a G-module inside CC = Ind_{Z(g)}^G 1, so it meets
        the Z(g)-fixed vectors, and its projector P commutes with conjugation,
        so its dimension is tr P = |C| P[g, g] = |C| Pi[0, 0].  These must be
        integers within PROJECTOR_TOL, at least 1 and summing to |C|, or
        ProjectorMismatch.  Other forms take the dense `eigh`.
        """
        C, orbital, tol = self.conj_class, self.orbital, characters.PROJECTOR_TOL
        if orbital is None:
            return spectrum(self.matrix)
        clusters, Pi, _ = orbital.eigenspaces
        raw = C.size * Pi[0]
        dims = np.rint(raw).astype(np.int64)
        if (np.abs(raw - dims) > tol).any() or dims.min() < 1 or dims.sum() != C.size:
            raise ProjectorMismatch(
                f"eigenspace dimensions of {self!r} are {np.round(raw, 6).tolist()}, not "
                f"positive integers within {tol} summing to |C| = {C.size}")
        return [SpectrumEntry(value=value, multiplicity=int(d), vectors=None, integral=integral)
                for (_, _, value, integral), d in zip(clusters, dims)]

    def __repr__(self) -> str:
        what = "universal" if self.universal else (self.conj_class.label or "class")
        return f"KillingForm({what}, dim={self.matrix.dim})"


# A row block of a form or of its orbital data holds about _BLOCK_BYTES at
# once: each caller counts the bytes per entry of everything it allocates for
# the block together (_block_rows).  The product walk (BaseLocator._walk)
# holds an int32 state, its next state and an int32 column of base-image
# positions, _WALK_BYTES an entry; gathering the per-element values at the
# state then holds the state and the int64 values, as many again.  Of budgets
# from 2^18 to 2^22 bytes, larger ones raised the peak memory of the M11 class
# decompositions (by 4 MB at 2^22) and smaller ones slowed `survey S8
# --matrix-cap 6000` (by 13% at 2^18).
_BLOCK_BYTES = 1 << 20
_WALK_BYTES = 12


def _block_rows(width: int, entry_bytes: int) -> int:
    """The rows of `width` entries, at entry_bytes each, that fit _BLOCK_BYTES; at least one."""
    return max(1, _BLOCK_BYTES // (width * entry_bytes))


class _FormMatrix(IntSymMatrix):
    """K[a][b] = phi(ab) over the basis rows, formed only where it is read:
    `rows` forms the rows asked for, and `data`, the whole matrix, is formed and
    checked on first read; `dim` costs nothing.  phi maps rows A and B of the
    group (basis rows, in any order) to the values phi(ab), a in A and b in B,
    of a class function."""

    def __init__(self, basis_arr: np.ndarray, phi):
        self.basis_arr = basis_arr
        self.phi = phi
        self.dim = len(basis_arr)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows idx, formed a block of rows at a time (_block_rows)."""
        out = np.empty((len(idx), self.dim), dtype=np.int64)
        step = _block_rows(self.dim, _WALK_BYTES)
        for i in range(0, len(idx), step):
            out[i:i + step] = self.phi(self.basis_arr[idx[i:i + step]], self.basis_arr)
        return out

    @cached_property
    def data(self) -> np.ndarray:
        return IntSymMatrix(self.rows(np.arange(self.dim))).data


def _class_function(G: Group, per_class):
    """(A, B) -> per_class[class of ab] for rows a of A and b of B, which the
    caller has checked are elements of G."""
    per_element = np.asarray(per_class, dtype=np.int64)[G.class_map]
    return lambda A, B: per_element[G.locator.products(A, B)]


def _cycle_lengths(X: np.ndarray) -> np.ndarray:
    """Each row's per-point cycle lengths, sorted: a key for its cycle type."""
    X = X.astype(np.intp)
    points = np.arange(X.shape[1])
    lengths = np.zeros_like(X)
    power, k = X, 1
    while True:
        lengths[(power == points) & (lengths == 0)] = k
        if lengths.all():
            lengths.sort(axis=1)
            return lengths
        power, k = np.take_along_axis(X, power, axis=1), k + 1


def _cycle_type_function(C: ConjClass):
    """(A, B) -> |Z(ab) ∩ C| for rows a of A and b of B, read by the cycle type
    of ab, for a full class C of S_n."""
    types = _cycle_lengths(C.arr)
    mu = [len(c) for c in C.representative.cycles()]
    if (types != types[0]).any() or C.size != class_size(C.degree, mu):
        raise ValueError(f"{C!r} is not a full conjugacy class of S_{C.degree}")
    by_type: dict[bytes, int] = {}

    def phi(X: np.ndarray) -> np.ndarray:
        types, first, inverse = np.unique(_cycle_lengths(X), axis=0,
                                          return_index=True, return_inverse=True)
        values = []
        for t, i in zip(types, first):
            key = t.tobytes()
            if key not in by_type:
                by_type[key] = int(C.commuting_count(X[i:i + 1])[0])
            values.append(by_type[key])
        return np.array(values, dtype=np.int64)[inverse.ravel()]

    return lambda A, B: np.array([phi(a[B]) for a in A])


def killing_matrix(G: Group | None, C: ConjClass, cap: int = MATRIX_CAP) -> KillingForm:
    """K[a][b] = |Z(ab) ∩ C| = phi_C(ab) over the class basis.

    phi_C is counted once per class of G, in one call.  With G None, C must be a
    full class of S_n (as symmetric_class builds it) and phi_C is read by the
    cycle type of the product; otherwise ValueError.
    """
    if C.is_trivial():
        raise ValueError("Killing form needs a nontrivial class")
    m = C.size
    if m > cap:
        raise CapExceeded(f"class size {m} exceeds matrix cap {cap}")
    if G is None:
        phi = _cycle_type_function(C)
    else:
        # the one check of C's rows: products of checked rows are not rechecked
        in_class = G.class_map[G.locator.locate(C.arr)]
        if (in_class != in_class[0]).any() or C.size != G.classes()[in_class[0]].size:
            raise ValueError(f"{C!r} is not a conjugacy class of {G.name}")
        phi = _class_function(G, characters.conjugation_character(G, C).values)
    return KillingForm(_FormMatrix(C.arr, phi), C.arr, group=G, conj_class=C)


def universal_killing(G: Group, cap: int = MATRIX_CAP, include_identity: bool = False) -> KillingForm:
    """K over the basis G \\ {e} with K[a][b] = |Z(ab)| - 1 = chi_W(ab).

    include_identity=True emits the full |G| x |G| matrix of chi_W values
    (diagnostic mode; the corner entry is chi_W(e) = |G| - 1).
    """
    if G.order < 2:
        raise ValueError("universal calculus needs |G| >= 2")
    basis_arr = G.arr[0 if include_identity else 1:]
    m = len(basis_arr)
    if m > cap:
        raise CapExceeded(f"universal basis size {m} exceeds matrix cap {cap}")
    phi = _class_function(G, characters.conjugation_character(G).values)
    return KillingForm(_FormMatrix(basis_arr, phi), basis_arr, group=G, universal=True,
                       includes_identity=include_identity)


def _universal_signature(K: KillingForm, seed: int = 0) -> Signature | None:
    """The signature of a universal form in closed form, or None when Roth's
    property fails.

    Let f = |Z| - 1 and t = #{g : g^2 = e}, e counted: the summed sizes of
    the classes of element order 1 or 2.  Over all of G the form
    is F[a][b] = f(ab) = (L_f J)[a][b]: L_f, the convolution by f, is
    symmetric and commutes with J, and acts on the i-th isotypic block as
    (|G| / d_i) * (m_i - [i trivial]) >= 0; on the trivial block that is
    |G| * (#classes - 1) > 0 for |G| >= 2.  Under Roth's property every m_i > 0,
    so L_f is positive definite, F = L_f^(1/2) J L_f^(1/2) has the inertia of
    J, ((|G| + t)/2, (|G| - t)/2, 0), and F is nonsingular.  Over G \\ {e},
    (F^-1)_ee = (L_f^-1)_ee > 0 is the inverse of the Schur complement of the
    rest, so by Haynsworth's inertia additivity the form loses (1, 0, 0).
    """
    G = K.group
    if not characters._roth_holds(G, seed=seed):
        return None
    t = sum(c.size for c in G.classes() if c.element_order <= 2)
    return Signature((G.order + t) // 2 - (not K.includes_identity), (G.order - t) // 2, 0)


class _OrbitalData:
    """A class form on the Z(g)-orbits O_1..O_r of C, g = x_1 the representative:
    first, the index in C of each orbit's first member x_s; orbit_of, the
    orbit of each member of C; w, the orbit sizes w_s; S = diag(w) L,
    L[s,t] = sum over b in O_t of K[x_s, b]; tau[a, j] = #{h in C_j :
    h g h^-1 = a} for each a in C; the first rows of the class sums,
    first_rows[j, t] = A_j[0, t]; and the eigensolve of the form on the
    orbits (eigenspaces), on first read.

    The class sums A_j[s, t] = #{h in C_j : h x_s h^-1 in O_t} are the sums
    over b in O_t of tau[moved[s, b], j], with moved[s, b] the index in C of
    c_s^-1 b c_s (formed on first read), so they are linear in tau's columns:
    class_sum(u) = sum_j u[j] A_j is one r x r, formed from tau u alone.
    moved is held in the narrowest unsigned dtype that indexes C: below
    65,536 members that is uint16, r * |C| * 2 bytes."""

    def __init__(self, first: np.ndarray, orbit_of: np.ndarray, w: np.ndarray, S: np.ndarray,
                 tau: np.ndarray, first_rows: np.ndarray, starts: np.ndarray, conjugated):
        self.first, self.orbit_of, self.w, self.S = first, orbit_of, w, S
        self.tau, self.first_rows, self.starts = tau, first_rows, starts
        self._conjugated = conjugated

    @cached_property
    def moved(self) -> np.ndarray:
        return self._conjugated()

    def class_sum(self, u: np.ndarray) -> np.ndarray:
        """sum_j u[j] A_j, reduced over the orbits a block of rows s at a time."""
        values, moved = self.tau @ u, self.moved
        out = np.empty((len(moved), len(self.starts)), dtype=np.int64)
        # the gathered int64 values, in one buffer for every block, and
        # np.take's intp copy of the narrow index
        step = _block_rows(moved.shape[1], 16)
        gathered = np.empty((min(step, len(moved)), moved.shape[1]), dtype=np.int64)
        for s in range(0, len(moved), step):
            block = moved[s:s + step]
            # every index is in range; under mode="raise" np.take would buffer its output
            np.take(values, block, out=gathered[:len(block)], mode="clip")
            out[s:s + step] = np.add.reduceat(gathered[:len(block)], self.starts, axis=1)
        return out

    @cached_property
    def eigenspaces(self) -> tuple[list[tuple[int, int, float, bool]], np.ndarray, list]:
        """The eigenvalue clusters (exactlinalg._clustered_eigh) of K on the
        orthonormal orbit indicators, Y = W^{-1/2} S W^{-1/2} with W = diag(w);
        Pi, whose column c is Pi_c[:, 0] for Y's projector Pi_c on cluster c;
        and on each cluster flagged integral its float eigenvectors W^{-1/2} Q_c
        of S v = lambda W v, None on the others.  Only those columns are kept."""
        root_w = np.sqrt(self.w)
        Q, clusters = _clustered_eigh(self.S / np.outer(root_w, root_w))
        Pi = np.add.reduceat(Q * Q[0], [start for start, _, _, _ in clusters], axis=1)
        return clusters, Pi, [Q[:, start:stop] / root_w[:, None] if integral else None
                              for start, stop, _, integral in clusters]


def _orbital_data(K: KillingForm) -> _OrbitalData | None:
    """The orbital form, tau and first rows of a class form built by
    killing_matrix with its group (read through KillingForm.orbital), which
    has checked that C's rows, in any order, are a class of G; None where S
    would not fit in int64.

    Only the r rows of K at the x_s are read, r * |C| entries.  K commutes
    with conjugation by construction: K[a][b] = phi(ab), and phi is read per
    class of G through class_map, so K[hah^-1][hbh^-1] = phi(h ab h^-1) =
    K[a][b].

    One conjugation of g by all of G gives, for every a in C, the count
    tau[a, j] = #{h in C_j : h g h^-1 = a}, the centraliser Z(g) (the h with
    h g h^-1 = g) and t_a, the first h with h g h^-1 = a.  Every other
    conjugate is then read off a product: y a y^-1 is the image of g under
    y t_a, so the Z(g)-orbits come from the products Z(g) x C.  The first
    rows, A_j[0, t] = sum over b in O_t of tau[b, j], are summed at once.
    With c_s = t_{x_s}: as h runs over C_j so does c_s^-1 h c_s, which takes
    x_s to b exactly when it takes g to c_s^-1 b c_s, so A_j[s, t] = sum over
    b in O_t of tau[c_s^-1 b c_s, j]: r * |C| products, not r * |G|.
    """
    G, C = K.group, K.conj_class
    in_C = np.full(G.order, -1, dtype=np.intp)
    in_C[G.locator.locate(C.arr)] = np.arange(C.size)
    # the Z(g)-orbits, each labelled by its first member, and S on them
    image = in_C[G.locator.conjugates(C.arr[:1])[0]]  # h -> h g h^-1, in C
    t = G.arr[np.unique(image, return_index=True)[1]]  # t[a], the first h with h g h^-1 = a
    first, orbit_of, w = np.unique(image[G.locator.products(G.arr[image == 0], t)].min(axis=0),
                                   return_inverse=True, return_counts=True)
    orbit_of, r = orbit_of.ravel(), len(first)
    by_orbit = np.argsort(orbit_of, kind="stable")
    starts = np.searchsorted(orbit_of[by_orbit], np.arange(r))
    # every row of K is a permutation of g's, the first of these
    g_row = K.matrix.rows(first[:1])
    if C.size ** 2 * max(int(g_row.max()), -int(g_row.min())) >= 1 << 62:
        return None  # S would not fit in int64
    # the rows at the x_s are formed with their columns in orbit order
    phi, x, in_orbits = K.matrix.phi, C.arr[first], C.arr[by_orbit]
    step = _block_rows(C.size, _WALK_BYTES)
    S = np.empty((r, r), dtype=np.int64)
    for s in range(0, r, step):
        S[s:s + step] = np.add.reduceat(phi(x[s:s + step], in_orbits), starts, axis=1)
    S *= w[:, None]
    if not np.array_equal(S, S.T):
        return None
    k = len(G.classes())
    tau = np.bincount(image * k + G.class_map, minlength=C.size * k).reshape(C.size, k)

    def conjugated() -> np.ndarray:
        # row s (c_s^-1 = t[x_s]^-1) and column b (the members in orbit order): c_s^-1 b c_s
        inverses, members = np.argsort(t[first], axis=1).astype(t.dtype), t[by_orbit]
        narrow = image.astype(np.min_scalar_type(C.size - 1))
        moved = np.empty((r, C.size), dtype=narrow.dtype)
        for s in range(0, r, step):
            moved[s:s + step] = narrow[G.locator.products(inverses[s:s + step], members)]
        return moved

    return _OrbitalData(first, orbit_of, w, S, tau, np.add.reduceat(tau[by_orbit], starts).T,
                        starts, conjugated)


def _orbital_signature(K: KillingForm, seed: int = 0) -> Signature | None:
    """The signature of a class form, decided on the Z(g)-orbits of C, g the
    representative, from its orbital data (KillingForm.orbital); None where
    the form has none, the group has no certified idempotents or an exact
    check fails.

    K commutes with conjugation, so on the isotypic part of the i-th irrep
    (degree d_i, multiplicity m_i in CC) it acts as B_i (x) I_{d_i} for an
    m_i x m_i block B_i, and its inertia is sum_i d_i * inertia(B_i).  The
    Z(g)-fixed vectors are spanned by the indicators of the orbits O_s
    (representatives x_s, sizes w_s); each isotypic part meets them in m_i
    dimensions, where K's form is S = diag(w) L, L[s,t] = sum over b in O_t
    of K[x_s, b], with inertia sum_i m_i * inertia(B_i).  A rational central
    idempotent e_O (characters.rational_idempotents) acts on the fixed
    vectors as E_O = (d/|G|) N_O, N_O = sum_j u[j] A_j with the class sums
    A_j of _orbital_data (u is equal on h and h^-1), formed one at a time
    from tau u (_OrbitalData.class_sum); their sum with the weights d must be
    exactly |G| I.  On an integer basis P of its image (_image_basis), P^T S P
    carries the O-part scaled by m where K carries it scaled by d.  Each block
    counts with the weight d/m, which is certified rather than read off the
    table: it is a / rho with rho = tr E_O = sum_O m_i^2, a = tr e_O on CC =
    sum_O d_i m_i and b = tr e_O on CG = sum_O d_i^2, and a^2 = b * rho
    holds only when d_i / m_i is the same on all of O (Cauchy-Schwarz).  Here
    a = (d/|G|) sum over h of u(h) #{x in C : hx = xh} = (d|C|/|G|) sum over
    h in Z(g) of u(h), and the last sum is N_O[0, 0], as O_1 = {g}.

    One rank certificate decides each block: P^T S P, nonsingular, has rank
    rho, so the rho columns of P are independent and span the image of E_O
    (an idempotent, whose rank is its trace).  Only where P^T S P is singular
    is the rank of P certified apart (`_lift_nullspace`).
    """
    G, C, orbital = K.group, K.conj_class, K.orbital
    if orbital is None:
        return None
    idempotents = characters.rational_idempotents(G)
    if idempotents is None:
        return None
    S, r = orbital.S, len(orbital.w)
    degrees = [d for d, _ in idempotents]
    if max(int(np.abs(u).max()) for _, u in idempotents) * G.order * max(degrees) \
            * len(degrees) >= 1 << 62:
        return None  # the sum of the d N_O would not fit in int64
    S_max, S_float = int(np.abs(S).max()), S.astype(np.float64)
    rng = random.Random(seed)
    total, unit = [0, 0, 0], np.zeros((r, r), dtype=np.int64)
    for d, u in idempotents:
        N_O = orbital.class_sum(u)
        unit += d * N_O
        rho = Fraction(d * int(np.trace(N_O)), G.order)
        if rho == 0:
            continue
        a = Fraction(d * C.size * int(N_O[0, 0]), G.order)
        if rho.denominator != 1 or a * a != d * int(u[0]) * rho:
            return None
        P = _image_basis(N_O, int(rho))
        if P is None:
            return None
        bound = S_max * int(np.abs(P).sum(axis=0).max()) ** 2
        if bound >= 1 << 62:
            return None  # P^T S P would not fit in int64
        if bound < 1 << 53:  # every partial sum is an integer below 2^53: exact in float64
            P_float = P.astype(np.float64)
            block = (P_float.T @ (S_float @ P_float)).astype(np.int64)
        else:
            block = P.T @ S @ P
        sig = signature(IntSymMatrix(block), seed=seed)
        if sig.zero:
            lifted = _lift_nullspace(P, rng)
            if lifted is None or lifted[0] < rho:
                return None
        part = [x * a / rho for x in sig.astuple()]
        if any(x.denominator != 1 for x in part):
            return None
        total = [x + int(y) for x, y in zip(total, part)]
    if not np.array_equal(unit, G.order * np.eye(r, dtype=np.int64)):
        return None  # the E_O do not sum to 1
    return Signature(*total) if sum(total) == C.size else None


def _image_basis(N: np.ndarray, rank: int) -> np.ndarray | None:
    """rank columns of N that should span its image, each divided by its
    content; None when a pick has no residual left.  The caller certifies
    that they do span it.

    The columns are picked in float (`_pivot_columns`), so that P^T S P is
    well conditioned and the float separation in `signature` decides; the
    raw columns of N are spread over many orders of magnitude.
    """
    picked = _pivot_columns(N.astype(np.float64), rank)
    if picked is None:
        return None
    P = N[:, picked]
    return P // np.gcd.reduce(P, axis=0)


def analyze(K: KillingForm, seed: int = 0) -> KillingForm:
    """Fill the analysis bundle: lambda_max, components, signature, chi.

    A class form built by killing_matrix with its group is read only on the
    r rows of its orbital data (KillingForm.orbital): lambda_max is the row
    sum sum_t L[0, t] at g, and since K >= 0 commutes with conjugation, the
    component of g is the union of the orbits that a search on the orbit
    graph (O_s ~ O_t iff L[s, t] != 0) reaches from O_1 = {g}, and G permutes
    the components transitively, so there are |C| / (sum of the reached w_t)
    of them.  A universal form built by universal_killing has K[a][b] =
    |Z(ab)| - 1 >= 1 for |G| >= 2, so it is one component.  Every other form,
    a matrix handed in among them, is read whole: its row sums
    (RowSumMismatch unless constant) and `connected_components`.

    The signature is decided by the first route that applies:
    - a universal form built by universal_killing, when Roth's property
      holds: in closed form (_universal_signature);
    - a class form with orbital data, when the group's rational central
      idempotents are certified (at most characters.CLASS_CAP classes) and
      every exact check passes: block by block on the Z(g)-orbits of C
      (_orbital_signature), each block weighted by d/m;
    - anything else (a matrix handed in, G None, the checks or the table
      fail): `signature` of the whole matrix.
    """
    M, orbital = K.matrix, K.orbital
    lam = chi = real = comps = sig = None
    if K.is_class_calculus:
        C = K.conj_class
        if orbital is not None:
            lam = int(orbital.S[0].sum())  # w_1 = 1
            reached = connected_components(IntSymMatrix(orbital.S))[0]
            comps = C.size // int(orbital.w[reached].sum())
            sig = _orbital_signature(K, seed=seed)
        else:
            sums = M.data.sum(axis=1)
            if not np.all(sums == sums[0]):
                raise RowSumMismatch(
                    f"row sums of {K!r} are not constant: {sorted(set(int(s) for s in sums))[:4]}"
                )
            lam = int(sums[0])
        chi = int(C.commuting_count(C.arr[:1])[0])
        real = C.is_real
    elif K.universal and isinstance(M, _FormMatrix):
        comps = 1
        sig = _universal_signature(K, seed=seed)
    if comps is None:
        comps = len(connected_components(M))
    if sig is None:
        sig = signature(M, seed=seed)
    K.analysis = KillingAnalysis(
        is_real=real,
        lambda_max=lam,
        component_count=comps,
        signature=sig,
        nondegenerate=sig.zero == 0,
        chi_on_class=chi,
    )
    return K


@dataclass
class CasimirExpansion:
    """Sum over a,b of K^{ab} * (a*b), re-expressed as q_e * e + sum of q_C * theta_C."""
    e_coeff: Fraction
    theta_coeffs: dict  # class label -> Fraction (zero coefficients dropped)

    def terms(self):
        yield ("e", self.e_coeff)
        for label in sorted(self.theta_coeffs):
            yield (f"theta[{label}]", self.theta_coeffs[label])

    def __str__(self) -> str:
        parts = []
        for name, q in self.terms():
            parts.append(f"{'-' if q < 0 else ('+' if parts else '')} {abs(q)}*{name}".strip())
        return " ".join(parts) if parts else "0"


def casimir(K: KillingForm) -> CasimirExpansion:
    """Quadratic Casimir sum_{a,b} K^{ab} * (a*b) of a nondegenerate class
    calculus built by killing_matrix, in the theta basis, solved on the
    Z(g)-orbits of C (KillingForm.orbital); NotCentral for any other form.

    K^-1 commutes with conjugation, so K^-1 e_g = sum_t y_t 1_{O_t} with
    L y = e_1 (O_1 = {g}).  CC = Ind_{Z(g)}^G 1, so by Frobenius reciprocity
    every irrep in CC has Z(g)-fixed vectors, and K is singular exactly when L
    is (SingularMatrix).  The first vector v of the verified nullspace of
    [L | -e_1] has L v[:r] = v_r e_1, so v_r = 0 makes v[:r] a null vector of
    L.  If L is singular, a column before the last is free, and v, 1 on the
    first free column and 0 on the others, has v_r = 0: the last column is
    free, or it is a pivot and e_1 is not in the image of L.  Otherwise
    y = v[:r] / v_r.  By conjugation, every element of
    the class C_j has the coefficient (|C| / |C_j|) * sum of y_{orbit(b)} over
    the b in C with gb in C_j, read from the one row of products g C.
    """
    if not K.is_class_calculus:
        raise ValueError("Casimir is defined for class calculi here")
    if K.group is None:
        raise ValueError("Casimir expansion needs the ambient group")
    G, C = K.group, K.conj_class
    orbital = K.orbital
    if orbital is None:
        raise NotCentral(f"{K!r} has no orbital form: it was not built by killing_matrix "
                         f"on a class of {G.name}, or S overflows int64")
    r = len(orbital.w)
    L = orbital.S // orbital.w[:, None]
    e_1 = np.eye(r, 1, dtype=np.int64)
    lifted = _lift_nullspace(np.hstack([L, -e_1]), random.Random(0x1A7E))
    if lifted is None:
        raise CapExceeded(f"the {r} x {r} orbital solve did not lift within 64 primes")
    v, den = lifted[2][0][:r], lifted[2][0][r]
    if den == 0:
        raise SingularMatrix(f"the {r} x {r} orbital form is singular")
    classes = G.class_map[G.locator.products(C.arr[:1], C.arr)[0]]  # the class of g b
    counts = np.bincount(classes * r + orbital.orbit_of, minlength=len(G.classes()) * r)
    e_coeff, theta = Fraction(0), {}
    for cl, row in zip(G.classes(), counts.reshape(-1, r).tolist()):
        q = Fraction(C.size * sum(c * x for c, x in zip(row, v)), cl.size * den)
        if cl.is_trivial():
            e_coeff = q
        elif q:
            theta[cl.label] = q
    return CasimirExpansion(e_coeff=e_coeff, theta_coeffs=theta)

