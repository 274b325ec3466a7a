"""Character tables (Burnside-Dixon), conjugation characters, and eigenspace
decompositions of Killing forms into irreducibles.

The table is computed exactly modulo a prime p with exponent(G) | p-1 and
p > 2*sqrt(|G|): the class-multiplication matrices commute, and one random
combination of them splits off their common eigenvectors, the central
characters mod p (single class matrices re-split where it collides); degrees
come from the first orthogonality relation mod p, and values are lifted to C
by the discrete Fourier sum over root-of-unity multiplicities (small
non-negative integers, so the modular shadow determines them).  Everything
that leaves the module is validated against both orthogonality relations.
The rational central idempotents of QG, one per Galois orbit of irreducibles,
are proposed by the table and then checked exactly in the class algebra
(`rational_idempotents`); the class-form signature is decided with them.
Roth's property is decided by the exact rank of the class-sum Gram.  The
eigenspace decomposition runs on the Z(g)-orbits of the class (the form's
orbital data), an r x r eigenproblem with r = sum of m_i^2, instead of on
the |C|-dim module, and reads each eigenspace's irreducibles off g's row of
its projector.
"""
from __future__ import annotations

import cmath
import json
import math
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CapExceeded,
    KillformError,
    NoSuitablePrime,
    NontrivialCentre,
    NotACharacter,
    OrthogonalityFailure,
    ProjectorMismatch,
)
from .exactlinalg import (
    IntSymMatrix,
    _eliminate,
    _is_prime,
    _matmul_mod,
    _pivot_columns,
    _verify_integer_nullspace,
    exact_rank,
    random_prime_22,
    rank_mod_p,
)
from .gf import _least_primitive_root
from .groups import ConjClass, Group

if TYPE_CHECKING:
    from .killing import KillingForm

CLASS_CAP = 64
ORTHOGONALITY_TOL = 1e-8
INTEGER_TOL = 1e-6
PROJECTOR_TOL = 1e-4
PRIME_SEARCH_LIMIT = 2**31
# a float eigenvector is rationalised over denominators up to _DENOMINATOR_CAP:
# scaled, its entries must lie within _RATIONAL_TOL of integers, and
# _RATIONAL_TOL > 1 / (_DENOMINATOR_CAP + 1), so an entry further off has a
# best approximation with a denominator above 1 (Dirichlet)
_DENOMINATOR_CAP = 1 << 20
_RATIONAL_TOL = 1e-6


@dataclass(frozen=True)
class ClassFunction:
    """One value per conjugacy class, aligned with Group.classes()."""
    values: tuple

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j):
        return self.values[j]


def _list_of(ok):
    return lambda xs: type(xs) is list and all(ok(x) for x in xs)


def _real(x) -> bool:
    return type(x) in (int, float) and abs(x) < 1e300  # false on nan and inf


def _count(x) -> bool:
    return type(x) is int and 0 < x < 1 << 62  # far larger ones overflow float64


# from_json's field -> (check, what the check asks for)
_JSON_FIELDS = {
    "name": (lambda x: type(x) is str, "a string"),
    "class_labels": (_list_of(lambda x: type(x) is str), "a list of strings"),
    "class_sizes": (_list_of(_count), "a list of positive integers"),
    "degrees": (_list_of(_count), "a list of positive integers"),
    "chars": (_list_of(_list_of(lambda v: type(v) is list and len(v) == 2 and all(map(_real, v)))),
              "a list of rows of [re, im] pairs of finite numbers"),
    "provenance": (lambda x: type(x) is str, "a string"),
}


class CharTable:
    def __init__(self, name: str, class_labels, class_sizes, degrees, chars,
                 provenance: str):
        if not provenance:
            raise ValueError("provenance is mandatory on character tables")
        self.name = name
        self.class_labels = list(class_labels)
        self.class_sizes = [int(s) for s in class_sizes]
        self.degrees = [int(d) for d in degrees]
        self.chars = [[complex(v) for v in row] for row in chars]
        self.provenance = provenance
        self.group_order = sum(self.class_sizes)
        k = len(self.chars)
        if any(len(row) != len(self.class_labels) for row in self.chars):
            raise ValueError("ragged character matrix")
        if not k or {len(self.class_labels), len(self.class_sizes), len(self.degrees)} != {k}:
            raise ValueError("character table must be square and nonempty, "
                             "with one class size and one degree per row")
        self.real = [all(abs(v.imag) <= ORTHOGONALITY_TOL for v in row) for row in self.chars]
        self.rational = [
            self.real[i] and all(abs(v.real - round(v.real)) <= INTEGER_TOL for v in self.chars[i])
            for i in range(k)
        ]
        self.dual_index = [self._find_dual(i) for i in range(k)]
        self.irrep_labels = self._label_irreps()

    def _find_dual(self, i: int) -> int:
        target = [v.conjugate() for v in self.chars[i]]
        for j, row in enumerate(self.chars):
            if all(abs(a - b) <= 1e-6 for a, b in zip(row, target)):
                return j
        raise OrthogonalityFailure(f"irrep {i} of {self.name} has no conjugate row")

    def _label_irreps(self) -> list[str]:
        by_degree: dict[int, list[int]] = {}
        for i, d in enumerate(self.degrees):
            by_degree.setdefault(d, []).append(i)
        labels = [""] * len(self.degrees)
        for d, idxs in by_degree.items():
            for pos, i in enumerate(idxs):
                suffix = "" if len(idxs) == 1 else chr(ord("a") + pos)
                labels[i] = f"{d}{suffix}"
        return labels

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "class_labels": self.class_labels,
            "class_sizes": self.class_sizes,
            "degrees": self.degrees,
            "chars": [[[v.real, v.imag] for v in row] for row in self.chars],
            "provenance": self.provenance,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "CharTable":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"character table JSON must be an object, not {type(obj).__name__}")
        if not obj.get("provenance"):
            raise ValueError("character table JSON must carry a provenance field")
        for key, (ok, kind) in _JSON_FIELDS.items():
            if not ok(obj.get(key)):
                raise ValueError(f"character table JSON field {key!r} must be {kind}")
        T = CharTable(
            name=obj["name"],
            class_labels=obj["class_labels"],
            class_sizes=obj["class_sizes"],
            degrees=obj["degrees"],
            chars=[[complex(re, im) for re, im in row] for row in obj["chars"]],
            provenance=obj["provenance"],
        )
        validate_orthogonality(T)
        return T

    def __repr__(self) -> str:
        return f"CharTable({self.name!r}, irreps={self.irrep_labels})"


def validate_orthogonality(T: CharTable, tol: float = ORTHOGONALITY_TOL) -> None:
    """Both orthogonality relations, absolute tolerance."""
    X = np.array(T.chars, dtype=complex)
    sizes = np.array(T.class_sizes, dtype=float)
    order = T.group_order
    rows = (X * sizes) @ X.conj().T / order
    err = np.abs(rows - np.eye(len(T.chars))).max()
    if err > tol:
        raise OrthogonalityFailure(f"row orthogonality off by {err:.3e} for {T.name}")
    cols = X.T @ X.conj()
    expect = np.diag(order / sizes)
    err = np.abs(cols - expect).max()
    if err > tol:
        raise OrthogonalityFailure(f"column orthogonality off by {err:.3e} for {T.name}")


# --------------------------------------------------------------- mod-p helpers

def _find_prime(exponent: int, order: int, limit: int = PRIME_SEARCH_LIMIT) -> int:
    """Least prime p = 1 (mod exponent) with p^2 > 4*order."""
    p = exponent + 1
    while p < limit:
        if p * p > 4 * order and p > 2 and _is_prime(p):
            return p
        p += exponent
    raise NoSuitablePrime(
        f"no prime = 1 mod {exponent} above 2*sqrt({order}) below {limit}")


def _poly_trim(f: list[int]) -> list[int]:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_divmod(a, b, p):
    """Quotient and remainder of a by b over GF(p), coefficients from degree 0
    up; b[-1] must be nonzero.  The remainder has degree below deg b, and is
    [0] when b divides a."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) > db:
        c = r[-1] * inv_lead % p
        if c:
            off = len(r) - 1 - db
            q[off] = c
            for i, bi in enumerate(b):
                r[off + i] = (r[off + i] - c * bi) % p
        r.pop()
    return _poly_trim(q), _poly_trim(r or [0])


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b != [0]:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _powers_mod(shifts, exponents, f: list[int], p: int) -> np.ndarray:
    """(x + a)^e mod the monic f over GF(p), for each a in shifts and e in
    exponents, one row of d = deg f coefficients (degree 0 up) each.

    All rows are raised at once, left to right by the bits of e, so the cost
    grows with log p, not p: a squaring sums the coefficient products by
    degree and reduces the top d - 1 sums with `red`, whose row i is
    x^(d+i) mod f; a product with x + a is a shift."""
    d, n = len(f) - 1, len(shifts)
    low = np.array(f[:d], dtype=np.int64)
    red = [-low % p]  # x^d mod f, then x times the row before, its x^d term reduced
    while len(red) < d - 1:
        red.append((np.concatenate(([0], red[-1][:-1])) - red[-1][-1] * low) % p)
    red = np.array(red[:d - 1]).reshape(d - 1, d)
    # the product of coefficients i and j of row t is summed at t(2d - 1) + i + j
    bins = (np.arange(n)[:, None, None] * (2 * d - 1)
            + np.add.outer(np.arange(d), np.arange(d))).ravel()
    shifts = np.array(shifts, dtype=np.int64)[:, None]
    R = np.repeat(np.eye(1, d, dtype=np.int64), n, axis=0)  # each row is 1
    for i in range(max(exponents).bit_length() - 1, -1, -1):
        # each product is reduced below p first, so the float sums are exact
        prod = np.bincount(bins, weights=(R[:, :, None] * R[:, None, :] % p).ravel())
        prod = prod.astype(np.int64).reshape(n, 2 * d - 1) % p
        R = (prod[:, :d] + _matmul_mod(prod[:, d:], red, p)) % p
        shifted = np.concatenate([np.zeros_like(R[:, :1]), R[:, :-1]], axis=1)
        times = (shifted + shifts * R % p - R[:, -1:] * low) % p
        R = np.where([[e >> i & 1] for e in exponents], times, R)
    return R


def _poly_roots(f: list[int], p: int, rng) -> list[int]:
    """The distinct roots in GF(p) of the monic f, in increasing order.

    g = gcd(x^p - x, f) is the product of x - r over them, and Cantor-
    Zassenhaus splits it: gcd((x + a)^((p-1)/2) - 1, q) keeps the roots r of
    a factor q of g with r + a a nonzero square, so a random a splits q
    unless all its roots fall on one side.  The powers are formed mod f by
    `_powers_mod`, for a batch of random a at a time (x^p with the first)."""
    half, batch = (p - 1) // 2, 2 * len(f).bit_length() + 4
    powers = _powers_mod([0] + [rng.randrange(p) for _ in range(batch)],
                         [p] + [half] * batch, f, p).tolist()
    xp = powers.pop(0) + [0]
    xp[1] = (xp[1] - 1) % p
    pieces = [_poly_gcd(xp, f, p)]
    while any(len(q) > 2 for q in pieces):
        if not powers:
            powers = _powers_mod([rng.randrange(p) for _ in range(batch)], [half] * batch,
                                 f, p).tolist()
        h, nxt = powers.pop(), []
        for q in pieces:
            if len(q) > 2:
                s = _poly_divmod(h, q, p)[1]
                s[0] = (s[0] - 1) % p
                s = _poly_gcd(s, q, p)
                if 1 < len(s) < len(q):
                    nxt += [s, _poly_divmod(q, s, p)[0]]
                    continue
            nxt.append(q)
        pieces = nxt
    return sorted(-q[0] % p for q in pieces if len(q) == 2)


def _cyclic(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """K[:, t] = M^t e_0 for t <= k = len(M), and f, the monic minimal
    polynomial of e_0 under M: its coefficients are the nullspace vector of K
    at the first column that depends on those before it."""
    K = np.eye(len(M), len(M) + 1, dtype=np.int64)  # column 0 is e_0
    for t in range(len(M)):
        K[:, t + 1] = _matmul_mod(M, K[:, t:t + 1], p)[:, 0]
    rank, _, N = _eliminate(K, p)
    return K, N[:rank + 1, 0].tolist()


def _eigenlines(K: np.ndarray, f: list[int], roots: list[int], p: int) -> list[np.ndarray]:
    """The eigenvectors of M, for K, f = `_cyclic(M, p)` with f = prod (x - lam)
    over the k distinct eigenvalues lam of M, its roots.

    q = f / (x - lam) is 0 at the other roots and not at lam, so q(M) e_0 =
    K q is a multiple of e_0's part along the eigenvector of lam, not zero
    where e_0 has one.  Column i of Q is f / (x - lam_i), by synthetic division."""
    lam = np.array(roots, dtype=np.int64)
    Q = np.ones((len(roots), len(roots)), dtype=np.int64)
    for t in range(len(roots) - 1, 0, -1):
        Q[t - 1] = (f[t] + lam * Q[t]) % p
    return list(_matmul_mod(K[:, :len(roots)], Q, p).T[:, :, None])


def _split(B: np.ndarray, M: np.ndarray, roots: list[int], p: int) -> list[np.ndarray]:
    """The pieces B N of B, N spanning the nullspace of (M - lam) B for each
    root lam where it is not zero; B spans an M-invariant space."""
    if B.shape[1] == 1 or len(roots) <= 1:
        return [B]
    eye = np.eye(len(M), dtype=np.int64)
    nulls = (_eliminate(_matmul_mod(M - lam * eye, B, p), p)[2] for lam in roots)
    return [_matmul_mod(B, N, p) for N in nulls if N.shape[1]]


def _combination(Ms: list[np.ndarray], p: int, rng) -> np.ndarray:
    """sum_i c_i M_i mod p, each c_i drawn from GF(p) by rng."""
    c = np.array([[rng.randrange(p) for _ in Ms]], dtype=np.int64)
    return _matmul_mod(c, np.reshape(Ms, (len(Ms), -1)), p).reshape(Ms[0].shape)


def _common_eigenvectors(Ms: list[np.ndarray], p: int, seed: int = 0xD1C0) -> np.ndarray:
    """The common eigenvectors over GF(p) of the commuting class matrices Ms,
    as rows scaled to 1 on the identity class: the central characters mod p.

    One random combination M = sum_i c_i M_i splits the class algebra: it is
    sum_i c_i omega(M_i) on the eigenvector of the central character omega,
    so its eigenvectors are the k lines (`_eigenlines`, no elimination) unless
    two of these values collide, with probability at most C(k, 2) / p.  Then
    its eigenspaces are split again by each M_i in turn, which ends in lines
    as the central characters differ on some M_i.  The eigenvalues are the
    roots of the minimal polynomial of e_0, which has a part along every line
    (the identity is the sum of the primitive central idempotents)."""
    rng = random.Random(seed)
    k = Ms[0].shape[0]
    M = _combination(Ms, p, rng)
    K, f = _cyclic(M, p)
    roots = _poly_roots(f, p, rng)
    if len(roots) == k:
        spaces = _eigenlines(K, f, roots, p)
    else:
        spaces = _split(np.eye(k, dtype=np.int64), M, roots, p)
    for Mi in Ms:
        if all(S.shape[1] == 1 for S in spaces):
            break
        roots = _poly_roots(_cyclic(Mi, p)[1], p, rng)
        spaces = [piece for B in spaces for piece in _split(B, Mi, roots, p)]
    if any(S.shape[1] != 1 for S in spaces) or len(spaces) != k:
        raise OrthogonalityFailure(
            f"class algebra split into {len(spaces)} pieces, expected {k}")
    V = np.hstack(spaces).T % p
    if not V[:, 0].all():
        raise OrthogonalityFailure("central character vanishes on the identity class")
    return V * np.array([[pow(v, -1, p)] for v in V[:, 0].tolist()], dtype=np.int64) % p


# --------------------------------------------------------------- Dixon proper

def _power_classes(G: Group) -> list[list[int]]:
    """power_class[j][t] is the class of g_j^t for t < |g_j|, g_j the
    representative of class j: all powers composed as rows, located at once."""
    powers = []
    for c in G.classes():
        x = np.arange(G.degree, dtype=c.arr.dtype)
        for _ in range(c.element_order):
            powers.append(x)
            x = x[c.arr[0]]
    located = G.class_map[G.locator.locate(np.array(powers))]
    orders = [c.element_order for c in G.classes()]
    return [pc.tolist() for pc in np.split(located, np.cumsum(orders)[:-1])]


def character_table(G: Group, cap: int = CLASS_CAP) -> CharTable:
    classes = G.classes()
    k = len(classes)
    if k > cap:
        raise CapExceeded(f"{k} classes exceeds table cap {cap}")
    labels = [c.label for c in classes]
    sizes = [c.size for c in classes]
    if k == 1:
        return CharTable(G.name or "trivial", labels, sizes, [1], [[1.0 + 0j]],
                         provenance=f"dixon({G.name or 'trivial'})")
    n = G.exponent()
    p = _find_prime(n, G.order)
    V = _common_eigenvectors([M % p for M in G.structure_constants], p)

    power_class = _power_classes(G)
    dual_class = [pc[-1] for pc in power_class]  # g_j^-1 = g_j^(|g_j| - 1)
    inv_sizes = np.array([pow(s, -1, p) for s in sizes], dtype=np.int64)
    norms = (V * V[:, dual_class] % p * inv_sizes % p).sum(axis=1) % p
    isq = math.isqrt(G.order)
    degrees = []
    for S in norms.tolist():
        if S == 0:
            raise OrthogonalityFailure("degenerate norm for a central character")
        dd = G.order * pow(S, -1, p) % p
        deg = next((d for d in range(1, isq + 1) if d * d % p == dd), None)
        if deg is None:
            raise OrthogonalityFailure(f"no degree d <= sqrt|G| with d^2 = {dd} mod {p}")
        degrees.append(deg)
    if sum(d * d for d in degrees) != G.order:
        raise OrthogonalityFailure(
            f"degree squares sum to {sum(d * d for d in degrees)}, not |G| = {G.order}")
    deg_col = np.array(degrees, dtype=np.int64)[:, None]
    chi_mod = deg_col * V % p * inv_sizes % p

    # chi(g_j) = sum_s c_s zeta^s over the |g_j|-th roots of unity zeta^s:
    # c_s = (1/|g_j|) sum_t chi(g_j^t) z_j^(-st) with z_j of order |g_j| mod
    # p, for every row at once
    z = pow(_least_primitive_root(p), (p - 1) // n, p)
    vals = [[] for _ in degrees]
    for j, pc in enumerate(power_class):
        nj = len(pc)
        inv_nj = pow(nj, -1, p)
        fourier = np.array([pow(z, -(n // nj) * e, p) * inv_nj % p for e in range(nj)],
                           dtype=np.int64)[np.outer(np.arange(nj), np.arange(nj)) % nj]
        counts = _matmul_mod(chi_mod[:, pc], fourier, p)
        if (counts > deg_col).any():
            raise OrthogonalityFailure(
                f"a root-of-unity multiplicity on class {labels[j]} exceeds its degree")
        roots = [cmath.exp(2j * cmath.pi * s / nj) for s in range(nj)]
        for row, c in zip(vals, counts.tolist()):
            val = 0j
            for c_s, root in zip(c, roots):
                if c_s:
                    val += c_s * root
            row.append(val)
    chars = list(zip(degrees, vals))

    def fingerprint(vals):
        return tuple((round(v.real, 8), round(v.imag, 8)) for v in vals)

    trivial = [row for row in chars if all(abs(v - 1) < 1e-8 for v in row[1])]
    if len(trivial) != 1:
        raise OrthogonalityFailure("trivial character missing from the computed table")
    rest = sorted((row for row in chars if row is not trivial[0]),
                  key=lambda row: (row[0], fingerprint(row[1])))
    ordered = trivial + rest
    T = CharTable(G.name or "G", labels, sizes, [d for d, _ in ordered],
                  [v for _, v in ordered], provenance=f"dixon(p={p})")
    validate_orthogonality(T)
    return T


# ------------------------------------------------------------ class functions

def conjugation_character(G: Group, C: ConjClass | None = None) -> ClassFunction:
    """Fixed-point character of conjugation on C, or on G \\ {e} when C is None."""
    classes = G.classes()
    if C is None:
        return ClassFunction(tuple(G.order // cl.size - 1 for cl in classes))
    return ClassFunction(tuple(C.commuting_count(G.class_reps).tolist()))


def multiplicities(f, T: CharTable) -> list[int]:
    """Inner products <f, chi_i>, gated to integers within 1e-6."""
    vals = f.values if isinstance(f, ClassFunction) else tuple(f)
    if len(vals) != len(T.class_labels):
        raise ValueError("class function length does not match the table")
    order = T.group_order
    out = []
    for i, row in enumerate(T.chars):
        acc = 0j
        for j, v in enumerate(vals):
            acc += T.class_sizes[j] * complex(v) * row[j].conjugate()
        acc /= order
        m = round(acc.real)
        if abs(acc - m) > INTEGER_TOL:
            raise NotACharacter(
                f"<f, {T.irrep_labels[i]}> = {acc} is not an integer (tol 1e-6)")
        out.append(m)
    return out


def _class_sum_gram(G: Group) -> IntSymMatrix:
    """S = Ind^T F Ind for F[a][b] = |Z(ab)| over G and Ind the class indicator
    vectors: S[j][l] = |C_j| * sum over y in C_l of |Z(g_j y)|.  Counting the
    pairs by the class C_m of their product, |Z| = |G| / |C_m|, gives |G| times
    the count of x in C_j with x^-1 z_m in C_l, over every representative z_m:
    the structure constants summed over m.  Up to CLASS_CAP classes they are
    the character table's cached constants, so the products are counted once
    per group; above it they are counted a class at a time, in k x k memory,
    not their k^3."""
    k = len(G.classes())
    if k <= CLASS_CAP:
        return IntSymMatrix(G.order * G.structure_constants.sum(axis=2))
    S = np.empty((k, k), dtype=np.int64)
    for j, block in enumerate(G.class_products()):
        S[j] = G.order * np.bincount(block.ravel(), minlength=k)
    return IntSymMatrix(S)


# group -> Roth's property, decided with the first call's seed; dropped with the group
_ROTH: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _roth_holds(G: Group, seed: int = 0) -> bool:
    """Roth's property, decided exactly: every irrep of G occurs in the
    conjugation representation on CG.

    F = L J, with L the convolution by the conjugation character |Z| and J the
    inversion permutation.  L acts on the isotypic block of the i-th irrep
    (degree d_i) as the scalar (|G| / d_i) * m_i, where m_i >= 0 is that
    irrep's multiplicity in the conjugation representation.  F maps the centre
    of CG, spanned by the class indicators, to itself, and the central
    idempotents are eigenvectors of L, so S = Ind^T F Ind is nonsingular
    exactly when every m_i > 0.
    """
    if G not in _ROTH:
        S = _class_sum_gram(G)
        _ROTH[G] = exact_rank(S, seed=seed) == S.dim
    return _ROTH[G]


def roth_check(G: Group, table: CharTable | None = None) -> tuple[bool, list[int]]:
    """Does every irrep occur in the conjugation representation on CG?

    Only posed for trivial-centre groups; the character is g -> |Z(g)|.  The
    verdict is decided exactly by the rank of the class-sum Gram matrix
    (_roth_holds); the multiplicities come from the table and must agree
    with it.
    """
    if len(G.centre()) != 1:
        raise NontrivialCentre(f"{G.name or 'G'} has nontrivial centre")
    T = table if table is not None else character_table(G)
    f = ClassFunction(tuple(G.order // cl.size for cl in G.classes()))
    mults = multiplicities(f, T)
    holds = _roth_holds(G)
    if holds != all(m > 0 for m in mults):
        raise OrthogonalityFailure(
            f"table multiplicities {mults} disagree with the exact verdict that Roth's "
            f"property {'holds' if holds else 'fails'}")
    return holds, mults


# ------------------------------------------------ rational central idempotents

# group -> its certified rational central idempotents, or None; one entry per
# group, dropped with the group
_IDEMPOTENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def rational_idempotents(G: Group) -> list[tuple[int, np.ndarray]] | None:
    """The central idempotents of QG, one per Galois orbit O of irreducibles,
    as pairs (d, u) with e_O = (d/|G|) * sum_j u[j] * (sum of C_j): d is the
    degree, common to O, and u[j] = sum over chi in O of chi(g_j^-1).

    The orbits and the traces u come from the float table, through its
    power maps, and the orbit sums are rounded to integers.  Then they are
    checked exactly, so a wrong table cannot pass: e_O^2 = e_O, read off the
    class structure constants, makes each e_O a central idempotent; sum_O d u
    = |G| on the identity class and 0 elsewhere makes them sum to 1; and u
    must be rational, equal on g and g^-1.  Computed once per group; None
    where the table is unavailable (more than CLASS_CAP classes, no suitable
    prime) or a check fails.
    """
    if G not in _IDEMPOTENTS:
        try:
            T = character_table(G)
        except KillformError:
            _IDEMPOTENTS[G] = None
        else:
            _IDEMPOTENTS[G] = _certified_idempotents(G, T)
    return _IDEMPOTENTS[G]


def _certified_idempotents(G: Group, T: CharTable) -> list[tuple[int, np.ndarray]] | None:
    """rational_idempotents(G) proposed by the table T and checked; None
    where a proposal or a check fails."""
    # mean[i] is chi_i averaged over the Galois group, chi(g) -> chi(g^t) for
    # the units t mod the exponent: the same row for every chi of an orbit O,
    # and |O| times it is the orbit sum
    power = _power_classes(G)
    n = G.exponent()
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    k = len(power)
    A = np.zeros((k, k))
    for j, pc in enumerate(power):
        np.add.at(A, (pc, j), np.bincount(units % len(pc), minlength=len(pc)))
    X = np.array(T.chars, dtype=complex)
    mean = X @ A / len(units)
    out, seen = [], np.zeros(k, dtype=bool)
    for i in range(k):
        if not seen[i]:
            orbit = np.abs(mean - mean[i]).max(axis=1) <= INTEGER_TOL
            seen |= orbit
            traces = orbit.sum() * mean[i].conj()
            u = np.rint(traces.real).astype(np.int64)
            if np.abs(traces - u).max() > INTEGER_TOL:
                return None
            out.append((T.degrees[i], u))
    d = np.array([dd for dd, _ in out], dtype=np.int64)
    U = np.array([u for _, u in out])
    u_max = int(np.abs(U).max())
    if G.order * u_max * u_max * int(d.max()) >= 1 << 62:
        return None  # d times the square of e_O would not fit in int64
    # e_O^2 in the class-sum basis, through the structure constants: the sum
    # of C_a times the sum of C_b is sum_c M_a[b, c] * (sum of C_c)
    square = np.einsum("abc,oa,ob->oc", G.structure_constants, U, U)
    unit = np.zeros(k, dtype=np.int64)
    unit[0] = G.order
    dual = [pc[-1] for pc in power]
    if ((d[:, None] * square != G.order * U).any() or (d @ U != unit).any()
            or (U[:, dual] != U).any()):
        return None
    return out


# -------------------------------------------------------------- decomposition

@dataclass
class DecompEntry:
    value: float
    dim: int
    mults: tuple[int, ...]
    integral: bool  # the float flag: value within 1e-6 (relative) of an integer
    certified: bool = False  # round(value) is an eigenvalue of this multiplicity, exactly


@dataclass
class Decomposition:
    class_label: str
    group_name: str
    irrep_labels: list[str]
    entries: list[DecompEntry]
    table: CharTable = field(repr=False, default=None)

    def render(self) -> str:
        parts = []
        for e in self.entries:
            lam = f"{round(e.value)}" if e.integral else f"{e.value:.6g}"
            for i, m in enumerate(e.mults):
                if m:
                    lab = self.irrep_labels[i]
                    parts.extend([f"{lab}({lam})"] * m)
        return " + ".join(parts)


def eigenspace_decomposition(K: KillingForm, T: CharTable) -> Decomposition:
    """Split each Killing eigenspace into irreducibles of the conjugation action,
    on the Z(g)-orbits of C instead of on the |C|-dim module, from g's row.

    In the orthonormal coordinates W^{1/2} v of the orbit indicators
    (W = diag(w)) K is Y = W^{-1/2} S W^{-1/2}, solved once with the
    spectrum (killing._OrbitalData.eigenspaces).  K's projector P onto an
    eigenspace commutes with conjugation, so P e_g is Z(g)-fixed:
    sum_t Pi[t, 0] 1_{O_t} / sqrt(w_t), Pi the projector of that eigenvalue
    cluster of Y (O_1 = {g}, w_1 = 1).  So h in C_j has the trace
    (|C| / |C_j|) sum over y in C_j^-1 of P[y g y^-1, g] on the eigenspace,
    and V_i lies (|C| / |G|) Re sum_j chi_i(g_j) sum_t F[j, t] Pi[t, 0] /
    sqrt(w_t) times in it, F[j, t] the number of h in C_j with h g h^-1 in
    O_t (the first rows of the class sums): one r-vector Pi[:, 0] per
    cluster.  With Pi = I the sum is m_i, the multiplicity of V_i in CC and
    the dimension of its Z(g)-fixed vectors (Frobenius reciprocity).

    The float steps are gated: m_i and every multiplicity within
    PROJECTOR_TOL of an integer, each cluster's size in the fixed vectors
    equal to sum_i m_i * mult_i, the totals equal to the conjugation-character
    multiplicities and the dimensions sum_i d_i * mult_i summing to |C|.  The
    values the float flag calls integral are then checked exactly, all of
    the class's at once (`_integral_nullities`): lambda = round(value) is
    certified when S - lambda W has the cluster's size as nullity, and left
    uncertified when it is nonsingular, so lambda is no eigenvalue at all
    (M11 5A near -1535 is such a case).  Integer bases of the nullspaces,
    proposed from the cluster's eigenvectors and verified exactly, bound each
    nullity from below, and one elimination mod p of the product of the
    S - lambda W bounds their sum from above; where the bounds do not meet,
    `_integral_certified` decides, one lambda at a time.
    """
    if not K.is_class_calculus or K.group is None:
        raise ValueError("decomposition needs a class calculus with its group")
    G = K.group
    C = K.conj_class
    fits = [f"{c.label}:{c.size}" for c in G.classes()]
    given = [f"{label}:{size}" for label, size in zip(T.class_labels, T.class_sizes)]
    if given != fits:
        raise ValueError(f"character table {T.name} does not fit {G.name}: its classes are "
                         f"{' '.join(given)}, those of {G.name} are {' '.join(fits)}")
    orbital = K.orbital
    if orbital is None:
        raise ProjectorMismatch(f"{K!r} has no orbital form: it was not built by killing_matrix "
                                f"on a class of {G.name}, or S overflows int64")
    S, w = orbital.S, orbital.w
    clusters, Pi, vectors = orbital.eigenspaces
    chars = np.array(T.chars, dtype=complex)
    weights = C.size / G.order * (chars @ (orbital.first_rows / np.sqrt(w)))
    # raw[:, 0] is Pi = I, so m
    raw = np.column_stack([weights[:, 0], weights @ Pi]).real
    counts = np.rint(raw).astype(np.int64)
    off = np.abs(raw - counts) > PROJECTOR_TOL
    if off.any():
        i, c = np.argwhere(off)[0]
        raise ProjectorMismatch(
            f"mult of {T.irrep_labels[i]} in {f'E_{clusters[c - 1][2]:.4g}' if c else 'CC'} "
            f"is {raw[i, c]:.6f}, not an integer within {PROJECTOR_TOL}")
    m_int = counts[:, 0]

    for (start, stop, value, _), mults in zip(clusters, counts[:, 1:].T):
        if int(m_int @ mults) != stop - start:
            raise ProjectorMismatch(
                f"irreps in E_{value:.4g} meet the fixed vectors in {int(m_int @ mults)} "
                f"dimensions, the eigenvalue cluster has {stop - start}")
    nullities = iter(_integral_nullities(S, w, [
        (round(value), stop - start, V)
        for (start, stop, value, _), V in zip(clusters, vectors) if V is not None]))
    entries = [DecompEntry(value=value, dim=int(mults @ T.degrees), mults=tuple(mults.tolist()),
                           integral=integral,
                           certified=integral and next(nullities) == stop - start)
               for (start, stop, value, integral), mults in zip(clusters, counts[:, 1:].T)]
    expected = multiplicities(conjugation_character(G, C), T)
    totals = counts[:, 1:].sum(axis=1).tolist()
    if totals != expected:
        raise ProjectorMismatch(
            f"eigenspace totals {totals} != conjugation-character multiplicities {expected}")
    if sum(e.dim for e in entries) != C.size:
        raise ProjectorMismatch(
            f"eigenspace dims sum to {sum(e.dim for e in entries)}, not |C| = {C.size}")
    return Decomposition(class_label=C.label, group_name=G.name or "G",
                         irrep_labels=list(T.irrep_labels), entries=entries, table=T)


def _integral_nullities(S: np.ndarray, w: np.ndarray, flagged) -> list[int]:
    """The nullity of S - lam W for each flagged cluster (lam, size, V) of one
    class, V its float eigenvectors of S v = lam W v: size where lam is
    certified, 0 where it is no eigenvalue (or S - lam W would not fit in
    int64), and ProjectorMismatch for any other value.  These are the
    verdicts of `_integral_certified`, reached with one elimination for the
    whole class.

    Lower bounds: each cluster proposes an integer basis N of its fixed
    vectors (`_propose_integer_basis`).  N is accepted only if S - lam W
    annihilates it exactly (`_verify_integer_nullspace`) and it is diagonal
    with a nonzero diagonal on the coordinates F it was solved for, which
    makes its columns independent; then n(lam) >= l(lam), the most columns
    accepted at lam, and 0 otherwise.  Upper bound: W^-1 S is similar to the
    symmetric Y, so it is diagonalizable, and the distinct lams are the roots
    of prod (x - lam), so W prod (W^-1 S - lam I) has nullity sum n(lam) over
    Q; its rank mod p is at most its rank over Q (`_nullity_mod_p`).  Where
    that nullity mod p equals sum l(lam), every n(lam) = l(lam).  Otherwise
    the clusters with nothing accepted take `_integral_certified`, whose
    verdicts are lower bounds too, and if the bounds still do not meet,
    every cluster takes it.
    """
    if not flagged:
        return []
    fits = int(np.abs(S).max()) + max(abs(lam) for lam, _, _ in flagged) * int(w.max()) < 1 << 62
    known = {lam: 0 for lam, _, _ in flagged}
    for lam, _, V in flagged:
        proposed = _propose_integer_basis(V) if fits else None
        if proposed is not None:
            N, F = proposed
            pencil = S.copy()
            pencil[np.diag_indices(len(w))] -= lam * w  # S - lam W
            if (np.array_equal(N[F] != 0, np.eye(len(F), dtype=bool))
                    and _verify_integer_nullspace(pencil, N.T.tolist())):
                known[lam] = max(known[lam], len(F))
    bound = _nullity_mod_p(S, w, sorted(known))
    if bound != sum(known.values()):
        for lam, size, _ in flagged:
            if not known[lam] and _integral_certified(S, w, lam, size):
                known[lam] = size
    if bound != sum(known.values()):
        return [size * _integral_certified(S, w, lam, size) for lam, size, _ in flagged]
    for lam, size, _ in flagged:
        if known[lam] not in (0, size):
            raise ProjectorMismatch(
                f"eigenvalue {lam} has nullity {known[lam]} on the fixed vectors, "
                f"the eigenvalue cluster has {size}")
    return [known[lam] for lam, _, _ in flagged]


def _propose_integer_basis(V: np.ndarray) -> tuple[np.ndarray, list[int]] | None:
    """An integer basis N of the span of the float columns V, and the
    coordinates F on which it should be diagonal; None where a column does
    not rationalise.  Nothing is certified here.

    F is the len(F) = V.shape[1] rows of V picked as pivots (`_pivot_columns`
    on V^T), so X = V V[F]^-1 is the identity on F.  Each column of X is
    scaled by one denominator, carried along as in `_reconstruct_vector`: the
    entry furthest from an integer gives its best rational approximation
    with a denominator up to _DENOMINATOR_CAP, and the column's denominator
    is multiplied by it until every entry lies within _RATIONAL_TOL of an
    integer."""
    n = V.shape[1]
    F = _pivot_columns(V.T, n)
    if F is None:
        return None
    X = V @ np.linalg.inv(V[F])
    den = np.ones(n, dtype=np.int64)
    while True:
        Y = X * den
        off = np.abs(Y - np.rint(Y))
        worst = off.argmax(axis=0)
        cols = np.flatnonzero(off[worst, np.arange(n)] > _RATIONAL_TOL)
        if not cols.size:
            return np.rint(Y).astype(np.int64), F
        for c in cols:
            den[c] *= Fraction(Y[worst[c], c]).limit_denominator(_DENOMINATOR_CAP).denominator
        if den.max() > _DENOMINATOR_CAP:
            return None


def _nullity_mod_p(S: np.ndarray, w: np.ndarray, lams: list[int]) -> int:
    """The nullity of W prod (W^-1 S - lam I) over the distinct lams, mod a
    seeded 22-bit prime p that divides no w, from one elimination.

    The product is (S - lam_1 W) W^-1 (S - lam_2 W) ... W^-1 (S - lam_m W),
    symmetric as its factors commute.  Entries stay in [0, p), each product
    by `_matmul_mod`; no r x r matrix is formed for W or for I."""
    rng = random.Random(0)
    p = random_prime_22(rng)
    while (w % p == 0).any():
        p = random_prime_22(rng)
    r, diagonal = len(w), np.diag_indices(len(w))
    sizes, at = np.unique(w, return_inverse=True)  # few distinct orbit sizes
    w_inv = np.array([pow(int(x), -1, p) for x in sizes], dtype=np.int64)[at]
    A = S % p * w_inv[:, None] % p  # W^-1 S
    P = S % p
    P[diagonal] = (P[diagonal] - lams[0] % p * (w % p)) % p
    for lam in lams[1:]:
        # P (W^-1 S - lam I) = P A - lam P
        PA = _matmul_mod(P, A, p)
        PA -= lam % p * P
        P = np.mod(PA, p, out=PA)
    return r - rank_mod_p(IntSymMatrix(P), p)


def _integral_certified(S: np.ndarray, w: np.ndarray, lam: int, size: int) -> bool:
    """Whether lam is exactly an eigenvalue of K with size dimensions of fixed
    vectors: S - lam * diag(w) has nullity size, decided by exact_rank.
    False where lam is no eigenvalue (the float flag was wrong) or the matrix
    would not fit in int64; ProjectorMismatch where the nullity is another
    positive number, so the float cluster was wrong."""
    if int(np.abs(S).max()) + abs(lam) * int(w.max()) >= 1 << 62:
        return False
    nullity = len(w) - exact_rank(IntSymMatrix(S - lam * np.diag(w)))
    if nullity not in (0, size):
        raise ProjectorMismatch(
            f"eigenvalue {lam} has nullity {nullity} on the fixed vectors, "
            f"the eigenvalue cluster has {size}")
    return nullity == size


def integrality_audit(D: Decomposition, T: CharTable) -> list[str]:
    """Tables-style sanity findings; empty list means all checks passed.

    Rational irreps whose isotypic component sits inside a single eigenspace
    must sit at an integer eigenvalue; and every eigenspace must pair dual
    irreps with equal multiplicity.
    """
    findings = []
    k = len(T.degrees)
    for i in range(k):
        if not T.rational[i]:
            continue
        hosts = [e for e in D.entries if e.mults[i] > 0]
        if len(hosts) == 1:
            lam = hosts[0].value
            if abs(lam - round(lam)) > INTEGER_TOL:
                findings.append(
                    f"rational irrep {T.irrep_labels[i]} pinned to non-integral "
                    f"eigenvalue {lam!r}")
    for e in D.entries:
        for i in range(k):
            j = T.dual_index[i]
            if e.mults[i] != e.mults[j]:
                findings.append(
                    f"eigenvalue {e.value:.6g}: mult({T.irrep_labels[i]}) = {e.mults[i]} "
                    f"but mult({T.irrep_labels[j]}) = {e.mults[j]}")
    return findings
