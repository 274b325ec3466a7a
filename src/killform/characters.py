"""Character tables (Burnside-Dixon), conjugation characters, and eigenspace
decompositions of Killing forms into irreducibles.

The table is computed exactly modulo a prime p with exponent(G) | p-1 and
p > 2*sqrt(|G|): the class-multiplication matrices commute, their common
eigenvectors are the central characters mod p, degrees come from the first
orthogonality relation mod p, and values are lifted to C by the discrete
Fourier sum over root-of-unity multiplicities (which are small non-negative
integers, so the modular shadow determines them).  Everything that leaves the
module is validated against both orthogonality relations.  The rational
central idempotents of QG, one per Galois orbit of irreducibles, are proposed
by the table and then checked exactly in the class algebra
(`rational_idempotents`); the class-form signature is decided with them.  The
eigenspace decomposition runs on the Z(g)-orbits of the class, an r x r
eigenproblem with r = sum of m_i^2, instead of on the |C|-dim module, and
reads each eigenspace's irreducibles off g's row of its projector.
"""
from __future__ import annotations

import cmath
import json
import math
import weakref
from dataclasses import dataclass, field

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
from .exactlinalg import IntSymMatrix, _eliminate, _is_prime, _matmul_mod, exact_rank
from .gf import _least_primitive_root
from .groups import ConjClass, Group
from .killing import KillingForm, _orbital_data, _roth_holds

CLASS_CAP = 64
ORTHOGONALITY_TOL = 1e-8
INTEGER_TOL = 1e-6
PROJECTOR_TOL = 1e-4
PRIME_SEARCH_LIMIT = 2**31


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

    def class_column(self, C: ConjClass) -> int:
        for j, (lab, size) in enumerate(zip(self.class_labels, self.class_sizes)):
            if lab == C.label and size == C.size:
                return j
        raise ValueError(f"class {C.label} (size {C.size}) not in table {self.name}")

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


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, mod, p)[1]


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


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b != [0]:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_roots(f, p: int, rng) -> list[int]:
    """Distinct roots in GF(p) of f (all our polynomials split completely)."""
    f = _poly_trim(list(f))
    xp = _poly_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * (max(0, 2 - len(xp)))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _poly_gcd(_poly_trim(xp_minus_x), f, p)
    roots: list[int] = []
    _split_distinct(g, p, rng, roots)
    return sorted(roots)


def _split_distinct(g, p: int, rng, out: list[int]) -> None:
    g = _poly_trim(list(g))
    deg = len(g) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append((-g[0]) * pow(g[1], p - 2, p) % p)
        return
    if g[0] == 0:
        out.append(0)
        _split_distinct(_poly_trim(g[1:]), p, rng, out)
        return
    while True:
        a = rng.randrange(p)
        h = _poly_powmod([a, 1], (p - 1) // 2, g, p)
        h = list(h)
        h[0] = (h[0] - 1) % p
        d = _poly_gcd(_poly_trim(h), g, p)
        if 0 < len(d) - 1 < deg:
            _split_distinct(d, p, rng, out)
            _split_distinct(_poly_divmod(g, d, p)[0], p, rng, out)
            return


def _charpoly_mod(R: np.ndarray, p: int) -> list[int]:
    """det(xI - R) mod p via Hessenberg reduction (similarity transforms)."""
    n = R.shape[0]
    H = [[int(v) % p for v in row] for row in R]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if H[r][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = pow(H[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            f = H[r][c] * inv % p
            if f:
                Hc1 = H[c + 1]
                Hr = H[r]
                for j in range(n):
                    Hr[j] = (Hr[j] - f * Hc1[j]) % p
                for row in H:
                    row[c + 1] = (row[c + 1] + f * row[r]) % p
    # p_m(x) = (x - H[m-1][m-1]) p_{m-1} - sum_i H[i][m-1] (prod_j H[j][j-1]) p_i
    polys = [[1]]
    for m in range(1, n + 1):
        hmm = H[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [(-hmm * prev[0]) % p] + [
            (prev[j - 1] - hmm * prev[j]) % p if j < len(prev) else prev[j - 1] % p
            for j in range(1, m + 1)
        ]
        prod = 1
        for i in range(m - 2, -1, -1):
            prod = prod * H[i + 1][i] % p
            term = H[i][m - 1] * prod % p
            if term:
                for j, cj in enumerate(polys[i]):
                    cur[j] = (cur[j] - term * cj) % p
        polys.append(cur)
    return polys[n]


def _restricted_action(Mi: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """R with Mi @ B = B @ R (mod p); B has full column rank and Mi-invariant image."""
    r = B.shape[1]
    rank, pivots, N = _eliminate(np.concatenate([B, _matmul_mod(Mi, B, p)], axis=1), p)
    if rank != r or pivots != list(range(r)):
        raise OrthogonalityFailure("subspace basis degenerated during splitting")
    return -N[:r] % p  # N = [-R; I] spans the nullspace of [B | Mi B]


def _common_eigenvectors(Ms: list[np.ndarray], p: int, seed: int = 0xD1C0) -> list[np.ndarray]:
    import random

    rng = random.Random(seed)
    k = Ms[0].shape[0]
    spaces: list[np.ndarray] = [np.eye(k, dtype=np.int64)]
    for Mi in Ms:
        if all(S.shape[1] == 1 for S in spaces):
            break
        nxt: list[np.ndarray] = []
        for B in spaces:
            if B.shape[1] == 1:
                nxt.append(B)
                continue
            R = _restricted_action(Mi, B, p)
            roots = _poly_roots(_charpoly_mod(R, p), p, rng)
            if len(roots) <= 1:
                nxt.append(B)
                continue
            for lam in roots:
                shifted = (R - lam * np.eye(R.shape[0], dtype=np.int64)) % p
                N = _eliminate(shifted, p)[2]
                if N.shape[1]:
                    nxt.append(_matmul_mod(B, N, p))
        spaces = nxt
    if any(S.shape[1] != 1 for S in spaces) or len(spaces) != k:
        raise OrthogonalityFailure(
            f"class algebra split into {len(spaces)} pieces, expected {k}")
    out = []
    for S in spaces:
        v = np.mod(S[:, 0].astype(np.int64), p)
        if v[0] % p == 0:
            raise OrthogonalityFailure("central character vanishes on the identity class")
        inv = pow(int(v[0]), p - 2, p)
        out.append((v * inv) % p)
    return out


# --------------------------------------------------------------- Dixon proper

# group -> its class structure constants, shared by the table and the
# idempotent check; dropped with the group
_CLASS_MULT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _class_mult_matrices(G: Group) -> list[np.ndarray]:
    """M_i[j][k] = #{x in C_i : x^-1 z_k in C_j} (class-sum structure constants),
    computed once per group."""
    if G not in _CLASS_MULT:
        classes = G.classes()
        k = len(classes)
        Ms = []
        for Ci in classes:
            Ainv = np.argsort(Ci.arr, axis=1).astype(Ci.arr.dtype)
            # x in C_i with x^-1 z_kk in class j is counted at j*k + kk
            pairs = G.class_map[G.locator.product_indices(Ainv, G.class_reps)] * k + np.arange(k)
            Ms.append(np.bincount(pairs.ravel(), minlength=k * k).reshape(k, k))
        _CLASS_MULT[G] = Ms
    return _CLASS_MULT[G]


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
    Ms = _class_mult_matrices(G)
    vecs = _common_eigenvectors([M % p for M in Ms], p)

    orders = [c.element_order for c in classes]
    power_class = _power_classes(G)
    dual_class = [pc[-1] for pc in power_class]  # g_j^-1 = g_j^(|g_j| - 1)
    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    order_mod = G.order % p
    isq = math.isqrt(G.order)
    rows = []
    for v in vecs:
        S = 0
        for j in range(k):
            S = (S + int(v[j]) * int(v[dual_class[j]]) % p * inv_sizes[j]) % p
        if S == 0:
            raise OrthogonalityFailure("degenerate norm for a central character")
        dd = order_mod * pow(S, p - 2, p) % p
        deg = next((d for d in range(1, isq + 1) if d * d % p == dd), None)
        if deg is None:
            raise OrthogonalityFailure(f"no degree d <= sqrt|G| with d^2 = {dd} mod {p}")
        chi_mod = [deg * int(v[j]) % p * inv_sizes[j] % p for j in range(k)]
        rows.append((deg, chi_mod))
    if sum(d * d for d, _ in rows) != G.order:
        raise OrthogonalityFailure(
            f"degree squares sum to {sum(d * d for d, _ in rows)}, not |G| = {G.order}")

    w = _least_primitive_root(p)
    z = pow(w, (p - 1) // n, p)
    chars = []
    for deg, chi_mod in rows:
        vals = []
        for j in range(k):
            nj = orders[j]
            zj = pow(z, n // nj, p)
            zj_inv = pow(zj, p - 2, p)
            inv_nj = pow(nj, p - 2, p)
            val = 0j
            for s in range(nj):
                c_s = 0
                zpow = pow(zj_inv, s, p)
                acc = 1
                for t in range(nj):
                    c_s = (c_s + chi_mod[power_class[j][t]] * acc) % p
                    acc = acc * zpow % p
                c_s = c_s * inv_nj % p
                if c_s > deg:
                    raise OrthogonalityFailure(
                        f"root-of-unity multiplicity {c_s} exceeds degree {deg} during lift")
                if c_s:
                    val += c_s * cmath.exp(2j * cmath.pi * s / nj)
            vals.append(val)
        chars.append((deg, vals))

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


def roth_check(G: Group, table: CharTable | None = None) -> tuple[bool, list[int]]:
    """Does every irrep occur in the conjugation representation on CG?

    Only posed for trivial-centre groups; the character is g -> |Z(g)|.  The
    verdict is decided exactly by the rank of the class-sum Gram matrix
    (killing._roth_holds); the multiplicities come from the table and must
    agree with it.
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
    square = np.einsum("abc,oa,ob->oc", np.array(_class_mult_matrices(G)), U, U)
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
    multiplicities and the dimensions sum_i d_i * mult_i summing to |C|.  A
    value the float flag calls integral is then checked exactly: lambda =
    round(value) is certified when S - lambda W has the cluster's size as
    nullity, and left uncertified when it is nonsingular, so lambda is no
    eigenvalue at all (M11 5A near -1535 is such a case).
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
    orbital = _orbital_data(K)
    if orbital is None:
        raise ProjectorMismatch(f"{K!r} has no orbital form: C is not a class of {G.name}, "
                                f"K does not commute with conjugation, or S overflows int64")
    S, w = orbital.S, orbital.w
    clusters, Pi = orbital.eigenspaces
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

    entries = []
    for (start, stop, value, integral), mults in zip(clusters, counts[:, 1:].T):
        if int(m_int @ mults) != stop - start:
            raise ProjectorMismatch(
                f"irreps in E_{value:.4g} meet the fixed vectors in {int(m_int @ mults)} "
                f"dimensions, the eigenvalue cluster has {stop - start}")
        certified = integral and _integral_certified(S, w, round(value), stop - start)
        entries.append(DecompEntry(value=value, dim=int(mults @ T.degrees),
                                   mults=tuple(mults.tolist()), integral=integral,
                                   certified=certified))
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


def central_character(T: CharTable, C: ConjClass, i: int) -> complex:
    """theta_C acting on irrep i: |C| * chi_i(rep) / degree_i."""
    j = T.class_column(C)
    return T.class_sizes[j] * T.chars[i][j] / T.degrees[i]


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
