"""Character tables (Burnside-Dixon), conjugation characters, and eigenspace
decompositions of Killing forms into irreducibles.

The table is computed exactly modulo a prime p with exponent(G) | p-1 and
p > 2*sqrt(|G|): the class-multiplication matrices commute, their common
eigenvectors are the central characters mod p, degrees come from the first
orthogonality relation mod p, and values are lifted to C by the discrete
Fourier sum over root-of-unity multiplicities (which are small non-negative
integers, so the modular shadow determines them).  Everything that leaves the
module is validated against both orthogonality relations.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapExceeded,
    NoSuitablePrime,
    NontrivialCentre,
    NotACharacter,
    OrthogonalityFailure,
    ProjectorMismatch,
)
from .exactlinalg import _eliminate, _is_prime
from .gf import _least_primitive_root
from .groups import ConjClass, Group
from .killing import KillingForm

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


class CharTable:
    def __init__(self, name: str, class_labels, class_sizes, degrees, chars,
                 provenance: str, class_reps=None):
        if not provenance:
            raise ValueError("provenance is mandatory on character tables")
        self.name = name
        self.class_labels = list(class_labels)
        self.class_sizes = [int(s) for s in class_sizes]
        self.degrees = [int(d) for d in degrees]
        self.chars = [[complex(v) for v in row] for row in chars]
        self.provenance = provenance
        self.class_reps = class_reps
        self.group_order = sum(self.class_sizes)
        k = len(self.chars)
        if any(len(row) != len(self.class_labels) for row in self.chars):
            raise ValueError("ragged character matrix")
        if k != len(self.class_labels):
            raise ValueError("character table must be square")
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
        if self.class_reps is not None:
            for j, ref in enumerate(self.class_reps):
                if ref is C:
                    return j
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
        if not obj.get("provenance"):
            raise ValueError("character table JSON must carry a provenance field")
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


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    if p < 2**28:
        return (A @ B) % p
    return np.array((A.astype(object) @ B.astype(object)) % p, dtype=object)


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
    return _poly_rem(out, mod, p)


def _poly_rem(f, mod, p):
    f = list(f)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(f) - 1 >= dm and any(f):
        c = f[-1] * inv_lead % p
        if c:
            off = len(f) - 1 - dm
            for i, mi in enumerate(mod):
                f[off + i] = (f[off + i] - c * mi) % p
        f.pop()
    return _poly_trim(f if f else [0])


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_rem(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b != [0]:
        a, b = b, _poly_mod_poly(a, b, p)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_mod_poly(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a != [0]:
        c = a[-1] * inv_lead % p
        off = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[off + i] = (a[off + i] - c * bi) % p
        a.pop()
        _poly_trim(a)
        if not a:
            a = [0]
    return _poly_trim(a)


def _poly_roots(f, p: int, rng) -> list[int]:
    """Distinct roots in GF(p) of f (all our polynomials split completely)."""
    f = _poly_trim(list(f))
    xp = _poly_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * (max(0, 2 - len(xp)))
    if len(xp_minus_x) < 2:
        xp_minus_x += [0] * (2 - len(xp_minus_x))
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
            _split_distinct(_poly_mod_div(g, d, p), p, rng, out)
            return


def _poly_mod_div(a, b, p):
    """Exact quotient a / b over GF(p)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and _poly_trim(list(a)) != [0]:
        c = a[-1] * inv_lead % p
        off = len(a) - len(b)
        q[off] = c
        for i, bi in enumerate(b):
            a[off + i] = (a[off + i] - c * bi) % p
        a.pop()
    return _poly_trim(q)


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

def _class_mult_matrices(G: Group) -> list[np.ndarray]:
    """M_i[j][k] = #{x in C_i : x^-1 z_k in C_j} (class-sum structure constants)."""
    classes = G.classes()
    k = len(classes)
    arr = G.arr
    void_dt = np.dtype((np.void, arr.shape[1] * arr.dtype.itemsize))
    group_keys = np.ascontiguousarray(arr).view(void_dt).ravel()
    clsarr = np.empty(G.order, dtype=np.int64)
    for ci, cl in enumerate(classes):
        for h in cl.members:
            clsarr[G.index(h)] = ci
    Ms = []
    d = G.degree
    cols = np.arange(d)
    for i, Ci in enumerate(classes):
        A = Ci.arr
        Ainv = np.empty_like(A)
        Ainv[np.arange(A.shape[0])[:, None], A] = cols[None, :].astype(A.dtype)
        Mi = np.zeros((k, k), dtype=np.int64)
        for kk, Ck in enumerate(classes):
            z = np.asarray(Ck.representative.images, dtype=np.intp)
            X = Ainv[:, z]
            keys = np.ascontiguousarray(X).view(void_dt).ravel()
            idx = np.searchsorted(group_keys, keys)
            counts = np.bincount(clsarr[idx], minlength=k)
            Mi[:, kk] = counts
        Ms.append(Mi)
    return Ms


def character_table(G: Group, cap: int = CLASS_CAP) -> CharTable:
    classes = G.classes()
    k = len(classes)
    if k > cap:
        raise CapExceeded(f"{k} classes exceeds table cap {cap}")
    labels = [c.label for c in classes]
    sizes = [c.size for c in classes]
    if k == 1:
        return CharTable(G.name or "trivial", labels, sizes, [1], [[1.0 + 0j]],
                         provenance=f"dixon({G.name or 'trivial'})", class_reps=classes)
    n = G.exponent()
    p = _find_prime(n, G.order)
    Ms = _class_mult_matrices(G)
    vecs = _common_eigenvectors([M % p for M in Ms], p)

    dual_class = [G.class_index_of(c.representative.inverse()) for c in classes]
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
    orders = [c.element_order for c in classes]
    power_class = []
    for c in classes:
        g = c.representative
        pm = []
        x = G.identity
        for _ in range(c.element_order):
            pm.append(G.class_index_of(x))
            x = x * g
        power_class.append(pm)

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
                  [v for _, v in ordered], provenance=f"dixon(p={p})", class_reps=classes)
    validate_orthogonality(T)
    return T


# ------------------------------------------------------------ class functions

def conjugation_character(G: Group, C: ConjClass | None = None) -> ClassFunction:
    """Fixed-point character of conjugation on C, or on G \\ {e} when C is None."""
    classes = G.classes()
    if C is None:
        return ClassFunction(tuple(G.order // cl.size - 1 for cl in classes))
    return ClassFunction(tuple(C.commuting_count(cl.representative) for cl in classes))


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

    Only posed for trivial-centre groups; the character is g -> |Z(g)|.
    """
    if len(G.centre()) != 1:
        raise NontrivialCentre(f"{G.name or 'G'} has nontrivial centre")
    T = table if table is not None else character_table(G)
    f = ClassFunction(tuple(G.order // cl.size for cl in G.classes()))
    mults = multiplicities(f, T)
    return all(m > 0 for m in mults), mults


# -------------------------------------------------------------- decomposition

@dataclass
class DecompEntry:
    value: float
    dim: int
    mults: tuple[int, ...]
    integral: bool


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


def eigenspace_decomposition(K: KillingForm, T: CharTable,
                             tol: float = PROJECTOR_TOL) -> Decomposition:
    """Split each Killing eigenspace into irreducibles of the conjugation action.

    mult(V_i, E_lam) = (1/|G|) sum_j |C_j| conj(chi_i(g_j)) tr(rho(g_j) E_lam),
    with the traces evaluated through the orthonormal eigenbasis.
    """
    if not K.is_class_calculus or K.group is None:
        raise ValueError("decomposition needs a class calculus with its group")
    G = K.group
    C = K.conj_class
    classes = G.classes()
    k = len(classes)
    sizes = np.array([c.size for c in classes], dtype=float)

    B = C.arr
    void_dt = np.dtype((np.void, B.shape[1] * B.dtype.itemsize))
    member_keys = np.ascontiguousarray(B).view(void_dt).ravel()
    perms = []
    for cl in classes:
        g = cl.representative
        g_arr = np.asarray(g.images, dtype=np.intp)
        ginv_arr = np.asarray(g.inverse().images, dtype=B.dtype)
        X = ginv_arr[B[:, g_arr]]  # a -> g^-1 a g
        keys = np.ascontiguousarray(X).view(void_dt).ravel()
        perms.append(np.searchsorted(member_keys, keys))

    chars = np.array(T.chars, dtype=complex)
    entries = []
    totals = np.zeros(k, dtype=np.int64)
    for e in K.spectrum():
        U = e.vectors
        traces = np.array([(U[perm] * U).sum() for perm in perms])
        raw = (sizes * traces) @ chars.conj().T / G.order
        mults = []
        for i in range(k):
            m = round(raw[i].real)
            if abs(raw[i] - m) > tol:
                raise ProjectorMismatch(
                    f"mult of {T.irrep_labels[i]} in E_{e.value:.4g} is {raw[i]:.6f}, "
                    f"not an integer within {tol}")
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
