"""Exact and floating linear algebra for symmetric integer matrices.

All elimination mod p goes through one blocked routine, `_eliminate`, which
returns the rank, the pivot columns and a nullspace basis over GF(p).  Rank is
certified exactly without full big-integer elimination: the rank mod a random
22-bit prime bounds the rank from below (a pivot minor nonzero mod p is nonzero
over Q).  When the matrix is singular mod p, nullspaces mod further 22-bit
primes (small enough that the float64 panel updates stay exact) are CRT-lifted
to rationals, and each lifted vector is verified exactly by matvecs mod 31-bit
primes; the verified nullity bounds the rank from above.  Fraction-free Bareiss
remains as the small-dimension path and as an independent oracle.

Floating eigenwork goes through LAPACK (numpy.linalg.eigh).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import CapExceeded, SeparationFailure, SingularMatrix

EXACT_CAP = 4096
INVERSE_CAP = 512
SPECTRUM_TOL = 1e-8
_LDLT_FALLBACK_CAP = 600


class IntSymMatrix:
    def __init__(self, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"not square: shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValueError("not symmetric")
        self.data = arr
        self.dim = arr.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSymMatrix) and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"IntSymMatrix(dim={self.dim})"

    def dump(self) -> str:
        lines = [f"dim {self.dim}"]
        for row in self.data:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def load(text: str) -> "IntSymMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("dim "):
            raise ValueError("matrix dump must start with 'dim n'")
        n = int(lines[0][4:])
        rows = [[int(tok) for tok in ln.split()] for ln in lines[1 : n + 1]]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix dump has wrong shape")
        return IntSymMatrix(rows)


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    zero: int

    def astuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


@dataclass
class SpectrumEntry:
    value: float
    multiplicity: int
    vectors: np.ndarray  # dim x multiplicity, orthonormal columns
    integral: bool


# ---------------------------------------------------------------------------
# primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 3.3e24


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_31(rng: random.Random) -> int:
    while True:
        c = rng.randrange(1 << 30, 1 << 31) | 1
        if _is_prime(c):
            return c


def random_prime_22(rng: random.Random) -> int:
    """Small enough that float64 matmul over GF(p) blocks stays exact."""
    while True:
        c = rng.randrange(1 << 21, 1 << 22) | 1
        if _is_prime(c):
            return c


# ---------------------------------------------------------------------------
# mod-p elimination (int64 is safe: entries in [0,p), p < 2**31, so products
# stay under 2**62 before each reduction)

def _gf_block_width(p: int, cap: int = 256) -> int:
    # dot products of length b over entries < p must stay below 2**53 so the
    # float64 matmul is exact
    return min(cap, (1 << 53) // (p * p))


def _eliminate(A: np.ndarray, p: int) -> tuple[int, list[int], np.ndarray]:
    """Rank, pivot columns and nullspace of A over GF(p); A is not modified.

    Blocked LU-style elimination in the manner of FFLAS-FFPACK (Dumas, Giorgi,
    Pernet).  Each panel of `_gf_block_width(p)` columns is reduced column by
    column; a column with no pivot is skipped, and the multipliers stay below
    the pivots as the L factor.  The trailing columns then take one Schur
    update per panel as an exact float64 matmul.  The nullspace is solved from
    the echelon rows by a blocked back-substitution; its columns are the
    identity on the free columns, so they are the vectors the reduced row
    echelon form gives.  Below width 8 one panel covers the whole matrix and
    every int64 product is reduced mod p before anything is added to it.
    """
    A = np.mod(np.asarray(A, dtype=np.int64), p)
    n_rows, n_cols = A.shape
    width = _gf_block_width(p)
    if width < 8:
        width = max(n_cols, 1)
    pivots: list[int] = []
    r0 = 0
    for c0 in range(0, n_cols, width):
        if r0 == n_rows:
            break
        c1 = min(c0 + width, n_cols)
        pcols: list[int] = []
        invs: list[int] = []
        for j in range(c0, c1):
            rr = r0 + len(pcols)
            if rr == n_rows:
                break
            nz = np.flatnonzero(A[rr:, j])
            if nz.size == 0:
                continue
            i = rr + int(nz[0])
            if i != rr:
                A[[rr, i]] = A[[i, rr]]
            inv = pow(int(A[rr, j]), p - 2, p)
            A[rr, j:c1] = A[rr, j:c1] * inv % p
            sub = A[rr + 1 :, j + 1 : c1]
            sub -= A[rr + 1 :, j, None] * A[rr, j + 1 : c1]
            sub %= p
            pcols.append(j)
            invs.append(inv)
        pv = len(pcols)
        if pv and c1 < n_cols:
            # finish the pivot rows across the trailing columns (forward
            # substitution against earlier pivots of this panel), then one
            # Schur update for everything below.  Memory stays bounded: one
            # float64 copy each of L and U per panel, filled without int64
            # temporaries, and row chunks that subtract and reduce in a single
            # float64 buffer (every value stays an integer below 2**53)
            U = A[r0 : r0 + pv, c1:]
            Uf = np.empty(U.shape)
            for k in range(pv):
                if k:
                    U[k] -= (A[r0 + k, pcols[:k]].astype(np.float64) @ Uf[:k]).astype(np.int64)
                    U[k] %= p
                U[k] = U[k] * invs[k] % p
                Uf[k] = U[k]
            below = A[r0 + pv :, c1:]
            Lf = np.empty((n_rows - r0 - pv, pv))
            for k, j in enumerate(pcols):
                Lf[:, k] = A[r0 + pv :, j]
            for start in range(0, below.shape[0], 1024):
                chunk = below[start : start + 1024]
                buf = Lf[start : start + 1024] @ Uf
                np.subtract(chunk, buf, out=buf)
                np.mod(buf, p, out=buf)
                chunk[...] = buf
        pivots += pcols
        r0 += pv

    # back-substitution: solve U[:, pivots] X = -U[:, free] one block of
    # pivot rows at a time, bottom up; the strict lower part of U[:, pivots]
    # holds multipliers and is never read
    r = len(pivots)
    free = np.setdiff1d(np.arange(n_cols), pivots)
    X = -A[:r, free] % p
    for k1 in range(r, 0, -width):
        k0 = max(k1 - width, 0)
        for k in range(k1 - 1, k0, -1):
            X[k0:k] -= A[k0:k, pivots[k], None] * X[k]
            X[k0:k] %= p
        if k0:
            X[:k0] -= (A[:k0, pivots[k0:k1]].astype(np.float64)
                       @ X[k0:k1].astype(np.float64)).astype(np.int64)
            X[:k0] %= p
    N = np.zeros((n_cols, free.size), dtype=np.int64)
    N[free, np.arange(free.size)] = 1
    N[pivots] = X
    return r, pivots, N


def rank_mod_p(M: IntSymMatrix, p: int) -> int:
    if p <= 2 or p >= (1 << 31):
        raise ValueError("need 2 < p < 2**31")
    return _eliminate(M.data, p)[0]


# ---------------------------------------------------------------------------
# CRT / rational reconstruction

def _rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Wang reconstruction: find n/d == r (mod m) with |n|, |d| <= sqrt(m/2)."""
    bound = isqrt(m // 2)
    r0, t0 = m, 0
    r1, t1 = r % m, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    if t1 < 0:
        return Fraction(-r1, -t1)
    return Fraction(r1, t1)


def _verify_integer_nullvector(M: IntSymMatrix, v: list[int]) -> bool:
    """Exact check M @ v == 0 via modular matvecs with modulus beating |M @ v|."""
    max_abs = max((abs(x) for x in v), default=0)
    if max_abs == 0:
        return False
    max_entry = int(np.abs(M.data).max()) if M.dim else 0
    bound_bits = (
        max_abs.bit_length() + max_entry.bit_length() + M.dim.bit_length() + 2
    )
    rng = random.Random(0xC0FFEE)
    bits = 0
    used = set()
    while bits <= bound_bits:
        p = random_prime_31(rng)
        if p in used:
            continue
        used.add(p)
        Mp = M.data % p
        vp = np.array([x % p for x in v], dtype=np.int64)
        lo = vp & 0xFFFF
        hi = vp >> 16
        res = ((Mp @ lo) % p + ((Mp @ hi) % p << 16)) % p
        if np.any(res):
            return False
        bits += 31
    return True


def _rank_bareiss(M: IntSymMatrix) -> int:
    """Fraction-free Bareiss elimination (exact, arbitrary-precision integers)."""
    a = [[int(x) for x in row] for row in M.data]
    n = M.dim
    prev = 1
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pivot_val = a[r][col]
        for i in range(r + 1, n):
            row_i, row_r = a[i], a[r]
            f = row_i[col]
            for j in range(col, n):
                row_i[j] = (row_i[j] * pivot_val - f * row_r[j]) // prev
        prev = pivot_val
        r += 1
        if r == n:
            break
    return r


def exact_rank_bareiss(M: IntSymMatrix, cap: int = EXACT_CAP) -> int:
    if M.dim > cap:
        raise CapExceeded(f"dim {M.dim} exceeds exact cap {cap}")
    return _rank_bareiss(M)


def exact_rank(M: IntSymMatrix, seed: int = 0, cap: int = EXACT_CAP) -> int:
    """Certified rank of M over Q."""
    if M.dim > cap:
        raise CapExceeded(f"dim {M.dim} exceeds exact cap {cap}")
    if M.dim == 0:
        return 0
    if M.dim <= 12:
        return _rank_bareiss(M)
    rng = random.Random(seed)
    p0 = random_prime_22(rng)
    if rank_mod_p(M, p0) == M.dim:
        return M.dim  # a nonzero n x n minor mod p is nonzero over Q
    best_rank = -1
    best_pivots: list[int] | None = None
    for _ in range(64):
        p = random_prime_22(rng)
        r, pivots, null_p = _eliminate(M.data, p)
        if r == M.dim:
            return M.dim
        if r > best_rank:
            # residues of the nullspace basis modulo the product of the primes
            # that agree on the consensus structure
            best_rank, best_pivots = r, pivots
            residues, modulus = null_p.T.astype(object), p
        elif r < best_rank or pivots != best_pivots:
            continue  # unlucky prime for the consensus structure; discard it
        else:
            t = (null_p.T - residues) % p * pow(modulus % p, p - 2, p) % p
            residues, modulus = residues + modulus * t, modulus * p
        lifted = []
        for acc in residues:
            fracs = [_rational_reconstruct(res, modulus) for res in acc]
            if any(f is None for f in fracs):
                break
            den = 1
            for f in fracs:
                den = den * f.denominator // gcd(den, f.denominator)
            lifted.append([int(f * den) for f in fracs])
        else:
            if all(_verify_integer_nullvector(M, v) for v in lifted):
                # nullity >= dim - best_rank (free-column pattern keeps the
                # verified vectors independent) and rank >= best_rank from the
                # mod-p pivot minor: together that pins rank = best_rank.
                return best_rank
    return _rank_bareiss(M)  # certification stalled; exact but slow


# ---------------------------------------------------------------------------
# signature / spectrum / components / inverse

def _exact_inertia_ldlt(M: IntSymMatrix) -> tuple[int, int, int]:
    """Inertia by exact LDL^T with full symmetric pivoting (1x1 and 2x2 blocks)."""
    n = M.dim
    a = {}
    for i in range(n):
        for j in range(i, n):
            a[(i, j)] = Fraction(int(M.data[i, j]))

    def get(i, j):
        return a[(i, j)] if i <= j else a[(j, i)]

    def put(i, j, v):
        a[(i, j) if i <= j else (j, i)] = v

    active = list(range(n))
    pos = neg = zero = 0
    while active:
        k = max(active, key=lambda i: abs(get(i, i)))
        if get(k, k) != 0:
            d = get(k, k)
            if d > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in active if i != k]
            col = {i: get(i, k) for i in rest}
            for x, i in enumerate(rest):
                if col[i] == 0:
                    continue
                for j in rest[x:]:
                    if col[j] != 0:
                        put(i, j, get(i, j) - col[i] * col[j] / d)
            active = rest
            continue
        # every active diagonal is zero: use a hyperbolic 2x2 pivot
        pair = None
        for ii, i in enumerate(active):
            for j in active[ii + 1 :]:
                if get(i, j) != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        k, l = pair
        b = get(k, l)  # block [[0, b], [b, 0]]: inertia (1, 1)
        pos += 1
        neg += 1
        rest = [i for i in active if i not in (k, l)]
        colk = {i: get(i, k) for i in rest}
        coll = {i: get(i, l) for i in rest}
        for x, i in enumerate(rest):
            for j in rest[x:]:
                delta = (colk[i] * coll[j] + coll[i] * colk[j]) / b
                if delta:
                    put(i, j, get(i, j) - delta)
        active = rest
    return pos, neg, zero


def signature(M: IntSymMatrix, seed: int = 0) -> Signature:
    n = M.dim
    if n == 0:
        return Signature(0, 0, 0)
    zero = n - exact_rank(M, seed=seed)
    evals = np.linalg.eigvalsh(M.data.astype(np.float64))
    by_mag = np.sort(np.abs(evals))
    disc_max = float(by_mag[zero - 1]) if zero else 0.0
    kept_min = float(by_mag[zero]) if zero < n else float("inf")
    noise = 1e-13 * n * float(by_mag[-1])
    if kept_min >= max(1e3 * disc_max, 1e3 * noise, 1e-300):
        order = np.argsort(np.abs(evals))
        kept = evals[order[zero:]]
        return Signature(int((kept > 0).sum()), int((kept < 0).sum()), zero)
    if n > _LDLT_FALLBACK_CAP:
        raise SeparationFailure(
            f"float eigenvalue separation {kept_min:.3g} vs {disc_max:.3g} is below 10^3 "
            f"and dim {n} exceeds the exact-inertia fallback cap"
        )
    pos, neg, z2 = _exact_inertia_ldlt(M)
    if z2 != zero:
        raise SeparationFailure(f"rank certificate ({zero} zeros) disagrees with LDL^T ({z2})")
    return Signature(pos, neg, zero)


def spectrum(M: IntSymMatrix, tol: float = SPECTRUM_TOL) -> list[SpectrumEntry]:
    """Floating eigendecomposition with eigenvalues merged at relative tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if M.dim == 0:
        return []
    evals, vecs = np.linalg.eigh(M.data.astype(np.float64))
    scale = max(float(np.max(np.abs(evals))), 1.0)
    order = np.argsort(-evals)
    evals = evals[order]
    vecs = vecs[:, order]
    entries = []
    start = 0
    for i in range(1, M.dim + 1):
        if i == M.dim or evals[i - 1] - evals[i] > tol * scale:
            vals = evals[start:i]
            mean = float(np.mean(vals))
            entries.append(
                SpectrumEntry(
                    value=mean,
                    multiplicity=i - start,
                    vectors=vecs[:, start:i],
                    integral=abs(mean - round(mean)) <= 1e-6 * max(1.0, abs(mean)),
                )
            )
            start = i
    return entries


def integer_eigen_multiplicity(M: IntSymMatrix, k: int, seed: int = 0) -> int:
    """Certified multiplicity of the integer k in the spectrum of M."""
    shifted = IntSymMatrix(M.data - k * np.eye(M.dim, dtype=np.int64))
    return M.dim - exact_rank(shifted, seed=seed)


def connected_components(M: IntSymMatrix) -> list[list[int]]:
    """Components of the graph with an edge (i,j) wherever M[i][j] != 0."""
    n = M.dim
    seen = np.zeros(n, dtype=bool)
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        frontier = [s]
        seen[s] = True
        while frontier:
            i = frontier.pop()
            comp.append(i)
            for j in np.nonzero(M.data[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    frontier.append(int(j))
        comps.append(sorted(comp))
    return comps


def exact_inverse(M: IntSymMatrix, cap: int = INVERSE_CAP) -> list[list[Fraction]]:
    """Exact rational inverse by Gauss-Jordan over Fraction."""
    n = M.dim
    if n > cap:
        raise CapExceeded(f"dim {n} exceeds inverse cap {cap}")
    aug = [
        [Fraction(int(M.data[i, j])) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise SingularMatrix(f"column {col} has no pivot")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [x / d for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
