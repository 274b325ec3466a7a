"""Exact and floating linear algebra for symmetric integer matrices.

All elimination mod p goes through one blocked routine, `_echelon`, which
returns the echelon form and the pivot columns; `_eliminate` adds the
back-substitution that gives a nullspace basis over GF(p); a matrix of full
column rank mod p skips it.  Rank is certified exactly without full
big-integer elimination, by one routine, `_lift_nullspace`: the rank mod a
random 22-bit prime bounds the rank from below (a pivot minor nonzero mod p is
nonzero over Q), so full rank mod the first prime settles it after one
elimination.  Otherwise that elimination's nullspace is the first residue of
a CRT lift over 22-bit primes (small enough that the float64 panel updates
stay exact); each lifted vector is reconstructed as rationals over one shared
denominator and the basis is verified exactly by one matrix product per
31-bit prime; the verified nullity bounds the rank from above.  The Casimir
solves L y = e_1 by the same lift, applied to [L | -e_1] (killing.casimir).
Fraction-free Bareiss remains as the rank fallback when the lift stalls and as
an independent oracle.

Floating eigenwork goes through LAPACK (numpy.linalg.eigh).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import CapExceeded, SeparationFailure

EXACT_CAP = 4096
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

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows idx, as one array."""
        return self.data[idx]

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
    # dim x multiplicity, orthonormal columns; None on the entries read on the
    # centraliser orbits (KillingForm.spectrum)
    vectors: np.ndarray | None
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

def _gf_block_width(p: int, cap: int = 64) -> int:
    # dot products of length b over entries < p must stay below 2**53 so the
    # float64 matmul is exact.  Within a panel every pivot updates the rest of
    # the panel elementwise, so wide panels cost more than the Schur updates
    # they save: with one BLAS thread on a 2-vCPU x86 VM, panels of 64 columns
    # eliminated 224 x 224 to 1200 x 1200 mod a 22-bit prime 1.2-1.6x faster
    # than panels of 256
    return min(cap, (1 << 53) // (p * p))


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p as int64 in [0, p), exact for p < 2**31.

    Both factors are reduced mod p and split into 16-bit limbs; each limb
    product is a float64 matmul whose sums stay below 2**53, so it is exact,
    for inner dimensions up to 2**21.  A is taken 256 rows at a time, so the
    limbs of a large A are never all held at once.
    """
    if A.shape[1] > 1 << 21:
        raise ValueError(f"inner dimension {A.shape[1]} exceeds 2**21")
    B = np.mod(B, p).astype(np.int64, copy=False)
    b_lo, b_hi = (B & 0xFFFF).astype(np.float64), (B >> 16).astype(np.float64)
    out = np.empty((A.shape[0], B.shape[1]), dtype=np.int64)
    for r0 in range(0, A.shape[0], 256):
        a = np.mod(A[r0 : r0 + 256], p).astype(np.int64, copy=False)
        a_lo, a_hi = (a & 0xFFFF).astype(np.float64), (a >> 16).astype(np.float64)
        hi = (a_hi @ b_hi).astype(np.int64) % p
        mid = ((a_hi @ b_lo).astype(np.int64) + (a_lo @ b_hi).astype(np.int64)) % p
        lo = (a_lo @ b_lo).astype(np.int64) % p
        out[r0 : r0 + 256] = ((((hi << 16) % p + mid) << 16) % p + lo) % p
    return out


def _echelon(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """The echelon form of A over GF(p), its pivot columns and the panel
    width; A is not modified.

    Blocked LU-style elimination in the manner of FFLAS-FFPACK (Dumas, Giorgi,
    Pernet).  Each panel of `_gf_block_width(p)` columns is reduced column by
    column; a column with no pivot is skipped, and the multipliers stay below
    the pivots as the L factor.  The trailing columns then take one Schur
    update per panel as an exact float64 matmul.  Within a panel, entries are
    reduced mod p only where they are read (the pivot column and row) and at
    the end of the panel, as long as the products of reduced entries that
    pile up in between stay below 2**62.  Below width 8 one panel covers the
    whole matrix and no float product is formed.
    """
    A = np.mod(np.asarray(A, dtype=np.int64), p)
    n_rows, n_cols = A.shape
    width = _gf_block_width(p)
    if width < 8:
        width = max(n_cols, 1)
    lazy = width * p * p < 1 << 62  # at most width products below p**2 pile up
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
            col = A[rr:, j]
            col %= p
            i = rr + int(np.argmax(col != 0))  # the first nonzero, if any
            if A[i, j] == 0:
                continue
            if i != rr:
                A[[rr, i]] = A[[i, rr]]
            inv = pow(int(A[rr, j]), p - 2, p)
            A[rr, j:c1] = A[rr, j:c1] % p * inv % p
            sub = A[rr + 1 :, j + 1 : c1]
            sub -= A[rr + 1 :, j, None] * A[rr, j + 1 : c1]
            if not lazy:
                sub %= p
            pcols.append(j)
            invs.append(inv)
        A[r0:, c0:c1] %= p
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
    return A, pivots, width


def _eliminate(A: np.ndarray, p: int) -> tuple[int, list[int], np.ndarray]:
    """Rank, pivot columns and nullspace of A over GF(p); A is not modified.

    The nullspace is solved from the rows of `_echelon` by a blocked
    back-substitution; its columns are the identity on the free columns, so
    they are the vectors the reduced row echelon form gives.
    """
    A, pivots, width = _echelon(A, p)
    n_cols = A.shape[1]
    if len(pivots) == n_cols:
        return n_cols, pivots, np.zeros((n_cols, 0), dtype=np.int64)
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
    return len(_echelon(M.data, p)[1])


# ---------------------------------------------------------------------------
# CRT / rational reconstruction

def _rational_reconstruct(r: int, m: int) -> tuple[int, int] | None:
    """Wang reconstruction: (n, d) with n/d == r (mod m), d > 0 and
    |n|, d <= sqrt(m/2), in lowest terms."""
    bound = isqrt(m // 2)
    r0, t0 = m, 0
    r1, t1 = r % m, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    return (-r1, -t1) if t1 < 0 else (r1, t1)


def _reconstruct_vector(residues, m: int) -> list[int] | None:
    """den * x for the rational vector x with these residues mod m and the
    least den > 0 that makes it integral, or None.

    One denominator is carried along the vector: den * res mod m is taken as
    the numerator where it is at most sqrt(m/2) in absolute value, and only
    elsewhere does Wang reconstruction run, multiplying den by the
    denominator it finds.  The answer is None once den passes sqrt(m/2).
    Whenever it is not None, it is what per-entry Wang reconstruction scaled
    by the lcm of its denominators gives.
    """
    bound = isqrt(m // 2)
    den, nums = 1, []
    for res in residues:
        n = den * res % m
        if n > bound:
            n -= m
            if n < -bound:
                frac = _rational_reconstruct(n, m)
                if frac is None:
                    return None
                n, d = frac
                den *= d
                if den > bound:
                    return None
                nums = [x * d for x in nums]
        nums.append(n)
    return nums


def _verify_integer_nullspace(A: np.ndarray, vectors: list[list[int]]) -> bool:
    """Exact check A @ v == 0 for every v: one float64 matmul of the whole
    basis where |A @ v| stays below 2^53, else one per 31-bit prime, with
    primes taken until their product exceeds |A @ v|."""
    if not all(any(v) for v in vectors):
        return False
    V = np.array(vectors, dtype=object).T
    max_abs = max((abs(x) for v in vectors for x in v), default=0)
    bound = A.shape[1] * int(np.abs(A).max(initial=0)) * max_abs
    if bound < 1 << 53:  # every partial sum is an integer below 2^53: exact in float64
        return not np.any(A.astype(np.float64) @ V.astype(np.float64))
    rng = random.Random(0xC0FFEE)
    modulus = 1
    while modulus <= bound:
        p = random_prime_31(rng)
        if modulus % p == 0:
            continue
        if np.any(_matmul_mod(A, V, p)):
            return False
        modulus *= p
    return True


def _lift_nullspace(A: np.ndarray,
                    rng: random.Random) -> tuple[int, list[int], list[list[int]]] | None:
    """Rank, pivot columns and a verified integer nullspace basis of A over Q,
    or None if 64 primes do not settle them.

    The nullspaces mod 22-bit primes that agree on the consensus (highest
    rank, then lexicographically smallest pivots: an unlucky prime can only
    lower the rank or push a pivot right) are CRT-combined, reconstructed as
    rationals, scaled to integers and checked exactly.  The pivot minor is
    nonzero over Q, and the verified vectors are independent (a multiple of
    the identity on the free columns), so the consensus rank is the rank.
    """
    best: tuple[int, list[int]] | None = None
    for _ in range(64):
        p = random_prime_22(rng)
        r, pivots, null_p = _eliminate(A, p)
        if r == A.shape[1]:
            return r, pivots, []
        if best is None or (-r, pivots) < (-best[0], best[1]):
            # residues of the nullspace basis modulo the product of the primes
            # that agree on the consensus structure
            best = r, pivots
            residues, modulus = null_p.T.astype(object), p
        elif (r, pivots) != best:
            continue  # unlucky prime for the consensus structure; discard it
        else:
            t = (null_p.T - residues) % p * pow(modulus % p, p - 2, p) % p
            residues, modulus = residues + modulus * t, modulus * p
        lifted = []
        for acc in residues:
            v = _reconstruct_vector(acc, modulus)
            if v is None:
                break
            lifted.append(v)
        else:
            if _verify_integer_nullspace(A, lifted):
                return best[0], best[1], lifted
    return None


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
    """Certified rank of M over Q.

    One `_lift_nullspace`: its first prime's elimination settles a matrix of
    full rank mod that prime and is the first residue of the lift otherwise.
    """
    if M.dim > cap:
        raise CapExceeded(f"dim {M.dim} exceeds exact cap {cap}")
    lifted = _lift_nullspace(M.data, random.Random(seed))
    return _rank_bareiss(M) if lifted is None else lifted[0]  # Bareiss: slow, on a stall


# ---------------------------------------------------------------------------
# signature / spectrum / components

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


def _clustered_eigh(Y: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, float, bool]]]:
    """The orthonormal eigenvectors of the symmetric float matrix Y, in order
    of descending eigenvalue, and the clusters of those eigenvalues as
    (start, stop, mean, integral): runs split wherever consecutive values are
    more than SPECTRUM_TOL apart relative to the largest magnitude (at least 1),
    with `integral` a float closeness flag on the mean."""
    evals, vecs = np.linalg.eigh(Y)
    order = np.argsort(-evals)
    evals, vecs = evals[order], vecs[:, order]
    scale = max(float(np.max(np.abs(evals))), 1.0)
    bounds = [0, *(np.flatnonzero(evals[:-1] - evals[1:] > SPECTRUM_TOL * scale) + 1).tolist(),
              len(evals)]
    clusters = []
    for start, stop in zip(bounds, bounds[1:]):
        mean = float(np.mean(evals[start:stop]))
        clusters.append((start, stop, mean, abs(mean - round(mean)) <= 1e-6 * max(1.0, abs(mean))))
    return vecs, clusters


def spectrum(M: IntSymMatrix) -> list[SpectrumEntry]:
    """Floating eigendecomposition with eigenvalues merged at relative SPECTRUM_TOL."""
    if M.dim == 0:
        return []
    vecs, clusters = _clustered_eigh(M.data.astype(np.float64))
    return [SpectrumEntry(value=mean, multiplicity=stop - start, vectors=vecs[:, start:stop],
                          integral=integral)
            for start, stop, mean, integral in clusters]


def integer_eigen_multiplicity(M: IntSymMatrix, k: int, seed: int = 0) -> int:
    """Certified multiplicity of the integer k in the spectrum of M."""
    shifted = IntSymMatrix(M.data - k * np.eye(M.dim, dtype=np.int64))
    return M.dim - exact_rank(shifted, seed=seed)


def connected_components(M: IntSymMatrix) -> list[list[int]]:
    """Components of the graph with an edge (i,j) wherever M[i][j] != 0, each
    sorted, in order of their smallest member."""
    A = M.data != 0
    seen = np.zeros(M.dim, dtype=bool)
    comps = []
    for s in range(M.dim):
        if seen[s]:
            continue
        before = seen.copy()
        frontier = np.zeros(M.dim, dtype=bool)
        frontier[s] = True
        while frontier.any():
            seen |= frontier
            frontier = A[frontier].any(axis=0) & ~seen
        comps.append(np.flatnonzero(seen & ~before).tolist())
    return comps
