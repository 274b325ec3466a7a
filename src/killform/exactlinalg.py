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
One fraction-free symmetric elimination, `_exact_inertia`, is the exact
fallback for both certificates: it gives the rank when the lift stalls and
the inertia when the float eigenvalues do not separate.

Floating eigenwork goes through LAPACK (numpy.linalg.eigh), and float
column picks through `_pivot_columns`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
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


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B mod p as int64 in [0, p), exact for p < 2**31, written to out
    when given.  out may be A itself: A is taken 64 rows at a time, and each
    block is read before its product is written.

    Both factors are reduced mod p, B once and each block of A as it is
    taken.  Where n (p - 1)**2 < 2**53, n the inner dimension, every sum of a
    float64 matmul is an integer below 2**53, so one such product per block
    is exact; the residues go straight into float64, with no int64 copy.
    Otherwise the factors are split into 16-bit limbs; each limb product is a
    float64 matmul whose sums stay below 2**53, for inner dimensions up to
    2**21.  So besides the blocks, only B's float64 copy (or its two limbs)
    is held.
    """
    if out is None:
        out = np.empty((A.shape[0], B.shape[1]), dtype=np.int64)
    if A.shape[1] * (p - 1) ** 2 < 1 << 53:
        def residues(X):  # reduced by the int64 loop, cast to float64 entry by entry
            return np.mod(X, p, out=np.empty(X.shape), dtype=np.int64, casting="unsafe")

        b = residues(B)

        def product(a):
            x = residues(a) @ b
            return np.mod(x, p, out=x)
    else:
        if A.shape[1] > 1 << 21:
            raise ValueError(f"inner dimension {A.shape[1]} exceeds 2**21")
        B = np.mod(B, p).astype(np.int64, copy=False)
        b_lo, b_hi = (B & 0xFFFF).astype(np.float64), (B >> 16).astype(np.float64)

        def product(a):
            a = np.mod(a, p).astype(np.int64, copy=False)
            a_lo, a_hi = (a & 0xFFFF).astype(np.float64), (a >> 16).astype(np.float64)
            hi = (a_hi @ b_hi).astype(np.int64) % p
            mid = ((a_hi @ b_lo).astype(np.int64) + (a_lo @ b_hi).astype(np.int64)) % p
            lo = (a_lo @ b_lo).astype(np.int64) % p
            return ((((hi << 16) % p + mid) << 16) % p + lo) % p
    for r0 in range(0, A.shape[0], 64):
        out[r0 : r0 + 64] = product(A[r0 : r0 + 64])
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


def _exact_inertia(M: IntSymMatrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of M by fraction-free symmetric
    elimination, in Python integers, on the upper triangle alone.

    Each step pivots on the first active index k with a_kk != 0; the LDL^T
    pivot a_kk / prev has the sign of a_kk * prev.  The active entries a_ij,
    j >= i, then become (a_kk a_ij - a_ik a_kj) / prev, which by Sylvester's
    identity are minors of the matrix eliminated, so every division is exact
    (Bareiss 1968).  If every active diagonal entry is 0 but some a_kj is
    not, row and column j are added to row and column k, which makes a_kk =
    2 a_kj: a unimodular congruence on the active indices, so the matrix
    eliminated stays congruent to M, and it changes only the pivot column k.
    If every active entry is 0, the active indices are the zeros of the
    inertia.
    """
    a = [[int(x) for x in row] for row in M.data]  # only a[i][j], j >= i, is read

    def column(k: int) -> list[int]:
        return [row[k] for row in a[:k]] + a[k][k:]

    prev, pos, neg = 1, 0, 0
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(a) for j in range(i + 1, len(row))
                         if row[j]), None)
            if pair is None:
                break
            k, j = pair
            col = [x + y for x, y in zip(column(k), column(j))]
            col[k] = 2 * a[k][j]
        else:
            col = column(k)
        del a[k]
        d = col.pop(k)
        if d * prev > 0:
            pos += 1
        else:
            neg += 1
        for i, row in enumerate(a):
            del row[k]
            a_ik = col[i]
            row[i:] = [(d * x - a_ik * y) // prev for x, y in zip(row[i:], col[i:])]
        prev = d
    return pos, neg, len(a)


def exact_rank(M: IntSymMatrix, seed: int = 0, cap: int = EXACT_CAP) -> int:
    """Certified rank of M over Q.

    One `_lift_nullspace`: its first prime's elimination settles a matrix of
    full rank mod that prime and is the first residue of the lift otherwise.
    """
    if M.dim > cap:
        raise CapExceeded(f"dim {M.dim} exceeds exact cap {cap}")
    lifted = _lift_nullspace(M.data, random.Random(seed))
    if lifted is None:  # a stalled lift: slow, exact elimination
        pos, neg, _ = _exact_inertia(M)
        return pos + neg
    return lifted[0]


# ---------------------------------------------------------------------------
# signature / spectrum / components

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
    pos, neg, z2 = _exact_inertia(M)
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


def _pivot_columns(X: np.ndarray, rank: int) -> list[int] | None:
    """rank columns of the float X, picked as QR with column pivoting picks
    them (Businger and Golub 1965), the one with the largest residual each
    time; None when a pick has no residual left.  The squared residuals are
    read off the Gram matrix X^T X by pivoted Cholesky (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10): one BLAS product, then
    O(n * rank) work per pick for n columns.  Where X is wider than tall,
    only the Gram columns at the picks are formed, one product each, so no
    n x n matrix is held."""
    wide = X.shape[0] < X.shape[1]
    gram = None if wide else X.T @ X
    residual = np.einsum("ij,ij->j", X, X) if wide else gram.diagonal().copy()
    L = np.zeros((X.shape[1], rank))
    picked = []
    for i in range(rank):
        c = int(np.argmax(residual))
        if residual[c] <= 0:
            return None
        picked.append(c)
        column = X.T @ X[:, c] if wide else gram[:, c]
        L[:, i] = (column - L[:, :i] @ L[c, :i]) / np.sqrt(residual[c])
        residual -= L[:, i] ** 2
        residual[c] = 0  # not left above the others by rounding, to be picked again
    return picked


def spectrum(M: IntSymMatrix) -> list[SpectrumEntry]:
    """Floating eigendecomposition with eigenvalues merged at relative SPECTRUM_TOL."""
    if M.dim == 0:
        return []
    vecs, clusters = _clustered_eigh(M.data.astype(np.float64))
    return [SpectrumEntry(value=mean, multiplicity=stop - start, vectors=vecs[:, start:stop],
                          integral=integral)
            for start, stop, mean, integral in clusters]


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
