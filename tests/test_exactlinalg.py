import random
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_oracle import exact_inverse
from form_oracle import (
    _exact_inertia_ldlt,
    _rank_bareiss,
    exact_rank_bareiss,
    integer_eigen_multiplicity,
)
from golden_survey import GROUP_SPECS
from killform import characters, cli, exactlinalg, killing
from killform.cli import cmd_decompose
from killform.errors import CapExceeded, SeparationFailure, SingularMatrix
from killform.groups import build_named_group
from killform.exactlinalg import (
    IntSymMatrix,
    Signature,
    _eliminate,
    _exact_inertia,
    _gf_block_width,
    _is_prime,
    _lift_nullspace,
    _matmul_mod,
    _rational_reconstruct,
    _reconstruct_vector,
    _verify_integer_nullspace,
    connected_components,
    exact_rank,
    random_prime_22,
    random_prime_31,
    rank_mod_p,
    signature,
    spectrum,
)


def rank_fraction_oracle(M: IntSymMatrix) -> int:
    """Independent exact rank: plain Gaussian elimination over Fraction."""
    rows = [[Fraction(int(x)) for x in row] for row in M.data]
    rank = 0
    for col in range(M.dim):
        piv = next((i for i in range(rank, M.dim) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, M.dim):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_symmetric(rng, n, lo=-9, hi=9):
    A = rng.integers(lo, hi + 1, size=(n, n))
    return IntSymMatrix(A + A.T)


def random_low_rank(rng, n, r):
    B = rng.integers(-5, 6, size=(n, r))
    return IntSymMatrix(B @ B.T)


def test_is_prime_small():
    primes = [p for p in range(60) if _is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert _is_prime(2**31 - 1)
    assert not _is_prime(2**31 - 3)


def test_rank_mod_p_examples():
    assert rank_mod_p(IntSymMatrix(np.eye(3, dtype=int)), 5) == 3
    assert rank_mod_p(IntSymMatrix(np.full((3, 3), 3)), 5) == 1
    # the 2x2 all-2s matrix: the 3-cycles Killing form of S3, degenerate
    assert rank_mod_p(IntSymMatrix([[2, 2], [2, 2]]), 7) == 1


def test_rank_mod_p_can_undershoot():
    # det = 5, so rank drops exactly mod 5
    M = IntSymMatrix([[5, 0], [0, 1]])
    assert rank_mod_p(M, 5) == 1
    assert rank_mod_p(M, 7) == 2
    assert exact_rank(M) == 2


def test_exact_rank_examples():
    assert exact_rank(IntSymMatrix(3 * np.eye(3, dtype=int))) == 3
    assert exact_rank(IntSymMatrix(np.zeros((4, 4), dtype=int))) == 0
    assert exact_rank(IntSymMatrix([[2, 2], [2, 2]])) == 1


def test_exact_rank_matches_oracles():
    rng = np.random.default_rng(7)
    for n in [5, 13, 20, 33]:
        for make in (lambda: random_symmetric(rng, n),
                     lambda: random_low_rank(rng, n, max(1, n // 2)),
                     lambda: random_low_rank(rng, n, n - 1)):
            M = make()
            expect = rank_fraction_oracle(M)
            assert exact_rank(M) == expect
            assert exact_rank_bareiss(M) == expect


def test_exact_rank_large_singular():
    # exercise the CRT-lift path well past the Bareiss cutoff
    rng = np.random.default_rng(3)
    M = random_low_rank(rng, 60, 41)
    assert exact_rank(M) == rank_fraction_oracle(M)


def test_verify_integer_nullspace_checks_every_column():
    # M is a nonsingular r x r block padded with zeros, then permuted; the
    # padding coordinates span its kernel
    rng = np.random.default_rng(11)
    n, r = 40, 30
    M0 = np.zeros((n, n), dtype=np.int64)
    M0[:r, :r] = random_symmetric(rng, r).data
    perm = rng.permutation(n)
    M = IntSymMatrix(M0[np.ix_(perm, perm)])
    at = np.argsort(perm)  # M0 coordinate -> M coordinate
    basis = []
    for j in range(n - r):
        v = [0] * n
        v[at[r + j]] = 10**30 + j  # beyond int64, as CRT-lifted vectors can be
        basis.append(v)
    assert _verify_integer_nullspace(M.data, basis)
    bad = [list(v) for v in basis]
    bad[-1][at[0]] = 1
    assert not _verify_integer_nullspace(M.data, bad)
    assert not _verify_integer_nullspace(M.data, basis + [[0] * n])


def test_verify_integer_nullspace_takes_enough_primes():
    # the residual of v is a multiple of the first prime the check draws, so
    # only the bound from the largest entry of v makes it draw a second one;
    # below 2^53 one float64 product decides, so it takes p1 * 2^23 to get there
    p1 = random_prime_31(random.Random(0xC0FFEE))
    M = IntSymMatrix([[1, 0], [0, 0]])
    assert _verify_integer_nullspace(M.data, [[0, 1]])
    assert not _verify_integer_nullspace(M.data, [[0, 1], [p1, 1]])
    assert not _verify_integer_nullspace(M.data, [[0, 1], [p1 << 23, 1]])


def test_exact_rank_cap():
    with pytest.raises(CapExceeded):
        exact_rank(IntSymMatrix(np.eye(5, dtype=int)), cap=4)


def test_exact_rank_settled_by_its_first_prime_eliminates_once(eliminations):
    # [[A, A], [A, A]] with A nonsingular: the nullspace basis is (-e_j, e_j),
    # small enough to reconstruct from one 22-bit prime
    A = 3 * np.eye(6, dtype=np.int64) + random_symmetric(np.random.default_rng(2), 6, -1, 1).data
    M = IntSymMatrix(np.block([[A, A], [A, A]]))
    assert exact_rank(M) == 6 == rank_fraction_oracle(M)
    assert eliminations == [(12, 12)]


def test_exact_rank_of_a_full_rank_matrix_eliminates_once(eliminations):
    M = IntSymMatrix(3 * np.eye(40, dtype=np.int64)
                     + random_symmetric(np.random.default_rng(4), 40, -1, 1).data)
    assert exact_rank(M) == 40
    assert eliminations == [(40, 40)]
    assert _lift_nullspace(M.data, random.Random(0)) == (40, list(range(40)), [])
    rank, _, N = _eliminate(M.data, P22)
    assert rank == 40 and N.shape == (40, 0)


def test_decompose_eliminates_once_per_integral_certificate(monkeypatch, eliminations):
    # with every proposed basis refused, each row falls back to its own certificate
    per_call = []
    certify = characters.exact_rank

    def recording(M, *args, **kwargs):
        before = len(eliminations)
        rank = certify(M, *args, **kwargs)
        per_call.append(len(eliminations) - before)
        return rank

    monkeypatch.setattr(characters, "exact_rank", recording)
    monkeypatch.setattr(characters, "_propose_integer_basis", lambda V: None)
    assert cmd_decompose("PSL(2,11)", "5A").exit_code == 0
    assert per_call == [1] * 6


def _decompose_with(monkeypatch, spec):
    """cmd_decompose on one built group and its table, so that only the
    decomposition's own eliminations run."""
    G = build_named_group(spec)
    T = characters.character_table(G)
    monkeypatch.setattr(cli, "build_named_group", lambda spec, cap: G)
    monkeypatch.setattr(cli, "character_table", lambda G: T)
    return G, lambda selector: cmd_decompose(spec, selector)


def test_decompose_eliminates_once_per_class(monkeypatch, eliminations):
    G, decompose = _decompose_with(monkeypatch, "PSL(2,11)")
    r = len(killing._orbital_data(killing.killing_matrix(G, cli.resolve_class(G, "5A"))).w)
    before = len(eliminations)  # the table's
    assert decompose("5A").exit_code == 0
    assert eliminations[before:] == [(r, r)]  # six integral rows, one certificate


def test_decompose_of_m11_eliminates_once_per_class(monkeypatch, eliminations):
    G, decompose = _decompose_with(monkeypatch, GROUP_SPECS["M11"])
    before = len(eliminations)  # the table's
    for C in G.classes()[1:]:
        assert decompose(C.label).exit_code == 0
    assert len(eliminations) - before == 9  # 36 with one certificate per integral row


@pytest.mark.parametrize("rest", [(1,), (1, 0)])
def test_exact_rank_survives_a_first_prime_dividing_a_pivot(monkeypatch, rest):
    # p divides the first diagonal entry, so the first prime sees rank 1 with
    # a nullspace vector (1, 0, ...) that the exact check rejects
    p = random_prime_22(random.Random(1))
    M = IntSymMatrix(np.diag([p, *rest]))
    draw = exactlinalg.random_prime_22
    drawn = []

    def p_first(rng):
        drawn.append(draw(rng) if drawn else p)
        return drawn[-1]

    monkeypatch.setattr(exactlinalg, "random_prime_22", p_first)
    assert exact_rank(M) == 2
    assert len(drawn) >= 2  # p alone did not settle it


def wang_per_entry(residues, m):
    """Per-entry Wang reconstruction over the lcm of its denominators."""
    fracs = [_rational_reconstruct(r, m) for r in residues]
    if None in fracs:
        return None
    den = lcm(*(d for _, d in fracs))
    return [n * (den // d) for n, d in fracs]


PRIMES_22 = [random_prime_22(random.Random(k)) for k in range(4)]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 2**20)), min_size=1,
                max_size=8),
       st.integers(1, len(PRIMES_22)))
def test_reconstruct_vector_agrees_with_per_entry_wang(fracs, n_primes):
    m = 1
    for p in PRIMES_22[:n_primes]:
        m *= p  # every denominator is below every prime, so it is invertible
    residues = [n * pow(d, -1, m) % m for n, d in fracs]
    bound = isqrt(m // 2)
    v, w = _reconstruct_vector(residues, m), wang_per_entry(residues, m)
    if v is not None:
        assert v == w
    if w is None or lcm(*(_rational_reconstruct(r, m)[1] for r in residues)) > bound:
        assert v is None  # the modulus is too small for one shared denominator
    elif max(map(abs, w)) <= bound:
        assert v == w
    x = [Fraction(n, d) for n, d in fracs]
    den = lcm(*(q.denominator for q in x))
    truth = [int(q * den) for q in x]
    if max(den, *map(abs, truth)) <= bound:
        assert v == truth


def test_reconstruct_vector_is_none_when_no_shared_denominator_fits():
    # mod 1009, 1/3, 1/5 and 1/7 each reconstruct, but their lcm 105 exceeds
    # sqrt(1009/2)
    for m, shared in [(1009, None), (PRIMES_22[0], [35, 21, 15])]:
        residues = [pow(d, -1, m) for d in (3, 5, 7)]
        assert wang_per_entry(residues, m) == [35, 21, 15]
        assert _reconstruct_vector(residues, m) == shared


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_rank_mod_p_lower_bounds_exact(n, seed):
    rng = np.random.default_rng(seed)
    M = random_symmetric(rng, n, lo=-4, hi=4)
    r = exact_rank(M)
    for p in (3, 5, 101, 2**31 - 1):
        assert rank_mod_p(M, p) <= r


# ----------------------------------------------------- GF(p) elimination

P22 = 4194301  # largest prime below 2**22: panels of 256 columns
P25 = 33554393  # largest prime below 2**25: panels of 8, the narrowest blocked case
P31 = 2**31 - 1  # panel width 0: one panel covers the matrix
W22 = _gf_block_width(P22)
W25 = _gf_block_width(P25)


def rref_mod_p_oracle(A, p):
    """Scalar reduced row echelon form over GF(p): (rank, pivot columns, nullspace)."""
    A = np.mod(np.array(A, dtype=np.int64), p)
    n_rows, n_cols = A.shape
    pivots = []
    for col in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        nz = np.flatnonzero(A[r:, col])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, col]), p - 2, p) % p
        mult = A[:, col].copy()
        mult[r] = 0
        A -= mult[:, None] * A[r]
        A %= p
        pivots.append(col)
    free = [c for c in range(n_cols) if c not in pivots]
    N = np.zeros((n_cols, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        N[f, j] = 1
        N[pivots, j] = -A[: len(pivots), f] % p
    return len(pivots), pivots, N


def matmul_mod(A, N, p):
    """A @ N mod p without int64 overflow: N is split into 16-bit halves."""
    A = np.mod(A, p)
    lo, hi = N & 0xFFFF, N >> 16
    return ((A @ lo) % p + ((A @ hi) % p << 16)) % p


def planted_matrix(rng, p, n_rows, n_cols, dependent):
    """Random matrix mod p whose columns in `dependent` combine earlier columns."""
    A = rng.integers(0, p, size=(n_rows, n_cols))
    for c in dependent:
        coeffs = rng.integers(0, p, size=(c, 1))
        A[:, c] = matmul_mod(A[:, :c], coeffs, p)[:, 0]
    return A


def check_elimination(A, p):
    before = A.copy()
    rank, pivots, N = _eliminate(A, p)
    assert np.array_equal(A, before)
    n_cols = A.shape[1]
    assert rank == len(pivots)
    assert rank + N.shape[1] == n_cols
    free = [c for c in range(n_cols) if c not in pivots]
    assert np.array_equal(N[free], np.eye(len(free), dtype=np.int64))
    assert not matmul_mod(A, N, p).any()
    o_rank, o_pivots, o_N = rref_mod_p_oracle(A, p)
    assert (rank, pivots) == (o_rank, o_pivots)
    assert np.array_equal(N, o_N)
    return rank, pivots, N


@pytest.mark.parametrize("p, n_rows, n_cols, dependent", [
    (P22, 192, 192, [0, 100, 191]),
    (P22, 300, 300, [W22 // 2, W22 - 1, W22]),  # inside a panel, either side of its edge
    (P22, 600, 600, [W22, 2 * W22 - 1, 2 * W22, 599]),
    (P22, 1400, 300, [5, W22]),  # tall: more rows below a panel than one update chunk
    (P22, 200, 600, [W22 // 2]),  # wide: the rows run out inside the first panel
    (P25, 64, 64, [0, W25 - 1, W25, 3 * W25 + 2]),
    (P31, 60, 60, [0, 7, 59]),
], ids=["192", "300-panel-edge", "600", "tall", "wide", "p25", "p31"])
def test_eliminate_planted_rank_drops(p, n_rows, n_cols, dependent):
    rng = np.random.default_rng(n_rows * n_cols + len(dependent))
    A = planted_matrix(rng, p, n_rows, n_cols, dependent)
    rank, pivots, _ = check_elimination(A, p)
    assert not set(dependent) & set(pivots)
    assert rank == min(n_rows, n_cols - len(dependent))


@pytest.mark.parametrize("p", [P22, P31])
def test_eliminate_zero_matrix(p):
    rank, pivots, N = check_elimination(np.zeros((300, 300), dtype=np.int64), p)
    assert (rank, pivots) == (0, [])
    assert np.array_equal(N, np.eye(300, dtype=np.int64))


def test_eliminate_restricted_action():
    # [B | B R] with B of full column rank: the nullspace is [-R; I]
    rng = np.random.default_rng(17)
    k, r = 300, 150
    B = rng.integers(0, P22, size=(k, r))
    R = rng.integers(0, P22, size=(r, r))
    rank, pivots, N = check_elimination(np.concatenate([B, matmul_mod(B, R, P22)], axis=1), P22)
    assert (rank, pivots) == (r, list(range(r)))
    assert np.array_equal(-N[:r] % P22, R)


def test_rank_mod_p_blocked_symmetric():
    rng = np.random.default_rng(29)
    B = rng.integers(-5, 6, size=(400, W22 + 3))
    assert rank_mod_p(IntSymMatrix(B @ B.T), P22) == rref_mod_p_oracle(B @ B.T, P22)[0] == W22 + 3


def test_signature_definite_and_indefinite():
    assert signature(IntSymMatrix(np.diag([3, 1, 7]))).astuple() == (3, 0, 0)
    assert signature(IntSymMatrix(np.diag([-2, 5, 0, -1]))).astuple() == (1, 2, 1)
    assert signature(IntSymMatrix([[0, 1], [1, 0]])).astuple() == (1, 1, 0)
    assert signature(IntSymMatrix(np.zeros((3, 3), dtype=int))).astuple() == (0, 0, 3)
    assert signature(IntSymMatrix([[2, 2], [2, 2]])).astuple() == (1, 0, 1)


def test_signature_components_sum():
    rng = np.random.default_rng(11)
    for n in [4, 9, 17]:
        M = random_symmetric(rng, n)
        s = signature(M)
        assert s.positive + s.negative + s.zero == n
        psd = random_low_rank(rng, n, n // 2)
        assert signature(psd).negative == 0


def test_exact_inertia_ldlt_matches_float():
    rng = np.random.default_rng(23)
    for n in [2, 3, 5, 8]:
        for _ in range(10):
            M = random_symmetric(rng, n, lo=-3, hi=3)
            evals = np.linalg.eigvalsh(M.data.astype(float))
            expect = (
                int((evals > 1e-9).sum()),
                int((evals < -1e-9).sum()),
                int((np.abs(evals) <= 1e-9).sum()),
            )
            assert _exact_inertia_ldlt(M) == expect


def random_zero_diagonal(rng, n):
    M = random_symmetric(rng, n, lo=-3, hi=3).data
    np.fill_diagonal(M, 0)
    return IntSymMatrix(M)


def test_exact_inertia_matches_ldlt_and_bareiss_oracles():
    # full, low-rank and zero-diagonal inputs; the zero diagonals and the
    # zero Schur diagonals of the low-rank ones take the congruence step
    rng = np.random.default_rng(29)
    for n in range(12):
        for make in (lambda: random_symmetric(rng, n, lo=-4, hi=4),
                     lambda: random_low_rank(rng, n, rng.integers(0, n + 1)),
                     lambda: random_zero_diagonal(rng, n)):
            for _ in range(5):
                M = make()
                pos, neg, zero = _exact_inertia(M)
                assert (pos, neg, zero) == _exact_inertia_ldlt(M)
                assert pos + neg == _rank_bareiss(M)


def test_signature_falls_back_to_exact_inertia(monkeypatch):
    # det = -1 beside an eigenvalue near 2N: the float margin, about 5e-8,
    # is below the noise allowance, so the exact elimination decides
    N = 10**7
    calls, inertia = [], exactlinalg._exact_inertia
    monkeypatch.setattr(exactlinalg, "_exact_inertia", lambda M: calls.append(M.dim) or inertia(M))
    assert signature(IntSymMatrix([[N, N + 1], [N + 1, N + 2]])).astuple() == (1, 1, 0)
    assert calls == [2]


def test_signature_refuses_an_unseparated_form_past_the_fallback_cap():
    N = 10**7
    M = np.eye(602, dtype=np.int64)
    M[:2, :2] = [[N, N + 1], [N + 1, N + 2]]
    with pytest.raises(SeparationFailure, match="dim 602 exceeds the exact-inertia fallback cap"):
        signature(IntSymMatrix(M))


def test_exact_rank_falls_back_to_exact_inertia_when_the_lift_stalls(monkeypatch):
    monkeypatch.setattr(exactlinalg, "_lift_nullspace", lambda A, rng: None)
    rng = np.random.default_rng(31)
    for M in (random_symmetric(rng, 9), random_low_rank(rng, 12, 5),
              random_zero_diagonal(rng, 10), IntSymMatrix(np.zeros((3, 3), dtype=np.int64))):
        assert exact_rank(M) == rank_fraction_oracle(M)


def test_signature_paper_inverse_blocks():
    # irreducible blocks printed for the double-transposition classes
    a5_block = IntSymMatrix([[15, 3, 3], [3, 15, 3], [3, 3, 15]])
    assert signature(a5_block).astuple() == (3, 0, 0)
    inv = exact_inverse(a5_block)
    assert inv == [
        [Fraction(6, 84), Fraction(-1, 84), Fraction(-1, 84)],
        [Fraction(-1, 84), Fraction(6, 84), Fraction(-1, 84)],
        [Fraction(-1, 84), Fraction(-1, 84), Fraction(6, 84)],
    ]
    s4_block = IntSymMatrix([[6, 2], [2, 6]])
    assert exact_inverse(s4_block) == [
        [Fraction(3, 16), Fraction(-1, 16)],
        [Fraction(-1, 16), Fraction(3, 16)],
    ]


def test_exact_inverse_identity_and_errors():
    eye = IntSymMatrix(np.eye(3, dtype=int))
    assert exact_inverse(eye) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]
    with pytest.raises(SingularMatrix):
        exact_inverse(IntSymMatrix([[2, 2], [2, 2]]))
    with pytest.raises(CapExceeded):
        exact_inverse(eye, cap=2)


def test_exact_inverse_roundtrip():
    rng = np.random.default_rng(5)
    M = random_symmetric(rng, 6)
    if exact_rank(M) == 6:
        inv = exact_inverse(M)
        n = M.dim
        for i in range(n):
            for j in range(n):
                acc = sum(Fraction(int(M.data[i, k])) * inv[k][j] for k in range(n))
                assert acc == (1 if i == j else 0)


def test_exact_inverse_survives_a_first_prime_dividing_det(monkeypatch):
    # det M = p, so the first prime of the lift sees [M | I] with pivots (0, 2);
    # the primes after it must replace that structure rather than be discarded
    p = random_prime_22(random.Random(1))
    M = IntSymMatrix([[p + 1, 1], [1, 1]])
    draw = exactlinalg.random_prime_22
    fooled = []

    def p_first(rng):
        if any(r is rng for r in fooled):
            return draw(rng)
        fooled.append(rng)
        return p

    monkeypatch.setattr(exactlinalg, "random_prime_22", p_first)
    assert exact_inverse(M) == [[Fraction(1, p), Fraction(-1, p)],
                                [Fraction(-1, p), Fraction(p + 1, p)]]
    assert len(fooled) == 2  # the rank certificate's generator and the lift's


def test_spectrum_basic():
    entries = spectrum(IntSymMatrix(3 * np.eye(3, dtype=int)))
    assert len(entries) == 1
    e = entries[0]
    assert (e.value, e.multiplicity, e.integral) == (3.0, 3, True)
    assert np.allclose(e.vectors.T @ e.vectors, np.eye(3))


def test_spectrum_sorted_and_trace():
    rng = np.random.default_rng(2)
    M = random_symmetric(rng, 12)
    entries = spectrum(M)
    vals = [e.value for e in entries]
    assert vals == sorted(vals, reverse=True)
    assert sum(e.multiplicity for e in entries) == 12
    tr = sum(e.value * e.multiplicity for e in entries)
    assert abs(tr - np.trace(M.data)) <= 1e-6 * max(1, abs(np.trace(M.data)))


def test_spectrum_merges_close_eigenvalues():
    M = IntSymMatrix(np.diag([1000000, 1000000, 3]))
    entries = spectrum(M)
    assert [(e.value, e.multiplicity) for e in entries] == [(1000000.0, 2), (3.0, 1)]


def test_integer_eigen_multiplicity():
    M = IntSymMatrix(np.diag([2, 2, 5]))
    assert integer_eigen_multiplicity(M, 2) == 2
    assert integer_eigen_multiplicity(M, 5) == 1
    assert integer_eigen_multiplicity(M, 7) == 0


def test_connected_components():
    M = IntSymMatrix([[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    assert connected_components(M) == [[0, 1], [2], [3]]
    assert len(connected_components(IntSymMatrix(np.full((5, 5), 2)))) == 1


def test_connected_components_permutation_invariant():
    rng = np.random.default_rng(4)
    A = (rng.integers(0, 2, size=(8, 8)) * rng.integers(0, 5, size=(8, 8)))
    M = IntSymMatrix(A + A.T)
    perm = rng.permutation(8)
    P = M.data[np.ix_(perm, perm)]
    assert len(connected_components(IntSymMatrix(P))) == len(connected_components(M))


def connected_components_oracle(M: IntSymMatrix) -> list[list[int]]:
    """Scalar search over the nonzeros of each row, one vertex at a time."""
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


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_connected_components_matches_scalar_search(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(-3, 4, size=(n, n)) * (rng.random((n, n)) < rng.uniform(0, 0.15))
    A = np.triu(A) + np.triu(A, 1).T
    isolated = rng.random(n) < 0.3
    A[isolated] = 0
    A[:, isolated] = 0
    A[isolated, isolated] = rng.integers(0, 2, size=int(isolated.sum()))  # some keep a loop
    M = IntSymMatrix(A)
    assert connected_components(M) == connected_components_oracle(M)


@pytest.mark.parametrize("rows, inner", [(5, 1), (5, 7), (5, 256), (300, 1100), (5, 1500)])
def test_matmul_mod_is_exact_below_2_31(rows, inner):
    p = 2**31 - 1
    rng = np.random.default_rng(inner)
    A = rng.integers(-p, p, size=(rows, inner))
    B = rng.integers(0, p, size=(inner, 3))
    B[:, 0] = p - 1  # the largest residues, against A's largest too
    A[0] = p - 1
    want = (A.astype(object) @ B.astype(object)) % p
    got = _matmul_mod(A, B, p)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p", [4194301, 2**31 - 1])
@pytest.mark.parametrize("past", [False, True])
def test_matmul_mod_is_exact_at_its_float_threshold(p, past):
    # the least inner dimension n with n (p - 1)^2 >= 2^53 (513 and 1): one
    # float64 product just below it, the limbs from it on, where a float64
    # product of these residues near p would round
    n = -(-(1 << 53) // (p - 1) ** 2) - (not past)
    rng = np.random.default_rng(n)
    A = rng.integers(p - 2000, p, size=(50, n))
    B = rng.integers(p - 2000, p, size=(n, 3))
    A[0], B[:, 0] = p - 1, p - 1
    want = (A.astype(object) @ B.astype(object)) % p
    got = _matmul_mod(A, B, p)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
