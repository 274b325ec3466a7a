"""Character tables and eigenspace decompositions against textbook values."""
import cmath
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from decomposition_oracle import dense_decomposition
from form_oracle import central_character, class_sums
from golden_survey import GROUP_SPECS
from group_strategies import permutation_groups_up_to_degree_8
from table_oracle import oracle_table
from killform import characters, exactlinalg, killing
from killform.cli import cmd_survey, main

from killform.characters import (
    CharTable,
    ClassFunction,
    DecompEntry,
    Decomposition,
    character_table,
    conjugation_character,
    eigenspace_decomposition,
    integrality_audit,
    multiplicities,
    roth_check,
    validate_orthogonality,
    _find_prime,
    _poly_divmod,
)
from killform.errors import (
    CapExceeded,
    KillformError,
    NoSuitablePrime,
    NontrivialCentre,
    NotACharacter,
    OrthogonalityFailure,
    ProjectorMismatch,
)
from killform.groups import (
    BaseLocator,
    alternating_group,
    build_named_group,
    generate_group,
    symmetric_group,
)
from killform.killing import analyze, killing_matrix, universal_killing
from killform.perms import Perm


def class_by_label(G, label):
    return next(c for c in G.classes() if c.label == label)


def table(G):
    return character_table(G)


# ------------------------------------------------------------------ the tables

def test_s3_table():
    T = table(symmetric_group(3))
    assert sorted(T.degrees) == [1, 1, 2]
    assert T.degrees[0] == 1 and all(abs(v - 1) < 1e-12 for v in T.chars[0])
    # standard 2-dim character on (e, 2-cycles, 3-cycles)
    std = T.chars[T.degrees.index(2)]
    assert [round(v.real) for v in std] == [2, 0, -1]
    assert max(abs(v.imag) for v in std) < 1e-12


def test_s4_table_degrees():
    T = table(symmetric_group(4))
    assert sorted(T.degrees) == [1, 1, 2, 3, 3]
    assert all(T.rational)  # S4 has a rational table


def test_a4_table_has_cube_roots():
    T = table(alternating_group(4))
    assert sorted(T.degrees) == [1, 1, 1, 3]
    linear = [i for i, d in enumerate(T.degrees) if d == 1 and not T.rational[i]]
    assert len(linear) == 2
    i, j = linear
    assert T.dual_index[i] == j and T.dual_index[j] == i
    w = cmath.exp(2j * cmath.pi / 3)
    vals = {round(v.real, 6) + 1j * round(v.imag, 6) for v in T.chars[i]}
    assert any(abs(v - w) < 1e-6 for v in vals) or any(abs(v - w**2) < 1e-6 for v in vals)


def test_a5_table():
    T = table(alternating_group(5))
    assert T.degrees == [1, 3, 3, 4, 5]
    assert all(T.real)  # all A5 characters are real-valued
    # golden ratio values on the 5-cycles for the 3-dim irreps
    golden = sorted(round(T.chars[i][3].real, 6) for i in (1, 2))
    phis = sorted([(1 + 5**0.5) / 2, (1 - 5**0.5) / 2])
    assert golden == [round(v, 6) for v in phis]


def test_wide_degree_table(wide_s5_file):
    T = character_table(build_named_group(f"file:{wide_s5_file}"))
    validate_orthogonality(T)
    assert T.degrees == [1, 1, 4, 4, 5, 5, 6]


def test_m11_table_degrees():
    G = build_named_group("file:data/m11.grp")
    T = table(G)
    assert T.degrees == [1, 10, 10, 10, 11, 16, 16, 44, 45, 55]
    assert T.irrep_labels == ["1", "10a", "10b", "10c", "11", "16a", "16b", "44", "45", "55"]


@pytest.mark.parametrize("spec", ["S3", "S4", "A4", "A5", "PSL(2,7)", "S5"])
def test_orthogonality_both_relations(spec):
    G = build_named_group(spec)
    T = table(G)
    validate_orthogonality(T)  # raises on failure
    X = np.array(T.chars)
    sizes = np.array(T.class_sizes, dtype=float)
    gram = (X * sizes) @ X.conj().T / G.order
    assert np.abs(gram - np.eye(len(T.degrees))).max() < 1e-8
    assert sum(d * d for d in T.degrees) == G.order


def test_trivial_group_table():
    G = generate_group([], degree=1, name="1")
    T = table(G)
    assert T.degrees == [1] and T.chars == [[1 + 0j]]


def test_class_cap():
    with pytest.raises(CapExceeded):
        character_table(symmetric_group(4), cap=3)


def test_prime_search():
    assert _find_prime(2, 2) == 3
    assert _find_prime(2, 4) == 5          # p=3 fails p^2 > 16
    assert _find_prime(6, 6) == 7
    assert _find_prime(1320, 7920) == 1321
    with pytest.raises(NoSuitablePrime):
        _find_prime(6, 6, limit=7)


# ------------------------------------------- the tables against their oracle

# name -> spec: S3-S8, A4-A8, the fifteen groups of the golden survey, and
# PSL(2,47), whose table prime 181609 is the largest among PSL(2,q), q <= 53
TABLE_ORACLE_SPECS = {**{f"{family}{n}": f"{family}{n}" for family, ns in
                         (("S", range(3, 9)), ("A", range(4, 9))) for n in ns},
                      **GROUP_SPECS, "PSL(2,47)": "PSL(2,47)"}


def _bits(T):
    """Everything the table states, its values as the hex of their floats."""
    return (T.degrees, T.class_labels, T.irrep_labels, T.provenance,
            [[(v.real.hex(), v.imag.hex()) for v in row] for row in T.chars])


@pytest.mark.parametrize("name", TABLE_ORACLE_SPECS)
def test_table_is_bitwise_the_per_class_matrix_oracle(name):
    G = build_named_group(TABLE_ORACLE_SPECS[name])
    assert _bits(character_table(G)) == _bits(oracle_table(G))


@pytest.mark.parametrize("combination", ["zero", "one class matrix"])
@pytest.mark.parametrize("name", ["A5", "PSL(2,17)", "M11"])
def test_a_colliding_combination_is_split_again_by_the_class_matrices(name, combination,
                                                                       monkeypatch):
    G = build_named_group(GROUP_SPECS[name])
    lines, eigenlines = [], characters._eigenlines
    monkeypatch.setattr(characters, "_combination",
                        lambda Ms, p, rng: 0 * Ms[0] if combination == "zero" else Ms[1])
    monkeypatch.setattr(characters, "_eigenlines",
                        lambda *args: lines.append(args) or eigenlines(*args))
    assert _bits(character_table(G)) == _bits(oracle_table(G))
    assert lines == []  # the combination left a piece wider than a line


def test_psl2_17_table_runs_one_elimination(eliminations):
    G = build_named_group("PSL(2,17)")
    k = len(G.classes())
    T = character_table(G)
    # the Krylov matrix [e_0, M e_0, ..., M^k e_0] of the combination, and no
    # other: splitting one class matrix at a time took 34 eliminations
    assert (k, len(T.degrees)) == (11, 11)
    assert len(eliminations) <= 2 * k
    assert eliminations == [(k, k + 1)]


def _poly_product(factors, p):
    f = [1]
    for g in factors:
        f = _poly_mul(f, g, p)
    return f


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([7, 61, 3673, 181609, 2**31 - 1]), st.data())
def test_poly_roots_are_the_distinct_roots_in_gf_p(p, data):
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=14))
    # and a factor x^2 - c, c not a square mod p, with no roots in GF(p)
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    f = _poly_product([[-r % p, 1] for r in roots] + [[-c % p, 0, 1]], p)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    assert characters._poly_roots(f, p, rng) == sorted(set(roots))


# ---------------------------------------------------------- conjugation chars

def test_conjugation_character_s3():
    G = symmetric_group(3)
    f = conjugation_character(G, class_by_label(G, "2A"))
    assert f.values == (3, 1, 0)


def test_conjugation_character_universal_s3():
    G = symmetric_group(3)
    f = conjugation_character(G)
    assert f.values == (5, 1, 2)


@pytest.mark.parametrize("spec", ["S4", "A5"])
def test_conjugation_character_counts_identity(spec):
    G = build_named_group(spec)
    for C in G.classes():
        f = conjugation_character(G, C)
        assert f.values[0] == C.size


# -------------------------------------------------------------- multiplicities

def test_multiplicities_s3_universal():
    G = symmetric_group(3)
    T = table(G)
    f = conjugation_character(G)
    assert multiplicities(f, T) == [2, 1, 1]


def test_multiplicities_a5_2a():
    G = alternating_group(5)
    T = table(G)
    f = conjugation_character(G, class_by_label(G, "2A"))
    assert multiplicities(f, T) == [1, 0, 0, 1, 2]


def test_multiplicities_regular_character():
    for spec in ("S3", "S4", "A4", "A5"):
        G = build_named_group(spec)
        T = table(G)
        reg = [G.order] + [0] * (len(G.classes()) - 1)
        assert multiplicities(ClassFunction(tuple(reg)), T) == T.degrees


def test_multiplicities_rejects_non_character():
    G = symmetric_group(3)
    T = table(G)
    with pytest.raises(NotACharacter):
        multiplicities(ClassFunction((1.0, 0.5, 0.0)), T)
    with pytest.raises(ValueError):
        multiplicities(ClassFunction((1.0, 0.0)), T)


# ------------------------------------------------------------------ Roth check

@pytest.mark.parametrize("spec", ["S3", "S4", "A4", "A5", "PSL(2,7)"])
def test_roth_holds(spec):
    G = build_named_group(spec)
    ok, mults = roth_check(G)
    assert ok and all(m > 0 for m in mults)


def test_roth_rejects_nontrivial_centre():
    C4 = generate_group([Perm.parse("(1,2,3,4)")], name="C4")
    with pytest.raises(NontrivialCentre):
        roth_check(C4)


def test_roth_fails_exactly_on_psu33():
    # the multiplicity of one irrep in the conjugation representation is 0
    ok, mults = roth_check(build_named_group(GROUP_SPECS["PSU(3,3)"]))
    assert not ok and mults.count(0) == 1


@pytest.mark.parametrize("name", ["A5", "PSU(3,3)"])
def test_roth_raises_when_the_table_disagrees_with_the_exact_verdict(name, monkeypatch):
    G = build_named_group(GROUP_SPECS[name])
    holds, _ = roth_check(G)
    monkeypatch.setattr(characters, "_roth_holds", lambda G: not holds)
    with pytest.raises(OrthogonalityFailure, match="disagree with the exact verdict"):
        roth_check(G)


def test_roth_is_decided_once_per_group(monkeypatch):
    G = build_named_group("PSL(2,17)")
    ranks = []
    exact_rank = characters.exact_rank
    monkeypatch.setattr(characters, "exact_rank",
                        lambda M, seed=0: ranks.append(M.dim) or exact_rank(M, seed=seed))
    analyze(universal_killing(G), seed=7)
    assert roth_check(G)[0]
    assert ranks == [len(G.classes())]  # the class-sum Gram, once


def test_roth_trivial_multiplicity_counts_classes():
    # <chi_conj, trivial> = number of conjugacy classes
    G = symmetric_group(4)
    _, mults = roth_check(G)
    assert mults[0] == len(G.classes())


# --------------------------------------------------------------- decomposition

def test_decomposition_a5_2a():
    G = alternating_group(5)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "2A")))
    D = eigenspace_decomposition(K, T)
    got = {(round(e.value), e.dim, e.mults) for e in D.entries}
    assert got == {(21, 5, (1, 0, 0, 1, 0)), (12, 10, (0, 0, 0, 0, 2))}
    assert all(e.integral for e in D.entries)
    assert sum(e.dim for e in D.entries) == 15


def test_decomposition_a4_double_transpositions():
    G = alternating_group(4)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "2A")))
    D = eigenspace_decomposition(K, T)
    got = {(round(e.value), e.dim, e.mults) for e in D.entries}
    # 1(9) + 1*(0) + conj(1*)(0); the two complex linears share the null eigenspace
    linear_pair = tuple(1 if d == 1 and i > 0 else 0 for i, d in enumerate(T.degrees))
    assert got == {(9, 1, (1, 0, 0, 0)), (0, 2, linear_pair)}


def test_decomposition_s4_four_cycles():
    G = symmetric_group(4)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "4A")))
    D = eigenspace_decomposition(K, T)
    by_val = {round(e.value): e for e in D.entries}
    assert set(by_val) == {8, -4}
    m8 = by_val[8].mults
    m4 = by_val[-4].mults
    # 1 + 2 at eigenvalue 8; a single 3-dim at -4
    assert m8[0] == 1 and sum(m * d for m, d in zip(m8, T.degrees)) == 3
    assert T.degrees[[i for i, m in enumerate(m8) if m and i > 0][0]] == 2
    assert sum(m4) == 1 and T.degrees[m4.index(1)] == 3


def test_decomposition_totals_match_conjugation_character():
    G = alternating_group(5)
    T = table(G)
    for label in ("2A", "3A", "5A"):
        C = class_by_label(G, label)
        K = analyze(killing_matrix(G, C))
        D = eigenspace_decomposition(K, T)
        totals = [sum(e.mults[i] for e in D.entries) for i in range(len(T.degrees))]
        assert totals == multiplicities(conjugation_character(G, C), T)
        assert sum(e.dim for e in D.entries) == C.size


def test_decomposition_a5_5a_has_irrational_pair():
    G = alternating_group(5)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "5A")))
    D = eigenspace_decomposition(K, T)
    irrational = sorted(e.value for e in D.entries if not e.integral)
    expect = sorted([-10 - 2 * 5**0.5, -10 + 2 * 5**0.5])
    assert irrational == pytest.approx(expect, abs=1e-6)


def test_decomposition_needs_class_calculus():
    from killform.killing import universal_killing
    G = symmetric_group(3)
    T = table(G)
    with pytest.raises(ValueError):
        eigenspace_decomposition(universal_killing(G), T)


def test_projector_mismatch_on_wrong_table():
    # feed the S4 Killing form a tampered table: the gate must trip
    G = symmetric_group(4)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "4A")))
    bad = CharTable(T.name, T.class_labels, T.class_sizes, T.degrees,
                    [[v * (1.3 if i == 0 else 1) for v in row]
                     for i, row in enumerate(T.chars)],
                    provenance="tampered")
    with pytest.raises(ProjectorMismatch):
        eigenspace_decomposition(K, bad)


def test_decomposition_rejects_a_table_whose_class_sizes_differ():
    G = alternating_group(5)
    T = table(G)
    sizes = T.class_sizes[:1] + T.class_sizes[:0:-1]  # the same labels, sizes reversed
    bad = CharTable(T.name, T.class_labels, sizes, T.degrees, T.chars, provenance="tampered")
    with pytest.raises(ValueError, match="does not fit A5"):
        eigenspace_decomposition(killing_matrix(G, class_by_label(G, "3A")), bad)


# ------------------------------------- decomposition on the Z(g)-orbits of C

ORACLE_SPECS = ["S3", "S4", "S5", "S6", "A4", "A5", "A6", "A7",
                "PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)", GROUP_SPECS["M11"]]


def _assert_matches_the_oracle(D, want):
    assert [(e.dim, e.mults, e.integral) for e in D.entries] == \
        [(e.dim, e.mults, e.integral) for e in want.entries]
    for e, o in zip(D.entries, want.entries):
        assert e.value == pytest.approx(o.value, rel=1e-8, abs=1e-8)
        assert e.certified <= e.integral


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_orbital_decomposition_matches_the_dense_oracle(spec):
    G = build_named_group(spec)
    T = character_table(G)
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        D = eigenspace_decomposition(K, T)
        _assert_matches_the_oracle(D, dense_decomposition(K, T))
        # M11 5A near -1535: the float flag (1e-6 relative) says integral, but
        # S + 1535 W is nonsingular; the eigenvalue is -1534.998938...
        wrong = [-1535] if (spec, C.label) == (GROUP_SPECS["M11"], "5A") else []
        assert [round(e.value) for e in D.entries if e.integral and not e.certified] == wrong


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(permutation_groups_up_to_degree_8())
def test_orbital_decomposition_on_random_groups(G):
    try:
        T = character_table(G)
    except KillformError:
        assume(False)
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        D = eigenspace_decomposition(K, T)
        _assert_matches_the_oracle(D, dense_decomposition(K, T))
        # certified exactly where the per-lambda certificate certifies
        orbital = killing._orbital_data(K)
        assert [e.certified for e in D.entries] == [
            integral and characters._integral_certified(orbital.S, orbital.w, round(value),
                                                        stop - start)
            for start, stop, value, integral in orbital.eigenspaces[0]]


def test_decompose_m11_5a_solves_no_class_sized_eigenproblem(monkeypatch, capsys):
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    assert main(["decompose", GROUP_SPECS["M11"], "5A"]) == 0
    assert sizes and max(sizes) < 1584  # |5A| = 1584; the orbital problem has 320 rows
    # the uncertified row keeps its float flag in the report, with a warning beside it
    out, err = capsys.readouterr()
    assert "| 5A | -1535 | 55 | 55 | true |" in out
    assert err == ("warning: 5A eigenvalue -1534.998938 is flagged integral, "
                   "but -1535 is not an eigenvalue (exact rank)\n")


def test_decompose_reads_no_class_sums(class_sum_reads, capsys):
    assert main(["decompose", GROUP_SPECS["M11"], "5A"]) == 0
    G = alternating_group(7)
    T = character_table(G)
    for C in G.classes()[1:]:
        eigenspace_decomposition(killing_matrix(G, C), T)
    assert class_sum_reads == []


def test_survey_forms_one_class_sum_per_idempotent_and_class(class_sum_reads):
    # every nontrivial class of A5 has its signature decided on the orbits,
    # from one sum of class sums per idempotent, formed from tau
    report = cmd_survey("A5")
    idempotents = characters.rational_idempotents(alternating_group(5))
    per_class = Counter(map(id, class_sum_reads))
    assert report.exit_code == 0 and len(per_class) == 4
    assert set(per_class.values()) == {len(idempotents)}


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_class_sums_formed_from_tau_match_the_dense_class_sums(spec):
    G = build_named_group(spec)
    idempotents = characters.rational_idempotents(G)
    for C in G.classes()[1:]:
        orbital = killing._orbital_data(killing_matrix(G, C))
        A = class_sums(orbital)
        for _, u in idempotents:
            assert np.array_equal(orbital.class_sum(u), np.tensordot(u, A, axes=1)), C.label


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_first_rows_give_the_conjugation_character_multiplicities(spec):
    G = build_named_group(spec)
    T = character_table(G)
    X = np.array(T.chars, dtype=complex)
    for C in G.classes()[1:]:
        orbital = killing._orbital_data(killing_matrix(G, C))
        assert np.array_equal(orbital.first_rows, class_sums(orbital)[:, 0, :]), C.label
        # the decomposition's sum with Pi = I: (|C| / |G|) sum_j chi_i(g_j) A_j[0, 0]
        Pi = np.eye(len(orbital.w))
        m = (C.size / G.order * (X @ (orbital.first_rows / np.sqrt(orbital.w)) @ Pi[:, 0])).real
        assert m == pytest.approx(multiplicities(conjugation_character(G, C), T), abs=1e-9)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_orbital_spectrum_matches_the_dense_spectrum(spec):
    G = build_named_group(spec)
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        got, want = K.spectrum(), exactlinalg.spectrum(K.matrix)
        assert [(e.multiplicity, e.integral) for e in got] == \
            [(e.multiplicity, e.integral) for e in want], C.label
        scale = max(abs(e.value) for e in want)
        for e, o in zip(got, want):
            assert abs(e.value - o.value) <= exactlinalg.SPECTRUM_TOL * scale, (C.label, o.value)
            assert e.vectors is None


def test_an_integral_nullity_other_than_the_cluster_size_is_a_mismatch():
    G = alternating_group(5)
    orbital = killing._orbital_data(killing_matrix(G, class_by_label(G, "2A")))
    S, w = orbital.S, orbital.w
    # 2A: 21 on 1 + 4 and 12 on 5 + 5; the fixed vectors meet them in 1 + 1 and 2 + 2
    assert characters._integral_certified(S, w, 12, 4)
    assert not characters._integral_certified(S, w, 13, 4)  # 13 is no eigenvalue
    with pytest.raises(ProjectorMismatch):
        characters._integral_certified(S, w, 12, 3)


# ------------------------------- one certificate for the integral rows of a class

# the groups of ORACLE_SPECS and of the golden survey
CERTIFICATE_SPECS = {**{spec: spec for spec in ORACLE_SPECS if not spec.startswith("file:")},
                     **GROUP_SPECS}


@pytest.fixture
def fallbacks(monkeypatch):
    """The (lam, size) of every per-lambda certificate `_integral_certified`
    runs during the test."""
    calls = []
    certify = characters._integral_certified

    def recording(S, w, lam, size):
        calls.append((lam, size))
        return certify(S, w, lam, size)

    monkeypatch.setattr(characters, "_integral_certified", recording)
    return calls


def _flagged(orbital):
    """The flagged clusters (lam, size, V) of one class, as the decomposition
    hands them to `_integral_nullities`."""
    clusters, _, vectors = orbital.eigenspaces
    return [(round(value), stop - start, V)
            for (start, stop, value, _), V in zip(clusters, vectors) if V is not None]


_PER_LAMBDA = characters._integral_certified  # as imported, not as a test patches it


def _per_lambda_nullities(S, w, flagged):
    """The oracle: the nullity each `_integral_certified` verdict stands for."""
    return [size * _PER_LAMBDA(S, w, lam, size) for lam, size, _ in flagged]


@pytest.mark.parametrize("name", CERTIFICATE_SPECS)
def test_class_certificates_match_the_per_lambda_oracle(monkeypatch, fallbacks, name):
    G = build_named_group(CERTIFICATE_SPECS[name])
    T = character_table(G)
    decided, decide = [], characters._integral_nullities

    def recording(S, w, flagged):
        nullities = decide(S, w, flagged)
        decided.append((S, w, flagged, nullities))
        return nullities

    monkeypatch.setattr(characters, "_integral_nullities", recording)
    fell_back = {}
    for C in G.classes()[1:]:
        D = eigenspace_decomposition(killing_matrix(G, C), T)
        (S, w, flagged, nullities), = decided
        decided.clear()
        if fallbacks:
            fell_back[C.label] = fallbacks[:]
            fallbacks.clear()
        want = _per_lambda_nullities(S, w, flagged)
        assert nullities == want, C.label
        assert [e.certified for e in D.entries if e.integral] == \
            [n == size for n, (_, size, _) in zip(want, flagged)], C.label
    # the class certificate decides every row but one: PSL(3,3) 6A -944, whose
    # size-8 basis does not rationalise below the denominator cap
    assert fell_back == ({"6A": [(-944, 8)]} if name == "PSL(3,3)" else {})


def test_m11_5a_leaves_minus_1535_uncertified_through_the_class_certificate(fallbacks):
    G = build_named_group(GROUP_SPECS["M11"])
    orbital = killing._orbital_data(killing_matrix(G, class_by_label(G, "5A")))
    flagged = _flagged(orbital)
    nullities = characters._integral_nullities(orbital.S, orbital.w, flagged)
    assert fallbacks == []
    assert [lam for (lam, size, _), n in zip(flagged, nullities) if n != size] == [-1535]


def _a_class_with_six_integral_rows():
    G = build_named_group("PSL(2,11)")
    orbital = killing._orbital_data(killing_matrix(G, class_by_label(G, "5A")))
    flagged = _flagged(orbital)
    assert [lam for lam, _, _ in flagged] == [234, 138, -110, -116, -136, -142]
    return orbital.S, orbital.w, flagged


def _propose_then(monkeypatch, spoil):
    """Every proposal of `_propose_integer_basis` handed to spoil first."""
    propose = characters._propose_integer_basis
    monkeypatch.setattr(characters, "_propose_integer_basis", lambda V: spoil(*propose(V)))


def test_a_proposed_vector_outside_the_nullspace_is_refused(monkeypatch, fallbacks):
    S, w, flagged = _a_class_with_six_integral_rows()
    want = _per_lambda_nullities(S, w, flagged)

    def wrong_entry(N, F):
        N = N.copy()
        N[next(i for i in range(len(N)) if i not in F), 0] += 1  # still diagonal on F
        return N, F

    _propose_then(monkeypatch, wrong_entry)
    assert characters._integral_nullities(S, w, flagged) == want
    assert fallbacks == [(lam, size) for lam, size, _ in flagged]  # every row refused


def test_proposed_dependent_vectors_are_refused(monkeypatch, fallbacks):
    S, w, flagged = _a_class_with_six_integral_rows()
    want = _per_lambda_nullities(S, w, flagged)

    def repeated_column(N, F):
        # still in the nullspace, but the last column repeats the first
        return np.column_stack([N[:, :-1], N[:, :1]]), F

    _propose_then(monkeypatch, repeated_column)
    assert characters._integral_nullities(S, w, flagged) == want
    # a size-1 cluster repeats nothing, so only it is decided by the class certificate
    assert fallbacks == [(lam, size) for lam, size, _ in flagged if size > 1]


def test_a_failed_proposal_falls_back_for_its_row_alone(monkeypatch, fallbacks):
    S, w, flagged = _a_class_with_six_integral_rows()
    want = _per_lambda_nullities(S, w, flagged)
    propose = characters._propose_integer_basis
    monkeypatch.setattr(characters, "_propose_integer_basis",
                        lambda V: None if V.shape[1] == 3 else propose(V))
    assert characters._integral_nullities(S, w, flagged) == want
    assert fallbacks == [(-110, 3), (-142, 3)]
    monkeypatch.setattr(characters, "_propose_integer_basis", lambda V: None)
    fallbacks.clear()
    assert characters._integral_nullities(S, w, flagged) == want
    assert fallbacks == [(lam, size) for lam, size, _ in flagged]


def test_an_unlucky_prime_sends_the_class_to_the_per_lambda_certificates(monkeypatch,
                                                                         fallbacks):
    S, w, flagged = _a_class_with_six_integral_rows()
    want = _per_lambda_nullities(S, w, flagged)
    rank = characters.rank_mod_p
    monkeypatch.setattr(characters, "rank_mod_p", lambda M, p: rank(M, p) - 1)
    assert characters._integral_nullities(S, w, flagged) == want
    assert fallbacks == [(lam, size) for lam, size, _ in flagged]


@pytest.mark.parametrize("exact", [1, 2])
def test_clusters_that_round_to_one_integer_get_the_per_lambda_verdicts(exact):
    # 10^6 +- 1/10, irrational on the pencil, and 10^6 on `exact` more orbits,
    # all in clusters of their own, all flagged integral and rounded to 10^6
    n = 2 + exact
    S = 10**7 * np.eye(n, dtype=np.int64)
    S[0, 1] = S[1, 0] = 1
    w = np.full(n, 10, dtype=np.int64)
    orbital = killing._OrbitalData(None, None, w, S, None, None, None, None)
    flagged = _flagged(orbital)
    assert [(lam, size) for lam, size, _ in flagged] == [(10**6, 1), (10**6, exact), (10**6, 1)]
    if exact == 1:  # nullity 1, each cluster's size: all three certified
        assert characters._integral_nullities(S, w, flagged) == \
            _per_lambda_nullities(S, w, flagged) == [1, 1, 1]
    else:  # nullity 2 against clusters of size 1: both routes refuse the spectrum
        with pytest.raises(ProjectorMismatch):
            _per_lambda_nullities(S, w, flagged)
        with pytest.raises(ProjectorMismatch):
            characters._integral_nullities(S, w, flagged)


@pytest.mark.parametrize("blocks", [30, 320])
def test_the_nullity_mod_p_of_the_product(monkeypatch, blocks):
    # 2 x 2 blocks w [[a, b], [b, a]] in a shuffled basis: W^-1 S has the
    # eigenvalues a +- b.  Both products take `_matmul_mod`: one float64
    # product at 60 rows, the limbs at 640, where r (p - 1)^2 passes 2^53
    # for the seeded prime, 3795569.
    rng = np.random.default_rng(blocks)
    a, b, w = rng.integers(0, 4, blocks), rng.integers(1, 3, blocks), rng.integers(1, 4, blocks)
    S = np.zeros((2 * blocks, 2 * blocks), dtype=np.int64)
    S[0::2, 0::2] = S[1::2, 1::2] = np.diag(a * w)
    S[0::2, 1::2] = S[1::2, 0::2] = np.diag(b * w)
    order = rng.permutation(2 * blocks)
    S, w = S[np.ix_(order, order)], np.repeat(w, 2)[order]
    products = []
    matmul_mod = characters._matmul_mod
    monkeypatch.setattr(characters, "_matmul_mod",
                        lambda A, B, p: products.append(A.shape) or matmul_mod(A, B, p))
    lams = [-1, 1, 2]
    assert characters._nullity_mod_p(S, w, lams) == \
        np.isin(a + b, lams).sum() + np.isin(a - b, lams).sum()
    assert products == [(2 * blocks, 2 * blocks)] * 2


def test_an_integral_nullity_other_than_the_cluster_size_is_a_mismatch_at_once(fallbacks):
    G = alternating_group(5)
    orbital = killing._orbital_data(killing_matrix(G, class_by_label(G, "2A")))
    (_, _, V21), (_, _, V12) = _flagged(orbital)
    assert characters._integral_nullities(orbital.S, orbital.w, [(21, 2, V21), (12, 4, V12)]) \
        == [2, 4]
    with pytest.raises(ProjectorMismatch, match="eigenvalue 12 has nullity 4"):
        characters._integral_nullities(orbital.S, orbital.w, [(21, 2, V21), (12, 3, V12)])
    assert fallbacks == []


def test_class_structure_constants_are_computed_once_per_group(monkeypatch):
    G = alternating_group(6)  # a fresh group: the constants are kept per group
    classes = G.classes()  # its classes are found first, from products of their own
    calls = []
    products = BaseLocator.products

    def counting(self, A, B):
        calls.append(len(A))
        return products(self, A, B)

    monkeypatch.setattr(BaseLocator, "products", counting)
    assert characters.rational_idempotents(G) is not None  # the table, then the e^2 = e check
    assert calls == [c.size for c in classes]


# ----------------------------------------------------------- central character

def test_central_character_values():
    G = alternating_group(5)
    T = table(G)
    C2 = class_by_label(G, "2A")
    assert central_character(T, C2, 0) == pytest.approx(15)  # trivial irrep -> |C|
    five = T.degrees.index(5)
    assert central_character(T, C2, five) == pytest.approx(3)  # 15 * 1 / 5
    e_class = G.classes()[0]
    for i in range(len(T.degrees)):
        assert central_character(T, e_class, i) == pytest.approx(1)


# --------------------------------------------------------------------- audits

def test_audit_clean_for_a5():
    G = alternating_group(5)
    T = table(G)
    for label in ("2A", "3A", "5A"):
        K = analyze(killing_matrix(G, class_by_label(G, label)))
        D = eigenspace_decomposition(K, T)
        assert integrality_audit(D, T) == []


def test_audit_reports_dual_mismatch():
    G = alternating_group(4)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "2A")))
    D = eigenspace_decomposition(K, T)
    linear = [i for i, d in enumerate(T.degrees) if d == 1 and not T.rational[i]]
    tampered = []
    for e in D.entries:
        m = list(e.mults)
        if m[linear[0]]:
            m[linear[0]] = 0  # break the conjugate pairing
        tampered.append(DecompEntry(e.value, e.dim, tuple(m), e.integral))
    bad = Decomposition(D.class_label, D.group_name, D.irrep_labels, tampered, T)
    assert any("mult" in f for f in integrality_audit(bad, T))


def test_audit_reports_non_integral_pin():
    G = symmetric_group(4)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "4A")))
    D = eigenspace_decomposition(K, T)
    shifted = [DecompEntry(e.value + 0.5, e.dim, e.mults, False) for e in D.entries]
    bad = Decomposition(D.class_label, D.group_name, D.irrep_labels, shifted, T)
    assert any("non-integral" in f for f in integrality_audit(bad, T))


def test_decomposition_render():
    G = alternating_group(5)
    T = table(G)
    K = analyze(killing_matrix(G, class_by_label(G, "2A")))
    D = eigenspace_decomposition(K, T)
    s = D.render()
    assert "1(21)" in s and "4(21)" in s and s.count("5(12)") == 2


# ------------------------------------------------------------------ JSON round

def test_json_roundtrip():
    T = table(alternating_group(5))
    T2 = CharTable.from_json(T.to_json())
    assert T2.degrees == T.degrees
    assert T2.class_labels == T.class_labels
    assert T2.provenance == T.provenance
    assert np.allclose(np.array(T2.chars), np.array(T.chars))
    assert T2.dual_index == T.dual_index


def test_json_requires_provenance():
    T = table(symmetric_group(3))
    import json as _json
    obj = _json.loads(T.to_json())
    obj["provenance"] = ""
    with pytest.raises(ValueError):
        CharTable.from_json(_json.dumps(obj))


@pytest.mark.parametrize("key, value, says", [
    ("name", None, "field 'name' must be a string"),
    ("class_sizes", [1, 3, "2"], "field 'class_sizes' must be a list of positive integers"),
    ("degrees", [1, True, 2], "field 'degrees' must be a list of positive integers"),
    ("chars", [[[1, 0]] * 3] * 2 + [[[2, 0], [0, 0], [float("nan"), 0]]],
     "field 'chars' must be a list of rows of [re, im] pairs of finite numbers"),
    ("chars", [[[1, 0]] * 3] * 2 + [[[2, 0], [0, 0], [float("inf"), 0]]],  # crashed in round()
     "field 'chars' must be a list of rows of [re, im] pairs of finite numbers"),
    ("class_sizes", [1, 3], "one class size and one degree per row"),
])
def test_json_import_names_an_ill_typed_field(key, value, says):
    import json as _json
    obj = _json.loads(table(symmetric_group(3)).to_json())
    obj[key] = value
    with pytest.raises(ValueError, match=re.escape(says)):
        CharTable.from_json(_json.dumps(obj))


def test_json_import_validates_orthogonality():
    T = table(symmetric_group(3))
    import json as _json
    obj = _json.loads(T.to_json())
    obj["chars"][2][1] = [5.0, 0.0]
    with pytest.raises(OrthogonalityFailure):
        CharTable.from_json(_json.dumps(obj))


def test_table_requires_provenance():
    with pytest.raises(ValueError):
        CharTable("X", ["1A"], [1], [1], [[1 + 0j]], provenance="")


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([7, 101, 2647, 40009]), st.data())
def test_poly_divmod_is_division_with_remainder(p, data):
    coeffs = st.integers(0, p - 1)
    a = data.draw(st.lists(coeffs, min_size=1, max_size=12))
    b = data.draw(st.lists(coeffs, min_size=0, max_size=6)) + [data.draw(st.integers(1, p - 1))]
    q, r = _poly_divmod(a, b, p)
    assert len(r) < len(b) or r == [0]
    qb = _poly_mul(q, b, p)
    lhs = qb + [0] * (len(a) - len(qb))
    rhs = list(a) + [0] * (len(qb) - len(a))
    for i, ri in enumerate(r):
        lhs[i] = (lhs[i] + ri) % p
    assert lhs == [x % p for x in rhs]
