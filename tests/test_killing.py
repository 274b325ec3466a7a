"""Killing form construction against hand-checked matrices and the brute-force route."""
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from casimir_oracle import dense_casimir
from form_oracle import (AlgebraVector, ZeroMultiplicity, apply_form, basis, basis_index,
                         class_sum_gram_located, class_sums, involution_count,
                         killing_matrix_bruteforce, m_vector, pairing, theta_vector)
from group_oracle import centralizer_count, conj_by
from group_strategies import permutation_groups_up_to_degree_8
from killform import characters, cli, exactlinalg, killing
from killform.characters import (CharTable, ClassFunction, character_table, multiplicities,
                                 roth_check)
from killform.cli import cmd_spectrogram, cmd_survey, main
from killform.errors import (
    CapExceeded,
    ElementNotInGroup,
    NotCentral,
    ProjectorMismatch,
    RowSumMismatch,
    SingularMatrix,
)
from killform.groups import (
    BaseLocator,
    ConjClass,
    alternating_group,
    build_named_group,
    generate_group,
    psl2,
    symmetric_class,
    symmetric_group,
)
from killform.exactlinalg import connected_components, exact_rank, signature
from killform.killing import KillingForm, analyze, casimir, killing_matrix, universal_killing
from killform.perms import Perm

PSU33 = Path(__file__).resolve().parent.parent / "data" / "psu33.grp"
M11 = PSU33.with_name("m11.grp")


def class_by_label(G, label):
    for c in G.classes():
        if c.label == label:
            return c
    raise AssertionError(f"no class {label} in {G}")


# ---------------------------------------------------------------- S3 hand values

def test_s3_transpositions_is_3I():
    G = symmetric_group(3)
    K = killing_matrix(G, class_by_label(G, "2A"))
    assert np.array_equal(K.matrix.data, 3 * np.eye(3, dtype=np.int64))


def test_s3_three_cycles():
    G = symmetric_group(3)
    K = killing_matrix(G, class_by_label(G, "3A"))
    assert np.array_equal(K.matrix.data, np.array([[2, 2], [2, 2]]))
    analyze(K)
    assert K.analysis.lambda_max == 4
    assert K.analysis.signature.astuple() == (1, 0, 1)
    assert not K.analysis.nondegenerate
    assert K.analysis.component_count == 1


# ------------------------------------------------------- S4 rows from the tables

S4_THREE_CYCLE_BASIS = ["(1,2,3)", "(1,3,2)", "(1,4,2)", "(1,2,4)",
                        "(1,3,4)", "(1,4,3)", "(2,4,3)", "(2,3,4)"]
S4_THREE_CYCLE_FIRST_ROW = [2, 8, 2, 0, 2, 0, 2, 0]


def test_s4_three_cycles_first_row():
    G = symmetric_group(4)
    K = killing_matrix(G, class_by_label(G, "3A"))
    a = basis_index(K, Perm.parse(S4_THREE_CYCLE_BASIS[0], degree=4))
    got = [int(K.matrix.data[a][basis_index(K, Perm.parse(s, degree=4))])
           for s in S4_THREE_CYCLE_BASIS]
    assert got == S4_THREE_CYCLE_FIRST_ROW


def test_s4_four_cycles_rows_and_spectrum():
    G = symmetric_group(4)
    K = killing_matrix(G, class_by_label(G, "4A"))
    for i, a in enumerate(basis(K)):
        row = K.matrix.data[i]
        assert sorted(row.tolist()) == [0, 0, 0, 0, 2, 6]
        assert row[i] == 2
        assert row[basis_index(K, a.inverse())] == 6
    analyze(K)
    assert K.analysis.lambda_max == 8
    assert K.analysis.component_count == 3  # a <-> a^-1 pairs
    assert K.analysis.signature.astuple() == (3, 3, 0)
    eig = {(round(e.value), e.multiplicity) for e in K.spectrum()}
    assert eig == {(8, 3), (-4, 3)}
    assert all(e.integral for e in K.spectrum())


# ------------------------------------------------------------ universal calculus

# chi_W = |Z(g)| - 1 on S3, written out in the basis (e, u, v, w, uv, vu)
S3_UNIVERSAL_FULL = {
    "e": [5, 1, 1, 1, 2, 2],
    "(1,2)": [1, 5, 2, 2, 1, 1],
    "(2,3)": [1, 2, 5, 2, 1, 1],
    "(1,3)": [1, 2, 2, 5, 1, 1],
    "(1,2,3)": [2, 1, 1, 1, 2, 5],
    "(1,3,2)": [2, 1, 1, 1, 5, 2],
}
S3_UNIVERSAL_ORDER = ["e", "(1,2)", "(2,3)", "(1,3)", "(1,2,3)", "(1,3,2)"]


def test_s3_universal_full_matrix():
    G = symmetric_group(3)
    K = universal_killing(G, include_identity=True)
    assert K.matrix.dim == 6
    idx = [basis_index(K, Perm.parse(s, degree=3)) for s in S3_UNIVERSAL_ORDER]
    for r, name in enumerate(S3_UNIVERSAL_ORDER):
        got = [int(K.matrix.data[idx[r]][idx[c]]) for c in range(6)]
        assert got == S3_UNIVERSAL_FULL[name], name


def test_s3_universal_restricted_is_corner_deletion():
    G = symmetric_group(3)
    full = universal_killing(G, include_identity=True)
    K = universal_killing(G)
    assert K.matrix.dim == 5
    assert not K.includes_identity and K.universal
    e = G.identity
    assert e not in basis(K)
    for i, a in enumerate(basis(K)):
        for j, b in enumerate(basis(K)):
            assert K.matrix.data[i, j] == full.matrix.data[basis_index(full, a), basis_index(full, b)]


def test_universal_order_two_group():
    G = generate_group([Perm.parse("(1,2)")], name="C2")
    K = analyze(universal_killing(G))
    assert K.matrix.data.tolist() == [[1]]
    assert K.analysis.nondegenerate
    assert K.analysis.lambda_max is None  # not a single-class calculus


def test_universal_analyze_skips_row_sum_check():
    G = symmetric_group(3)
    K = analyze(universal_killing(G))
    assert K.analysis.lambda_max is None
    assert K.analysis.chi_on_class is None
    assert K.analysis.component_count == 1


# ----------------------------------- universal signature in closed form (Roth)

ROTH_SPECS = ["S3", "S4", "S5", "S6", "A4", "A5", "A6", "A7",
              "PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)"]

# groups where some irrep is missing from the conjugation representation
NON_ROTH_GENERATORS = {
    "C2": (2, ["(1,2)"]),
    "C4": (4, ["(1,2,3,4)"]),
    "D8": (4, ["(1,2,3,4)", "(1,3)"]),
    "(Z2)^3": (6, ["(1,2)", "(3,4)", "(5,6)"]),
}


def non_roth_group(name):
    degree, gens = NON_ROTH_GENERATORS[name]
    return generate_group([Perm.parse(g, degree=degree) for g in gens], name=name)


class MatrixSignatureCalled(Exception):
    pass


@pytest.mark.parametrize("include_identity", [False, True])
@pytest.mark.parametrize("spec", ROTH_SPECS)
def test_universal_closed_form_matches_the_matrix_signature(spec, include_identity):
    K = universal_killing(build_named_group(spec), include_identity=include_identity)
    closed = killing._universal_signature(K)
    assert closed is not None, spec
    assert closed == signature(K.matrix), spec
    assert analyze(K).analysis.signature == closed


@pytest.mark.parametrize("include_identity", [False, True])
@pytest.mark.parametrize("name", sorted(NON_ROTH_GENERATORS))
def test_universal_signature_falls_back_to_the_matrix_without_roth(name, include_identity,
                                                                   monkeypatch):
    G = non_roth_group(name)
    S = characters._class_sum_gram(G)
    assert exact_rank(S) < S.dim == len(G.classes())
    K = universal_killing(G, include_identity=include_identity)
    assert killing._universal_signature(K) is None
    seen = []
    monkeypatch.setattr(killing, "signature", lambda M, seed=0: seen.append(M) or signature(M))
    assert analyze(K).analysis.signature == signature(K.matrix)
    assert seen == [K.matrix]


def test_universal_analyze_runs_no_matrix_signature_under_roth(monkeypatch):
    def refuse(M, seed=0):
        raise MatrixSignatureCalled

    monkeypatch.setattr(killing, "signature", refuse)
    K = analyze(universal_killing(psl2(7)))
    assert K.analysis.signature.astuple() == (94, 73, 0)
    with pytest.raises(MatrixSignatureCalled):
        analyze(universal_killing(non_roth_group("C4")))


def test_class_sum_gram_of_s3():
    # classes e, 2A, 3A of sizes 1, 3, 2; S[j][l] = |C_j| sum_{y in C_l} |Z(g_j y)|
    assert characters._class_sum_gram(symmetric_group(3)).data.tolist() == [
        [6, 6, 6], [6, 36, 12], [6, 12, 18]]


@st.composite
def small_permutation_groups(draw):
    degree = draw(st.integers(2, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return generate_group([Perm(g) for g in gens], degree=degree)


@settings(max_examples=60, deadline=None)
@given(small_permutation_groups())
def test_class_sum_gram_matches_located_products_and_structure_constants(G):
    # with the cap at 0 the Gram is walked a class at a time, as above
    # CLASS_CAP, and reads no structure constants; then it is read off them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "CLASS_CAP", 0)
        walked = characters._class_sum_gram(G)
    assert "structure_constants" not in vars(G)
    S = characters._class_sum_gram(G)
    assert S == walked == class_sum_gram_located(G)
    assert S.data.tolist() == (G.order * G.structure_constants.sum(axis=2)).tolist()


@pytest.mark.parametrize("spec", ["file:data/psu33.grp", "file:data/m11.grp"])
def test_class_sum_gram_matches_located_products_on_shipped_groups(spec):
    G = build_named_group(spec)
    assert characters._class_sum_gram(G) == class_sum_gram_located(G)


def test_class_sum_gram_above_the_class_cap_is_walked():
    G = generate_group([Perm.parse(f"({2 * i + 1},{2 * i + 2})", degree=14) for i in range(7)])
    assert len(G.classes()) == G.order == 128 > characters.CLASS_CAP
    assert characters._class_sum_gram(G) == class_sum_gram_located(G)
    assert "structure_constants" not in vars(G)


def test_universal_analyze_then_roth_check_walk_each_class_once(monkeypatch):
    G = psl2(17)  # a fresh group: the constants and Roth's verdict are kept per group
    classes = G.classes()  # its classes are found first, from products of their own
    calls = []
    products = BaseLocator.products

    def counting(self, A, B):
        calls.append(len(A))
        return products(self, A, B)

    monkeypatch.setattr(BaseLocator, "products", counting)
    assert analyze(universal_killing(G)).analysis.nondegenerate
    assert roth_check(G)[0]
    assert calls == [c.size for c in classes]


def closed_form_involutions(G) -> int:
    """t as the closed form reads it: with Roth's verdict forced, the full
    universal form has signature ((|G| + t)/2, (|G| - t)/2, 0)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_roth_holds", lambda G, seed=0: True)
        sig = killing._universal_signature(universal_killing(G, cap=G.order, include_identity=True))
    return sig.positive - sig.negative


@pytest.mark.parametrize("spec", [f"file:{PSU33}", f"file:{M11}"])
def test_involutions_from_the_classes_match_the_squares_on_shipped_groups(spec):
    G = build_named_group(spec)
    assert closed_form_involutions(G) == involution_count(G)


def test_universal_form_of_an_elementary_abelian_group_of_order_512():
    # k = |G| = 512 classes: the Gram is counted in k x k memory, where the
    # (k, k, k) structure constants would take 1 GB
    n = 9
    G = generate_group([Perm.parse(f"({2 * i + 1},{2 * i + 2})", degree=2 * n) for i in range(n)])
    k = len(G.classes())
    assert k == G.order == 512
    tracemalloc.start()
    try:
        S = characters._class_sum_gram(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * k * k * 8
    assert exact_rank(S) == 1  # every entry is |G|: Roth's property fails
    # every entry of the form is |Z(ab)| - 1 = |G| - 1 > 0: rank one, positive
    assert analyze(universal_killing(G)).analysis.signature.astuple() == (1, 0, G.order - 2)


@settings(max_examples=60, deadline=None)
@given(small_permutation_groups())
def test_universal_closed_form_on_random_groups(G):
    conj = ClassFunction(tuple(G.order // cl.size for cl in G.classes()))
    T = character_table(G)
    S = characters._class_sum_gram(G)
    roth = exact_rank(S) == S.dim
    assert roth == all(m > 0 for m in multiplicities(conj, T))
    if len(G.centre()) == 1:
        assert roth_check(G, T)[0] == roth
    if G.order < 2:
        return
    assert closed_form_involutions(G) == involution_count(G)
    for include_identity in (False, True):
        K = universal_killing(G, include_identity=include_identity)
        closed = killing._universal_signature(K)
        assert (closed is not None) == roth
        a = analyze(K).analysis
        assert a.signature == signature(K.matrix)
        assert closed is None or closed == a.signature
        assert a.component_count == len(connected_components(K.matrix))


# ------------------------------------- class-form signature on the Z(g)-orbits

ORBITAL_SPECS = ["S3", "S4", "S5", "S6", "A4", "A5", "A6", "A7",
                 "PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)", f"file:{PSU33}"]


@pytest.mark.parametrize("spec", ORBITAL_SPECS)
def test_orbital_signature_matches_the_matrix(spec):
    G = build_named_group(spec)
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        assert killing._orbital_signature(K) == signature(K.matrix), (spec, C.label)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(permutation_groups_up_to_degree_8())
def test_orbital_signature_on_random_groups(G):
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        assert killing._orbital_signature(K) == signature(K.matrix), C.label


def _orbital_data_bruteforce(G, C):
    """The Z(g)-orbits of C and A_j[s, t] = #{h in C_j : h x_s h^-1 in O_t},
    from the centraliser and all r * |G| conjugates h x_s h^-1."""
    g = C.arr[0]
    Z = np.flatnonzero((G.arr[:, g] == g[G.arr]).all(axis=1))
    in_C = np.full(G.order, -1, dtype=np.intp)
    in_C[G.locator.locate(C.arr)] = np.arange(C.size)
    label = in_C[G.locator.conjugates(C.arr, Z)].min(axis=1)  # each orbit's first member
    first, w = np.unique(label, return_counts=True)
    r, k = len(first), len(G.classes())
    orbit = np.searchsorted(first, label)[in_C[G.locator.conjugates(C.arr[first],
                                                                    np.arange(G.order))]]
    A = np.zeros((k, r, r), dtype=np.int64)
    for s in range(r):
        np.add.at(A, (G.class_map, s, orbit[s]), 1)
    return first, w, A


@pytest.mark.parametrize("spec", ["S5", "A7", "PSL(2,13)", f"file:{PSU33}", f"file:{M11}"])
def test_orbital_class_sums_match_the_bruteforce(spec):
    G = build_named_group(spec)
    for C in G.classes()[1:]:
        orbital = killing._orbital_data(killing_matrix(G, C))
        first, w, A = _orbital_data_bruteforce(G, C)
        assert np.array_equal(orbital.first, first) and np.array_equal(orbital.w, w)
        assert np.array_equal(class_sums(orbital), A), (spec, C.label)


def test_survey_of_psu33_passes_no_class_sized_matrix(monkeypatch):
    dims = []

    def recording(fn):
        def wrapper(M, *args, **kwargs):
            dims.append(M.dim)
            return fn(M, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(killing, "signature", recording(exactlinalg.signature))
    monkeypatch.setattr(exactlinalg, "exact_rank", recording(exactlinalg.exact_rank))
    report = cmd_survey(f"file:{PSU33}")
    assert report.exit_code == 0 and dims
    # the classes have 56 to 864 members; the largest orbital block has 50 rows
    assert max(dims) < min(int(row[1]) for row in report.rows)


def _block_ranks(G, C):
    """rho = tr E_O of each idempotent's block with rho > 0, in the order of
    rational_idempotents, from the dense class sums."""
    A = class_sums(killing._orbital_data(killing_matrix(G, C)))
    ranks = [d * int(np.trace(np.tensordot(u, A, axes=1))) // G.order
             for d, u in characters.rational_idempotents(G)]
    return [rho for rho in ranks if rho]


def test_survey_of_a5_eliminates_once_per_nonsingular_block(monkeypatch, eliminations):
    G = build_named_group("A5")
    expected = [(rho, rho) for C in G.classes()[1:] for rho in _block_ranks(G, C)]
    monkeypatch.setattr(cli, "build_named_group", lambda spec, cap: G)  # its table is built
    before = len(eliminations)
    report = cmd_survey("A5")
    assert report.exit_code == 0 and all(row[-1] == "true" for row in report.rows)
    # the signature's rank certificate of each block, and no lift of its basis
    assert eliminations[before:] == expected


def test_a_singular_block_still_lifts_its_basis(monkeypatch):
    G = build_named_group(f"file:{PSU33}")
    K = killing_matrix(G, class_by_label(G, "4A"))
    blocks, lifted = [], []
    sig, lift = killing.signature, killing._lift_nullspace

    def recording(M, seed=0):
        result = sig(M, seed)
        blocks.append((M.dim, result.zero))
        return result

    monkeypatch.setattr(killing, "signature", recording)
    monkeypatch.setattr(killing, "_lift_nullspace",
                        lambda P, rng: lifted.append(P.shape) or lift(P, rng))
    result = killing._orbital_signature(K)
    r = len(killing._orbital_data(K).w)
    assert result == signature(K.matrix) and result.zero == 27
    assert lifted == [(r, dim) for dim, zero in blocks if zero] and lifted


def test_a_dependent_pick_falls_back_to_the_dense_route(monkeypatch, dense_fills):
    expected = cmd_survey("A5").render("md")
    image_basis = killing._image_basis

    def dependent(N, rank):
        P = image_basis(N, rank)
        if P is not None and rank > 1:
            P[:, -1] = P[:, 0]
        return P

    monkeypatch.setattr(killing, "_image_basis", dependent)
    G = alternating_group(5)
    C = class_by_label(G, "3A")
    assert max(_block_ranks(G, C)) > 1
    assert killing._orbital_signature(killing_matrix(G, C)) is None
    assert cmd_survey("A5").render("md") == expected and dense_fills


def _off_by_one(chars):
    chars[-1][1] += 1  # A5: the degree-5 character on 2A


def _swapped(chars):
    chars[1][2], chars[2][2] = chars[2][2], chars[1][2]  # A6: 5a and 5b on 3A


@pytest.mark.parametrize("spec, perturb", [("A5", _off_by_one), ("A6", _swapped)])
def test_a_perturbed_table_fails_the_checks_and_falls_back(spec, perturb, monkeypatch):
    G = build_named_group(spec)  # a fresh group: the idempotents are kept per group
    exact = characters.character_table

    def perturbed(G, cap=characters.CLASS_CAP):
        T = exact(G, cap)
        chars = [list(row) for row in T.chars]
        perturb(chars)
        return CharTable(T.name, T.class_labels, T.class_sizes, T.degrees, chars, T.provenance)

    monkeypatch.setattr(characters, "character_table", perturbed)
    assert characters.rational_idempotents(G) is None
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        assert killing._orbital_signature(K) is None
        assert analyze(K).analysis.signature == signature(K.matrix)


def test_more_classes_than_the_table_cap_survey_through_the_matrix(tmp_path, monkeypatch,
                                                                   dense_fills):
    # (Z2)^7 has 128 classes; the table is tried once and the dense path decides
    path = tmp_path / "z2_7.grp"
    path.write_text("name (Z2)^7\ndegree 14\n"
                    + "".join(f"({2 * i + 1},{2 * i + 2})\n" for i in range(7)), encoding="utf-8")
    tried = []
    exact = characters.character_table
    monkeypatch.setattr(characters, "character_table",
                        lambda G, cap=characters.CLASS_CAP: tried.append(G) or exact(G, cap))
    report = cmd_survey(f"file:{path}")
    assert report.exit_code == 0 and len(tried) == 1
    assert len(report.rows) == 127 and dense_fills == [1] * 127
    for row in report.rows:
        assert row[1:] == ["1", "1", "true", "true", "1", "1", "1", "0", "0", "true"]


def test_orbital_route_needs_a_form_that_commutes_with_conjugation():
    G = alternating_group(5)
    K = killing_matrix(G, class_by_label(G, "3A"))
    data = K.matrix.data.copy()
    # rows that are not the first of their orbit: S, read off those, is unchanged
    data[18, 19] = data[19, 18] = data[18, 19] + 1
    tampered = KillingForm(exactlinalg.IntSymMatrix(data), K.basis_arr, group=G,
                           conj_class=K.conj_class)
    assert killing._orbital_signature(tampered) is None
    with pytest.raises(ProjectorMismatch):
        characters.eigenspace_decomposition(tampered, character_table(G))


def test_a_class_form_handed_in_as_a_matrix_is_analysed_as_a_matrix(monkeypatch):
    G = alternating_group(5)
    K = killing_matrix(G, class_by_label(G, "3A"))
    copy = KillingForm(exactlinalg.IntSymMatrix(K.matrix.data), K.basis_arr, group=G,
                       conj_class=K.conj_class)
    built = analyze(K).analysis
    seen = []
    monkeypatch.setattr(killing, "signature", lambda M, seed=0: seen.append(M) or signature(M))
    assert copy.orbital is None
    assert analyze(copy).analysis == built
    assert seen == [copy.matrix]
    assert [(round(e.value, 6), e.multiplicity) for e in copy.spectrum()] == \
        [(round(e.value, 6), e.multiplicity) for e in K.spectrum()]
    with pytest.raises(NotCentral):
        casimir(copy)
    with pytest.raises(ProjectorMismatch):
        characters.eigenspace_decomposition(copy, character_table(G))


def test_a_universal_form_handed_in_as_a_matrix_gets_its_own_signature():
    # the closed form reads only the group: on the negated form it gave (4, 1, 0)
    G = symmetric_group(3)
    K = universal_killing(G)
    negated = KillingForm(exactlinalg.IntSymMatrix(-K.matrix.data), K.basis_arr, group=G,
                          universal=True)
    assert analyze(K).analysis.signature.astuple() == (4, 1, 0)
    a = analyze(negated).analysis
    assert a.signature.astuple() == signature(negated.matrix).astuple() == (1, 4, 0)
    assert a.component_count == 1


@pytest.mark.parametrize("spec", ["A5", "PSL(2,7)"])
def test_orbital_signature_with_the_int64_block_product(spec, monkeypatch):
    # every shipped block takes the float64 product; a basis scaled by 2^s is
    # still a basis of the same image, and pushes the bound S_max * (largest
    # column sum of |P|)^2 into [2^53, 2^62), where P^T S P is formed in int64
    G = build_named_group(spec)
    image_basis, bounds = killing._image_basis, []
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        S_max = int(np.abs(K.orbital.S).max())

        def scaled(N, rank, S_max=S_max):
            P = image_basis(N, rank)
            bound = S_max * int(np.abs(P).sum(axis=0).max()) ** 2
            s = 0
            while bound << 2 * s < 1 << 53:
                s += 1
            bounds.append(bound << 2 * s)
            return P * (1 << s)

        monkeypatch.setattr(killing, "_image_basis", scaled)
        assert killing._orbital_signature(K) == signature(K.matrix), C.label
    assert bounds and all(1 << 53 <= b < 1 << 62 for b in bounds)


def _drop_one(idempotents):
    return idempotents[:-1]


def _off_by_one_at_e(idempotents):
    (d, u), *rest = idempotents[1:]
    bumped = u.copy()
    bumped[0] += 1
    return [idempotents[0], (d, bumped), *rest]


def _doubled(idempotents):
    (d, u), *rest = idempotents[1:]
    return [idempotents[0], (d, 2 * u), *rest]


@pytest.mark.parametrize("doctor", [_drop_one, _off_by_one_at_e, _doubled])
def test_doctored_idempotents_fail_the_exact_checks_and_fall_back(doctor, monkeypatch):
    # dropping one fails the unit sum; 1 more at e fails the trace and weight
    # check; a doubled u passes that check, and its doubled rank has no pick
    G = alternating_group(5)
    K = killing_matrix(G, G.classes()[2])
    idempotents = characters.rational_idempotents(G)
    monkeypatch.setattr(characters, "rational_idempotents", lambda G: doctor(idempotents))
    seen = []
    monkeypatch.setattr(killing, "signature", lambda M, seed=0: seen.append(M) or signature(M))
    assert killing._orbital_signature(K) is None
    seen.clear()
    assert analyze(K).analysis.signature == signature(K.matrix)
    assert seen[-1] is K.matrix


# ------------------------------------------ lazy forms, read on the orbit rows

@pytest.mark.parametrize("spec", ORBITAL_SPECS)
def test_orbital_lambda_and_components_match_the_matrix(spec, dense_fills):
    G = build_named_group(spec)
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        a = analyze(K).analysis
        assert dense_fills == [], (spec, C.label)
        assert a.lambda_max == K.matrix.data.sum(axis=1)[0], (spec, C.label)
        assert a.component_count == len(connected_components(K.matrix)), (spec, C.label)
        dense_fills.clear()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(permutation_groups_up_to_degree_8())
def test_orbital_lambda_and_components_on_random_groups(G):
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        a = analyze(K).analysis
        assert a.lambda_max == K.matrix.data.sum(axis=1)[0], C.label
        assert a.component_count == len(connected_components(K.matrix)), C.label


@pytest.mark.parametrize("spec", ["S4", "A5", "PSL(2,7)"])
def test_rows_of_a_lazy_form_equal_the_dense_rows(spec, monkeypatch):
    monkeypatch.setattr(killing, "_BLOCK_ENTRIES", 100)  # a block of one or a few rows
    G = build_named_group(spec)
    forms = [killing_matrix(G, C) for C in G.classes()[1:]]
    forms += [universal_killing(G), universal_killing(G, include_identity=True)]
    if spec == "S4":
        forms += [killing_matrix(None, C) for C in symmetric_group(4).classes()[1:]]
    rng = np.random.default_rng(0)
    for K in forms:
        n = K.matrix.dim
        idx = rng.choice(n, size=min(n, 9), replace=False)
        rows, every = K.matrix.rows(idx), K.matrix.rows(np.arange(n))
        assert "data" not in vars(K.matrix)
        assert np.array_equal(rows, K.matrix.data[idx]), K
        assert np.array_equal(every, K.matrix.data), K


def test_dim_and_repr_fill_nothing(dense_fills):
    G = alternating_group(5)
    K, U = killing_matrix(G, class_by_label(G, "3A")), universal_killing(G)
    assert (K.matrix.dim, U.matrix.dim) == (20, 59)
    assert (repr(K), repr(U)) == ("KillingForm(3A, dim=20)", "KillingForm(universal, dim=59)")
    assert repr(K.matrix) == "IntSymMatrix(dim=20)"
    assert dense_fills == []


@pytest.mark.parametrize("spec", ["A5", "PSL(2,7)"])
def test_universal_analyze_of_a_roth_group_fills_no_dense_form(spec, dense_fills):
    a = analyze(universal_killing(build_named_group(spec))).analysis
    assert a.component_count == 1 and a.nondegenerate
    assert dense_fills == []


@pytest.mark.parametrize("name", sorted(NON_ROTH_GENERATORS))
def test_universal_analyze_without_roth_fills_the_dense_form(name, dense_fills):
    K = analyze(universal_killing(non_roth_group(name)))
    assert dense_fills == [K.matrix.dim]


def test_universal_form_of_psu33_goes_to_the_matrix(dense_fills, monkeypatch):
    # Roth's property fails on PSU(3,3); its 6047-dim dense form would take
    # 290 MB, so the matrix signature is stubbed and only its call is checked
    G = build_named_group(f"file:{PSU33}")
    K = universal_killing(G, cap=G.order)
    seen = []
    monkeypatch.setattr(killing, "signature",
                        lambda M, seed=0: seen.append(M) or exactlinalg.Signature(0, 0, 0))
    assert analyze(K).analysis.component_count == 1
    assert seen == [K.matrix] and dense_fills == []


def test_a_class_form_without_its_group_fills_the_dense_form(dense_fills):
    K = analyze(killing_matrix(None, symmetric_class(5, (3, 1, 1))))
    assert (K.analysis.lambda_max, K.analysis.component_count) == (34, 1)
    assert dense_fills == [20]


# ---------------------------------------------- the spectrum on the Z(g)-orbits

@pytest.mark.parametrize("spec", ORBITAL_SPECS)
def test_spectrogram_fills_no_dense_form(spec, dense_fills):
    report = cmd_spectrogram(spec)
    assert report.exit_code == 0 and not any(r[1].startswith("ERROR(") for r in report.rows)
    assert dense_fills == []


def test_a_non_integral_eigenspace_dimension_is_a_mismatch(monkeypatch):
    eigenspaces = killing._OrbitalData.eigenspaces.func

    def off(D):
        clusters, Pi, vectors = eigenspaces(D)
        Pi = Pi.copy()
        Pi[0, 0] += 0.5 / D.w.sum()  # half a dimension more in the top eigenspace
        return clusters, Pi, vectors

    monkeypatch.setattr(killing._OrbitalData, "eigenspaces", property(off))
    G = alternating_group(5)
    with pytest.raises(ProjectorMismatch, match="eigenspace dimensions"):
        killing_matrix(G, class_by_label(G, "3A")).spectrum()
    report = cmd_spectrogram("A5")
    assert report.exit_code == 4
    assert report.rows == [[C.label, "ERROR(ProjectorMismatch)", ""] for C in G.classes()[1:]]


# ------------------------------------------------------------------ A5 analyses

def test_a5_involutions():
    G = alternating_group(5)
    K = analyze(killing_matrix(G, class_by_label(G, "2A")))
    a = K.analysis
    assert (a.lambda_max, a.component_count, a.chi_on_class) == (21, 5, 3)
    assert a.signature.astuple() == (15, 0, 0)
    assert a.nondegenerate and a.is_real
    # five Klein blocks [[15,3,3],[3,15,3],[3,3,15]]
    assert sorted(K.matrix.data[0].tolist()) == [0] * 12 + [3, 3, 15]


def test_a5_three_cycles():
    G = alternating_group(5)
    K = analyze(killing_matrix(G, class_by_label(G, "3A")))
    a = K.analysis
    assert a.lambda_max == 34
    assert a.signature.astuple() == (10, 10, 0)
    assert a.nondegenerate
    assert a.chi_on_class == 2
    assert a.component_count == 1


# ------------------------------------------------------------------- dual route

DUAL_ROUTE_GROUPS = ["S3", "S4", "A4", "A5", "PSL(2,7)"]


@pytest.mark.parametrize("spec", DUAL_ROUTE_GROUPS)
def test_class_function_route_matches_bruteforce(spec):
    G = build_named_group(spec)
    for C in G.classes():
        if C.is_trivial():
            continue
        K = killing_matrix(G, C)
        B = killing_matrix_bruteforce(C)
        assert np.array_equal(K.matrix.data, B.data), (spec, C.label)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cycle_type_route_matches_group_route(n):
    G = symmetric_group(n)
    for C in G.classes():
        if C.is_trivial():
            continue
        lens = [len(c) for c in C.representative.cycles()]
        direct = symmetric_class(n, lens)
        assert direct.members == C.members
        K = killing_matrix(None, direct)
        assert np.array_equal(K.matrix.data, killing_matrix(G, C).matrix.data), (n, C.label)


def test_class_form_checks_each_row_of_the_class_once(monkeypatch):
    G = alternating_group(7)
    C = class_by_label(G, "4A")  # 630 members: the form is built in two blocks of rows
    located = []
    locate = BaseLocator.locate
    monkeypatch.setattr(BaseLocator, "locate",
                        lambda self, X: located.append(len(X)) or locate(self, X))
    killing_matrix(G, C)
    assert located == [C.size]


def test_class_function_route_rejects_a_set_that_is_not_a_class():
    S4 = symmetric_group(4)
    # two of the three double transpositions: the brute force gives [[2, 2], [2, 2]],
    # which no class function of the product reproduces
    part = ConjClass(np.array([Perm.parse("(1,3)", 4).images, Perm.parse("(2,4)", 4).images]))
    assert killing_matrix_bruteforce(part).data.tolist() == [[2, 2], [2, 2]]
    mixed = ConjClass(np.array(sorted([Perm.parse("(1,2)", 4).images,
                                       Perm.parse("(1,2)(3,4)", 4).images])))
    for C in (part, mixed):
        with pytest.raises(ValueError):
            killing_matrix(S4, C)
    with pytest.raises(ElementNotInGroup):
        killing_matrix(S4, class_by_label(symmetric_group(5), "2A"))


def test_cycle_type_route_rejects_a_partial_class():
    A5 = alternating_group(5)
    with pytest.raises(ValueError):
        killing_matrix(None, class_by_label(A5, "5A"))  # half of the 5-cycles of S5


def test_wide_degree_forms(wide_s5_file):
    G = build_named_group(f"file:{wide_s5_file}")
    for C in G.classes():
        if not C.is_trivial():
            K = killing_matrix(G, C)
            assert np.array_equal(K.matrix.data, killing_matrix_bruteforce(C).data), C.label
    U = universal_killing(G)
    want = [[centralizer_count(G, a * b) - 1 for b in basis(U)] for a in basis(U)]
    assert U.matrix.data.tolist() == want


def test_ad_invariance_a5():
    G = alternating_group(5)
    C = class_by_label(G, "3A")
    K = killing_matrix(G, C)
    rng = np.random.default_rng(7)
    for g in rng.choice(len(G.elements), size=5, replace=False):
        g = G.elements[int(g)]
        for i in (0, 3, 11):
            for j in (1, 5, 19):
                a, b = basis(K)[i], basis(K)[j]
                ga, gb = conj_by(a, g), conj_by(b, g)
                assert K.matrix.data[basis_index(K, ga), basis_index(K, gb)] == K.matrix.data[i, j]


def test_diagonal_counts_self_commuting():
    # K[a][a] = |Z(a^2) ∩ C|, so involution classes put |Z(e) ∩ C| = |C| on the diagonal
    G = symmetric_group(4)
    C = class_by_label(G, "2B")
    K = killing_matrix(G, C)
    assert np.array_equal(np.diag(K.matrix.data), np.full(6, 6))


# ----------------------------------------------------------------- theta vector

def test_theta_is_exact_eigenvector():
    G = alternating_group(5)
    K = analyze(killing_matrix(G, class_by_label(G, "3A")))
    th = theta_vector(K)
    assert len(th) == 20 and all(v == 1 for v in th.coeffs.values())
    out = apply_form(K, th)
    lam = K.analysis.lambda_max
    assert out == th.scale(Fraction(lam))


def test_theta_rejects_universal():
    G = symmetric_group(3)
    with pytest.raises(ValueError):
        theta_vector(universal_killing(G))


# ---------------------------------------------------------------------- casimir

def test_casimir_s3_transpositions_is_identity():
    G = symmetric_group(3)
    c = casimir(killing_matrix(G, class_by_label(G, "2A")))
    assert c.e_coeff == 1
    assert c.theta_coeffs == {}
    assert str(c) == "1*e"


def test_casimir_a5_involutions():
    G = alternating_group(5)
    c = casimir(killing_matrix(G, class_by_label(G, "2A")))
    assert c.e_coeff == Fraction(15, 14)
    assert c.theta_coeffs == {"2A": Fraction(-1, 42)}
    assert str(c) == "15/14*e - 1/42*theta[2A]"


def test_casimir_s4_transpositions():
    G = symmetric_group(4)
    c = casimir(killing_matrix(G, class_by_label(G, "2B")))
    assert c.e_coeff == Fraction(9, 8)
    assert c.theta_coeffs == {"2A": Fraction(-1, 8)}


# expansions computed by the earlier Fraction Gauss-Jordan inverse
CASIMIR_FROZEN = {
    ("A6", "2A"):
        "38256255/36590447*e - 320400/36590447*theta[2A] + 91953/146361788*theta[3A]"
        " + 91953/146361788*theta[3B] - 31904/36590447*theta[4A]"
        " - 3475/73180894*theta[5A] - 3475/73180894*theta[5B]",
    ("PSL(2,11)", "2A"):
        "105795799/97118956*e - 67099137/5341542580*theta[2A]"
        " - 1793421/2670771290*theta[3A] + 60695/267077129*theta[5A]"
        " + 838947/1068308516*theta[5B] - 179361/5341542580*theta[6A]",
    ("A7", "3A"):
        "2011555/1536768*e + 187/128064*theta[2A] - 29329/1024512*theta[3A]"
        " - 113/66816*theta[3B] + 1025/400896*theta[5A]",
}


@pytest.mark.parametrize("spec, label", sorted(CASIMIR_FROZEN))
def test_casimir_frozen_expansions(spec, label):
    G = build_named_group(spec)
    c = casimir(killing_matrix(G, class_by_label(G, label)))
    assert str(c) == CASIMIR_FROZEN[spec, label]


def test_casimir_a7_6a_is_central():
    # dim 210: the coefficients summed over all of G are sum_{a,b} K^{ab} =
    # 1^T K^-1 1, and K 1 = lambda 1 makes that |C| / lambda
    G = build_named_group("A7")
    C = class_by_label(G, "6A")
    K = killing_matrix(G, C)
    c = casimir(K)
    sizes = {cl.label: cl.size for cl in G.classes()}
    total = c.e_coeff + sum(q * sizes[label] for label, q in c.theta_coeffs.items())
    assert total == Fraction(C.size, int(K.matrix.data[0].sum()))
    assert len(c.theta_coeffs) == 8


def test_casimir_degenerate_raises():
    G = symmetric_group(3)
    with pytest.raises(SingularMatrix):
        casimir(killing_matrix(G, class_by_label(G, "3A")))


def test_casimir_not_central_on_fake_class():
    # a one-element "class" that is not closed under conjugation
    c3 = Perm.parse("(1,2,3)")
    fake = ConjClass(np.array([c3.images]), label="fake")
    G = symmetric_group(3)
    with pytest.raises(ValueError):
        killing_matrix(G, fake)
    from killform.exactlinalg import IntSymMatrix
    K = KillingForm(IntSymMatrix([[1]]), fake.arr, group=G, conj_class=fake)
    with pytest.raises(NotCentral):  # |Z(c3^2) ∩ {c3}| = 1
        casimir(K)


# -------------------------------------------------- the Casimir on the Z(g)-orbits

def _check_casimir_against_the_analysis_and_the_oracle(G, size_cap):
    for C in G.classes()[1:]:
        K = killing_matrix(G, C)
        if not analyze(K).analysis.nondegenerate:
            with pytest.raises(SingularMatrix):
                casimir(K)
        elif C.size <= size_cap:
            assert casimir(K) == dense_casimir(K), C.label
        else:
            casimir(K)


@pytest.mark.parametrize("spec", ORBITAL_SPECS)
def test_casimir_matches_the_dense_oracle_and_the_analysis(spec):
    _check_casimir_against_the_analysis_and_the_oracle(build_named_group(spec), 128)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(permutation_groups_up_to_degree_8())
def test_casimir_on_random_groups(G):
    _check_casimir_against_the_analysis_and_the_oracle(G, 64)


def test_casimir_fills_no_dense_form(dense_fills):
    for spec, label in [("A5", "2A"), ("A7", "6A")]:
        G = build_named_group(spec)
        casimir(killing_matrix(G, class_by_label(G, label)))
    assert dense_fills == []


def test_casimir_of_m11_5a(capsys):
    # |C| = 1584, solved on r = 320 orbits
    assert main(["casimir", f"file:{M11}", "5A"]) == 0
    assert "theta[5A]" in capsys.readouterr().out


# --------------------------------------------------------------------- m vector

def s3_table():
    return types.SimpleNamespace(
        degrees=[1, 1, 2],
        class_labels=["1A", "2A", "3A"],
        chars=[[1, 1, 1], [1, -1, 1], [2, 0, -1]],
    )


def test_m_vector_s3_values():
    G = symmetric_group(3)
    m = m_vector(G, (2, 1, 1), s3_table())
    assert len(m) == 6
    e = G.identity
    assert m[e] == pytest.approx(19 / 2)
    assert m[Perm.parse("(1,2)", degree=3)] == pytest.approx(-1 / 2)
    assert m[Perm.parse("(1,2,3)")] == pytest.approx(-5 / 2)


def test_m_vector_pairs_to_zero_off_identity():
    G = symmetric_group(3)
    m = m_vector(G, (2, 1, 1), s3_table())
    K = universal_killing(G, include_identity=True)
    for a in G.elements:
        val = pairing(K, m, {a: 1.0})
        if a.is_identity():
            assert abs(val) > 1.0
        else:
            assert abs(val) < 1e-6, a


def test_m_vector_rejects_zero_multiplicity():
    G = symmetric_group(3)
    with pytest.raises(ZeroMultiplicity):
        m_vector(G, (2, 0, 1), s3_table())
    with pytest.raises(ValueError):
        m_vector(G, (2, 1), s3_table())


# ------------------------------------------------------------- caps and errors

def test_matrix_cap():
    G = symmetric_group(4)
    with pytest.raises(CapExceeded):
        killing_matrix(G, class_by_label(G, "3A"), cap=4)
    with pytest.raises(CapExceeded):
        universal_killing(G, cap=10)


def test_trivial_class_rejected():
    G = symmetric_group(3)
    with pytest.raises(ValueError):
        killing_matrix(G, G.classes()[0])


def test_row_sum_mismatch():
    t = Perm.parse("(1,2)", 3)
    u = Perm.parse("(1,3)", 3)
    fake = ConjClass(np.array(sorted([t.images, u.images])), label="fake")
    from killform.exactlinalg import IntSymMatrix
    K = KillingForm(IntSymMatrix([[1, 2], [2, 5]]), fake.arr, group=symmetric_group(3),
                    conj_class=fake)
    with pytest.raises(RowSumMismatch):
        analyze(K)


# -------------------------------------------------------------- sparse vectors

def test_algebra_vector_arithmetic():
    a = Perm.parse("(1,2)")
    b = Perm.parse("(1,3)")
    v = AlgebraVector({a: Fraction(1, 2), b: 1})
    w = AlgebraVector({a: Fraction(-1, 2)})
    assert (v + w).coeffs == {b: 1}
    assert (v - v).is_zero()
    assert v.scale(2)[a] == 1
    assert v.support() == {a, b}
