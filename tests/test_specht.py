import pytest
from fractions import Fraction

from form_oracle import AlgebraVector, theta_vector
from group_oracle import sign
from specht_oracle import (
    NotAnEigenvector,
    Tableau,
    eigenvalue_from_vector,
    project_to_class,
    row_and_column_groups,
    standard_tableaux,
    young_symmetrizer,
)
from killform.errors import CapExceeded
from killform.groups import symmetric_class, symmetric_group
from killform.killing import killing_matrix
from killform.perms import Perm
from killform.specht import (
    _fixed_counts,
    Partition,
    class_sign,
    class_size,
    euler_count,
    partitions_of,
    sign_rep_multiplicity,
    sign_rep_occurs,
    sn_character,
    specht_dimension,
    specht_multiplicity,
    specht_occurs,
    two_cycles_eigenvalues,
)


def av(n, items):
    """AlgebraVector from {cycle-string: coeff} over S_n."""
    return AlgebraVector({Perm.parse(s, n): c for s, c in items.items()})


def proportional(v, w):
    """v = c*w for some nonzero scalar c."""
    if v.support() != w.support() or v.is_zero():
        return False
    b = next(iter(v.coeffs))
    c = Fraction(v[b], w[b])
    return c != 0 and v == w.scale(c)


# ---------------------------------------------------------------- partitions

def test_partition_normalizes_and_validates():
    assert Partition([1, 3]).parts == (3, 1)
    assert Partition((2, 2)).n == 4
    assert str(Partition((4, 2, 1))) == "4,2,1"
    assert len(Partition((3, 1, 1))) == 3
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_partition_conjugate():
    assert Partition((4, 2, 1)).conjugate().parts == (3, 2, 1, 1)
    assert Partition((5,)).conjugate().parts == (1, 1, 1, 1, 1)
    assert Partition((3, 3)).conjugate().conjugate().parts == (3, 3)


def test_partitions_of_counts():
    assert sorted(partitions_of(4)) == sorted([(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    assert len(list(partitions_of(8))) == 22
    assert len(list(partitions_of(10))) == 42


def test_class_sizes_partition_the_group():
    for n in (3, 4, 5, 6):
        import math
        assert sum(class_size(n, mu) for mu in partitions_of(n)) == math.factorial(n)
    assert class_size(4, (2, 2)) == 3
    assert class_size(4, (2, 1, 1)) == 6
    assert class_sign(4, (2, 1, 1)) == -1
    assert class_sign(4, (2, 2)) == 1


# ------------------------------------------------------------------ tableaux

def test_row_reading_tableau():
    T = Tableau.row_reading(Partition((4, 2, 1)))
    assert T.rows == ((1, 2, 3, 4), (5, 6), (7,))
    assert T.shape.parts == (4, 2, 1)
    assert T.is_standard()
    assert T.columns() == ((1, 5, 7), (2, 6), (3,), (4,))


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((1, 2), (3, 3)))  # repeated entry
    with pytest.raises(ValueError):
        Tableau(((1, 2), (3, 4, 5)))  # increasing row lengths
    T = Tableau(((1, 4), (2, 3)))
    assert not T.is_standard()  # column 4 > 3


def test_standard_tableaux_enumeration():
    assert len(list(standard_tableaux(Partition((2, 2))))) == 2
    assert len(list(standard_tableaux(Partition((3, 1))))) == 3
    assert len(list(standard_tableaux(Partition((2, 1, 1))))) == 3
    tabs = list(standard_tableaux(Partition((4, 2, 1))))
    assert len(tabs) == 35
    assert tabs[0] == Tableau.row_reading(Partition((4, 2, 1)))
    assert all(t.is_standard() for t in tabs)
    assert len(set(tabs)) == len(tabs)


def test_standard_count_matches_hook_formula():
    for lam in partitions_of(6):
        assert len(list(standard_tableaux(Partition(lam)))) == specht_dimension(lam)


def test_row_and_column_groups_sizes():
    # first column {4,5,7}, second {2,6}
    T = Tableau(((4, 2, 1, 3), (5, 6), (7,)))
    R, C = row_and_column_groups(T)
    assert len(R) == 48 and len(C) == 12
    moved = lambda p: {i + 1 for i in range(7) if p.images[i] != i}
    assert all(moved(p) <= {1, 2, 3, 4} or moved(p) <= {5, 6} or moved(p) <= {1, 2, 3, 4, 5, 6} for p in R)
    assert all(moved(p) <= {4, 5, 7} | {2, 6} for p in C)


def test_single_row_and_single_column_groups():
    R, C = row_and_column_groups(Tableau.row_reading(Partition((4,))))
    assert len(R) == 24 and C == {Perm(range(4))}
    R, C = row_and_column_groups(Tableau.row_reading(Partition((1, 1, 1))))
    assert R == {Perm(range(3))} and len(C) == 6


# ---------------------------------------------------------- Young symmetrizer

def test_symmetrizer_single_row_is_full_sum():
    c = young_symmetrizer(Tableau.row_reading(Partition((4,))))
    G = symmetric_group(4)
    assert c.support() == set(G.elements)
    assert all(v == 1 for v in c.coeffs.values())


def test_symmetrizer_single_column_is_signed_sum():
    c = young_symmetrizer(Tableau.row_reading(Partition((1, 1, 1, 1))))
    assert len(c) == 24
    assert all(v == sign(p) for p, v in c.coeffs.items())


def test_symmetrizer_term_count_and_signs():
    # products s*t over C(T) x R(T) are pairwise distinct, so no cancellation
    c = young_symmetrizer(Tableau(((1, 2, 3), (4,))))
    assert len(c) == 12
    assert all(v in (1, -1) for v in c.coeffs.values())


def test_symmetrizer_cap():
    with pytest.raises(CapExceeded):
        young_symmetrizer(Tableau.row_reading(Partition((4, 2, 1))), cap=100)


# ------------------------------------------------------------------ projection

def test_project_identity_gives_representative():
    C = symmetric_class(4, (2, 2))
    v = AlgebraVector({Perm(range(4)): 1})
    assert project_to_class(v, C) == AlgebraVector({C.representative: 1})


def test_project_rejects_foreign_representative():
    C = symmetric_class(4, (2, 2))
    with pytest.raises(ValueError):
        project_to_class(AlgebraVector({Perm(range(4)): 1}), C, rep=Perm.parse("(1,2)", 4))


def test_projected_symmetrizer_two_two_shape():
    C = symmetric_class(4, (2, 2))
    c = young_symmetrizer(Tableau(((1, 2), (3, 4))))
    v = project_to_class(c, C)  # representative is (12)(34)
    assert v == av(4, {"(1,2)(3,4)": 8, "(1,4)(2,3)": -8})


def test_projected_symmetrizers_on_three_cycles():
    C = symmetric_class(4, (3, 1))
    rep = Perm.parse("(1,2,3)", 4)
    got31 = project_to_class(young_symmetrizer(Tableau(((1, 2, 3), (4,)))), C, rep=rep)
    assert got31 == av(4, {"(1,2,3)": 3, "(1,3,2)": 3, "(2,3,4)": -3, "(2,4,3)": -3})
    got211 = project_to_class(young_symmetrizer(Tableau(((1, 4), (2,), (3,)))), C, rep=rep)
    assert got211 == av(4, {"(1,2,3)": 3, "(1,3,2)": -3, "(1,2,4)": 1, "(1,4,2)": -1,
                            "(1,4,3)": 1, "(1,3,4)": -1, "(2,3,4)": 1, "(2,4,3)": -1})
    got1111 = project_to_class(young_symmetrizer(Tableau(((1,), (2,), (3,), (4,)))), C, rep=rep)
    assert got1111 == av(4, {"(1,2,3)": 3, "(1,3,2)": -3, "(2,3,4)": -3, "(2,4,3)": 3,
                             "(1,3,4)": 3, "(1,4,3)": -3, "(1,2,4)": -3, "(1,4,2)": 3})


def test_projected_symmetrizers_on_four_cycles():
    C = symmetric_class(4, (4,))
    assert C.representative == Perm.parse("(1,2,3,4)", 4)
    got22 = project_to_class(young_symmetrizer(Tableau(((1, 2), (3, 4)))), C)
    assert got22 == av(4, {"(1,3,4,2)": 2, "(1,2,4,3)": 2, "(1,4,2,3)": -2, "(1,3,2,4)": -2})
    got211 = project_to_class(young_symmetrizer(Tableau(((1, 4), (2,), (3,)))), C)
    assert got211 == av(4, {"(1,2,3,4)": 2, "(1,2,4,3)": 2, "(1,4,2,3)": 2,
                            "(1,3,4,2)": -2, "(1,3,2,4)": -2, "(1,4,3,2)": -2})


def canonical_v1(n):
    pos = {f"(1,{k})": 1 for k in range(2, n)}
    neg = {f"({k},{n})": -1 for k in range(2, n)}
    return av(n, {**pos, **neg})


def canonical_v2(n):
    return av(n, {"(1,2)": 1, f"(2,{n - 1})": -1, f"(1,{n})": -1, f"({n - 1},{n})": 1})


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_projected_hook_and_two_row_vectors(n):
    C = symmetric_class(n, (2,))
    rep = Perm.parse("(1,2)", n)
    w1 = project_to_class(young_symmetrizer(Tableau.row_reading(Partition((n - 1, 1)))), C, rep=rep)
    assert proportional(w1, canonical_v1(n))
    w2 = project_to_class(young_symmetrizer(Tableau.row_reading(Partition((n - 2, 2)))), C, rep=rep)
    assert proportional(w2, canonical_v2(n))


# ------------------------------------------------------------- S_n characters

S4_CHARACTER_TABLE = {
    # classes keyed by cycle type; rows by partition
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


def test_sn_character_s4_table():
    for lam, row in S4_CHARACTER_TABLE.items():
        for mu, want in row.items():
            assert sn_character(lam, mu) == want


def test_sn_character_degrees_match_hook_formula():
    for n in (4, 5, 6, 7):
        ones = (1,) * n
        for lam in partitions_of(n):
            assert sn_character(lam, ones) == specht_dimension(lam)


def test_sn_character_orthogonality():
    import math
    n = 5
    lams = list(partitions_of(n))
    for a in lams:
        for b in lams:
            dot = sum(class_size(n, mu) * sn_character(a, mu) * sn_character(b, mu)
                      for mu in partitions_of(n))
            assert dot == (math.factorial(n) if a == b else 0)


def test_standard_character_counts_fixed_points():
    for mu in partitions_of(5):
        fixed = mu.count(1)
        assert sn_character((4, 1), mu) == fixed - 1


# ------------------------------------------------------------- occurrence

@pytest.mark.parametrize("n", [4, 5, 6])
def test_fixed_counts_match_counts_at_each_class_representative(n):
    for mu in partitions_of(n):
        Cmu = symmetric_class(n, mu)
        want = [(nu, class_size(n, nu), int(Cmu.commuting_count(symmetric_class(n, nu).arr[:1])[0]))
                for nu in partitions_of(n)]
        assert list(_fixed_counts(n, mu)) == want


def test_specht_multiplicity_four_cycles():
    # class of 4-cycles decomposes as trivial + (2,2) + (2,1,1), one copy each
    mults = {lam: specht_multiplicity(lam, (4,)) for lam in partitions_of(4)}
    assert mults == {(4,): 1, (3, 1): 0, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 0}
    assert sum(m * specht_dimension(lam) for lam, m in mults.items()) == class_size(4, (4,))


def test_specht_multiplicity_accounts_for_class_dimension():
    for mu in partitions_of(5):
        total = sum(specht_multiplicity(lam, mu) * specht_dimension(lam)
                    for lam in partitions_of(5))
        assert total == class_size(5, mu)


def test_specht_occurs_examples():
    assert specht_occurs(Partition((2, 2)), Partition((4,)))
    assert not specht_occurs(Partition((1, 1, 1, 1)), Partition((4,)))
    for n in (4, 5):
        for mu in partitions_of(n):
            assert specht_occurs(Partition((n,)), Partition(mu))


def test_specht_occurs_respects_cap():
    with pytest.raises(CapExceeded):
        specht_occurs(Partition((9,)), Partition((9,)))
    with pytest.raises(ValueError):
        specht_occurs(Partition((3,)), Partition((4,)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_specht_occurs_matches_character_multiplicity(n):
    # the constructive route: S^lam occurs exactly when some standard tableau's
    # symmetrizer projects to a nonzero vector of the class module
    for lam in partitions_of(n):
        symmetrizers = [young_symmetrizer(T) for T in standard_tableaux(Partition(lam))]
        for mu in partitions_of(n):
            C = symmetric_class(n, mu)
            want = any(not project_to_class(c, C).is_zero() for c in symmetrizers)
            assert specht_occurs(Partition(lam), Partition(mu)) == want, (lam, mu)


# ------------------------------------------------------------------- sign rep

def test_sign_rep_examples():
    assert sign_rep_occurs(Partition((3, 1)))
    assert not sign_rep_occurs(Partition((4,)))
    assert sign_rep_occurs(Partition((5, 3, 1)))
    assert sign_rep_occurs(Partition((1,)))
    assert not sign_rep_occurs(Partition((3, 3, 1)))
    assert not sign_rep_occurs(Partition((2, 1, 1)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sign_rep_matches_character_multiplicity(n):
    for mu in partitions_of(n):
        m = sign_rep_multiplicity(mu)
        assert m in (0, 1)
        assert sign_rep_occurs(Partition(mu)) == (m == 1)


def test_euler_count_examples():
    assert euler_count(1) == (1, 1)
    assert euler_count(4) == (1, 1)
    assert euler_count(8) == (2, 2)
    with pytest.raises(ValueError):
        euler_count(0)


def test_euler_count_sides_agree():
    for n in range(1, 21):
        a, b = euler_count(n)
        assert a == b


# ------------------------------------------------- 2-cycles class eigenvalues

def test_two_cycles_closed_forms():
    assert two_cycles_eigenvalues(4) == (8, 4, 8)
    assert two_cycles_eigenvalues(5) == (22, 7, 10)
    assert two_cycles_eigenvalues(6) == (57, 12, 12)
    assert two_cycles_eigenvalues(7) == (131, 19, 14)
    with pytest.raises(ValueError):
        two_cycles_eigenvalues(3)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_two_cycles_spectrum_matches_closed_forms(n):
    C = symmetric_class(n, (2,))
    K = killing_matrix(None, C)
    e_triv, e_std, e_22 = two_cycles_eigenvalues(n)
    want = {e_triv: 1, e_std: n - 1}
    want[e_22] = want.get(e_22, 0) + n * (n - 3) // 2
    got = {}
    for entry in K.spectrum():
        key = round(entry.value)
        assert abs(entry.value - key) < 1e-8
        got[key] = got.get(key, 0) + entry.multiplicity
    assert got == want
    assert min(got) > 0


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_canonical_vectors_are_exact_eigenvectors(n):
    C = symmetric_class(n, (2,))
    K = killing_matrix(None, C)
    _, e_std, e_22 = two_cycles_eigenvalues(n)
    assert eigenvalue_from_vector(K, canonical_v1(n)) == e_std
    assert eigenvalue_from_vector(K, canonical_v2(n)) == e_22
    assert eigenvalue_from_vector(K, theta_vector(K)) == two_cycles_eigenvalues(n)[0]


def test_eigenvalue_from_projected_symmetrizers():
    S4 = symmetric_group(4)
    C3 = symmetric_class(4, (3, 1))
    C4 = symmetric_class(4, (4,))
    K3 = killing_matrix(S4, C3)
    K4 = killing_matrix(S4, C4)
    proj = lambda rows, C: project_to_class(young_symmetrizer(Tableau(rows)), C)
    assert eigenvalue_from_vector(K3, proj(((1, 2, 3), (4,)), C3)) == 8
    assert eigenvalue_from_vector(K3, proj(((1, 4), (2,), (3,)), C3)) == -8
    assert eigenvalue_from_vector(K3, proj(((1,), (2,), (3,), (4,)), C3)) == 0
    assert eigenvalue_from_vector(K4, proj(((1, 2), (3, 4)), C4)) == 8
    assert eigenvalue_from_vector(K4, proj(((1, 4), (2,), (3,)), C4)) == -4
    assert eigenvalue_from_vector(K3, theta_vector(K3)) == 16
    assert eigenvalue_from_vector(K4, theta_vector(K4)) == 8


def test_eigenvalue_from_vector_rejections():
    C = symmetric_class(4, (2, 2))
    K = killing_matrix(None, C)
    with pytest.raises(NotAnEigenvector):
        eigenvalue_from_vector(K, AlgebraVector({}))
    with pytest.raises(NotAnEigenvector):
        eigenvalue_from_vector(K, AlgebraVector({C.representative: 1}))
    with pytest.raises(ValueError):
        eigenvalue_from_vector(K, av(4, {"(1,2)": 1}))
