import pytest
from hypothesis import given, strategies as st

from group_oracle import conj_by, extended, sign
from killform.perms import Perm


def rand_perm(degree):
    return st.permutations(list(range(degree))).map(Perm)


def test_identity_and_call():
    e = Perm.identity(4)
    assert e.images == (0, 1, 2, 3)
    assert e(2) == 2
    assert e.is_identity()


def test_compose_order():
    # (p * q)(i) = p(q(i)): q acts first
    p = Perm.from_cycles([(0, 1)], 3)
    q = Perm.from_cycles([(1, 2)], 3)
    assert (p * q)(1) == p(q(1)) == p(2) == 2
    assert (p * q).images == (1, 2, 0)
    assert (q * p).images == (2, 0, 1)


def test_inverse_and_pow():
    c = Perm.from_cycles([(0, 1, 2, 3)], 4)
    assert (c * c.inverse()).is_identity()
    assert (c ** 4).is_identity()
    assert c ** -1 == c.inverse()
    assert (c ** 2).images == (2, 3, 0, 1)


def test_cycles_and_order():
    p = Perm.parse("(1,2)(3,4,5)", 6)
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    assert p.order() == 6
    assert p.cycle_type() == (3, 2, 1)
    assert sign(p) == -1
    assert Perm.identity(3).order() == 1


def test_parse_print_roundtrip():
    for text in ["(1,2)", "(1,2,3)(4,5)", "(2,4)(3,6,5)"]:
        p = Perm.parse(text, 6)
        assert str(p) == text
    assert str(Perm.identity(5)) == "()"
    assert Perm.parse("()", 4).is_identity()
    assert Perm.parse("(1,2)(5)").degree == 5  # the largest point mentioned
    assert Perm.parse("(1 2 3)", 3) == Perm.parse("(1,2,3)", 3)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Perm.parse("(1,2", 4)
    with pytest.raises(ValueError):
        Perm.parse("(1,9)", 4)
    # a one-point cycle is checked against the degree too
    for text in ("(9)", "(1,2,3,4,5)(9)"):
        with pytest.raises(ValueError, match="point 9 out of range"):
            Perm.parse(text, 5)
    for text in ("(1,2)(2,3)", "(1,1)", "(1,2)(3,3)", "(1)(1,2)"):
        with pytest.raises(ValueError, match="appears twice"):
            Perm.parse(text, 4)
    with pytest.raises(ValueError, match="point 0 appears twice"):
        Perm.from_cycles([(0, 0)], 2)


def test_conj_by():
    a = Perm.parse("(1,2)", 4)
    g = Perm.parse("(1,3)(2,4)", 4)
    assert conj_by(a, g) == Perm.parse("(3,4)", 4)


def test_extended():
    p = Perm.parse("(1,2)", 2)
    assert extended(p, 5).images == (1, 0, 2, 3, 4)


@given(rand_perm(7), rand_perm(7), rand_perm(7))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(rand_perm(6))
def test_inverse_roundtrip(p):
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p
    assert Perm.parse(str(p), 6) == p


@given(rand_perm(6))
def test_order_annihilates(p):
    assert (p ** p.order()).is_identity()
    assert all(not (p ** k).is_identity() for k in range(1, p.order()))


@given(rand_perm(5), rand_perm(5))
def test_sign_multiplicative(a, b):
    assert sign(a * b) == sign(a) * sign(b)
