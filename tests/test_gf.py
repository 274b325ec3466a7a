import pytest

from killform.errors import BadField
from killform.gf import CONWAY, GFField, projective_perms, projective_points


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    F = GFField(q)
    els = range(F.q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # associativity/distributivity spot-checked on all triples for small q
    if q <= 9:
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", sorted(CONWAY))
def test_modulus_is_primitive(q):
    # the generator x must have full multiplicative order q-1
    F = GFField(q)
    seen = set()
    acc = 1
    for _ in range(q - 1):
        seen.add(acc)
        acc = F.mul_slow(acc, F.generator)
    assert len(seen) == q - 1
    assert acc == 1


def test_prime_field_generator():
    F = GFField(7)
    assert F.generator == 3  # least primitive root mod 7
    powers = {F.pow(3, i) for i in range(6)}
    assert powers == {1, 2, 3, 4, 5, 6}


def test_gf9_table_arithmetic():
    F = GFField(9)  # modulus x^2 + 2x + 2
    x = 3  # the polynomial x
    assert F.mul(x, x) == F.encode([1, 1])  # x^2 = -2x - 2 = x + 1
    assert F.pow(x, 8) == 1
    assert F.pow(x, 4) == 2  # x^4 = -1 for this modulus


def test_bad_fields():
    with pytest.raises(BadField):
        GFField(6)
    with pytest.raises(BadField):
        GFField(1)
    with pytest.raises(BadField):
        GFField(343)  # prime power but not on file


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_projective_points_are_normalised_and_ordered(q):
    F = GFField(q)
    line = projective_points(F, 2)
    assert line == [(1, x) for x in range(q)] + [(0, 1)]
    plane = projective_points(F, 3)
    assert len(plane) == q * q + q + 1
    assert all(v[:v.index(1)] == (0,) * v.index(1) for v in plane)  # leading 1
    assert plane == sorted(plane, key=lambda v: (v.index(1), v))
    # every nonzero vector is a scalar multiple of exactly one point
    multiples = {tuple(F.mul(c, x) for x in v) for v in plane for c in range(1, q)}
    assert len(multiples) == q ** 3 - 1


def test_projective_perms_act_up_to_scalars():
    F = GFField(5)
    points = projective_points(F, 2)
    x_plus_1, minus_inverse = projective_perms(F, [[[1, 0], [1, 1]], [[0, 1], [4, 0]]], points)
    assert x_plus_1.images == (1, 2, 3, 4, 0, 5)
    assert minus_inverse.images == (5, 4, 2, 3, 1, 0)  # -1/2 = 2, -1/3 = 3 mod 5
    # a scalar matrix fixes every point
    assert projective_perms(F, [[[3, 0], [0, 3]]], points)[0].images == tuple(range(6))


def test_projective_perms_refuse_a_point_outside_the_list():
    F = GFField(3)
    points = projective_points(F, 2)[:3]  # the affine points (1:x), not (0:1)
    with pytest.raises(ValueError, match=r"maps the point \(1, 0\) to \[0, 1\]"):
        projective_perms(F, [[[0, 1], [1, 0]]], points)
    with pytest.raises(ValueError, match="not among the given points"):
        projective_perms(F, [[[1, 1], [1, 1]]], projective_points(F, 2))  # singular
