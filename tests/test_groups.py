import numpy as np
import pytest

from killform.errors import CapExceeded, DegreeMismatch, ElementNotInGroup, UnknownSpec
from killform.groups import (
    alternating_group,
    build_named_group,
    centralizer_count,
    class_generates,
    conjugacy_classes,
    generate_group,
    is_simple_via_classes,
    locate_rows,
    parse_group_file,
    psl2,
    psl3,
    symmetric_class,
    symmetric_group,
)
from killform.perms import Perm


def test_generate_s3():
    g = generate_group([Perm.parse("(1,2)", 3), Perm.parse("(1,2,3)", 3)])
    assert g.order == 6
    assert g.identity in g
    assert all(p.inverse() in g for p in g.elements)


def test_generate_trivial_from_empty():
    g = generate_group([], degree=4)
    assert g.order == 1
    assert g.elements[0].is_identity()


def test_generate_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        generate_group([Perm.parse("(1,2)", 2), Perm.parse("(1,2,3)", 3)])
    with pytest.raises(DegreeMismatch):
        generate_group([], degree=None)


def test_generate_cap():
    with pytest.raises(CapExceeded):
        symmetric_group(5, cap=50)


@pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
def test_symmetric_orders(n, order):
    assert symmetric_group(n).order == order


@pytest.mark.parametrize("n,order", [(3, 3), (4, 12), (5, 60), (6, 360), (7, 2520)])
def test_alternating_orders(n, order):
    g = alternating_group(n)
    assert g.order == order
    assert all(p.sign == 1 for p in g.elements)


@pytest.mark.parametrize(
    "q,order",
    [(2, 6), (3, 12), (4, 60), (5, 60), (7, 168), (8, 504), (9, 360),
     (11, 660), (13, 1092), (16, 4080), (17, 2448), (19, 3420), (23, 6072), (25, 7800)],
)
def test_psl2_orders(q, order):
    g = psl2(q)
    assert g.degree == q + 1
    assert g.order == order


def test_psl3_order():
    g = psl3(3)
    assert g.degree == 13
    assert g.order == 5616


def test_s4_class_sizes():
    sizes = sorted(c.size for c in conjugacy_classes(symmetric_group(4)) if not c.is_trivial())
    assert sizes == [3, 6, 6, 8]


def test_a5_class_sizes():
    sizes = sorted(c.size for c in conjugacy_classes(alternating_group(5)) if not c.is_trivial())
    assert sizes == [12, 12, 15, 20]


def test_trivial_group_single_class():
    cls = conjugacy_classes(generate_group([], degree=3))
    assert len(cls) == 1 and cls[0].is_trivial()


def test_class_labels_s4():
    labels = [c.label for c in conjugacy_classes(symmetric_group(4))]
    # sorted by (element order, size): 1, double-transpositions (3), transpositions (6), ...
    assert labels == ["1A", "2A", "2B", "3A", "4A"]
    sizes = [c.size for c in conjugacy_classes(symmetric_group(4))]
    assert sizes == [1, 3, 6, 8, 6]


def test_classes_partition_group():
    for g in [symmetric_group(4), alternating_group(5), psl2(7)]:
        cls = g.classes()
        assert sum(c.size for c in cls) == g.order
        seen = set()
        for c in cls:
            for m in c.members:
                assert m not in seen
                seen.add(m)


def test_representative_is_smallest_member():
    for c in alternating_group(5).classes():
        assert c.representative == min(c.members)


def test_orbit_stabilizer():
    for g in [symmetric_group(4), alternating_group(5), psl2(7)]:
        for c in g.classes():
            assert centralizer_count(g, c.representative) * c.size == g.order


def test_is_real():
    assert all(c.is_real for c in symmetric_group(4).classes())
    assert all(c.is_real for c in alternating_group(5).classes())
    # A7 7-cycles split into two classes that are swapped by inversion
    a7 = alternating_group(7)
    sevens = [c for c in a7.classes() if c.element_order == 7]
    assert len(sevens) == 2
    assert all(not c.is_real for c in sevens)


def test_class_map_matches_class_members():
    g = psl2(7)
    for ci, c in enumerate(g.classes()):
        for h in c.members:
            assert g.class_map[g.index(h)] == ci
            assert g.class_index_of(h) == ci
    with pytest.raises(ElementNotInGroup):
        g.class_index_of(Perm.parse("(1,2)", 8))


@pytest.mark.parametrize("dtype", [np.uint16, ">u2"])
def test_locate_rows_follows_tuple_order(dtype):
    # [0, 256] < [1, 0] as tuples, though the low byte of 256 is 0
    rows = np.array([[0, 256], [1, 0], [1, 2], [256, 0], [256, 1]], dtype=dtype)
    X = rows[[3, 0, 4, 4, 1]]
    assert locate_rows(rows, X).tolist() == [3, 0, 4, 4, 1]
    for absent in ([1, 1], [255, 255], [300, 0]):
        with pytest.raises(ElementNotInGroup):
            locate_rows(rows, np.array([absent], dtype=dtype))


def test_wide_degree_group_uses_tuple_order(wide_s5_file):
    g = build_named_group(f"file:{wide_s5_file}")
    assert g.arr.dtype.itemsize == 2
    assert locate_rows(g.arr, g.arr).tolist() == list(range(g.order))
    assert [c.size for c in g.classes()] == [1, 10, 15, 20, 30, 24, 20]
    for ci, c in enumerate(g.classes()):
        assert all(g.class_index_of(h) == ci for h in c.members)


def test_centralizer_counts_s3():
    s3 = symmetric_group(3)
    two_cycles = next(c for c in s3.classes() if c.element_order == 2)
    assert centralizer_count(s3, s3.identity, within=two_cycles) == 3
    assert centralizer_count(s3, Perm.parse("(1,2,3)", 3)) == 3
    assert centralizer_count(s3, s3.identity) == 6
    with pytest.raises(ElementNotInGroup):
        centralizer_count(s3, Perm.parse("(1,2)", 4))


def test_class_generates_s3():
    s3 = symmetric_group(3)
    two, three = (next(c for c in s3.classes() if c.element_order == k) for k in (2, 3))
    assert class_generates(s3, two)
    assert not class_generates(s3, three)


def test_class_generates_a5_all():
    a5 = alternating_group(5)
    assert all(class_generates(a5, c) for c in a5.classes() if not c.is_trivial())


def test_is_simple():
    assert is_simple_via_classes(alternating_group(5))
    assert not is_simple_via_classes(symmetric_group(4))
    assert not is_simple_via_classes(alternating_group(4))
    assert is_simple_via_classes(psl2(7))


def test_build_named_group():
    assert build_named_group("A5").order == 60
    assert build_named_group("PSL(2,8)").order == 504
    assert build_named_group("S4").order == 24
    assert build_named_group("PSL(3,3)").order == 5616
    for bad in ["T5", "PSL(4,2)", "A", "S-1", "psl(2,7) extra"]:
        with pytest.raises(UnknownSpec):
            build_named_group(bad)


def test_group_file_roundtrip(tmp_path):
    path = tmp_path / "d8.grp"
    path.write_text(
        "# dihedral of order 8\nname D8\ndegree 4\n(1,2,3,4)\n(1,3)\n\n"
    )
    name, degree, gens = parse_group_file(path)
    assert (name, degree, len(gens)) == ("D8", 4, 2)
    g = build_named_group(f"file:{path}")
    assert g.order == 8 and g.name == "D8"


def test_symmetric_class_matches_group_class():
    s4 = symmetric_group(4)
    by_label = {c.label: c for c in s4.classes()}
    direct = symmetric_class(4, (2, 1, 1))
    assert direct.members == by_label["2B"].members
    direct22 = symmetric_class(4, (2, 2))
    assert direct22.members == by_label["2A"].members


def test_symmetric_class_sizes():
    assert symmetric_class(5, (3, 2)).size == 20
    assert symmetric_class(9, (2,)).size == 36
    assert symmetric_class(6, (3, 3)).size == 40
    assert symmetric_class(8, (8,)).size == 5040


def test_centre():
    assert symmetric_group(3).centre() == [Perm.identity(3)]
    cyclic = generate_group([Perm.parse("(1,2,3,4)", 4)])
    assert len(cyclic.centre()) == 4


def test_exponent():
    assert symmetric_group(4).exponent() == 12
    assert alternating_group(5).exponent() == 30
