import hashlib
import importlib.util
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import WIDE_S5_GRP
from group_oracle import (bfs_closure, centralizer_count, centre, class_generates,
                          is_simple_via_classes, product_indices, sign)
from group_strategies import permutation_groups_up_to_degree_8

from killform import groups
from killform.cli import resolve_class
from killform.errors import CapExceeded, DegreeMismatch, ElementNotInGroup, UnknownSpec
from killform.groups import (
    alternating_group,
    build_named_group,
    conjugacy_classes,
    generate_group,
    parse_group_file,
    psl2,
    psl3,
    symmetric_class,
    symmetric_group,
)
from killform.perms import Perm

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("spec", ["S5", "PSL(2,7)", "file:data/m11.grp"])
def test_cap_boundary_is_the_order(spec):
    order = build_named_group(spec).order
    assert build_named_group(spec, cap=order).order == order
    with pytest.raises(CapExceeded, match=f"cap {order - 1}"):
        build_named_group(spec, cap=order - 1)


@pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
def test_symmetric_orders(n, order):
    assert symmetric_group(n).order == order


@pytest.mark.parametrize("n,order", [(3, 3), (4, 12), (5, 60), (6, 360), (7, 2520)])
def test_alternating_orders(n, order):
    g = alternating_group(n)
    assert g.order == order
    assert all(sign(p) == 1 for p in g.elements)


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


# sha256 of G.arr and of the generator image rows (in G.arr's dtype): the
# point labelling is pinned, not just the reports, since a relabelling can
# swap two classes of equal order and size and leave every report unchanged
PINNED_DIGESTS = {
    (psl2, 7): ("360c46d4a60d9586bccda3cde94b8c85ffc42cd84ec7a61ee81333abad946a32",
                "51e8dfe4b449da079a5ca854bdd9f767af3057e3e8994055efeadb4a5c5c1873"),
    (psl2, 8): ("16bdbe53919bdc562a676d5b7eb37d33eed97da5a796e4e0978981e694e6b0ff",
                "ac7e7a2c9812d9fabc8671f9cb0ca3e69461ec54dc4578bfa7e11732dbd8d17a"),
    (psl2, 16): ("29ec79b2172073dc6544046e866165ce0c8666f4488e6f489bfc0e373089954e",
                 "da390bec8f8adcd50ceeaf341e0b6b1d3fcaa5f041708dda6a70a161cc08a55e"),
    (psl2, 17): ("515a2d10ed139869be1f2a3cdaf407c08ca9dfed1450502701d554f623630be7",
                 "5e7c9e907b4b33241628d91b5f3d848c375f72a3fe0d070e3f960bec00d11957"),
    (psl2, 25): ("d59cfcbc606970249ad96667e9135387d0041c572b018ce491982759ed1f66f1",
                 "94c90b9c1abf454cce6dc1f7bd11d751f8651baefbc2a64861a91095834ca662"),
    (psl2, 53): ("2210846bb0b1bb20d0c56247f987063eeda06b1f6ab73e7783ade53db602e5e9",
                 "3c66f9f372c6cf89b56aacf807fba3ab5867d5a4b5cc952a2f20be65a0a94d99"),
    (psl3, 2): ("9410ff7c272039fd2c92b161e7927543a26a0c0e2ae1f0d5c305832f489a23a9",
                "5d67f6b0b96703f07e77b32aabd08dc40f34125fb78b3e9268a6f67006fc8ed5"),
    (psl3, 3): ("0823ebd7c8148abc0cda204fbd24da628ba031fdbab8888f44234662e74f75c6",
                "44ef8d7ada4dd0668f36b1c23fbe31fa1f562e468e3134f493e796556f8b8f6d"),
    (psl3, 4): ("17e2799d7466712c0df4494fb697bd53efbd05af37cd6e77330fe55eb65ae437",
                "f0e55c7666b56e7ad8ab7dc28b5f36897ca8d26284cfbfb34fffbe00dc016975"),
}


@pytest.mark.parametrize("build,q", PINNED_DIGESTS, ids=lambda v: getattr(v, "__name__", v))
def test_projective_groups_keep_their_point_labelling(build, q):
    G = build(q)
    gens = np.array([g.images for g in G.generators], dtype=G.arr.dtype)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (G.arr, gens))
    assert digests == PINNED_DIGESTS[build, q]


def test_make_psu33_regenerates_the_data_file_byte_for_byte():
    spec = importlib.util.spec_from_file_location("make_psu33", ROOT / "tools" / "make_psu33.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.psu33_text() == (ROOT / "data" / "psu33.grp").read_text(encoding="utf-8")


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


def test_absent_and_wrong_degree_perms(wide_s5_file):
    a5 = alternating_group(5)
    wide = build_named_group(f"file:{wide_s5_file}")
    absent = [(a5, Perm.parse("(1,2)", 5)), (a5, Perm.identity(6)), (a5, Perm.identity(4)),
              (a5, Perm.parse("(1,300)", 300)), (wide, Perm.parse("(1,2)", 300)),
              (wide, Perm.parse("(2,256)", 256)), (wide, Perm.identity(5))]
    for g, p in absent:
        assert p not in g
        with pytest.raises(ElementNotInGroup, match=re.escape(f"{p} not in {g.name}")):
            g.index(p)
    assert Perm.parse("(2,256)", 300) in wide
    assert wide.elements[wide.index(Perm.parse("(2,256)", 300))] == Perm.parse("(2,256)", 300)


@pytest.mark.parametrize("dtype", [np.uint16, ">u2"])
def test_locate_reads_uint16_rows_and_rejects_absent(wide_s5_file, dtype):
    g = build_named_group(f"file:{wide_s5_file}")
    X = g.arr[[3, 0, 4, 4, 1]].astype(dtype)
    assert g.locator.locate(X).tolist() == [3, 0, 4, 4, 1]
    swap_low = list(range(300))
    swap_low[0], swap_low[1] = 1, 0
    # 256 and 0 share their low byte: (2,256) is a member, (1,2) is not
    fake_256 = list(Perm.parse("(2,256)", 300).images)
    fake_256[1], fake_256[0] = 0, 1
    for absent in (swap_low, fake_256, [300] + list(range(1, 300))):
        with pytest.raises(ElementNotInGroup):
            g.locator.locate(np.array([absent], dtype=dtype))
    with pytest.raises(ElementNotInGroup):
        g.locator.locate(g.arr[:, :299])


def test_wide_degree_group_uses_tuple_order(wide_s5_file):
    g = build_named_group(f"file:{wide_s5_file}")
    assert g.arr.dtype.itemsize == 2
    assert g.locator.locate(g.arr).tolist() == list(range(g.order))
    assert [c.size for c in g.classes()] == [1, 10, 15, 20, 30, 24, 20]
    for ci, c in enumerate(g.classes()):
        assert all(g.class_index_of(h) == ci for h in c.members)


def _tuple_closure(gen_images, degree: int, stop_at: int | None = None) -> set:
    """Reference closure: breadth-first on Python image tuples."""
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_images:
                y = tuple(g[j] for j in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if stop_at is not None and len(seen) >= stop_at:
                        return seen
        frontier = nxt
    return seen


def _class_generates_by_tuples(g, c) -> bool:
    """Reference: add each member outside the tuple closure of those before."""
    gens, current = [], {tuple(range(g.degree))}
    for m in c.members:
        if m.images not in current:
            gens.append(m.images)
            current = _tuple_closure(gens, g.degree, stop_at=g.order)
            if len(current) >= g.order:
                return True
    return False


@lru_cache(maxsize=None)
def _group(spec: str):
    if spec == "S5@300":
        gens = [Perm.parse(line, 300) for line in WIDE_S5_GRP.splitlines()[2:]]
        return generate_group(gens, name=spec)
    return build_named_group(spec)


LOCATOR_GROUPS = ["S4", "A7", "file:data/m11.grp", "file:data/psu33.grp", "PSL(2,17)", "S5@300"]


CLOSURE_GROUPS = ["S1", "S4", "A7", "file:data/m11.grp", "file:data/psu33.grp", "PSL(2,17)",
                  "PSL(3,3)", "S5@300"]


@pytest.mark.parametrize("spec", CLOSURE_GROUPS)
def test_closure_matches_tuple_closure(spec):
    g = _group(spec)
    want = sorted(_tuple_closure([s.images for s in g.generators], g.degree))
    assert g.arr.dtype.itemsize == (2 if g.degree > 255 else 1)
    assert g.arr.tolist() == [list(row) for row in want]
    assert g.elements == tuple(map(Perm, want))


def _generator_rows(g) -> np.ndarray:
    return np.array([s.images for s in g.generators], dtype=g.arr.dtype).reshape(-1, g.degree)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(permutation_groups_up_to_degree_8())
def test_schreier_sims_matches_the_bfs_closure(g):
    gens = _generator_rows(g)
    want = bfs_closure(gens, g.degree, cap=3000)
    assert g.arr.dtype == want.dtype and np.array_equal(g.arr, want)
    # the cap is exact: a group of order cap builds, one over it is refused
    assert np.array_equal(groups._closure(gens, g.degree, cap=g.order).arr, want)
    if g.order > 1:
        with pytest.raises(CapExceeded, match=f"cap {g.order - 1}"):
            groups._closure(gens, g.degree, cap=g.order - 1)


@pytest.mark.parametrize("gens, degree", [([], 1), ([], 5), ([[0, 1, 2]], 3),
                                          ([[1, 0, 2], [1, 0, 2]], 3)])
def test_schreier_sims_of_no_or_repeated_generators_matches_the_bfs_closure(gens, degree):
    got = groups._closure(gens, degree, cap=2).arr
    assert got.dtype == np.uint8 and np.array_equal(got, bfs_closure(gens, degree, cap=2))


@pytest.mark.parametrize("spec", ["S12", "S100"])
def test_a_group_over_the_cap_is_refused_before_its_elements_are_formed(spec):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="group closure exceeds cap 100000"):
            build_named_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("spec", CLOSURE_GROUPS[1:])
def test_class_generates_matches_tuple_closure(spec):
    g = _group(spec)
    got = [class_generates(g, c) for c in g.classes() if not c.is_trivial()]
    assert got == [_class_generates_by_tuples(g, c)
                   for c in g.classes() if not c.is_trivial()]
    assert is_simple_via_classes(g) == all(got)
    assert is_simple_via_classes(g) == (spec not in ("S4", "S5@300"))


def test_class_generates_s4_double_transpositions():
    # the 2-2 class generates the Klein four-group, not S4
    s4 = symmetric_group(4)
    double = next(c for c in s4.classes() if c.label == "2A")
    assert double.size == 3 and not class_generates(s4, double)


def test_class_labels_go_past_z():
    gens = [Perm.parse(f"({2 * i + 1},{2 * i + 2})", 20) for i in range(10)]
    g = generate_group(gens, name="Z2^10")
    labels = [c.label for c in g.classes()]
    assert len(labels) == len(set(labels)) == 1024
    twos = labels[1:]
    assert twos[:3] == ["2A", "2B", "2C"]
    assert twos[25:28] == ["2Z", "2AA", "2AB"]
    assert twos[701:703] == ["2ZZ", "2AAA"]
    assert resolve_class(g, "2AAA") is g.classes()[703]
    assert resolve_class(g, "2aaa") is g.classes()[703]


@pytest.mark.parametrize("spec", LOCATOR_GROUPS)
def test_locator_finds_every_element_at_its_index(spec):
    g = _group(spec)
    assert g.locator.locate(g.arr).tolist() == list(range(g.order))
    assert g.locator.locate(g.arr[::-1]).tolist() == list(range(g.order))[::-1]


@pytest.mark.parametrize("spec", LOCATOR_GROUPS)
def test_product_indices_match_index_of_products(spec):
    g = _group(spec)
    rng = np.random.default_rng(0)
    ia, ib = rng.integers(g.order, size=17), rng.integers(g.order, size=23)
    got = product_indices(g.locator, g.arr[ia], g.arr[ib])
    want = [[g.index(g.elements[a] * g.elements[b]) for b in ib] for a in ia]
    assert got.tolist() == want


@pytest.mark.parametrize("spec", LOCATOR_GROUPS)
def test_conjugates_read_all_of_g_by_default(spec):
    g = _group(spec)
    X = g.arr[np.random.default_rng(1).integers(g.order, size=5)]
    # h x h^-1 takes beta to h(x(h^-1(beta))), row h of take_along_axis
    inverses = np.argsort(g.arr, axis=1)
    want = np.array([g.locator.locate(np.take_along_axis(g.arr, x[inverses], axis=1)) for x in X])
    assert np.array_equal(g.locator.conjugates(X), want)
    some = np.array([g.order - 1, 0, g.order // 2])
    assert np.array_equal(g.locator.conjugates(X, some), want[:, some])


@pytest.mark.parametrize("spec", LOCATOR_GROUPS[1:])
def test_locator_rejects_rows_outside_the_group(spec):
    g = _group(spec)
    loc = g.locator
    free = [p for p in range(g.degree) if p not in loc.base]
    x = g.arr[g.order // 2]
    # agrees with a member on the base and is a permutation, but not in G
    y = x.copy()
    y[free[-2]], y[free[-1]] = x[free[-1]], x[free[-2]]
    # a transposition: S5@300 moves only 5 points and holds none of them
    t = np.arange(g.degree, dtype=g.arr.dtype)
    t[[0, 1]] = t[[1, 0]]
    for row in (y, t):
        with pytest.raises(ElementNotInGroup):
            loc.locate(row[None])
        block = np.stack([g.arr[0], row])
        for A, B in ((g.arr[:3], block), (block, g.arr[:3])):
            with pytest.raises(ElementNotInGroup):
                product_indices(loc, A, B)


def test_locator_shared_by_racing_threads():
    # survey --jobs shares one group between threads, which locate, conjugate
    # (_orbital_data) and multiply its elements at once
    g, ref = psl2(7), psl2(7)
    X = g.arr[::37]

    def lookups(loc):
        return loc.locate(g.arr), loc.conjugates(X), loc.products(X, g.arr)

    want = lookups(ref.locator)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lookups, g.locator) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert want[0].tolist() == list(range(g.order))
    assert all(np.array_equal(a, b) for got in results for a, b in zip(got, want))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(permutation_groups_up_to_degree_8())
def test_chain_built_locator_matches_explicit_compositions(g):
    loc = g.locator
    assert np.array_equal(loc.locate(g.arr), np.arange(g.order))
    rng = np.random.default_rng(g.order)
    A, B = g.arr[rng.integers(g.order, size=5)], g.arr[rng.integers(g.order, size=6)]
    # a * b takes z to a[b[z]]
    want = loc.locate(A[:, B].reshape(-1, g.degree)).reshape(5, 6)
    assert np.array_equal(loc.products(A, B), want)
    # h a h^-1 takes z to h[a[h^-1[z]]]
    inverses = np.argsort(g.arr, axis=1)
    want = np.array([loc.locate(np.take_along_axis(g.arr, a[inverses], axis=1)) for a in A])
    assert np.array_equal(loc.conjugates(A), want)
    want = np.array([np.argmax(g.arr == beta, axis=1) for beta in loc.base], dtype=g.arr.dtype)
    assert loc.preimages.dtype == g.arr.dtype
    assert np.array_equal(loc.preimages, want.reshape(len(loc.base), g.order))


def _classes_by_perm_bfs(g):
    """Reference classes: orbits of h -> g h g^-1 found on Perm objects."""
    gen_pairs = [(s, s.inverse()) for s in g.generators]
    assigned, orbits = set(), []
    for seed in g.elements:
        if seed in assigned:
            continue
        orbit, frontier = {seed}, [seed]
        while frontier:
            frontier = [s * h * s_inv for h in frontier for s, s_inv in gen_pairs]
            frontier = [h for h in set(frontier) if h not in orbit]
            orbit.update(frontier)
        assigned |= orbit
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: (o[0].order(), len(o), o))
    labels, by_order = [], {}
    for o in orbits:
        i = by_order.get(o[0].order(), 0)
        by_order[o[0].order()] = i + 1
        labels.append(f"{o[0].order()}{'ABCDEFGHIJKLMNOPQRSTUVWXYZ'[i]}")
    return list(zip(labels, orbits))


@pytest.mark.parametrize("spec", ["S4", "S5", "A7", "file:data/m11.grp", "file:data/psu33.grp"])
def test_conjugacy_classes_match_perm_bfs(spec):
    g = _group(spec)
    classes = conjugacy_classes(g)
    assert [(c.label, c.members) for c in classes] == _classes_by_perm_bfs(g)
    for ci, c in enumerate(classes):
        assert c.arr.tolist() == [list(m.images) for m in c.members]
        assert (g.class_map[g.locator.locate(c.arr)] == ci).all()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(permutation_groups_up_to_degree_8())
def test_classes_and_centre_match_the_oracles_on_random_groups(g):
    classes = conjugacy_classes(g)
    assert [(c.label, c.members) for c in classes] == _classes_by_perm_bfs(g)
    for ci, c in enumerate(classes):
        assert (g.class_map[g.locator.locate(c.arr)] == ci).all()
    assert g.centre() == centre(g)


def test_centralizer_counts_s3():
    s3 = symmetric_group(3)
    two_cycles = next(c for c in s3.classes() if c.element_order == 2)
    assert two_cycles.commuting_count(s3.arr[:1]).tolist() == [3]
    assert centralizer_count(s3, Perm.parse("(1,2,3)", 3)) == 3
    assert centralizer_count(s3, s3.identity) == 6
    with pytest.raises(ElementNotInGroup):
        centralizer_count(s3, Perm.parse("(1,2)", 4))


@pytest.mark.parametrize("rows_per_chunk", [None, 1, 4])
@pytest.mark.parametrize("spec", ["S5", "A7", "PSL(2,17)", "file:data/m11.grp",
                                  "file:data/psu33.grp", "S5@300"])
def test_commuting_count_of_a_block_matches_per_representative_counts(spec, rows_per_chunk,
                                                                      monkeypatch):
    g = _group(spec)
    classes = g.classes()
    reps = [c.representative for c in classes]
    block = g.class_reps
    assert block.tolist() == [list(x.images) for x in reps]
    for C in classes:
        if rows_per_chunk is not None:
            monkeypatch.setattr(groups, "_COMMUTING_ENTRIES", rows_per_chunk * C.arr.size)
        want = [sum(1 for c in C.members if c * x == x * c) for x in reps]
        assert C.commuting_count(block).tolist() == want, (spec, C.label)


def test_class_membership_and_reality():
    s4 = symmetric_group(4)
    by_label = {c.label: c for c in s4.classes()}
    assert Perm.parse("(2,4)", 4) in by_label["2B"]
    assert Perm.parse("(2,4)", 4) not in by_label["2A"]
    assert Perm.parse("(2,4)", 5) not in by_label["2B"]
    assert all(c.is_real for c in s4.classes())
    a7 = alternating_group(7)
    assert [c.label for c in a7.classes() if not c.is_real] == ["7A", "7B"]


def test_classes_build_one_perm_per_class(count_perms):
    g = psl2(53)
    assert count_perms(g.classes) < g.order / 10


def test_classes_locate_no_conjugate_rows(monkeypatch):
    # the conjugation permutations come from the base images of the conjugates
    g = psl2(13)
    located = []
    locate = groups.BaseLocator.locate
    monkeypatch.setattr(groups.BaseLocator, "locate",
                        lambda self, X: located.append(len(X)) or locate(self, X))
    assert len(g.classes()) == 9 and located == []


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


def test_degree_above_65535_is_refused(monkeypatch):
    assert groups._row_dtype(65535) == np.uint16
    with pytest.raises(CapExceeded, match="degree 65536 is above the limit of 65535 points"):
        groups._row_dtype(65536)
    with pytest.raises(CapExceeded, match="degree 70000"):
        generate_group([Perm.from_cycles([(0, 69999)], 70000)])
    monkeypatch.setattr(groups, "_perms_of_cycle_type",
                        lambda n, lens: pytest.fail(f"enumerated a class of degree {n}"))
    with pytest.raises(CapExceeded, match="degree 70000"):
        symmetric_class(70000, (2,))


@pytest.mark.parametrize("spec", ["S70000", "A70000", "A70001"])
def test_symmetric_and_alternating_refuse_a_wide_degree_before_any_generator(spec, monkeypatch):
    monkeypatch.setattr(Perm, "from_cycles",
                        lambda *args: pytest.fail(f"built a generator for {spec}"))
    with pytest.raises(CapExceeded, match="is above the limit of 65535 points"):
        build_named_group(spec)


def test_centre():
    assert symmetric_group(3).centre() == [Perm.identity(3)]
    cyclic = generate_group([Perm.parse("(1,2,3,4)", 4)])
    assert len(cyclic.centre()) == 4


@pytest.mark.parametrize("spec", LOCATOR_GROUPS)
def test_centre_is_the_elements_alone_in_their_class(spec):
    g = _group(spec)
    assert g.centre() == centre(g)


def test_exponent():
    assert symmetric_group(4).exponent() == 12
    assert alternating_group(5).exponent() == 30
