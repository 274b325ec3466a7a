"""Offline self-tests of the benchmark: python3 -m pytest perfbench -q"""
import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from spans import Span, Tracer, covered, package_modules, root_coverage, self_times
from workloads import WORKLOADS, CliOp, UniversalOp, load_killform

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


_TOY = """
def leaf(clock):
    clock.now += 1.0

def middle(clock):
    clock.now += 2.0
    leaf(clock)
    clock.now += 0.5

def outer(clock):
    clock.now += 1.0
    middle(clock)
    user_call(clock)
    clock.now += 4.0
"""

_TOY_USER = """
from toypkg import leaf

def user_call(clock):
    clock.now += 0.25
    leaf(clock)
"""


@pytest.fixture
def toy():
    pkg = types.ModuleType("toypkg")
    sys.modules["toypkg"] = pkg
    exec(_TOY, pkg.__dict__)
    user = types.ModuleType("toypkg.user")
    sys.modules["toypkg.user"] = user
    exec(_TOY_USER, user.__dict__)
    pkg.user_call = user.user_call
    yield pkg, user
    del sys.modules["toypkg"], sys.modules["toypkg.user"]


def test_span_tree_and_self_times_on_a_toy_call_chain(toy):
    pkg, user = toy
    originals = (pkg.leaf, pkg.middle, pkg.outer, user.user_call)
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    modules = package_modules("toypkg")
    assert tracer.wrap_function("leaf", pkg, "leaf", modules) == 2  # pkg and user
    tracer.wrap_function("middle", pkg, "middle", modules)
    tracer.wrap_function("outer", pkg, "outer", modules)
    tracer.wrap_function("user_call", user, "user_call", modules)
    pkg.outer(clock)

    got = [(s.name, s.start, s.end, s.parent) for s in tracer.spans]
    assert got == [("outer", 0.0, 9.75, None),
                   ("middle", 1.0, 4.5, 0),
                   ("leaf", 3.0, 4.0, 1),
                   ("user_call", 4.5, 5.75, 0),
                   ("leaf", 4.75, 5.75, 3)]  # leaf traced where user imported it
    assert self_times(tracer.spans) == {0: 5.0, 1: 2.5, 2: 1.0, 3: 0.25, 4: 1.0}
    assert root_coverage(tracer.spans, 0.0, 10.0) == 0.975

    assert tracer.restore()
    assert (pkg.leaf, pkg.middle, pkg.outer, user.user_call) == originals
    assert user.leaf is pkg.leaf and pkg.user_call is user.user_call
    pkg.outer(clock)
    assert len(tracer.spans) == 5


def test_methods_are_wrapped_and_restored():
    class Box:
        def render(self):
            return "ok"

    original = Box.__dict__["render"]
    tracer = Tracer()
    tracer.wrap_function("Box.render", Box, "render", [])
    assert Box().render() == "ok"
    assert [s.name for s in tracer.spans] == ["Box.render"]
    assert tracer.restore() and Box.__dict__["render"] is original


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_layer_metrics_count_rank_certificates():
    spans = [
        Span(0, "killing.analyze", 0.0, 10.0, None),
        Span(1, "exactlinalg.signature", 1.0, 9.0, 0),
        Span(2, "exactlinalg.exact_rank", 1.0, 5.0, 1, {"dim": 100, "rank": 100}),
        Span(3, "exactlinalg.rank_mod_p", 1.0, 4.0, 2, {"dim": 100, "rank": 100}),
        Span(4, "exactlinalg.exact_rank", 5.0, 8.0, 1, {"dim": 50, "rank": 47}),
        Span(5, "exactlinalg.rank_mod_p", 5.0, 6.0, 4, {"dim": 50, "rank": 47}),
        Span(6, "killing.killing_matrix", 10.0, 12.0, None, {"dim": 50}),
    ]
    m = layers.layer_metrics(spans, 0.0, 16.0)
    assert m["killing.analyze_s"] == 2.0
    assert m["exactlinalg.signature_s"] == 1.0
    assert m["exactlinalg.rank_s"] == 1.0 + 2.0
    assert m["exactlinalg.rank_mod_p_s"] == 3.0 + 1.0
    assert m["killing.form_s"] == 2.0
    assert m["killing.form_entries"] == 2500
    assert m["exactlinalg.rank_calls"] == 2
    assert m["exactlinalg.nullity_total"] == 3
    assert m["exactlinalg.elim_dim3"] == 100 ** 3 + 50 ** 3
    assert m["exactlinalg.first_prime_ratio"] == 0.5
    assert m["trace.coverage"] == 0.75


def test_reference_comparison_flags_a_perturbed_report():
    (op,) = WORKLOADS["survey-psu33"]
    good = op.expected(7)
    assert "\nseed: 7\n" in good
    assert run.failures([op], [good], 7) == []
    perturbed = good.replace("| 2A | 63 | 7 |", "| 2A | 63 | 8 |")
    assert perturbed != good
    assert len(run.failures([op], [perturbed], 7)) == 1
    assert len(run.failures([op], [op.expected(0)], 7)) == 1  # wrong seed header
    assert len(run.failures([op], [RuntimeError("boom")], 7)) == 1

    (uop,) = WORKLOADS["universal-psl2-17"]
    ref = uop.expected(3)
    assert run.failures([uop], [ref], 3) == []
    assert len(run.failures([uop], [ref.replace("1300", "1301")], 3)) == 1


def test_every_operation_has_a_reference():
    for ops in WORKLOADS.values():
        for op in ops:
            assert isinstance(op, (CliOp, UniversalOp))
            assert op.expected(0)


def test_metric_and_workload_names_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} \
        == layers.LAYER_METRICS
    emitted = set(layers.layer_metrics([], 0.0, 1.0)) | {"trace.overhead_s"}
    assert emitted == set(layers.LAYER_METRICS)


def test_install_rebinds_every_importer_and_restores():
    killform = load_killform()
    op = CliOp("survey-a5", ["survey", "A5"])
    untraced = op.run(killform, 1)
    tracer = Tracer()
    layers.install(tracer, killform)
    try:
        for module, attr in [("killing", "signature"), ("cli", "killing_matrix"),
                             ("killing", "spectrum"), ("cli", "analyze"),
                             ("exactlinalg", "exact_rank")]:
            assert getattr(getattr(killform, module), attr).__wrapped__ is not None
        assert killform.analyze is killform.killing.analyze
        traced = op.run(killform, 1)
    finally:
        assert tracer.restore()
    assert traced == untraced
    names = {s.name for s in tracer.spans}
    assert {"cli.cmd_survey", "killing.killing_matrix", "exactlinalg.signature",
            "exactlinalg.exact_rank", "cli.Report.render"} <= names
    assert not hasattr(killform.killing.signature, "__wrapped__")
    assert not hasattr(killform.cli.Report.render, "__wrapped__")
