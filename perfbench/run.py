#!/usr/bin/env python3
"""Run one killform benchmark workload and print its metrics.

    python3 perfbench/run.py --workload survey-psu33 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it loads killform from ``src/`` there.
A pass runs every operation of the workload once; passes repeat until
``--seconds`` have gone by (at least one pass).  Every output is compared
with the reference in ``perfbench/reference/``; an operation that raises,
exits nonzero or differs counts as failed.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of a pass
(medians), peak resident memory, and the time to import killform in a fresh
interpreter (median of several).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of `layers.py`, medians over
the traced passes.  ``--workload all`` runs every workload, each in a
process of its own, and ends with one combined line.

BLAS and OpenMP run one thread.  The run prints its environment (nproc,
thread settings, numpy and its BLAS, Python, commit, load average at start
and end) and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  It exits 2 without a result when
killform cannot be loaded from the checkout.

Self-tests: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import Tracer
from workloads import ROOT, WORKLOADS, first_difference, load_killform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_RUNS = 7
MIN_COVERAGE = 0.95

# end-to-end metric -> unit
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                 "t = time.perf_counter(); import killform; print(time.perf_counter() - t)")


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "killform").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "loadavg_start": _loadavg(),
    }


def setup_seconds(runs: int) -> list[float]:
    """Time to import killform, once in each of `runs` fresh interpreters."""
    code = _IMPORT_PROBE.format(src=str(ROOT / "src"))
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


def run_pass(killform, ops, seed: int):
    """Run every operation once: (start, end, cpu seconds, outputs)."""
    gc.collect()
    outputs = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.run(killform, seed))
        except Exception as exc:  # a failed operation is counted; the run goes on
            outputs.append(exc)
    end = time.perf_counter()
    return start, end, time.process_time() - cpu0, outputs


def failures(ops, outputs, seed: int) -> list[str]:
    """One message per operation whose output is wrong."""
    out = []
    for op, got in zip(ops, outputs):
        if isinstance(got, Exception):
            out.append(f"{op.id}: {type(got).__name__}: {got}")
            continue
        want = op.expected(seed)
        if got != want:
            out.append(f"{op.id}: differs from reference, {first_difference(got, want)}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool):
    env = environment()
    killform = load_killform()
    ops = WORKLOADS[workload]
    setups = [] if trace else setup_seconds(SETUP_RUNS)
    walls, cpus, traced_walls, layer_runs = [], [], [], []
    bad, problems, attempted = [], [], 0
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        start, end, cpu, outputs = run_pass(killform, ops, seed)
        walls.append(end - start)
        cpus.append(cpu)
        attempted += len(ops)
        bad += failures(ops, outputs, seed)
        if trace:
            tracer = Tracer()
            try:
                layers.install(tracer, killform)
                tstart, tend, _, toutputs = run_pass(killform, ops, seed)
            finally:
                if not tracer.restore():
                    problems.append("trace: a wrapped function was not restored")
            traced_walls.append(tend - tstart)
            attempted += len(ops)
            # both passes must match the same reference, so also each other
            bad += failures(ops, toutputs, seed)
            layer_runs.append(layers.layer_metrics(tracer.spans, tstart, tend))

    if trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        low = min(run["trace.coverage"] for run in layer_runs)
        if low < MIN_COVERAGE:
            problems.append(f"trace: coverage {low:.4f} is below {MIN_COVERAGE}")
        units = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
        notes = {name: f"median of {len(layer_runs)} traced passes" for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
        notes = {"wall_s": f"median of {len(walls)} passes: {_fmt(walls)}",
                 "cpu_s": f"median of {len(cpus)} passes: {_fmt(cpus)}",
                 "peak_rss_mb": "peak of the process",
                 "setup_s": f"median of {len(setups)} fresh interpreters: {_fmt(setups)}"}
    env["loadavg_end"] = _loadavg()
    env["seed"] = seed
    env["passes"] = len(walls) + len(traced_walls)
    return env, metrics, units, notes, bad + problems, attempted, len(bad)


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def run_one(args) -> int:
    try:
        env, metrics, units, notes, problems, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load killform: {exc}", file=sys.stderr)
        return 2
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("env: " + json.dumps(env))
    for message in problems:
        print(f"FAILED {message}")
    for name, value in metrics.items():
        print(f"{name:<32} {value:.6g} {units[name]}  ({notes[name]})")
    print(f"{'failed_ops':<32} {failed / attempted:.6g} share  "
          f"({failed} of {attempted} operations attempted)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}:{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="killform benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    os.chdir(ROOT)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
