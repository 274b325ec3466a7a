"""The benchmark's workloads, their operations and the reference outputs.

Every operation runs in this process, in one thread, against the killform
package under ``src/`` of the checkout.  An operation returns its report
text; the run compares it with the committed reference in ``reference/``.
The workload seed reaches killform only as ``--seed`` / ``seed=``, which
picks the primes of the rank certificates, so no checked row depends on it.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class OpFailed(Exception):
    """A command line exited nonzero."""


def load_killform():
    """Import killform from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import killform
    import killform.cli
    if not Path(killform.__file__).resolve().is_relative_to(src):
        raise ImportError(f"killform was imported from {killform.__file__}, not {src}")
    return killform


class CliOp:
    """One `killform` command line, as a user types it."""

    def __init__(self, op_id: str, argv: list[str]):
        self.id = op_id
        self.argv = argv

    def run(self, killform, seed: int) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = killform.cli.main(self.argv + ["--seed", str(seed)])
        if code != 0:
            raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def expected(self, seed: int) -> str:
        """The reference report, with its `seed:` header set to this seed."""
        lines = (REFERENCE_DIR / f"{self.id}.md").read_text(encoding="utf-8").split("\n")
        return "\n".join(f"seed: {seed}" if line.startswith("seed: ") else line
                         for line in lines)


class UniversalOp:
    """analyze(universal_killing(G)) and roth_check(G), as library calls."""

    def __init__(self, op_id: str, spec: str):
        self.id = op_id
        self.spec = spec

    def run(self, killform, seed: int) -> str:
        G = killform.build_named_group(self.spec)
        a = killform.analyze(killform.universal_killing(G), seed=seed).analysis
        roth_ok, mults = killform.roth_check(G)
        return json.dumps({"signature": list(a.signature.astuple()),
                           "components": a.component_count,
                           "roth": [roth_ok, mults]}) + "\n"

    def expected(self, seed: int) -> str:
        return (REFERENCE_DIR / f"{self.id}.json").read_text(encoding="utf-8")


M11_CLASSES = ["2A", "3A", "4A", "5A", "6A", "8A", "8B", "11A", "11B"]

# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "survey-psu33": [CliOp("survey-psu33", ["survey", "file:data/psu33.grp"])],
    "decompose-m11": [CliOp(f"decompose-m11-{c}", ["decompose", "file:data/m11.grp", c])
                      for c in M11_CLASSES],
    "universal-psl2-17": [UniversalOp("universal-psl2-17", "PSL(2,17)")],
}


def first_difference(got: str, want: str) -> str:
    """A one-line description of where two reports first differ."""
    g, w = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(g, w)):
        if a != b:
            return f"line {i + 1}: got {a!r}, want {b!r}"
    return f"got {len(g)} lines, want {len(w)}"
