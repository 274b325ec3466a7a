#!/usr/bin/env python3
"""Write the reference output of every benchmark operation, with seed 0.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose reports are known to be right;
the benchmark compares every later run against these files.
"""
import os

from run import BLAS_THREADS, THREAD_VARS
from workloads import REFERENCE_DIR, ROOT, WORKLOADS, CliOp, load_killform


def main() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.chdir(ROOT)
    killform = load_killform()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for ops in WORKLOADS.values():
        for op in ops:
            suffix = ".md" if isinstance(op, CliOp) else ".json"
            (REFERENCE_DIR / f"{op.id}{suffix}").write_text(op.run(killform, 0), encoding="utf-8")
            print(f"wrote {op.id}{suffix}")


if __name__ == "__main__":
    main()
