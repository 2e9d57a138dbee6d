"""In-process A/B timing of two checkouts of eprverify on the benchmark's passes.

    python tools/ab.py PARENT_DIR CHANGE_DIR > BENCH_<n>.json

Each argument is a checkout root (one made with ``git archive``, say); the
tool runs no git.  It imports both packages into one interpreter, under two
names, from PARENT_DIR/src and CHANGE_DIR/src; every import inside the
package is relative, so one importlib spec per tree is enough.  For each
workload of this checkout's perfbench/workloads.py it runs the seed-1 pass
once a side to warm up, then PAIRS pairs of passes, one a side, with the
side that goes first alternating pair by pair.  A pass times each job as
perfbench's worker does (config, run and emission to bytes) with gc paused,
and its figure is the sum of its job times.  Any job whose bytes differ
between the sides fails the run.  BLAS runs on one thread, set before numpy
loads.

It prints one JSON object: per workload, each side's median and quartiles of
its pass sums, the ratio of the change's median to the parent's, and the
number of pairs the change won; and the Python and numpy versions and the
core count.  Import time and peak RSS cannot be told apart in one process;
they stay with perfbench.  A run takes about 30 s on a 2-core x86-64 VM, and
is no part of the test suite.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PAIRS = 12
SEED = 1
SIDES = ("parent", "change")


def load(checkout: Path, name: str):
    """The harness of the eprverify package in the checkout's src directory,
    imported as the package ``name``."""
    package = Path(checkout).resolve() / "src" / "eprverify"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def timed_pass(harness, jobs: list[dict]) -> tuple[float, list[bytes]]:
    """The summed seconds of the jobs, each taken through config, run and
    emission as perfbench's worker takes it, and the bytes each emitted."""
    gc.collect()
    gc.disable()
    try:
        total, payloads = 0.0, []
        for job in jobs:
            start = time.perf_counter()
            report = harness.run_experiment(harness.ExperimentConfig.from_dict(job["config"]))
            payload = harness.emit_report(report, job["fmt"])
            total += time.perf_counter() - start
            payloads.append(payload)
        return total, payloads
    finally:
        gc.enable()


def _summary(seconds: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "passes": len(seconds)}


def compare(parent: Path, change: Path, passes: dict[str, list[dict]], pairs: int) -> dict:
    """Time each pass of ``passes`` (workload name to job list) on both trees
    in ``pairs`` alternated pairs, after one warm-up pass a side.  Raises
    RuntimeError if a job's bytes differ between the sides."""
    import numpy as np

    tag = f"ab_{os.getpid()}_{time.monotonic_ns()}"
    harnesses = {side: load(checkout, f"{tag}_{side}") for side, checkout in zip(SIDES, (parent, change))}
    out = {}
    for name, jobs in passes.items():
        seconds = {side: [] for side in SIDES}
        for pair in range(-1, pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            payloads = {}
            for side in order:
                took, payloads[side] = timed_pass(harnesses[side], jobs)
                if pair >= 0:
                    seconds[side].append(took)
            for k, (a, b) in enumerate(zip(*(payloads[side] for side in SIDES))):
                if a != b:
                    raise RuntimeError(f"{name}: job {k} emits different bytes on the two sides: {jobs[k]}")
        parent_s, change_s = _summary(seconds["parent"]), _summary(seconds["change"])
        out[name] = {
            "jobs": len(jobs),
            "parent": parent_s,
            "change": change_s,
            "ratio": change_s["median_s"] / parent_s["median_s"],
            "change_wins": sum(c < p for p, c in zip(seconds["parent"], seconds["change"])),
        }
    return {
        "pairs": pairs,
        "workloads": out,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/ab.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 1
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    passes = {name: workloads.make_pass(name, SEED)[0] for name in workloads.WORKLOADS}
    result = compare(Path(argv[0]), Path(argv[1]), passes, PAIRS)
    result["seed"] = SEED
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
