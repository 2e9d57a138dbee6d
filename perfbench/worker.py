"""One workload in one fresh interpreter; started by run.py.

Set-up is importing eprverify and generating the pass from the workload seed.
The time at which set-up ends is printed (as ``time.monotonic()``, which is
system-wide) so that run.py can measure set-up from outside.  With
--setup-only the worker stops there.  Otherwise it next computes, untimed,
the exact accept probability that each sampled job is checked against.

Otherwise it runs the pass again and again: at least MIN_PASSES times, and
then while the next pass would end within --seconds, up to MAX_PASSES.  A
job's latency is the second slowest of its repeats (see latency()).  Every
repeat of a job must emit the same bytes as its first run.  After each pass
one of its jobs runs twice more, to check that its JSON and CSV bytes are
reproducible, and a probe times the machine.  The worker prints a JSON
summary as its last line.  With --trace 1 it runs the pass once untraced and
once traced, and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3
MAX_PASSES = 5


def _import_package():
    sys.path.insert(0, str(SRC))
    import eprverify
    from eprverify import harness

    if Path(eprverify.__file__).resolve().parent != SRC / "eprverify":
        raise SystemExit(f"perfbench: imported eprverify from {eprverify.__file__}, not from {SRC}")
    return harness


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "blas_build": blas.get("openblas configuration"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


class Workload:
    def __init__(self, harness):
        self.harness = harness
        self.references: dict[str, float] = {}

    def add_references(self, jobs: list[dict]) -> None:
        """Compute the exact accept probability of every sampled config in
        ``jobs`` that has none yet (untimed, before the pass runs)."""
        h = self.harness
        for job in jobs:
            key = workloads.reference_key(job["config"])
            if key is not None and key not in self.references:
                config = h.ExperimentConfig.from_dict(workloads.exact_config(key))
                self.references[key] = h.run_experiment(config).accept_probability

    def run_job(self, job: dict, tracer: Tracer | None = None):
        """The timed job: validate, run and emit to bytes (traced only here)."""
        h = self.harness
        if tracer is not None:
            tracer.on = True
        try:
            start = time.perf_counter()
            config = h.ExperimentConfig.from_dict(job["config"])
            report = h.run_experiment(config)
            payload = h.emit_report(report, job["fmt"])
            return time.perf_counter() - start, report, payload
        finally:
            if tracer is not None:
                tracer.on = False

    def run_pass(self, jobs: list[dict], tracer: Tracer | None = None) -> list[dict]:
        results = []
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            try:
                seconds, report, payload = self.run_job(job, tracer)
                results.append({
                    "seconds": seconds,
                    "units": workloads.units(job["config"], report),
                    "digest": _digest(payload),
                    "problems": workloads.check(job["config"], report, self.references),
                })
            except Exception:
                results.append({"seconds": 0.0, "units": 0, "digest": None,
                                "problems": [traceback.format_exc()]})
        return results

    def repeat_problems(self, jobs: list[dict], repeat: dict, results: list[dict]) -> list[str]:
        """Run a pass's repeat job twice more; its JSON and CSV bytes must not change."""
        h = self.harness
        try:
            emitted = []
            for _ in range(2):
                report = h.run_experiment(h.ExperimentConfig.from_dict(repeat["config"]))
                emitted.append({fmt: h.emit_report(report, fmt) for fmt in ("json", "csv")})
        except Exception:
            return [traceback.format_exc()]
        problems = [f"repeated job emitted different {fmt} bytes"
                    for fmt in ("json", "csv") if emitted[0][fmt] != emitted[1][fmt]]
        if results[jobs.index(repeat)]["digest"] != _digest(emitted[0][repeat["fmt"]]):
            problems.append("repeated job emitted different bytes than in the pass")
        return problems


def _digest(payload: str | bytes) -> bytes:
    return hashlib.sha256(payload.encode() if isinstance(payload, str) else payload).digest()


def _probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms: how fast the machine
    ran just now, with no eprverify code in it.  It is recorded beside the
    results, never folded into them, so that a change in the figures between
    two runs can be told apart from a change in the machine's speed."""
    times = []
    for _ in range(15):
        start = time.perf_counter()
        counts = {}
        for i in range(10000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def _report_problems(results: list[dict], label: str) -> int:
    failed = 0
    for index, result in enumerate(results):
        if result["problems"]:
            failed += 1
            for problem in result["problems"]:
                print(f"perfbench: {label} job {index} failed: {problem}", file=sys.stderr)
    return failed


def latency(repeats: tuple[dict, ...]) -> float:
    """A job's latency: the second slowest of its repeats.

    A shared machine runs in slow spells, in which pure-Python code takes up
    to twice as long, and brief fast ones.  The slow spells are where it
    spends most of its time, and their speed is steady.  The second slowest
    repeat reads that speed unless nearly the whole run was fast, and it
    leaves out one repeat that a pause (a page fault, a burst from another
    tenant) made slower still.  Over ten lemma-suite runs its metrics spread
    about half as much as with the median repeat; over ten exact-sweep runs
    the two did about as well (perfbench/README.md).
    """
    return sorted(r["seconds"] for r in repeats)[-2]


def end_to_end(passes: list[list[dict]]) -> dict:
    """Each job's latency() over its repeats; work_per_s is the units of one
    pass over the sum of those latencies."""
    latencies = [latency(repeats) for repeats in zip(*passes)]
    latencies_ms = [seconds * 1000.0 for seconds in latencies]
    return {
        "work_per_s": (sum(r["units"] for r in passes[0]) / sum(latencies), "1/s"),
        "job_ms.p50": (statistics.median(latencies_ms), "ms"),
        "job_ms.p90": (statistics.quantiles(latencies_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _check_bytes(first: list[dict], results: list[dict], problem: str) -> None:
    """Fail every job of ``results`` that emitted other bytes than in ``first``."""
    for before, result in zip(first, results):
        if result["digest"] != before["digest"]:
            result["problems"].append(problem)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    harness = _import_package()
    jobs, repeat = workloads.make_pass(args.workload, args.seed)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    workload = Workload(harness)
    summary = {"env": environment()}
    passes, repeats, probes = [], [], []
    workload.add_references(jobs)
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(jobs))
        probes.append(_probe_ms())
        repeats.append(workload.repeat_problems(jobs, repeat, passes[-1]))
        _check_bytes(passes[0], passes[-1], "repeat emitted different bytes than the first run")
        elapsed = time.perf_counter() - started
        enough = len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds
        if args.trace or enough or len(passes) == MAX_PASSES:
            break
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = workload.run_pass(jobs, tracer)
        tracer.uninstall()
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
        _check_bytes(passes[0], traced, "traced run emitted different bytes than the untraced run")
        passes.append(traced)
        untraced_s, traced_s = (sum(r["seconds"] for r in results) for results in passes)
        summary["metrics"] = tracer.metrics(untraced_s, traced_s)
    else:
        summary["metrics"] = end_to_end(passes)
    failed = sum(_report_problems(results, f"pass {n}") for n, results in enumerate(passes))
    for problem in (problem for problems in repeats for problem in problems):
        print(f"perfbench: repeat check failed: {problem}", file=sys.stderr)
    jobs_run = sum(map(len, passes))
    summary["env"]["probe_ms"] = round(statistics.median(probes), 4)
    summary.update(passes=len(passes), jobs=jobs_run, distinct=len(jobs), repeats=len(repeats),
                   pass_s=[round(sum(r["seconds"] for r in results), 3) for results in passes],
                   attempted=jobs_run + len(repeats), failed=failed + sum(map(bool, repeats)))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
