"""Benchmark for eprverify: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Each
workload runs in its own fresh interpreter (perfbench/worker.py) with one
Python thread and the BLAS thread count fixed at 1 in its environment.  The
package is driven only through ExperimentConfig.from_dict -> run_experiment ->
emit_report, the path the CLI takes.

--trace 0 prints the end-to-end metrics: setup_s (median over several fresh
interpreters), work_per_s, job_ms.p50, job_ms.p90 (each job's latency the
second slowest of its repeats), peak_rss_mb; fail_frac is
printed in the table and carried by "failed"/"attempted".  --trace 1 prints
the per-layer metrics of a traced pass.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s, the main run included
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared machine steady
TIME_LIMIT_S = 170.0


def _worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Run worker.py; return its set-up time and its summary (None with setup_only)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - started, 1.0))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    ready = json.loads(lines[0])["ready"] - started
    return ready, None if setup_only else json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eprverify" / "__init__.py").is_file():
        print(f"perfbench: no eprverify sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup = [] if args.trace else [_worker(args, deadline, True)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, summary = _worker(args, deadline, False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 3
    metrics = summary["metrics"]
    if not args.trace:
        setup.append(ready)
        metrics["setup_s"] = (statistics.median(setup), "s")

    attempted, failed = summary["attempted"], summary["failed"]
    print("env " + json.dumps(summary["env"]))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {summary['passes']} passes of "
          f"{summary['distinct']} jobs ({summary['pass_s']} s), {summary['repeats']} repeat checks")
    per_job = f"n={summary['distinct']} jobs, each the second slowest of {summary['passes']} repeats"
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters",
             "work_per_s": f"units of a pass / summed job latency ({per_job})",
             "job_ms.p50": per_job, "job_ms.p90": per_job}
    stage_note = "inclusive of callees; not additive with <module>.self_s"
    for name, (value, unit) in metrics.items():
        note = notes.get(name, stage_note if name.startswith("stage.") else "")
        print(f"  {name:42s} {value:14.6g} {unit:6s} {note}")
    if not args.trace:
        print(f"  {'fail_frac':42s} {failed / attempted:14.6g} {'frac':6s} {failed} of {attempted} jobs and checks")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
