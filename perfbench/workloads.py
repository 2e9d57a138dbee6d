"""Job lists for the benchmark's workloads, and the checks on their outputs.

A job is one experiment config taken through ``ExperimentConfig.from_dict``,
``run_experiment`` and ``emit_report``.  A pass is one list of jobs, run in
order; a run repeats the same pass several times, and each job's latency is
the second slowest of its repeats.  The pass is a pure function of the
workload seed.  The seed draws the continuous parameters (verifier p,
strategy q, unitary and trial seeds) and the job order; which jobs there are
(experiment family, l, register shape, strategy kind, trial count, output
format) is fixed.  So every pass costs about the same whatever the seed, and
each latency percentile falls in the same run of jobs of about the same
cost, away from the gaps between cheap and dear jobs, where it would jump.

Every pass holds at least 100 jobs, so that at least ten latencies lie
beyond the p90.

This module imports nothing from the package: the program sees only the
generated configs.
"""

from __future__ import annotations

import json
import math
import random

DEFAULT_SEED = 1
# Not used while the benchmark was written; quote gains on it as well.
HELD_OUT_SEED = 7919

# The completeness experiment plus the four soundness strategy kinds.
KINDS = ("completeness", "honest", "idle_epr", "choi_product", "local_unitaries")

COMPLETENESS_TOL = 1e-9
SAMPLED_SIGMAS = 5.0
SWAP_TOL = 1e-12


def _protocol_config(rng: random.Random, kind: str, l: int, shape: tuple[int, int],
                     soundness_p: tuple[float, float], choi_q: tuple[float, float]) -> dict:
    p_qubits, a_qubits = shape
    if kind == "completeness":
        # Yes-instances: the honest proof exists only for maximum acceptance >= 1/2.
        p = rng.uniform(0.5, 1.0)
        config = {"experiment": "completeness"}
    else:
        p = rng.uniform(*soundness_p)
        strategy = {"kind": kind}
        if kind == "choi_product":
            strategy["q"] = round(rng.uniform(*choi_q), 6)
        elif kind == "local_unitaries":
            strategy["unitary_seed"] = rng.randrange(2**31)
        config = {"experiment": "soundness", "strategy": strategy}
    return dict(config, verifier={"p": round(p, 6), "p_qubits": p_qubits, "a_qubits": a_qubits}, l=l)


# (l, (p_qubits, a_qubits), copies of each kind, kinds); None means all five
# kinds.  About 4-9 s a pass on a 2-core x86-64 VM.  The p50 lies among the
# l = 2 (1,2) and (2,1) and l = 3 (1,1) jobs (20-40 ms), the p90 among the
# l = 4 (1,1) and (1,2) jobs (about 95-175 ms).
EXACT_CELLS = (
    (2, (1, 1), 7, None), (2, (1, 2), 3, None), (2, (2, 1), 2, None), (2, (2, 2), 1, None),
    (3, (1, 1), 3, None), (3, (1, 2), 1, None), (3, (2, 1), 1, None),
    (3, (2, 2), 1, ("choi_product", "local_unitaries")),
    (4, (1, 1), 1, None), (4, (1, 2), 1, None), (5, (1, 1), 1, ("completeness",)),
)


def _exact_sweep(rng: random.Random) -> list[dict]:
    """Dense-engine workload: exact branch breakdowns for l = 2..5.

    Latency grows as O(4^n)-O(8^n) in n = p_qubits + 2l, so the median shows
    per-call overhead and the p90 the scaling.  l stops at 5: harness.validate
    has no memory bound, and l = 6 needs more than 1 GB per density copy.  The
    l = 5 job uses one witness qubit: with two it costs as much as four jobs
    with one, and 0.55 GB.
    """
    jobs = []
    for l, shape, copies, kinds in EXACT_CELLS:
        for kind in (kinds or KINDS) * copies:
            config = _protocol_config(rng, kind, l, shape, (0.05, 1.0), (0.0, 1.0))
            config.update(mode="exact", seed=rng.randrange(2**31))
            jobs.append({"config": config, "fmt": "json", "cost": 4**l * 2 ** sum(shape)})
    return jobs


# (l, shape) of the protocol configs, one for each kind; jobs made from each
# config; trials a job.
SAMPLED_CELLS = ((2, (1, 1)), (2, (1, 2)), (3, (1, 1)))
JOBS_PER_CONFIG = 7
SAMPLED_TRIALS = 900


def _sampled_trials(rng: random.Random) -> list[dict]:
    """Sampling workload: the per-trial loop (rng.stream, ProtocolRun.sample,
    row building, emission) dominates, not tree building.

    Fifteen protocol configs (l = 2 with one or two ancilla qubits, l = 3
    with one; one witness qubit; all kinds) are drawn from the seed, and each
    gives seven jobs with their own trial seeds.  l and the shapes stay small
    so that the l(l-1) trees cost less than the trials: at l = 3 with two
    ancilla qubits the trees of a 900-trial job cost more than its trials.
    Soundness verifiers have p in [0.1, 0.3] and q <= 0.5, so the accept rate
    is at most about 0.96 and a job of 900 trials expects at least 36
    rejects: the 5-sigma check then has a two-sided binomial tail below 6e-6
    per job.  Of each config's jobs, alternately three or four emit JSON and
    the rest per-trial CSV rows, so a change that helps one emitter and costs
    the other shows.
    """
    bases = [
        _protocol_config(rng, kind, l, shape, (0.1, 0.3), (0.0, 0.5))
        for l, shape in SAMPLED_CELLS
        for kind in KINDS
    ]
    jobs = []
    for b, base in enumerate(bases):
        for k in range(JOBS_PER_CONFIG):
            config = dict(base, mode="sampled", trials=SAMPLED_TRIALS, seed=rng.randrange(2**31))
            jobs.append({"config": config, "fmt": ("json", "csv")[(b + k) % 2], "cost": SAMPLED_TRIALS})
    return jobs


# (experiment, trials, jobs per pass), at about 14, 27, 60 and 150 ms: the
# p50 lies in the swap-bench cell of 40 trials, the p90 in the lemmas cell.
# swap-bench alternates one- and two-qubit cases, so its cost does not depend
# on the seed; a lemmas job draws the dimension of each instance, so it takes
# many trials to make its cost about the same whatever the seed.  The
# percentiles fall inside cells of one experiment only: lemmas (LAPACK) and
# swap-bench (Python and kron) slow down by different amounts when the
# machine does, so a cell that mixed them could split with a percentile on
# the seam.
LEMMA_CELLS = (("swap-bench", 20, 34), ("swap-bench", 40, 40), ("swap-bench", 80, 16), ("lemmas", 80, 12))


def _lemma_suite(rng: random.Random) -> list[dict]:
    """Inequality and SWAP checks: small-matrix svd/eigh/qr at d <= 16 through
    metrics and sampling, and many 3-5 qubit operators through
    kernel.apply_unitary/measure.  ProtocolRun is never built, so protocol
    and exact-engine changes should not move it.
    """
    return [
        {"config": {"experiment": experiment, "trials": trials, "seed": rng.randrange(2**31)},
         "fmt": "json", "cost": trials}
        for experiment, trials, count in LEMMA_CELLS
        for _ in range(count)
    ]


WORKLOADS = {
    "exact-sweep": _exact_sweep,
    "sampled-trials": _sampled_trials,
    "lemma-suite": _lemma_suite,
}


def make_pass(workload: str, seed: int) -> tuple[list[dict], dict]:
    """The pass of a workload, and the job it repeats to check that output
    bytes are reproducible (drawn among its cheapest jobs)."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    cheapest = min(job["cost"] for job in jobs)
    repeat = rng.choice([job for job in jobs if job["cost"] == cheapest])
    return jobs, repeat


def reference_key(config: dict) -> str | None:
    """Key of the exact config a sampled job is checked against, else None."""
    if config.get("mode") != "sampled":
        return None
    return json.dumps({k: v for k, v in config.items() if k not in ("mode", "trials", "seed")},
                      sort_keys=True)


def exact_config(key: str) -> dict:
    return dict(json.loads(key), mode="exact", seed=0)


def units(config: dict, report) -> int:
    """Work done by one job: exact evaluations, sampled trials, or checked
    instances (lemma instances plus SWAP cases)."""
    experiment = config["experiment"]
    if experiment == "lemmas":
        return int(report.details["total_checks"])
    if experiment == "swap-bench":
        return int(config["trials"]) + 2  # random cases plus the identical and orthogonal pairs
    return int(config["trials"]) if config.get("mode") == "sampled" else 1


def check(config: dict, report, references: dict[str, float]) -> list[str]:
    """Problems with one job's report; an empty list means the job passed."""
    problems = list(report.failures())
    experiment = config["experiment"]
    accept = report.accept_probability
    if experiment == "completeness" and abs(accept - 1.0) > COMPLETENESS_TOL:
        problems.append(f"completeness accept {accept!r} is not 1 within {COMPLETENESS_TOL}")
    key = reference_key(config)
    if key is not None:
        exact = references[key]
        n = int(config["trials"])
        sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / n)
        if abs(accept - exact) > SAMPLED_SIGMAS * sigma + COMPLETENESS_TOL:
            problems.append(f"sampled accept {accept!r} is more than {SAMPLED_SIGMAS:g} sigma "
                            f"from the exact {exact!r} (n={n})")
    if experiment == "lemmas":
        problems += [f"lemma {name} has {entry['violations']} violations"
                     for name, entry in report.lemma_margins.items() if entry["violations"]]
    if experiment == "swap-bench" and report.details["max_error"] > SWAP_TOL:
        problems.append(f"swap-bench max_error {report.details['max_error']!r} above {SWAP_TOL}")
    return problems
