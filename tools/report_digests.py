"""Digests of the reports a checkout of eprverify emits, to show that a change
leaves every report byte as it was.

    python tools/report_digests.py SRC_DIR

imports eprverify from SRC_DIR/src and the job lists from this checkout's
perfbench/workloads.py, and writes no bytecode into either.  It runs every
job of the seed-1 and seed-7919 passes of each benchmark workload, then the
configs of acceptance criterion 8 (tests/test_acceptance.py): the exact and
100 000-trial sampled soundness runs and the two 2000-trial repeat configs,
then a group of soundness configs at l = 4 and 5 whose sampled runs build
their trees in more than one stack and reuse trees across stacks, then a
group with three to five ancilla qubits, where V and the coin-0 map are
largest, then a group of swap-bench runs at the edges of its
stacks and chunks, then a group of sampled soundness runs at the edges of
the chunks of trials that ProtocolRun.sample draws together, then a group
of lemma runs across the edges of lemma stacks and chunks.  Each run's
report is emitted as JSON and as CSV.  For each group it prints the report
count and one SHA-256 over those bytes, in run order; a group's completeness
and soundness runs print on a line of their mode, GROUP/exact or
GROUP/sampled.  Exact reports hold floats, which a change of rounding moves
in the last bit; sampled reports hold counts, which it moves only when a
draw falls within rounding of an outcome's edge.  Run
it once on a checkout of the parent commit and once on the change: equal
lines mean equal reports.  It takes about 6 s on a 2-core x86-64 VM, and is
no part of the test suite.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = (1, 7919)


def criterion_8_configs() -> list[dict]:
    """The configs acceptance criterion 8 runs, in its order."""
    strategies = [{"kind": "honest"}, {"kind": "idle_epr"}, {"kind": "choi_product", "q": 0.8}]
    configs = []
    for p_toy in (0.75, 1e-3):
        for strategy in strategies:
            base = {"experiment": "soundness", "verifier": {"p": p_toy}, "strategy": strategy, "seed": 808080}
            configs += [{**base, "mode": "exact"}, {**base, "mode": "sampled", "trials": 100_000}]
    configs += [{"experiment": "soundness", "verifier": {"p": 1e-3}, "strategy": strategy, "seed": 818181,
                 "mode": "sampled", "trials": 2000} for strategy in strategies[:2]]
    return configs


def tree_stack_configs() -> list[dict]:
    """Soundness configs at l = 4 and 5, each exact and sampled with 2000
    trials: at (p_qubits, a_qubits) = (1, 1) and l = 5, honest at p = 0.7
    builds 8 trees for 20 pairs, honest at p = 0.9 builds 13 (8 + 5) and
    local_unitaries 20 (8 + 8 + 4)."""
    cases = [({"kind": "honest"}, 0.7), ({"kind": "honest"}, 0.9),
             ({"kind": "choi_product", "q": 0.1}, 0.3), ({"kind": "local_unitaries", "unitary_seed": 5}, 0.3)]
    return [{"experiment": "soundness", "l": l, "strategy": strategy, "seed": 1, "mode": mode, "trials": 2000,
             "verifier": {"p": p, "p_qubits": p_qubits, "a_qubits": a_qubits}}
            for l in (4, 5) for p_qubits, a_qubits in ((1, 1), (1, 2), (2, 1))
            for strategy, p in cases for mode in ("exact", "sampled")]


def large_register_configs() -> list[dict]:
    """Soundness configs whose coin-0 map has 8 or 9 output qubits (p + a +
    3), honest at p = 0.7 and local_unitaries at p = 0.3, each exact and
    sampled with 500 trials."""
    cases = [({"kind": "honest"}, 0.7), ({"kind": "local_unitaries", "unitary_seed": 5}, 0.3)]
    return [{"experiment": "soundness", "l": l, "strategy": strategy, "seed": 1, "mode": mode, "trials": 500,
             "verifier": {"p": p, "p_qubits": p_qubits, "a_qubits": a_qubits}}
            for p_qubits, a_qubits, l in ((1, 4, 2), (1, 5, 2), (2, 4, 2), (3, 3, 2), (1, 4, 3))
            for strategy, p in cases for mode in ("exact", "sampled")]


def swap_edge_configs() -> list[dict]:
    """swap-bench at 1, 15, 16, 17, 255, 256, 257 and 1000 trials, at seeds 1
    and 7919: the last case of a chunk, one-qubit at an odd count, the chunk
    edge at 256 cases, and four chunks."""
    return [{"experiment": "swap-bench", "trials": trials, "seed": seed}
            for trials in (1, 15, 16, 17, 255, 256, 257, 1000) for seed in SEEDS]


def chunk_edge_configs() -> list[dict]:
    """Sampled soundness at 1, 4095, 4096, 4097, 8192 and 8193 trials, at seeds
    1 and 7919: idle_epr at l = 2, and local_unitaries at l = 3 with two
    ancilla qubits.  rng.CHUNK_TRIALS is 4096, so these end one trial before,
    at and one trial after the edge of the first and second chunks."""
    cases = [({"kind": "idle_epr"}, 2, 1), ({"kind": "local_unitaries", "unitary_seed": 5}, 3, 2)]
    return [{"experiment": "soundness", "l": l, "strategy": strategy, "seed": seed, "mode": "sampled",
             "trials": trials, "verifier": {"p": 0.3, "a_qubits": a_qubits}}
            for strategy, l, a_qubits in cases for trials in (1, 4095, 4096, 4097, 8192, 8193) for seed in SEEDS]


def lemma_stack_configs() -> list[dict]:
    """lemmas at 1, 7, 8, 9, 17, 255, 256, 257 and 1000 trials, at seeds 1 and
    7919: counts on both sides of 8, the lemma stack size before stacks were
    sized by bytes, and of the chunk edge at harness.LEMMA_CHUNK_TRIALS = 256."""
    return [{"experiment": "lemmas", "trials": trials, "seed": seed}
            for trials in (1, 7, 8, 9, 17, 255, 256, 257, 1000) for seed in SEEDS]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/report_digests.py SRC_DIR", file=sys.stderr)
        return 1
    sys.dont_write_bytecode = True
    src = Path(argv[0]).resolve() / "src"
    sys.path[:0] = [str(src), str(HERE / "perfbench")]
    import workloads
    import eprverify
    from eprverify.harness import ExperimentConfig, emit_report, run_experiment

    if Path(eprverify.__file__).resolve().parent != src / "eprverify":
        print(f"imported eprverify from {eprverify.__file__}, not from {src}", file=sys.stderr)
        return 1

    groups = {
        name: [job["config"] for seed in SEEDS for job in workloads.make_pass(name, seed)[0]]
        for name in workloads.WORKLOADS
    }
    groups["criterion-8"] = criterion_8_configs()
    groups["tree-stacks"] = tree_stack_configs()
    groups["large-registers"] = large_register_configs()
    groups["swap-edges"] = swap_edge_configs()
    groups["chunk-edges"] = chunk_edge_configs()
    groups["lemma-stacks"] = lemma_stack_configs()
    for name, configs in groups.items():
        lines: dict[str, list] = {}  # line name to [digest, report count], in first-run order
        for config in configs:
            config = ExperimentConfig.from_dict(config)
            protocol = config.experiment in ("completeness", "soundness")
            line = lines.setdefault(f"{name}/{config.mode}" if protocol else name, [hashlib.sha256(), 0])
            report = run_experiment(config)
            for fmt in ("json", "csv"):
                line[0].update(emit_report(report, fmt))
            line[1] += 2
        for line, (digest, count) in lines.items():
            print(f"{line} {count} reports sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
