"""Experiment runner, report emission, and CLI surface."""

import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eprverify import harness, rng as rngmod
from eprverify.cli import main
from eprverify.harness import (
    MEMORY_BUDGET_BYTES,
    TRIAL_ROW_BYTES,
    ConfigError,
    ExperimentConfig,
    emit_report,
    lemma_suite,
    memory_estimate,
    run_experiment,
)
from eprverify.linalg import STACK_BYTES
from eprverify.protocol import tree_stack
from eprverify.rng import stream

from dense_reference import csv_writer_summary, per_case_swap_bench, tuple_row_reports


def _config(**overrides):
    base = {"experiment": "completeness", "verifier": {"p": 0.75}, "mode": "exact", "seed": 1}
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_defaults_and_echo():
    cfg = _config()
    echo = cfg.to_dict()
    assert echo["verifier"] == {"p": 0.75, "p_qubits": 1, "a_qubits": 1}
    assert echo["l"] == 2 and echo["mode"] == "exact"


@pytest.mark.parametrize(
    "fields, strategy",
    [
        ({"experiment": "completeness"}, {"kind": "honest"}),
        ({"experiment": "completeness", "strategy": {"kind": "honest"}}, {"kind": "honest"}),
        ({"experiment": "soundness"}, {"kind": "idle_epr"}),
        ({"experiment": "lemmas"}, {"kind": "idle_epr"}),
    ],
)
def test_config_echoes_the_strategy_it_runs(fields, strategy):
    assert ExperimentConfig.from_dict(fields).to_dict()["strategy"] == strategy


@pytest.mark.parametrize(
    "bad",
    [
        {"experiment": "nope"},
        {"experiment": "completeness", "verifier": {"p": 0.0}},
        {"experiment": "completeness", "verifier": {"p": 1.5}},
        {"experiment": "completeness", "l": 1},
        {"experiment": "completeness", "mode": "approximate"},
        {"experiment": "soundness", "strategy": {"kind": "unknown"}},
        {"experiment": "soundness", "strategy": {"kind": "choi_product"}},
        {"experiment": "soundness", "strategy": {"kind": "local_unitaries"}},
        {"experiment": "completeness", "mode": "sampled", "trials": 0},
        {"experiment": "completeness", "surprise": 1},
        {"experiment": "completeness", "tolerances": {"bogus": 1e-9}},
    ],
)
def test_config_rejections(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("tolerances", [None, ["margin"], "margin", 1e-9])
def test_validate_refuses_tolerances_that_are_not_an_object(tolerances):
    # A library caller builds the config directly, without from_dict.
    config = ExperimentConfig("lemmas", {"kind": "idle_epr"}, tolerances=tolerances)
    with pytest.raises(ConfigError, match="'tolerances' must be an object, got "):
        config.validate()
    with pytest.raises(ConfigError, match="'tolerances' must be an object, got "):
        run_experiment(config)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"experiment": "soundness", 1: 2, "x": 3}, "unknown config fields: [1, 'x']"),
        ({"experiment": "soundness", "verifier": {1: 0.5, "zz": 1}}, "unknown verifier fields: [1, 'zz']"),
        ({"experiment": "soundness", "tolerances": {1: 0.5, "zz": 1}}, "unknown tolerance overrides: [1, 'zz']"),
    ],
    ids=["config", "verifier", "tolerances"],
)
def test_config_with_a_non_string_key_is_a_config_error(data, message):
    # A library caller can give keys JSON cannot; they are named, not compared.
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def test_completeness_exact_report():
    report = run_experiment(_config())
    assert report.accept_probability == pytest.approx(1.0, abs=1e-9)
    assert sum(report.branches.values()) == pytest.approx(1.0, abs=1e-9)
    assert report.failures() == []


def test_soundness_exact_reject_positive():
    cfg = _config(
        experiment="soundness",
        verifier={"p": 1e-3},
        strategy={"kind": "idle_epr"},
    )
    report = run_experiment(cfg)
    assert report.reject_probability > 0
    assert report.accept_probability == pytest.approx(0.75, abs=1e-9)


def test_sampled_run_matches_exact_within_binomial_bound():
    exact = run_experiment(
        _config(experiment="soundness", verifier={"p": 1e-3}, strategy={"kind": "choi_product", "q": 0.5})
    )
    sampled = run_experiment(
        _config(
            experiment="soundness",
            verifier={"p": 1e-3},
            strategy={"kind": "choi_product", "q": 0.5},
            mode="sampled",
            trials=20000,
        )
    )
    p = exact.accept_probability
    bound = 5 * np.sqrt(p * (1 - p) / 20000)
    assert abs(sampled.accept_probability - p) <= bound
    assert len(sampled.trial_outcomes) == 20000


def test_exact_mode_ignores_trials():
    a = run_experiment(_config(trials=10))
    b = run_experiment(_config(trials=9999))
    assert a.accept_probability == b.accept_probability
    assert a.branches == b.branches
    assert a.trial_outcomes is None and b.trial_outcomes is None


def test_lemma_suite_margins():
    margins = lemma_suite(trials=80, seed=5, tol=1e-9)
    expected_keys = {
        "holder",
        "triangle",
        "monotonicity_partial_trace",
        "monotonicity_pinch",
        "monotonicity_unitary",
        "fvg_lower",
        "fvg_upper",
        "gentle",
        "perturbation_additive",
        "perturbation_mixture",
    }
    assert set(margins) == expected_keys
    for entry in margins.values():
        assert entry["min_margin"] >= -1e-9
        assert entry["violations"] == 0
        assert entry["samples"] == 80


def _stub_lemma_instances(monkeypatch, margin, probe=lambda: None):
    """Replace the suite's instance generators and oracles with constant-cost
    stand-ins; every oracle gets a stack of instances, calls probe() and
    returns margin() for each."""
    mixed = {d: np.eye(d) / d for d in range(1, 17)}
    for name in ("random_complex_matrix", "random_density", "random_unitary"):
        monkeypatch.setattr(harness, name, lambda rng, d: mixed[d])
    monkeypatch.setattr(harness, "random_projector", lambda rng, d, rank: 0 * mixed[d])

    def stacked(*args):
        probe()
        return np.array([margin() for _ in args[0]])

    for name in ("holder_margin", "triangle_margin", "monotonicity_margin", "gentle_margin",
                 "additive_perturbation_margin", "mixture_perturbation_margin"):
        monkeypatch.setattr(harness, name, stacked)
    monkeypatch.setattr(harness, "fvg_margins", lambda *args: (stacked(*args), stacked(*args)))


@pytest.mark.parametrize("margins", [[np.nan, 1.0, -2.0], [1.0, np.nan, -2.0], [0.5, -1.0, -1e-12]])
def test_lemma_suite_folds_margins_like_min(monkeypatch, margins):
    draws = iter(margins * 11)
    _stub_lemma_instances(monkeypatch, lambda: np.float64(next(draws)))
    entry = lemma_suite(trials=3, seed=1, tol=1e-9)["holder"]
    expected = float(min(margins))
    assert entry["min_margin"] == expected or np.isnan(entry["min_margin"]) and np.isnan(expected)
    # A NaN margin is not >= -tol, so it counts as a violation.
    assert entry["violations"] == sum(not m >= -1e-9 for m in margins)
    assert entry["samples"] == 3


def test_lemma_suite_memory_does_not_grow_with_trials(monkeypatch):
    # With stand-in instances only the suite's own bookkeeping allocates; a
    # list of the margins would hold about 50 bytes per margin, 11 per trial.
    # tracemalloc's peak also counts the dead objects CPython keeps on its
    # free lists (up to 2000 tuples of each size), so the memory is read at
    # every oracle call instead, each time after a full collection has
    # emptied them.  Objects older than the run are frozen, which keeps those
    # collections cheap.
    highest = [0]

    def probe():
        gc.collect()
        highest[0] = max(highest[0], tracemalloc.get_traced_memory()[0])

    # First-use allocations (numpy's lazy imports and caches) are made before
    # either reading.
    _stub_lemma_instances(monkeypatch, lambda: np.float64(0.25))
    lemma_suite(400, seed=1, tol=1e-9)
    _stub_lemma_instances(monkeypatch, lambda: np.float64(0.25), probe)

    def peak(trials: int) -> int:
        highest[0] = 0
        gc.collect()
        gc.freeze()
        tracemalloc.start()
        try:
            lemma_suite(trials, seed=1, tol=1e-9)
        finally:
            tracemalloc.stop()
            gc.unfreeze()
        return highest[0]

    small, large = peak(400), peak(4000)
    assert large - small < 50_000, (small, large)


def test_lemmas_experiment_report():
    report = run_experiment(ExperimentConfig.from_dict({"experiment": "lemmas", "trials": 50, "seed": 2}))
    assert report.lemma_margins is not None
    assert report.details["total_checks"] == 50 * 10
    assert report.failures() == []


def test_swap_bench_report():
    report = run_experiment(ExperimentConfig.from_dict({"experiment": "swap-bench", "trials": 40, "seed": 3}))
    assert report.details["max_error"] <= 1e-12
    assert report.details["identical_pure"] == pytest.approx(1.0, abs=1e-12)
    assert report.details["orthogonal_pure"] == pytest.approx(0.5, abs=1e-12)
    assert report.failures() == []


@pytest.mark.parametrize("trials", [1, 2, 3, 15, 16, 17, 40, 80, 255, 256, 257, 512, 513])
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
def test_swap_bench_bytes_match_the_per_case_run(trials, seed):
    # 256 cases are one chunk; a one-trial run stacks only a one-qubit case.
    # Two-qubit cases go 8 to a stack, so 15, 16 and 17 trials end a stack
    # short, full and with a one-qubit case past it; 512 is two full chunks.
    config = ExperimentConfig.from_dict({"experiment": "swap-bench", "trials": trials, "seed": seed})
    chunked, per_case = run_experiment(config), per_case_swap_bench(config)
    for fmt in ("json", "csv"):
        assert emit_report(chunked, fmt) == emit_report(per_case, fmt)


def test_swap_bench_circuit_calls_stay_within_the_stack_bound(monkeypatch):
    # Each SWAP circuit call's states, one (2d^2 x 2d^2) matrix a case, fit
    # linalg.STACK_BYTES: 128 one-qubit cases (8 x 8) or 8 two-qubit ones
    # (32 x 32).  40 trials make one stack of 20 one-qubit cases, three of
    # two-qubit cases and the pure checks' stack of 2.
    shapes = []
    real = harness.swap_test

    def probe(joint):
        shapes.append(joint.shape)
        return real(joint)

    monkeypatch.setattr(harness, "swap_test", probe)
    for trials in (40, 1000):
        shapes.clear()
        run_experiment(ExperimentConfig.from_dict({"experiment": "swap-bench", "trials": trials, "seed": 1}))
        assert all(16 * n * (2 * dd) ** 2 <= STACK_BYTES for n, dd, _ in shapes), shapes
        assert sum(n for n, _, _ in shapes) == trials + 2
        if trials == 40:
            assert shapes == [(20, 4, 4), (8, 16, 16), (8, 16, 16), (4, 16, 16), (2, 4, 4)]


def test_swap_bench_memory_does_not_grow_with_trials(monkeypatch):
    # A list of the errors would hold about 32 bytes a case, 115 kB more at
    # 4000 cases than at 400.  As in the lemma suite's test, the memory is
    # read at every stacked circuit call, after a full collection has emptied
    # CPython's free lists, with the objects older than the run frozen.
    highest = [0]
    real = harness.swap_test

    def probe(joint):
        gc.collect()
        highest[0] = max(highest[0], tracemalloc.get_traced_memory()[0])
        return real(joint)

    def run(trials: int) -> None:
        run_experiment(ExperimentConfig.from_dict({"experiment": "swap-bench", "trials": trials, "seed": 1}))

    run(400)  # first-use allocations are made before either reading
    monkeypatch.setattr(harness, "swap_test", probe)

    def peak(trials: int) -> int:
        highest[0] = 0
        gc.collect()
        gc.freeze()
        tracemalloc.start()
        try:
            run(trials)
        finally:
            tracemalloc.stop()
            gc.unfreeze()
        return highest[0]

    small, large = peak(400), peak(4000)
    assert large - small < 50_000, (small, large)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def test_json_report_round_trips_schema():
    report = run_experiment(_config())
    payload = emit_report(report, "json")
    obj = json.loads(payload)
    assert list(obj.keys()) == [
        "version",
        "config",
        "accept_probability",
        "reject_probability",
        "branches",
        "lemma_margins",
        "details",
    ]
    assert obj["config"]["experiment"] == "completeness"
    assert 0.0 <= obj["accept_probability"] <= 1.0


def test_reports_byte_identical_across_runs():
    cfg = _config(
        experiment="soundness",
        verifier={"p": 1e-3},
        strategy={"kind": "local_unitaries", "unitary_seed": 4},
        mode="sampled",
        trials=500,
        seed=99,
    )
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert emit_report(first, "json") == emit_report(second, "json")
    assert emit_report(first, "csv") == emit_report(second, "csv")


def test_timing_only_on_stderr(capsys):
    report = run_experiment(_config())
    assert b"wall_time" not in emit_report(report, "json")
    assert main(["completeness", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "wall_time" not in captured.out
    assert re.search(r"completeness done in [0-9]+\.[0-9] ms", captured.err)


def test_exact_completeness_builds_the_toy_once(monkeypatch):
    calls = []
    build = harness.make_toy_verifier
    monkeypatch.setattr(harness, "make_toy_verifier", lambda *args: calls.append(args) or build(*args))
    run_experiment(_config(l=3))
    assert calls == [(0.75, 1, 1)]


def test_negative_seeds_draw_distinct_streams():
    draws = {seed: tuple(stream(seed, 0).integers(2**32, size=4)) for seed in (-1, -3, -4, 2**63 - 1, -(2**63))}
    assert len(set(draws.values())) == len(draws)


def test_sampled_csv_schema():
    cfg = _config(mode="sampled", trials=20, seed=7)
    report = run_experiment(cfg)
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == "trial,b,pair_i,pair_j,postsel,verdict"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("0", "1")
    assert first[5] in ("accept", "reject")


# sha256 of the JSON and CSV reports of soundness runs in sampled mode, unless
# the fields say otherwise; each was recorded before the refactor it guards.
# The two completeness JSON digests were recorded again when completeness
# began to echo the honest strategy it runs; their CSV digests did not change.
# The two exact-mode digests were recorded again when the pair tree stopped
# pinching the whole two-slot state: no branch mass moved by more than 2.8e-16.
# The last exact-mode digests (p_qubits = 2, local_unitaries) were recorded
# again when coin 0 became one map G read as diag(G rho G†): two branch masses
# moved, by at most 2.8e-17.
# The sampled ones pin the per-trial stream contract (trial t draws from
# stream(seed, t), the order of its draws, and the walk that maps them to a
# branch); they hold only counts and count ratios, so BLAS rounding cannot move
# them.  With the exact ones, every way of building a proof (completeness, and
# each strategy kind) is pinned; exact reports hold floats, so their digests
# also pin the rounding of numpy 2.4 with OpenBLAS on x86-64, at any thread count.
STREAM_CONTRACT = [
    ({"verifier": {"p": 0.2}, "l": 2, "strategy": {"kind": "idle_epr"}, "seed": 31},
     "e16efc77eb34f8cdb01ac2e5ee52c62eb601b9efc0a845da8ff111452ea1580a",
     "e94928c5a9bf1530acd0a190f277ab4a8623f8982be1b7501aab3a2d784602b0"),
    ({"verifier": {"p": 0.3, "a_qubits": 2}, "l": 2, "strategy": {"kind": "choi_product", "q": 0.4}, "seed": 32},
     "6150466bfda4e613c1c0f37df1af132f7b30343ff89d455e278af8d14d378924",
     "f16f74d50f46f7638c32660aad59d7559c3c813b0d3bad9fb6fa03ddffd7921c"),
    ({"verifier": {"p": 0.25}, "l": 3, "strategy": {"kind": "local_unitaries", "unitary_seed": 5}, "seed": 33},
     "82c2496a7388b92b7cf57eb44fcc35618501c3dd3f4cb889023cf106d109f341",
     "59333d065ce73fe2433444a6bc5f18af639168a13a12274b7a386b5f41b3f063"),
    ({"experiment": "completeness", "mode": "exact", "verifier": {"p": 0.6}, "l": 3, "seed": 34},
     "a1d4a8129a707583a6a1d7ea094d936e2013b4e5234d64dc81c6dbb25906af4c",
     "2910d165281a150187b623944861352a6667a3f664587c52176ca36f47ee9841"),
    ({"experiment": "completeness", "verifier": {"p": 0.8, "a_qubits": 2}, "l": 2, "seed": 35},
     "216b9a97f27adb156d25428e9c9505d5e48d7dea1dc2ce20c3d92b0c82d3d18a",
     "4e0951b95eddb37acae82db451f0c01310bbf85d888517fc5cd90a0d1a640c79"),
    ({"verifier": {"p": 0.2}, "l": 2, "strategy": {"kind": "honest"}, "seed": 36},
     "3e54a3e074a8450c4eebef1ded4d7ab53d599b15ff16528df8568cd54f698988",
     "98e5f51838c50f073f9f54c264d170fee59db582896bba14374c333a9f94902b"),
    ({"mode": "exact", "verifier": {"p": 0.25, "p_qubits": 2}, "l": 3,
      "strategy": {"kind": "local_unitaries", "unitary_seed": 6}, "seed": 37},
     "6df457d5c03a3ffd55a8c3b1f4946d1312aa2cc3e12b3d0ab52e0ebb47ce3d71",
     "3953c69b8e4def14ff544ed7e9f9cce8975dcc3cbdd02eada48e33d5ca9c87ae"),
    # One trial past a chunk of rng.CHUNK_TRIALS (4096), recorded before
    # sampled runs kept their outcomes as arrays.
    ({"verifier": {"p": 0.2}, "l": 2, "strategy": {"kind": "idle_epr"}, "seed": 41, "trials": 4097},
     "632ae696f789c875b07e02abce57c1be410769f01c46b131420dfa4a058a2a73",
     "29e1b8389611fb315fefaa05eb0fe180716540767e1b0eaac083344c7543bf98"),
    ({"verifier": {"p": 0.3, "a_qubits": 2}, "l": 3, "strategy": {"kind": "choi_product", "q": 0.4}, "seed": 42,
      "trials": 4097},
     "988448077c45a6d7886aa063b6aaaeed1406d981f2bda343f232617b7432fd2f",
     "6e9f0559e2d21d1a85b2fcdfbab8599d45391901e65d16d89939ac9a39670acf"),
    ({"verifier": {"p": 0.25}, "l": 3, "strategy": {"kind": "local_unitaries", "unitary_seed": 7}, "seed": 43,
      "trials": 4097},
     "20bc3f41244a72510d407dffa2d0637f3201d1603c62dd09646b1a8a45dd4408",
     "cb7a0e68f80e87f0e43fa9b6193b7dcba7af3a3190d87529ebddb16849107905"),
]


@pytest.mark.parametrize("fields, json_sha, csv_sha", STREAM_CONTRACT)
def test_sampled_reports_match_recorded_digests(fields, json_sha, csv_sha):
    config = ExperimentConfig.from_dict(
        {"experiment": "soundness", "mode": "sampled", "trials": 400, **fields}
    )
    report = run_experiment(config)
    assert hashlib.sha256(emit_report(report, "json")).hexdigest() == json_sha
    assert hashlib.sha256(emit_report(report, "csv")).hexdigest() == csv_sha


@pytest.mark.parametrize("fields", [
    *({"l": 2, "strategy": {"kind": "idle_epr"}, "trials": trials} for trials in (1, 2, 4096, 4097, 8193)),
    *({"l": 3, "verifier": {"p": 0.3, "a_qubits": 2}, "strategy": {"kind": "local_unitaries", "unitary_seed": 8},
       "trials": trials} for trials in (1, 2, 4096, 4097, 8193)),
    # Two-digit pair fields.
    {"l": 10, "strategy": {"kind": "choi_product", "q": 0.3}, "trials": 20},
])
def test_sampled_bytes_match_the_tuple_row_run(fields):
    # A chunk of draws and of CSV rows is 4096 trials.
    config = ExperimentConfig.from_dict(
        {"experiment": "soundness", "mode": "sampled", "verifier": {"p": 0.2}, "seed": 12, **fields}
    )
    report = run_experiment(config)
    assert (emit_report(report, "json"), emit_report(report, "csv")) == tuple_row_reports(config)


def _sampled_memory(monkeypatch, fmt: str, trials: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """Two tracemalloc readings of a sampled run emitted as fmt, at each trial
    count: the highest memory read after a full collection, at each chunk
    the run draws and once the report is emitted, with the objects older
    than the run frozen, as in the lemma suite's memory test; and the peak
    tracemalloc itself saw, which also counts short-lived buffers."""
    highest = [0]
    real = rngmod.trial_draws

    def probe():
        gc.collect()
        highest[0] = max(highest[0], tracemalloc.get_traced_memory()[0])

    def trial_draws(seed, start, n, l):
        draws = real(seed, start, n, l)
        probe()
        return draws

    def run(n: int) -> None:
        config = ExperimentConfig.from_dict({"experiment": "soundness", "mode": "sampled", "l": 3, "trials": n})
        # As the CLI runs it: trial outcomes are kept only for CSV rows.
        report = run_experiment(config, fmt == "csv")
        payload = emit_report(report, fmt)
        probe()
        del payload, report

    run(trials[0])  # first-use allocations are made before either reading
    monkeypatch.setattr(rngmod, "trial_draws", trial_draws)
    out = []
    for n in trials:
        highest[0] = 0
        gc.collect()
        gc.freeze()
        tracemalloc.start()
        try:
            run(n)
            out.append((highest[0], tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
            gc.unfreeze()
    return tuple(out)


def test_sampled_json_memory_per_trial(monkeypatch):
    # A JSON report keeps no outcome of a trial; an outcome would be 8 bytes
    # a trial, and a tuple row about 117.
    (small, _), (large, _) = _sampled_memory(monkeypatch, "json", (20_000, 120_000))
    assert (large - small) / 100_000 <= 1, (small, large)


def test_sampled_csv_memory_per_trial_within_trial_row_bytes(monkeypatch):
    # validate's estimate of a sampled run's memory counts TRIAL_ROW_BYTES a
    # trial; a run and its CSV emission together must need no more.  The
    # slope is taken where trial indices have 5-6 digits; at 8 million
    # trials (7 digits) the emitted bytes and their chunks hold about 4 more
    # a trial.
    (_, small), (_, large) = _sampled_memory(monkeypatch, "csv", (20_000, 120_000))
    assert (large - small) / 100_000 + 4 <= TRIAL_ROW_BYTES, (small, large)


def test_exact_csv_schema():
    lines = emit_report(run_experiment(_config()), "csv").decode().splitlines()
    assert lines[0].startswith("experiment,mode,accept_probability,reject_probability,")
    assert len(lines) == 2


def test_summary_csv_matches_csv_writer():
    reports = [
        run_experiment(_config()),
        run_experiment(_config(experiment="soundness", strategy={"kind": "local_unitaries", "unitary_seed": 4})),
        run_experiment(ExperimentConfig.from_dict({"experiment": "lemmas", "trials": 3, "seed": 2})),
        run_experiment(ExperimentConfig.from_dict({"experiment": "swap-bench", "trials": 3, "seed": 2})),
    ]
    # Non-finite values, as a failing run can report them.
    reports.append(replace(reports[2], lemma_margins={"holder": {"min_margin": math.nan, "violations": 1, "samples": 2}}))
    reports.append(replace(reports[3], details={"max_error": math.inf, "identical_pure": -0.0}))
    for report in reports:
        assert emit_report(report, "csv") == csv_writer_summary(report)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["completeness", "--mode", "exact", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["accept_probability"] == pytest.approx(1.0, abs=1e-9)


def test_cli_config_file_and_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "soundness",
                "verifier": {"p": 1e-3},
                "strategy": {"kind": "idle_epr"},
                "seed": 5,
                "mode": "exact",
            }
        )
    )
    out = tmp_path / "r.json"
    code = main(["soundness", "--config", str(cfg_path), "--seed", "8", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["config"]["seed"] == 8  # flag beats config


def test_cli_invalid_config_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "completeness", "verifier": {"p": 2.0}}))
    assert main(["completeness", "--config", str(bad)]) == 1
    assert "invalid config" in capsys.readouterr().err


def test_cli_experiment_mismatch_exit_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "lemmas"}))
    assert main(["completeness", "--config", str(cfg)]) == 1


def test_cli_env_seed_default_and_flag_override(tmp_path, monkeypatch):
    monkeypatch.setenv("EPRVERIFY_SEED", "1234")
    out = tmp_path / "r.json"
    assert main(["completeness", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 1234
    assert main(["completeness", "--seed", "77", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 77


def test_cli_validation_failure_exit_two(tmp_path):
    # a zero swap tolerance forces the swap-bench gate to trip on rounding error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "swap-bench", "trials": 20, "tolerances": {"swap": 0.0}})
    )
    out = tmp_path / "r.json"
    assert main(["swap-bench", "--config", str(cfg), "--out", str(out)]) == 2


def test_cli_lemmas_nan_margin_exit_two(tmp_path, monkeypatch):
    # A NaN margin between two finite ones leaves min_margin finite, so only
    # the violation count shows it.
    draws = iter([1.0, np.nan, 2.0])
    monkeypatch.setattr(harness, "holder_margin", lambda a, b: np.array([next(draws) for _ in a]))
    out = tmp_path / "r.json"
    assert main(["lemmas", "--trials", "3", "--seed", "1", "--out", str(out)]) == 2
    holder = json.loads(out.read_text())["lemma_margins"]["holder"]
    assert holder["min_margin"] == 1.0 and holder["violations"] == 1


def _swap_circuits_with(monkeypatch, values: dict) -> None:
    """Make the stacked SWAP circuit return values[m] for the m-th case it is
    given, counted over its calls; a chunk's one-qubit cases come before its
    two-qubit ones, and the two pure checks come last."""
    real = harness.swap_test
    seen = [0]

    def circuit(joint):
        out = real(joint)
        for i in range(len(out)):
            out[i] = values.get(seen[0] + i, out[i])
        seen[0] += len(out)
        return out

    monkeypatch.setattr(harness, "swap_test", circuit)


def _swap_bench_max_error(tmp_path, trials: int):
    out = tmp_path / "r.json"
    assert main(["swap-bench", "--trials", str(trials), "--seed", "1", "--out", str(out)]) == 2

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(out.read_text(), parse_constant=reject)["details"]["max_error"]


def test_cli_swap_bench_nan_error_exit_two(tmp_path, monkeypatch):
    # Of 4 cases, the circuit is given cases 0 and 2, then 1 and 3.
    _swap_circuits_with(monkeypatch, {2: np.nan})
    assert _swap_bench_max_error(tmp_path, 4) is None


def test_cli_swap_bench_nan_after_a_larger_error_exit_two(tmp_path, monkeypatch):
    # Case 10, the 6th case given, has an error near 9, and case 261, in the
    # second chunk after its 22 one-qubit cases, a NaN: the NaN is kept.
    _swap_circuits_with(monkeypatch, {5: 10.0, 256 + 22 + 2: np.nan})
    assert _swap_bench_max_error(tmp_path, 300) is None


def test_cli_swap_bench_large_error_exit_two(tmp_path, monkeypatch):
    # The same large error with no NaN after it is the reported maximum.
    _swap_circuits_with(monkeypatch, {5: 10.0})
    assert 8.5 < _swap_bench_max_error(tmp_path, 300) < 9.5


def test_failures_flag_non_finite_lemma_and_swap_figures():
    base = dict(config={}, accept_probability=None, reject_probability=None, branches=None,
                details=None, trial_outcomes=None)
    entry = {"min_margin": float("nan"), "violations": 0, "samples": 1}
    assert harness.ExperimentReport(**{**base, "lemma_margins": {"holder": entry}}).failures()
    swap = {"max_error": float("nan")}
    assert harness.ExperimentReport(**{**base, "lemma_margins": None, "details": swap}).failures()


# sha256 of the JSON and CSV reports of lemmas and swap-bench runs, recorded
# before the suite was evaluated on stacks (the lemmas and 40-trial swap-bench
# entries) and before swap-bench was (the other swap-bench entries); 300 lemma
# trials and 257 and 513 SWAP cases cross the boundary between two chunks of
# LEMMA_CHUNK_TRIALS.  Their margins are floats,
# so they also pin the rounding of numpy 2.4 with OpenBLAS on x86-64.
LEMMA_AND_SWAP_DIGESTS = [
    ({"experiment": "lemmas", "trials": 80, "seed": 5},
     "7f89719b20b3c36c8f98bbfa66ae55fade2152db9430c1f32e5b7916f5f26861",
     "6bfaf560d4b91fea9ae34d7ab2a01a48f88fb6825265cbfa00015d4b8bb09cc2"),
    ({"experiment": "lemmas", "trials": 300, "seed": 2},
     "f7a7081a8a0c122b47820954d74d3c2a4f28e52d40b7163cbb3c9047905c2e3d",
     "2d812f33c56fa0f1f87ad7215fcaae44aa63d83d9f4aebad99e06c03e880d81c"),
    ({"experiment": "swap-bench", "trials": 40, "seed": 3},
     "5e18aab93ceef778c5b55c144848f2ae1495b425b94b85a5339d329bbf49334a",
     "ced00e720db8d4e37110f2a50f8f90e1998646589256555c9aea400e3b79c4c9"),
    ({"experiment": "swap-bench", "trials": 1, "seed": 3},
     "5079aa312205364d626782f783e772f0ed2f2f4badb1b6b86a2946818391fba7",
     "fea5dfdc166c6c3ccdbdb61b8e231e4ad88b08f6e54accefdebdb0b7719d96a3"),
    ({"experiment": "swap-bench", "trials": 257, "seed": 4},
     "d5136d4aaee7304130a38d9d5af073ab9f2be47fee4af15030d674569e77bf12",
     "092bceb2b064268d8c4e3d7ae4e0d4868b8f8d627edd0d07df559c35bc9e742e"),
    ({"experiment": "swap-bench", "trials": 513, "seed": 5},
     "9dfdfa81820a0158291cfd273cd4ea5a4030ff4a7a9abe80a90bdb34eb5fee78",
     "6f766e90c37d3db456f41b970da3feac9a36cb685cdc1572f29a845bdd0393a1"),
]


@pytest.mark.parametrize("fields, json_sha, csv_sha", LEMMA_AND_SWAP_DIGESTS)
def test_lemma_and_swap_reports_match_recorded_digests(fields, json_sha, csv_sha):
    report = run_experiment(ExperimentConfig.from_dict(fields))
    assert hashlib.sha256(emit_report(report, "json")).hexdigest() == json_sha
    assert hashlib.sha256(emit_report(report, "csv")).hexdigest() == csv_sha


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "lemmas", "tolerances": {"margin": "abc"}},
        {"experiment": "completeness", "tolerances": {"branch_sum": "nan"}},
        {"experiment": "lemmas", "tolerances": {"margin": float("nan")}},
        {"experiment": "swap-bench", "tolerances": {"swap": float("inf")}},
        {"experiment": "lemmas", "tolerances": {"margin": -1.0}},
        {"experiment": "soundness", "strategy": {"kind": "local_unitaries", "unitary_seed": "x"}},
        {"experiment": "soundness", "strategy": {"kind": "local_unitaries", "unitary_seed": 1.5}},
        {"experiment": "soundness", "strategy": {"kind": "choi_product", "q": "abc"}},
        pytest.param({"experiment": "lemmas", "tolerances": {"margin": 10**400}}, id="tolerance-huge-int"),
        pytest.param({"experiment": "completeness", "l": 2.9}, id="l-float"),
        pytest.param({"experiment": "soundness", "mode": "sampled", "trials": 1.5}, id="trials-float"),
        pytest.param({"experiment": "completeness", "seed": 7.8}, id="seed-float"),
        pytest.param({"experiment": "completeness", "seed": 2**63}, id="seed-2**63"),
        pytest.param({"experiment": "completeness", "seed": -(2**63) - 1}, id="seed-below-minus-2**63"),
        pytest.param({"experiment": "soundness", "strategy": {"kind": "local_unitaries", "unitary_seed": 2**64 - 1}},
                     id="unitary_seed-2**64-1"),
        pytest.param({"experiment": "completeness", "verifier": {"p_qubits": 1.7}}, id="p_qubits-float"),
        pytest.param({"experiment": "completeness", "verifier": {"a_qubits": True}}, id="a_qubits-bool"),
        pytest.param({"experiment": "soundness", "verifier": {"p": "0.5"}}, id="p-string"),
        pytest.param({"experiment": "soundness", "verifier": {"p": 10**400}}, id="p-huge-int"),
        pytest.param({"experiment": "completeness", "verifier": [["p", 0.75]]}, id="verifier-list"),
        pytest.param({"experiment": "soundness", "strategy": [["kind", "idle_epr"]]}, id="strategy-list"),
        pytest.param({"experiment": "lemmas", "tolerances": [["margin", 1e-9]]}, id="tolerances-list"),
        pytest.param({"experiment": "completeness", "verifier": {"p": 0.5, "junk": 1}}, id="verifier-unknown-key"),
        pytest.param({"experiment": "soundness", "strategy": {"kind": "idle_epr", "q": 5, "junk": 1}},
                     id="strategy-unknown-keys"),
        pytest.param({"experiment": "lemmas", "strategy": {"kind": "custom"}}, id="lemmas-strategy-kind"),
        pytest.param({"experiment": "lemmas", "strategy": {"kind": "choi_product", "q": 0.3}}, id="lemmas-strategy"),
        pytest.param({"experiment": "lemmas", "verifier": {"p": 0.5}}, id="lemmas-verifier"),
        pytest.param({"experiment": "swap-bench", "l": 2}, id="swap-bench-l"),
        pytest.param({"experiment": "swap-bench", "mode": "exact"}, id="swap-bench-mode"),
        pytest.param({"experiment": "completeness", "verifier": {"p": 0.3}}, id="completeness-p-below-half"),
        pytest.param({"experiment": "completeness", "strategy": {"kind": "choi_product", "q": 0.3}},
                     id="completeness-choi_product"),
        pytest.param({"experiment": "completeness", "strategy": {"kind": "idle_epr"}}, id="completeness-idle_epr"),
    ],
)
def test_cli_bad_config_value_exit_one(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([config["experiment"], "--config", str(cfg)]) == 1
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["lemmas", "swap-bench"])
def test_cli_lemmas_and_swap_bench_take_no_protocol_fields(tmp_path, capsys, experiment):
    assert main([experiment, "--mode", "sampled"]) == 1
    assert f"invalid config: {experiment} takes only trials, seed and tolerances, got ['mode']" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "verifier": {}, "l": 3, "mode": "exact", "trials": 2}))
    assert main([experiment, "--config", str(cfg)]) == 1
    assert "got ['l', 'mode', 'verifier']" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["lemmas", "swap-bench"])
@pytest.mark.parametrize("fields, unused", [
    ({"strategy": {"kind": "choi_product", "q": 0.3}, "l": 7, "mode": "sampled", "p": 0.2},
     ["l", "mode", "p", "strategy"]),
    ({"p_qubits": 2}, ["p_qubits"]), ({"a_qubits": 3}, ["a_qubits"]), ({"p": 1}, ["p"]),
])
def test_validate_refuses_library_built_lemmas_and_swap_bench_with_protocol_fields(experiment, fields, unused):
    # A library caller bypasses from_dict's key check; validate compares the
    # values with the defaults the report would otherwise echo.
    config = ExperimentConfig(experiment=experiment, trials=2, **{"strategy": {"kind": "idle_epr"}, **fields})
    with pytest.raises(ConfigError, match=re.escape(f"{experiment} takes only trials, seed and tolerances, got {unused}")):
        config.validate()
    ExperimentConfig(experiment=experiment, strategy={"kind": "idle_epr"}, trials=2, seed=5, p=0.75, l=2).validate()


def _cli_process(*args: str) -> subprocess.CompletedProcess:
    """The CLI as a process, so that an uncaught error shows as a traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "eprverify.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("p, code", [(0.3, 1), (0.5, 0)])
def test_cli_completeness_needs_p_one_half(tmp_path, p, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "completeness", "verifier": {"p": p}, "l": 3}))
    out = tmp_path / "r.json"
    proc = _cli_process("completeness", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert json.loads(out.read_text())["accept_probability"] == pytest.approx(1.0, abs=1e-9)
    else:
        assert "invalid config: completeness needs verifier p >= 1/2" in proc.stderr


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b"\xff\xfe{}", "is not valid UTF-8", id="not-utf8"),
        pytest.param(b'{"seed": ' + b"7" * 5000 + b"}", "holds an unreadable number", id="int-5000-digits"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "nests too deeply to read", id="nested-100000-deep"),
    ],
)
def test_cli_unreadable_config_exit_one(tmp_path, content, message):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    proc = _cli_process("soundness", "--config", str(cfg))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"invalid config: config {cfg} {message}" in proc.stderr


@pytest.mark.parametrize(
    "fields, args",
    [
        pytest.param('"strategy": {"kind": "' + "k" * 1_000_000 + '"}', [], id="kind-1e6-chars"),
        pytest.param('"strategy": {"kind": ' + "[" * 985 + "]" * 985 + "}", [], id="kind-985-deep"),
        pytest.param('"' + "x" * 100_000 + '": 1', [], id="field-name-1e5-chars"),
        pytest.param('"trials": [' + ", ".join(["[0, 1]"] * 10_000) + "]", [], id="trials-10000-lists"),
        pytest.param('"mode": "sampled"', ["--seed", "1" * 4000 + "x"], id="seed-flag-4001-chars"),
    ],
)
def test_cli_config_errors_echo_a_bounded_value(tmp_path, fields, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "soundness", ' + fields + "}")
    proc = _cli_process("soundness", "--config", str(cfg), *args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "invalid config" in proc.stderr and len(proc.stderr.encode()) < 1024


def test_cli_config_for_another_experiment_echoes_a_bounded_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "e" * 100_000}))
    assert main(["soundness", "--config", str(cfg)]) == 1
    assert len(capsys.readouterr().err) < 1024


@pytest.mark.parametrize(
    "env_seed, args",
    [
        (" 1_0 ", []),
        ("\u0663", []),  # an Arabic-Indic digit, which int() reads as 3
        ("+5", []),
        ("9" * 5000, []),  # more digits than int() converts
        (None, ["--seed", "1_0"]),
        (None, ["--seed", "\u0663"]),
        (None, ["--trials", "1_0"]),
        (None, ["--trials", " 20"]),
    ],
)
def test_cli_integers_are_ascii_digits_only(monkeypatch, capsys, env_seed, args):
    if env_seed is None:
        monkeypatch.delenv("EPRVERIFY_SEED", raising=False)
    else:
        monkeypatch.setenv("EPRVERIFY_SEED", env_seed)
    assert main(["lemmas", *args]) == 1
    assert "must be an integer" in capsys.readouterr().err


def test_cli_over_memory_budget_exit_one(tmp_path, capsys):
    # rejected from the estimate alone: l = 40 would need 2^81 amplitudes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "completeness", "l": 40}))
    assert main(["completeness", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "estimated 1.26e+17 GiB" in err and "1 GiB budget" in err


def test_cli_sampled_trials_over_memory_budget_exit_one(tmp_path, capsys, monkeypatch):
    # each sampled trial keeps a row, so 10^10 trials are rejected from the estimate alone
    def never(config):
        raise AssertionError("the over-budget config reached run_experiment")

    monkeypatch.setattr("eprverify.cli.run_experiment", never)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "soundness", "mode": "sampled", "trials": 10**10}))
    assert main(["soundness", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "10000000000 trial rows need an estimated 1.19e+03 GiB" in err and "1 GiB budget" in err


def _memory_terms(p: int, a: int, l: int, trial_rows: int = 0) -> list[int]:
    """The terms of memory_estimate, in bytes: the proof vector and two
    copies, the primed marginal, V and two conjugates of it, the pair
    reductions once, the coin-0 map G and its conjugate, and for each tree of
    the largest stacked call its input, its two S2-diagonal blocks and their
    products with G; then the trial rows."""
    trees = min(tree_stack(p, a), l * (l - 1)) if trial_rows else 1
    return [16 * 3 * 2 ** (p + 2 * l), 16 * 4**l, 16 * 3 * 4 ** (p + a),
            16 * l * (l - 1) * 4 ** (p + 4), 16 * 2 ** (2 * p + a + 7),
            16 * trees * (4 ** (p + 4) + 2 ** (2 * p + 7) + 2 ** (2 * p + a + 7)),
            TRIAL_ROW_BYTES * trial_rows]


def test_sampled_memory_budget_boundary_counts_a_stack_of_trees():
    # A sampled run counts its l(l-1) pair reductions, 4^(p+4) entries each,
    # and the trees of its largest stacked call, min(tree_stack(p, a),
    # l(l-1)) of them at 4^(p+4) + 2^(2p+7) + 2^(2p+a+7) entries each, and one
    # trial row more than fits puts it over the budget.
    for p, a, l, trees in ((1, 1, 3, 6), (1, 1, 4, tree_stack(1, 1)), (1, 2, 3, 2), (1, 7, 3, 1)):
        base = {"experiment": "soundness", "mode": "sampled", "l": l, "verifier": {"p": 0.2, "p_qubits": p, "a_qubits": a}}
        assert min(tree_stack(p, a), l * (l - 1)) == trees
        fixed = sum(_memory_terms(p, a, l, 1)) - TRIAL_ROW_BYTES
        most = (MEMORY_BUDGET_BYTES - fixed) // TRIAL_ROW_BYTES
        assert memory_estimate(p, a, l, most) == fixed + most * TRIAL_ROW_BYTES <= MEMORY_BUDGET_BYTES
        ExperimentConfig.from_dict({**base, "trials": most})
        with pytest.raises(ConfigError, match=f"{most + 1} trial rows need"):
            ExperimentConfig.from_dict({**base, "trials": most + 1})
    # An exact run, with no trial rows, counts its pair reductions and one tree.
    assert memory_estimate(1, 1, 4) == 16 * (3 * 2**9 + 4**4 + 3 * 4**2 + 2**10 + 12 * 4**5
                                             + 4**5 + 2**9 + 2**10)


# tracemalloc's peak over a run's estimate that no term of the estimate
# covers: the draws of a chunk of trials, the trees' outcome lists, the
# toy's small arrays and the interpreter's own objects.
MEMORY_ALLOWANCE_BYTES = 512 * 1024


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_memory_estimate_bounds_the_traced_peak(mode):
    # Each shape's largest term differs: the tree's products with G at
    # a_qubits = 4-5 (over 1 MiB at p_qubits = 3), the proof vector at l = 8,
    # the pair reductions at p_qubits = 2, l = 5.  At p_qubits = 4, a_qubits
    # = 1 a tree's product with G is as large as its input, and a sampled run
    # peaks there, beside its pair reductions.
    # local_unitaries makes every reduction distinct, a sampled run's worst case.
    def config(p, a, l):
        return ExperimentConfig.from_dict({
            "experiment": "soundness", "mode": mode, "trials": 2000, "l": l, "seed": 1,
            "strategy": {"kind": "local_unitaries", "unitary_seed": 5}, "verifier": {"p": 0.3, "p_qubits": p, "a_qubits": a},
        })

    # First-use allocations (numpy's lazy imports and caches) are made before any reading.
    emit_report(run_experiment(config(1, 1, 2)), "csv")
    rows = 2000 if mode == "sampled" else 0
    for p, a, l in ((1, 5, 2), (2, 4, 2), (3, 4, 2), (1, 4, 3), (1, 1, 8), (2, 2, 5), (1, 2, 6), (4, 1, 4), (1, 1, 2)):
        gc.collect()
        tracemalloc.start()
        try:
            emit_report(run_experiment(config(p, a, l)), "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        terms = _memory_terms(p, a, l, rows)
        estimate = memory_estimate(p, a, l, rows)
        assert estimate == sum(terms)
        assert peak <= estimate + MEMORY_ALLOWANCE_BYTES, (p, a, l, peak, estimate)
        if max(terms) >= 2**20:
            assert estimate <= 4 * peak, (p, a, l, peak, estimate)


def test_cli_exact_run_over_memory_budget_from_its_pair_reductions_exit_one(tmp_path, capsys, monkeypatch):
    # p_qubits = 7, l = 6: the proof, V and the tree need about 0.25 GiB,
    # but the 30 pair reductions a run holds, 4^11 entries each, need 1.9 GiB
    # more.
    def never(config):
        raise AssertionError("the over-budget config reached run_experiment")

    monkeypatch.setattr("eprverify.cli.run_experiment", never)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "soundness", "l": 6, "verifier": {"p_qubits": 7, "a_qubits": 1}}))
    assert sum(_memory_terms(7, 1, 6)) - _memory_terms(7, 1, 6)[3] < 0.4 * MEMORY_BUDGET_BYTES
    assert main(["soundness", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "0 trial rows need an estimated 2.12 GiB" in err and "1 GiB budget" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_keeps_sampled_trial_outcomes_only_for_csv(tmp_path, monkeypatch, fmt):
    reports = []

    def recorded(*args):
        reports.append(run_experiment(*args))
        return reports[-1]

    monkeypatch.setattr("eprverify.cli.run_experiment", recorded)
    monkeypatch.delenv("EPRVERIFY_SEED", raising=False)
    out = tmp_path / f"report.{fmt}"
    assert main(["soundness", "--mode", "sampled", "--trials", "50", "--format", fmt, "--out", str(out)]) == 0
    assert (reports[0].trial_outcomes is not None) == (fmt == "csv")
    # The bytes are those of the run that keeps the outcomes.
    config = ExperimentConfig.from_dict({"experiment": "soundness", "mode": "sampled", "trials": 50})
    assert out.read_bytes() == emit_report(run_experiment(config), fmt)


def test_sampled_report_without_trial_outcomes_refuses_csv():
    config = ExperimentConfig.from_dict({"experiment": "soundness", "mode": "sampled", "trials": 50})
    report = run_experiment(config, False)
    assert report.trial_outcomes is None
    assert json.loads(emit_report(report, "json")) == json.loads(emit_report(run_experiment(config), "json"))
    with pytest.raises(ValueError, match="kept none"):
        emit_report(report, "csv")


def test_benchmark_sized_configs_are_well_under_memory_budget():
    # The largest exact-sweep cell: its 20 pair reductions are 1.3 MB of the 1.90 MB.
    assert memory_estimate(p_qubits=2, a_qubits=2, l=5) == 16 * (3 * 2**12 + 4**5 + 3 * 4**4 + 2**13 + 20 * 4**6
                                                                 + 4**6 + 2**11 + 2**13)
    assert memory_estimate(p_qubits=2, a_qubits=2, l=5) < MEMORY_BUDGET_BYTES / 400
    assert memory_estimate(p_qubits=1, a_qubits=1, l=10) < MEMORY_BUDGET_BYTES
    assert memory_estimate(p_qubits=1, a_qubits=1, l=2, trial_rows=100_000) < MEMORY_BUDGET_BYTES / 50


def test_cli_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["unknown-subcommand"])
    assert err.value.code == 1
