"""Batch experiment runner: completeness/soundness sweeps, the inequality
suite, and a SWAP-test benchmark, with JSON/CSV reports.

Reports are deterministic functions of (config, seed); they hold no timing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import rng as rngmod
from .channels import pinch_phi
from .kernel import DensityOperator, layout, tensor_product
from .linalg import partial_trace as partial_trace_positions
from .metrics import (
    additive_perturbation_margin,
    fvg_margins,
    gentle_margin,
    holder_margin,
    mixture_perturbation_margin,
    monotonicity_margin,
    triangle_margin,
)
from .protocol import (
    BRANCH_KEYS,
    DEFAULT_STRATEGY,
    REJECT_KEYS,
    ProtocolRun,
    _is_int,
    _is_number,
    check_strategy,
    cheating_proof,
    honest_proof,
    make_toy_verifier,
    shown,
    swap_test,
)
from .sampling import (
    random_complex_matrix,
    random_density,
    random_projector,
    random_pure,
    random_unitary,
)

EXPERIMENTS = ("completeness", "soundness", "lemmas", "swap-bench")

DEFAULT_TOLERANCES = {
    "margin": 1e-9,
    "branch_sum": 1e-9,
    "swap": 1e-12,
}

# Completeness and soundness configs whose estimated memory exceeds this are
# rejected before anything is allocated.
MEMORY_BUDGET_BYTES = 2**30
# Bytes one sampled trial's row holds: the row tuple, its trial index and the
# list slot (tracemalloc over 100 000 trials, CPython 3.11).
TRIAL_ROW_BYTES = 128


def memory_estimate(p_qubits: int, a_qubits: int, l: int, trial_rows: int = 0) -> float:
    """Bytes of the largest allocations of a protocol run, each counted once.

    The proof vector and its transposed copy (2 x 2^(p+2l) entries), the marginal
    of the primed pair halves (4^l), the toy verifier V (4^(p+a)) and a pair
    tree's state once the ancilla joins it (4^(p+a+3)), at 16 bytes an entry;
    plus the rows of a sampled run.  Sizes too large for a float give inf.
    """
    def entries(log2: int) -> float:
        return 2.0**log2 if log2 < 1000 else math.inf

    p, a = p_qubits, a_qubits
    total = 2 * entries(p + 2 * l) + entries(2 * l) + entries(2 * (p + a)) + entries(2 * (p + a + 3))
    rows = trial_rows if trial_rows < 2**1000 else math.inf
    return 16 * total + TRIAL_ROW_BYTES * rows


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    p: float = 0.75
    p_qubits: int = 1
    a_qubits: int = 1
    l: int = 2
    strategy: dict = field(default_factory=lambda: dict(DEFAULT_STRATEGY))
    trials: int = 1000
    seed: int = 0
    mode: str = "exact"
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {shown(self.experiment)}, expected one of {EXPERIMENTS}")
        for name, least in (("p_qubits", 1), ("a_qubits", 1), ("l", 2), ("trials", 1)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {shown(value)}")
        if not rngmod.is_seed(self.seed):
            raise ConfigError(f"seed must be an integer in [-2**63, 2**63), got {shown(self.seed)}")
        if not _is_number(self.p) or not 0.0 < self.p <= 1.0:
            raise ConfigError(f"verifier p must be a number in (0, 1], got {shown(self.p)}")
        if self.experiment == "completeness" and self.p < 0.5:
            raise ConfigError(f"completeness needs verifier p >= 1/2, where an honest proof exists, got {self.p}")
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"mode must be exact or sampled, got {shown(self.mode)}")
        try:
            check_strategy(self.strategy)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance overrides: {shown(sorted(unknown))}")
        for name, value in self.tolerances.items():
            if not _is_number(value) or not 0 <= value <= sys.float_info.max:
                raise ConfigError(f"tolerance {name} must be a finite number >= 0, got {shown(value)}")
        if self.experiment in ("completeness", "soundness"):
            rows = self.trials if self.mode == "sampled" else 0
            need = memory_estimate(self.p_qubits, self.a_qubits, self.l, rows)
            if need > MEMORY_BUDGET_BYTES:
                raise ConfigError(
                    f"l={self.l}, p_qubits={self.p_qubits}, a_qubits={self.a_qubits}, {rows} trial rows "
                    f"need an estimated {need / 2**30:.3g} GiB, over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB budget"
                )

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            # p echoes as a float whether the config gave 1 or 1.0
            "verifier": {"p": float(self.p), "p_qubits": self.p_qubits, "a_qubits": self.a_qubits},
            "l": self.l,
            "strategy": dict(self.strategy),
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "tolerances": dict(self.tolerances),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {"experiment", "verifier", "l", "strategy", "trials", "seed", "mode", "tolerances"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {shown(sorted(unknown))}")
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' field")
        for name in ("verifier", "strategy", "tolerances"):
            if not isinstance(data.get(name, {}), dict):
                raise ConfigError(f"{name!r} must be an object, got {shown(data[name])}")
        verifier = data.get("verifier", {})
        unknown = set(verifier) - {"p", "p_qubits", "a_qubits"}
        if unknown:
            raise ConfigError(f"unknown verifier fields: {shown(sorted(unknown))}")
        # Values are taken as they are, never converted: validate checks their types.
        config = cls(**{k: v for k, v in data.items() if k != "verifier"}, **verifier)
        config.validate()
        return config


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    accept_probability: float | None
    reject_probability: float | None
    branches: dict | None
    lemma_margins: dict | None
    details: dict | None
    trial_rows: list[tuple] | None
    version: str = __version__

    def failures(self) -> list[str]:
        """Invariant violations that should fail the run (CLI exit code 2)."""
        tolerances = {**DEFAULT_TOLERANCES, **self.config.get("tolerances", {})}
        found = []
        if self.branches is not None and self.config.get("mode") == "exact":
            total = sum(self.branches.values())
            if abs(total - 1.0) > tolerances["branch_sum"]:
                found.append(f"branch masses sum to {total!r}, not 1")
        if self.lemma_margins is not None:
            for name, entry in self.lemma_margins.items():
                if entry["min_margin"] < -tolerances["margin"]:
                    found.append(f"lemma {name} margin {entry['min_margin']:.3e} below -{tolerances['margin']}")
        if self.details is not None and "max_error" in self.details:
            if self.details["max_error"] > tolerances["swap"]:
                found.append(f"swap-bench max error {self.details['max_error']:.3e} above {tolerances['swap']}")
        return found


# The CSV fields (b, postsel, verdict) of a sampled trial, by branch key.
_ROW_FIELDS = {
    "b0_postsel_fail": (0, "fail", "accept"),
    "b0_allzero_reject": (0, "success", "reject"),
    "b0_measured_accept": (0, "success", "accept"),
    "b1_swap_accept": (1, "", "accept"),
    "b1_swap_reject": (1, "", "reject"),
}


def _run_protocol_experiment(config: ExperimentConfig) -> ExperimentReport:
    toy = make_toy_verifier(config.p, config.p_qubits, config.a_qubits)
    if config.experiment == "completeness":
        proof = honest_proof(toy, config.l)
    else:
        proof = cheating_proof(config.strategy, toy, config.l)
    run = ProtocolRun(proof, toy)
    if config.mode == "exact":
        result = run.exact()
        return ExperimentReport(
            config=config.to_dict(),
            accept_probability=result.accept_probability,
            reject_probability=result.reject_probability,
            branches=dict(result.branches),
            lemma_margins=None,
            details=None,
            trial_rows=None,
        )
    counts = {k: 0 for k in BRANCH_KEYS}
    rows = []
    for t, (key, (i, j)) in enumerate(run.sample(config.seed, config.trials)):
        counts[key] += 1
        coin, postsel, verdict = _ROW_FIELDS[key]
        rows.append((t, coin, i, j, postsel, verdict))
    n = config.trials
    accepts = n - sum(counts[k] for k in REJECT_KEYS)
    return ExperimentReport(
        config=config.to_dict(),
        accept_probability=accepts / n,
        reject_probability=1.0 - accepts / n,
        branches={k: counts[k] / n for k in BRANCH_KEYS},
        lemma_margins=None,
        details={"trials": n},
        trial_rows=rows,
    )


# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

def _ptrace_channel(rng: np.random.Generator, n_qubits: int):
    keep = sorted(rng.choice(n_qubits, size=int(rng.integers(1, n_qubits)), replace=False))
    return lambda m: partial_trace_positions(m, n_qubits, list(keep))


def lemma_suite(trials: int, seed: int, tol: float) -> dict[str, dict]:
    """Min margin and violation count over random instances of each inequality.

    Margins are folded in as they are drawn, so memory does not grow with trials.
    """
    out: dict[str, dict] = {}

    def record(name: str, margin: float) -> None:
        # The first margin seeds the minimum and only a smaller one replaces
        # it, as min() does, so a NaN margin is kept or skipped as min() would.
        entry = out.setdefault(name, {"min_margin": margin, "violations": 0, "samples": 0})
        if margin < entry["min_margin"]:
            entry["min_margin"] = margin
        if margin < -tol:
            entry["violations"] += 1
        entry["samples"] += 1

    def dims(rng: np.random.Generator) -> int:
        return int(rng.integers(2, 17))

    rng = rngmod.stream(seed, 1)
    for _ in range(trials):
        d = dims(rng)
        record("holder", holder_margin(random_complex_matrix(rng, d), random_complex_matrix(rng, d)))
    rng = rngmod.stream(seed, 2)
    for _ in range(trials):
        d = dims(rng)
        a, b, c = (random_complex_matrix(rng, d) for _ in range(3))
        record("triangle", triangle_margin(a, b, c))
    rng = rngmod.stream(seed, 3)
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        channel = _ptrace_channel(rng, n)
        record("monotonicity_partial_trace",
               monotonicity_margin(random_density(rng, 2**n), random_density(rng, 2**n), channel))
    rng = rngmod.stream(seed, 4)
    for _ in range(trials):
        record("monotonicity_pinch",
               monotonicity_margin(random_density(rng, 4), random_density(rng, 4), pinch_phi))
    rng = rngmod.stream(seed, 5)
    for _ in range(trials):
        d = dims(rng)
        u = random_unitary(rng, d)
        record("monotonicity_unitary", monotonicity_margin(
            random_density(rng, d), random_density(rng, d), lambda m: u @ m @ u.conj().T
        ))
    rng = rngmod.stream(seed, 6)
    for _ in range(trials):
        d = dims(rng)
        lo, up = fvg_margins(random_density(rng, d), random_density(rng, d))
        record("fvg_lower", lo)
        record("fvg_upper", up)
    rng = rngmod.stream(seed, 7)
    kept = 0
    while kept < trials:
        d = dims(rng)
        rho = random_density(rng, d)
        projector = random_projector(rng, d, int(rng.integers(1, d)))
        if np.trace(rho @ projector).real >= 1.0 - 1e-6:
            continue
        record("gentle", gentle_margin(rho, projector))
        kept += 1
    rng = rngmod.stream(seed, 8)
    for _ in range(trials):
        d = dims(rng)
        eps = float(rng.uniform(0.0, 1.0))
        bump = eps * float(rng.uniform(0.0, 1.0)) * random_density(rng, d)
        record("perturbation_additive", additive_perturbation_margin(random_complex_matrix(rng, d), bump, eps))
    rng = rngmod.stream(seed, 9)
    for _ in range(trials):
        d = dims(rng)
        eps = float(rng.uniform(0.0, 0.999))
        record("perturbation_mixture",
               mixture_perturbation_margin(random_density(rng, d), random_density(rng, d), eps))
    for entry in out.values():
        entry["min_margin"] = float(entry["min_margin"])
    return out


def _run_lemma_suite(config: ExperimentConfig) -> ExperimentReport:
    margins = lemma_suite(config.trials, config.seed, config.tolerance("margin"))
    checks = sum(entry["samples"] for entry in margins.values())
    return ExperimentReport(
        config=config.to_dict(),
        accept_probability=None,
        reject_probability=None,
        branches=None,
        lemma_margins=margins,
        details={"total_checks": checks},
        trial_rows=None,
    )


# ---------------------------------------------------------------------------
# SWAP benchmark
# ---------------------------------------------------------------------------

def _swap_case(rho: np.ndarray, sigma: np.ndarray, k: int) -> tuple[float, float]:
    left = DensityOperator(layout(("L", k)), rho, validate=False)
    right = DensityOperator(layout(("R", k)), sigma, validate=False)
    state = tensor_product(left, right)
    circuit = swap_test(state, ["L"], ["R"])
    formula = float((1.0 + np.trace(rho @ sigma).real) / 2.0)
    return circuit, formula


def _run_swap_bench(config: ExperimentConfig) -> ExperimentReport:
    rng = rngmod.stream(config.seed, 0)
    max_error = 0.0
    for t in range(config.trials):
        k = 1 if t % 2 == 0 else 2
        circuit, formula = _swap_case(random_density(rng, 2**k), random_density(rng, 2**k), k)
        max_error = max(max_error, abs(circuit - formula))
    psi = random_pure(rng, 2)
    same, _ = _swap_case(np.outer(psi, psi.conj()), np.outer(psi, psi.conj()), 1)
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    one = np.array([[0, 0], [0, 1]], dtype=complex)
    orth, _ = _swap_case(zero, one, 1)
    return ExperimentReport(
        config=config.to_dict(),
        accept_probability=None,
        reject_probability=None,
        branches=None,
        lemma_margins=None,
        details={
            "max_error": max_error,
            "identical_pure": same,
            "orthogonal_pure": orth,
        },
        trial_rows=None,
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Deterministic report for the configured experiment; exact mode ignores trials."""
    config.validate()
    if config.experiment in ("completeness", "soundness"):
        return _run_protocol_experiment(config)
    if config.experiment == "lemmas":
        return _run_lemma_suite(config)
    return _run_swap_bench(config)


def emit_report(report: ExperimentReport, fmt: str = "json") -> bytes:
    """Serialize a report with stable field ordering."""
    if fmt == "json":
        obj = {
            "version": report.version,
            "config": report.config,
            "accept_probability": report.accept_probability,
            "reject_probability": report.reject_probability,
            "branches": report.branches,
            "lemma_margins": report.lemma_margins,
            "details": report.details,
        }
        return (json.dumps(obj, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if report.trial_rows is not None:
            writer.writerow(["trial", "b", "pair_i", "pair_j", "postsel", "verdict"])
            writer.writerows(report.trial_rows)
        elif report.lemma_margins is not None:
            writer.writerow(["lemma", "min_margin", "violations", "samples"])
            for name, entry in report.lemma_margins.items():
                writer.writerow([name, repr(entry["min_margin"]), entry["violations"], entry["samples"]])
        elif report.branches is not None:
            writer.writerow(
                ["experiment", "mode", "accept_probability", "reject_probability", *BRANCH_KEYS]
            )
            writer.writerow(
                [
                    report.config["experiment"],
                    report.config["mode"],
                    repr(report.accept_probability),
                    repr(report.reject_probability),
                    *(repr(report.branches[k]) for k in BRANCH_KEYS),
                ]
            )
        else:
            writer.writerow(["check", "value"])
            for key, value in (report.details or {}).items():
                writer.writerow([key, repr(value)])
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")
