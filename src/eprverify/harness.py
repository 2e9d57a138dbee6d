"""Batch experiment runner: completeness/soundness sweeps, the inequality
suite, and a SWAP-test benchmark, with JSON/CSV reports.

Reports are deterministic functions of (config, seed); they hold no timing.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from . import rng as rngmod
from .channels import apply_pinch
from .linalg import STACK_BYTES, dagger, partial_trace, proj, stack_limit, tensor
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
    BRANCHES,
    DEFAULT_STRATEGY,
    HONEST_STRATEGY,
    REJECT_KEYS,
    ProtocolRun,
    _is_int,
    _is_number,
    check_strategy,
    cheating_proof,
    make_toy_verifier,
    shown,
    swap_test,
    tree_stack,
)
from .sampling import (
    ginibre_density,
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
# Bytes a sampled trial needs at the peak of its run and CSV emission: the
# report's 8-byte outcome, and the encoded rows with their join, each about
# 22-29 bytes a row (tracemalloc: 52 bytes a trial from 20 000 to 120 000
# trials, CPython 3.11).
TRIAL_ROW_BYTES = 128


def memory_estimate(p_qubits: int, a_qubits: int, l: int, trial_rows: int = 0) -> float:
    """Bytes of the largest arrays of a protocol run at 16 bytes an entry, each
    counted as often as a run holds copies of it at once (tracemalloc peaks): the
    proof vector, its transposed copy and that copy's conjugate (3 x 2^(p+2l));
    the primed halves' marginal (4^l); V and two conjugates of it (3 x 4^(p+a));
    the l(l-1) pair reductions and each tree's input (4^(p+4) each); the
    coin-0 map G and its conjugate (2 x 2^(2p+a+6)); each tree's two
    S2-diagonal blocks (2 x 4^(p+3)) and their products with G (2 x
    2^(2p+a+6)), for one tree in an exact run and min(tree_stack(p, a),
    l(l-1)) in a sampled run; and a sampled run's trials and CSV rows.  An
    exact run is the one with no trial rows.  Sizes too large for a float give
    inf.
    """
    def entries(log2: int) -> float:
        return 2.0**log2 if log2 < 1000 else math.inf

    p, a = p_qubits, a_qubits
    trees = min(tree_stack(p, a), l * (l - 1)) if trial_rows else 1
    reductions = (l * (l - 1) if l < 2**500 else math.inf) + trees
    total = (3 * entries(p + 2 * l) + entries(2 * l) + 3 * entries(2 * (p + a)) + reductions * entries(2 * (p + 4))
             + entries(2 * p + a + 7) + trees * (entries(2 * p + 7) + entries(2 * p + a + 7)))
    rows = trial_rows if trial_rows < 2**1000 else math.inf
    return 16 * total + TRIAL_ROW_BYTES * rows


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    strategy: dict
    p: float = 0.75
    p_qubits: int = 1
    a_qubits: int = 1
    l: int = 2
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
        if self.experiment == "completeness" and self.strategy != HONEST_STRATEGY:
            raise ConfigError(f"completeness runs only the honest strategy, got {shown(self.strategy)}")
        # The suite and the bench read none of these; their reports echo the defaults.
        defaults = {f.name: f.default for f in fields(self)} | {"strategy": DEFAULT_STRATEGY}
        unused = sorted(k for k in ("strategy", "p", "p_qubits", "a_qubits", "l", "mode")
                        if getattr(self, k) != defaults[k])
        if self.experiment in ("lemmas", "swap-bench") and unused:
            raise ConfigError(f"{self.experiment} takes only trials, seed and tolerances, got {shown(unused)}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"'tolerances' must be an object, got {shown(self.tolerances)}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance overrides: {shown(sorted(unknown, key=str))}")
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
            raise ConfigError(f"unknown config fields: {shown(sorted(unknown, key=str))}")
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' field")
        # validate sees no field given at its default; this sees every key given.
        unused = sorted({"strategy", "verifier", "l", "mode"} & set(data))
        if data["experiment"] in ("lemmas", "swap-bench") and unused:
            raise ConfigError(f"{data['experiment']} takes only trials, seed and tolerances, got {shown(unused)}")
        for name in ("verifier", "strategy"):
            if not isinstance(data.get(name, {}), dict):
                raise ConfigError(f"{name!r} must be an object, got {shown(data[name])}")
        verifier = data.get("verifier", {})
        unknown = set(verifier) - {"p", "p_qubits", "a_qubits"}
        if unknown:
            raise ConfigError(f"unknown verifier fields: {shown(sorted(unknown, key=str))}")
        default = HONEST_STRATEGY if data["experiment"] == "completeness" else DEFAULT_STRATEGY
        fields = {"strategy": dict(default), **{k: v for k, v in data.items() if k != "verifier"}}
        # Values are taken as they are, never converted: validate checks their types.
        config = cls(**fields, **verifier)
        config.validate()
        return config


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    # Each runner sets only the fields its experiment fills.
    accept_probability: float | None = None
    reject_probability: float | None = None
    branches: dict | None = None
    lemma_margins: dict | None = None
    details: dict | None = None
    # A sampled run's outcome of each trial, len(BRANCH_KEYS) * code + branch,
    # as ProtocolRun.sample writes it; None unless the run kept trial rows.
    trial_outcomes: np.ndarray | None = None

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
                if entry["violations"] > 0 or not math.isfinite(entry["min_margin"]):
                    found.append(f"lemma {name}: {entry['violations']} margins not >= -{tolerances['margin']}, "
                                 f"min margin {entry['min_margin']:.3e}")
        if self.details is not None and "max_error" in self.details:
            error = self.details["max_error"]
            if not math.isfinite(error) or error > tolerances["swap"]:
                found.append(f"swap-bench max error {error:.3e} above {tolerances['swap']}")
        return found


def _run_protocol_experiment(config: ExperimentConfig, trial_rows: bool) -> ExperimentReport:
    toy = make_toy_verifier(config.p, config.p_qubits, config.a_qubits)
    run = ProtocolRun(cheating_proof(config.strategy, toy, config.l), toy)
    if config.mode == "exact":
        result = run.exact()
        return ExperimentReport(config=config.to_dict(), accept_probability=result.accept_probability,
                                reject_probability=result.reject_probability, branches=dict(result.branches))
    n = config.trials
    outcomes = np.empty(n, np.intp) if trial_rows else None
    # Python ints, so each ratio below is the one a dict of int counts gives.
    counts = dict(zip(BRANCH_KEYS, run.sample(config.seed, n, outcomes).tolist()))
    accepts = n - sum(counts[k] for k in REJECT_KEYS)
    return ExperimentReport(
        config=config.to_dict(),
        accept_probability=accepts / n,
        reject_probability=1.0 - accepts / n,
        branches={k: counts[k] / n for k in BRANCH_KEYS},
        details={"trials": n},
        trial_outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

# Lemma instances and SWAP cases are drawn this many at a time, so memory does
# not grow with trials; the count is even, so a chunk starts at a one-qubit case.
# Lemma instances of equal shape are evaluated as many at a time as fit in STACK_BYTES,
# SWAP cases stack_limit(2k + 1) (a (2k + 1)-qubit circuit each), whatever the draws.
LEMMA_CHUNK_TRIALS = 256


def _dim(rng: np.random.Generator) -> int:
    return int(rng.integers(2, 17))


def _matrices(rng: np.random.Generator, count: int) -> tuple:
    d = _dim(rng)
    return tuple(random_complex_matrix(rng, d) for _ in range(count))


def _ginibre_pair(rng: np.random.Generator, d: int) -> tuple:
    """Two Ginibre matrices, drawn as random_density draws them; ginibre_density
    turns a stack of them into the states random_density would give."""
    return random_complex_matrix(rng, d), random_complex_matrix(rng, d)


def _partial_trace_instance(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(2, 5))
    keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    return *_ginibre_pair(rng, 2**n), keep


def _partial_trace_margins(g: np.ndarray, h: np.ndarray, keeps: np.ndarray) -> np.ndarray:
    n = g.shape[-1].bit_length() - 1

    def channel(m: np.ndarray) -> np.ndarray:
        # One einsum per instance, each with its own kept qubits.
        return np.stack([partial_trace(x, n, list(keep)) for x, keep in zip(m, keeps)])

    return monotonicity_margin(ginibre_density(g), ginibre_density(h), channel)


def _unitary_instance(rng: np.random.Generator) -> tuple:
    d = _dim(rng)
    return random_unitary(rng, d), *_ginibre_pair(rng, d)


def _gentle_instance(rng: np.random.Generator) -> tuple:
    """The next instance whose projector leaves a post state; others are skipped."""
    while True:
        d = _dim(rng)
        rho = random_density(rng, d)
        projector = random_projector(rng, d, int(rng.integers(1, d)))
        if not np.trace(rho @ projector).real >= 1.0 - 1e-6:
            return rho, projector


def _additive_instance(rng: np.random.Generator) -> tuple:
    d = _dim(rng)
    eps = float(rng.uniform(0.0, 1.0))
    weight = eps * float(rng.uniform(0.0, 1.0))
    g = random_complex_matrix(rng, d)
    return random_complex_matrix(rng, d), weight, g, eps


def _mixture_instance(rng: np.random.Generator) -> tuple:
    d = _dim(rng)
    eps = float(rng.uniform(0.0, 0.999))
    return *_ginibre_pair(rng, d), eps


# (margin names, one instance drawn from a stream, the margins of a stack of
# instances) of each family; family k draws from stream(seed, k + 1).  The
# oracles are looked up when called, so tests can stand in for them.
_LEMMA_FAMILIES = (
    (("holder",), lambda rng: _matrices(rng, 2), lambda a, b: holder_margin(a, b)),
    (("triangle",), lambda rng: _matrices(rng, 3), lambda a, b, c: triangle_margin(a, b, c)),
    (("monotonicity_partial_trace",), _partial_trace_instance, _partial_trace_margins),
    (("monotonicity_pinch",), lambda rng: _ginibre_pair(rng, 4),
     lambda g, h: monotonicity_margin(ginibre_density(g), ginibre_density(h),
                                      lambda m: apply_pinch(m, 2, [0, 1]))),
    (("monotonicity_unitary",), _unitary_instance,
     lambda u, g, h: monotonicity_margin(ginibre_density(g), ginibre_density(h), lambda m: u @ m @ dagger(u))),
    (("fvg_lower", "fvg_upper"), lambda rng: _ginibre_pair(rng, _dim(rng)),
     lambda g, h: fvg_margins(ginibre_density(g), ginibre_density(h))),
    (("gentle",), _gentle_instance, lambda rho, projector: gentle_margin(rho, projector)),
    (("perturbation_additive",), _additive_instance,
     lambda a, weight, g, eps: additive_perturbation_margin(a, weight[:, None, None] * ginibre_density(g), eps)),
    (("perturbation_mixture",), _mixture_instance,
     lambda g, h, eps: mixture_perturbation_margin(ginibre_density(g), ginibre_density(h), eps)),
)


def _stacked_margins(instances: list[tuple], names: tuple, margins) -> np.ndarray:
    """The margins of each instance, one row per name, in instance order.

    Instances whose fields have equal shapes are stacked field by field, as
    many as fit in STACK_BYTES (at least one), and evaluated in one call,
    which makes for each member the LAPACK or BLAS call it makes alone.
    """
    groups: dict[tuple, list[int]] = {}
    for k, instance in enumerate(instances):
        groups.setdefault(tuple(map(np.shape, instance)), []).append(k)
    out = np.empty((len(names), len(instances)))
    for group in groups.values():
        most = max(1, STACK_BYTES // sum(np.asarray(f).nbytes for f in instances[group[0]]))
        for start in range(0, len(group), most):
            ks = group[start:start + most]
            fields = [np.array([instances[k][f] for k in ks]) for f in range(len(instances[ks[0]]))]
            out[:, ks] = np.reshape(margins(*fields), (len(names), len(ks)))
    return out


def lemma_suite(trials: int, seed: int, tol: float) -> dict[str, dict]:
    """Min margin and violation count over random instances of each inequality.

    Margins are folded in, in the order their instances were drawn, a chunk
    of instances at a time, so memory does not grow with trials.  A margin
    that is not >= -tol, NaN included, is a violation.
    """
    out: dict[str, dict] = {}

    def record(name: str, margin: float) -> None:
        # The first margin seeds the minimum and only a smaller one replaces
        # it, as min() does, so a NaN margin is kept or skipped as min() would.
        entry = out.setdefault(name, {"min_margin": margin, "violations": 0, "samples": 0})
        if margin < entry["min_margin"]:
            entry["min_margin"] = margin
        if not margin >= -tol:
            entry["violations"] += 1
        entry["samples"] += 1

    for index, (names, draw, margins) in enumerate(_LEMMA_FAMILIES, start=1):
        rng = rngmod.stream(seed, index)
        for start in range(0, trials, LEMMA_CHUNK_TRIALS):
            instances = [draw(rng) for _ in range(min(LEMMA_CHUNK_TRIALS, trials - start))]
            for row in _stacked_margins(instances, names, margins).T.tolist():
                for name, margin in zip(names, row):
                    record(name, margin)
            # Freed before the next chunk is drawn, not after.
            del instances
    return out


def _run_lemma_suite(config: ExperimentConfig) -> ExperimentReport:
    margins = lemma_suite(config.trials, config.seed, config.tolerance("margin"))
    checks = sum(entry["samples"] for entry in margins.values())
    return ExperimentReport(config=config.to_dict(), lemma_margins=margins, details={"total_checks": checks})


# ---------------------------------------------------------------------------
# SWAP benchmark
# ---------------------------------------------------------------------------

def _swap_errors(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """|circuit - closed form| of the SWAP test on each pair of a stack of Ginibre
    matrices, turned into states as random_density turns them."""
    rho, sigma = ginibre_density(g), ginibre_density(h)
    joint = tensor(rho, sigma)
    formula = (1.0 + np.trace(rho @ sigma, axis1=-2, axis2=-1).real) / 2.0
    return np.abs(swap_test(joint) - formula)


def _run_swap_bench(config: ExperimentConfig) -> ExperimentReport:
    """The largest |circuit - closed form| over random cases, alternately of one
    and two qubits a side, evaluated on stacks a chunk of cases at a time."""
    rng = rngmod.stream(config.seed, 0)
    max_error = 0.0
    for start in range(0, config.trials, LEMMA_CHUNK_TRIALS):
        pairs, odd = divmod(min(LEMMA_CHUNK_TRIALS, config.trials - start), 2)
        # One draw of the chunk's normals, as _ginibre_pair draws them case by case:
        # a (one-qubit, two-qubit) couple is 16 + 64, each case rho's real and imaginary
        # parts, then sigma's; an odd last case is padded with zeros no case reads.
        couples = np.append(rng.normal(size=80 * pairs + 16 * odd), np.zeros(64 * odd)).reshape(-1, 80)
        for k, x in ((1, couples[:, :16].reshape(-1, 4, 2, 2)), (2, couples[:pairs, 16:].reshape(-1, 4, 4, 4))):
            g, h, most = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3], stack_limit(2 * k + 1)
            for s in range(0, len(x), most):
                error = float(np.max(_swap_errors(g[s:s + most], h[s:s + most])))
                # As max() but a NaN error, once seen, is kept.
                if error > max_error or math.isnan(error):
                    max_error = error
        # Freed before the next chunk is drawn, not after.
        del couples, x, g, h
    psi = random_pure(rng, 2)
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    one = np.array([[0, 0], [0, 1]], dtype=complex)
    # Python floats, as the report's repr and JSON write them.
    same, orth = swap_test(np.array([tensor(proj(psi), proj(psi)), tensor(zero, one)])).tolist()
    return ExperimentReport(
        config=config.to_dict(),
        details={"max_error": max_error, "identical_pure": same, "orthogonal_pure": orth},
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, trial_rows: bool = True) -> ExperimentReport:
    """Deterministic report for the configured experiment; exact mode ignores trials.

    A sampled run, one ProtocolRun.sample call, keeps each trial's outcome
    for its CSV rows unless trial_rows is false; its memory then does not
    grow with trials, and emit_report writes it only as JSON.
    """
    config.validate()
    if config.experiment in ("completeness", "soundness"):
        return _run_protocol_experiment(config, trial_rows)
    if config.experiment == "lemmas":
        return _run_lemma_suite(config)
    return _run_swap_bench(config)


def _finite_or_null(value):
    """The value with every non-finite float in it replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    return value


def _trial_rows_csv(outcomes: np.ndarray, l: int) -> bytes:
    """A sampled run's CSV: one row per trial.

    Each row is its trial index and the suffix of its outcome, from a table
    of one suffix per (ordered pair, branch).  Rows are encoded a chunk at a
    time, so the text of only one chunk is held as str.
    """
    suffix = {
        len(BRANCH_KEYS) * (i * l + j) + b: f",{coin},{i + 1},{j + 1},{postsel},{verdict}\n"
        for i in range(l) for j in range(l) if i != j
        for b, (coin, postsel, verdict) in enumerate(BRANCHES.values())
    }
    chunks = [b"trial,b,pair_i,pair_j,postsel,verdict\n"]
    for start in range(0, outcomes.size, rngmod.CHUNK_TRIALS):
        ks = outcomes[start:start + rngmod.CHUNK_TRIALS].tolist()
        chunks.append("".join([str(t) + suffix[k] for t, k in zip(range(start, start + len(ks)), ks)]).encode())
    return b"".join(chunks)


def emit_report(report: ExperimentReport, fmt: str = "json") -> bytes:
    """Serialize a report with stable field ordering.

    JSON is strict: a non-finite float is written as null.  A CSV row is its
    fields joined by commas: every field is a fixed identifier, an int or a
    float's repr, so none ever needs quoting.
    """
    if fmt == "json":
        obj = {
            "version": __version__,
            "config": report.config,
            "accept_probability": report.accept_probability,
            "reject_probability": report.reject_probability,
            "branches": report.branches,
            "lemma_margins": report.lemma_margins,
            "details": report.details,
        }
        return (json.dumps(_finite_or_null(obj), indent=2, allow_nan=False) + "\n").encode()
    if fmt == "csv":
        if report.trial_outcomes is not None:
            return _trial_rows_csv(report.trial_outcomes, report.config["l"])
        if report.branches is not None and report.config.get("mode") == "sampled":
            raise ValueError("a sampled report's CSV is its trial rows, and this run kept none (trial_rows=False)")
        if report.lemma_margins is not None:
            rows = [("lemma", "min_margin", "violations", "samples")]
            rows += [(name, repr(e["min_margin"]), e["violations"], e["samples"])
                     for name, e in report.lemma_margins.items()]
        elif report.branches is not None:
            rows = [("experiment", "mode", "accept_probability", "reject_probability", *BRANCH_KEYS),
                    (report.config["experiment"], report.config["mode"], repr(report.accept_probability),
                     repr(report.reject_probability), *(repr(report.branches[k]) for k in BRANCH_KEYS))]
        else:
            rows = [("check", "value")] + [(key, repr(value)) for key, value in (report.details or {}).items()]
        return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()
    raise ValueError(f"unknown report format {fmt!r}")
