"""The benchmark's layer tracer still fits the package: it finds every layer
module, wraps it, and leaves every report byte as an untraced run emits it."""

import importlib.util
import sys
from pathlib import Path

from eprverify import harness

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# One small job of each experiment.
JOBS = [
    {"experiment": "soundness", "mode": "sampled", "trials": 300, "l": 3, "seed": 11,
     "strategy": {"kind": "local_unitaries", "unitary_seed": 5}, "verifier": {"p": 0.3}},
    {"experiment": "completeness", "mode": "exact", "l": 3, "verifier": {"p": 0.7, "a_qubits": 2}},
    {"experiment": "lemmas", "trials": 4, "seed": 3},
    {"experiment": "swap-bench", "trials": 6, "seed": 5},
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports() -> list[bytes]:
    out = []
    for job in JOBS:
        report = harness.run_experiment(harness.ExperimentConfig.from_dict(job))
        out += [harness.emit_report(report, "json"), harness.emit_report(report, "csv")]
    return out


def test_traced_jobs_emit_the_untraced_bytes_and_touch_every_layer():
    tracing = _load_tracing()
    assert all(f"eprverify.{layer}" in sys.modules for layer in tracing.LAYERS)
    untraced = _reports()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.on = True
        traced = _reports()
    finally:
        tracer.on = False
        tracer.uninstall()
    assert traced == untraced
    called = {name.split(".")[0] for name, stats in tracer.stats.items() if stats[0]}
    assert called == set(tracing.LAYERS)
    # A sampled run builds its trees inside its one sample call, so the
    # tracer charges the coin-0 map's V† (linalg.dagger) to it.
    assert tracer.stage_calls["protocol.ProtocolRun.sample", "verifier"] > 0
    assert _reports() == untraced
