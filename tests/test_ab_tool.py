"""tools/ab.py, the in-process A/B timer, runs a few jobs with this checkout
as both sides and reports its figures under the keys it documents."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

JOBS = [
    {"config": {"experiment": "soundness", "mode": "sampled", "trials": 60, "seed": 4}, "fmt": "csv"},
    {"config": {"experiment": "completeness", "verifier": {"p": 0.7}}, "fmt": "json"},
    {"config": {"experiment": "lemmas", "trials": 9, "seed": 2}, "fmt": "json"},
    {"config": {"experiment": "swap-bench", "trials": 5, "seed": 3}, "fmt": "csv"},
]


def test_ab_compares_a_checkout_with_itself():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    result = ab.compare(ROOT, ROOT, {"few": JOBS}, 3)
    assert set(result) == {"pairs", "workloads", "environment"} and result["pairs"] == 3
    assert set(result["environment"]) == {"python", "numpy", "nproc", "blas_threads"}
    entry = result["workloads"]["few"]
    assert set(entry) == {"jobs", "parent", "change", "ratio", "change_wins"} and entry["jobs"] == len(JOBS)
    for side in ("parent", "change"):
        summary = entry[side]
        assert set(summary) == {"median_s", "q1_s", "q3_s", "passes"} and summary["passes"] == 3
        assert 0 < summary["q1_s"] <= summary["median_s"] <= summary["q3_s"]
    assert entry["ratio"] == entry["change"]["median_s"] / entry["parent"]["median_s"]
    assert 0 <= entry["change_wins"] <= 3
