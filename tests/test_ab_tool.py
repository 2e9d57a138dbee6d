"""tools/ab.py, the in-process A/B timer, runs a few jobs with this checkout
as both sides and reports its figures under the keys it documents, and lets
only an exact JSON report's floats differ between the sides, each by at most
its FLOAT_TOL."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

JOBS = [
    {"config": {"experiment": "soundness", "mode": "sampled", "trials": 60, "seed": 4}, "fmt": "csv"},
    {"config": {"experiment": "completeness", "verifier": {"p": 0.7}}, "fmt": "json"},
    {"config": {"experiment": "lemmas", "trials": 9, "seed": 2}, "fmt": "json"},
    {"config": {"experiment": "swap-bench", "trials": 5, "seed": 3}, "fmt": "csv"},
]


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_compares_a_checkout_with_itself():
    ab = _load_ab()
    result = ab.compare(ROOT, ROOT, {"few": JOBS}, 3)
    assert set(result) == {"pairs", "workloads", "environment"} and result["pairs"] == 3
    assert set(result["environment"]) == {"python", "numpy", "nproc", "blas_threads"}
    entry = result["workloads"]["few"]
    assert set(entry) == {"jobs", "parent", "change", "ratio", "change_wins", "max_float_gap"}
    assert entry["jobs"] == len(JOBS) and entry["max_float_gap"] == 0.0
    for side in ("parent", "change"):
        summary = entry[side]
        assert set(summary) == {"median_s", "q1_s", "q3_s", "passes"} and summary["passes"] == 3
        assert 0 < summary["q1_s"] <= summary["median_s"] <= summary["q3_s"]
    assert entry["ratio"] == entry["change"]["median_s"] / entry["parent"]["median_s"]
    assert 0 <= entry["change_wins"] <= 3


EXACT = {"config": {"experiment": "soundness", "mode": "exact"}, "fmt": "json"}
REPORT = {"experiment": "soundness", "seed": 3, "branches": {"b0_postsel_fail": 0.25, "b1_swap_accept": 0.375},
          "accept_probability": 0.75, "failures": []}


def _moved(**fields) -> bytes:
    return json.dumps({**REPORT, **fields}).encode()


@pytest.mark.parametrize("job", [
    EXACT,
    {"config": {"experiment": "completeness"}, "fmt": "json"},  # exact is the default mode
])
def test_an_exact_json_report_may_move_its_floats_by_float_tol(job):
    ab = _load_ab()
    base = _moved()
    assert ab.output_gap(job, base, base) == 0.0
    assert ab.output_gap(job, base, _moved(accept_probability=0.75 + 2**-52)) == 2**-52 <= ab.FLOAT_TOL
    branches = {"b0_postsel_fail": 0.25 - 2**-54, "b1_swap_accept": 0.375 + 2**-53}
    assert ab.output_gap(job, base, _moved(branches=branches)) == 2**-53
    assert ab.output_gap(job, base, _moved(accept_probability=0.75 + 1e-14)) > ab.FLOAT_TOL


@pytest.mark.parametrize("other", [
    _moved(seed=4),                                                        # an int
    _moved(experiment="completeness"),                                     # a string
    _moved(accept_probability=1),                                          # a float become an int
    _moved(accept_probability=math.nan),                                   # a NaN against a number
    _moved(failures=["branch_sum"]),                                       # a list's length
    _moved(branches={"b1_swap_accept": 0.375, "b0_postsel_fail": 0.25}),  # the key order
    _moved(branches={"b0_postsel_fail": 0.25}),                            # a missing key
])
def test_an_exact_json_report_may_differ_in_nothing_but_its_floats(other):
    ab = _load_ab()
    assert ab.output_gap(EXACT, _moved(), other) == math.inf


@pytest.mark.parametrize("job", [
    {"config": {"experiment": "soundness", "mode": "sampled"}, "fmt": "json"},
    {"config": {"experiment": "soundness", "mode": "exact"}, "fmt": "csv"},
    {"config": {"experiment": "lemmas"}, "fmt": "json"},
    {"config": {"experiment": "swap-bench"}, "fmt": "json"},
])
def test_other_reports_must_match_byte_for_byte(job):
    ab = _load_ab()
    base = _moved()
    assert ab.output_gap(job, base, base) == 0.0
    assert ab.output_gap(job, base, _moved(accept_probability=0.75 + 2**-52)) == math.inf
