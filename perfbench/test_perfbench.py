"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run a few short catalog invocations, one traced invocation and the
microbenchmarks at one repetition (about half a minute in all).
"""

from __future__ import annotations

import copy
import json

import pytest

import run
import tracer
from workloads import EXPECTED_ENTRY_POINTS, UNREACHED, WORKLOADS, invocation_id

FEW = [
    ("scenarios/circular_dominated.json", "check-tfc"),
    ("scenarios/integer_pair_collection.json", "prop-1-6"),
    ("scenarios/circular_dominated.json", "identities", "product-sum"),
]
TRACED = [("scenarios/doubly_free.json", "check-tfc")]
TRACED_EXPECTED = frozenset(
    {"cli.main", "scenario.load_scenario", "tfc.check_tfc", "freeness.test_freeness"}
)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(run.MANIFEST_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def declared():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(metrics: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_declared_metrics_are_the_reported_ones(declared):
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.layer_metric_units()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_expected_entry_points_cover_every_traced_entry_point():
    covered = frozenset().union(*EXPECTED_ENTRY_POINTS.values())
    assert covered | UNREACHED == frozenset(tracer.NAMES)
    assert not covered & UNREACHED
    assert set(EXPECTED_ENTRY_POINTS) == set(WORKLOADS)


def test_manifest_covers_every_invocation_and_pins_the_k2_witness(manifest):
    ids = {invocation_id(call) for calls in WORKLOADS.values() for call in calls}
    assert set(manifest) == ids
    entry = manifest["biased_power_k2 counterexample-k 2 --max-len 10"]
    assert entry["exit"] == 1
    assert entry["witnesses"] == {"report.verdict.witness": "x1 x1 x2 x1 x2* x1* x1* x2 x1 x2*"}


def test_timed_run_emits_every_end_to_end_metric(declared, manifest):
    record = run.execute("catalog", FEW, 1, 0.1, 0, manifest)
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == len(FEW)
    assert _units(record["metrics"]) == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert all(metric["value"] > 0 for metric in record["metrics"].values())


def test_corrupted_manifest_entry_counts_as_failure(manifest):
    corrupted = copy.deepcopy(manifest)
    corrupted[invocation_id(FEW[0])]["stdout_sha256"] = "0" * 64
    record = run.execute("catalog", FEW, 1, 0.1, 0, corrupted)
    assert record["fail_ratio"] > 0
    assert not record["correct"]


def test_counts_are_compared_with_the_previous_traced_run(tmp_path):
    path = tmp_path / "calls.json"
    key = {"workload": "w", "invocations": ["a"], "src_sha256": "0"}
    assert run.compare_counts(path, key, {"f.calls": 3}) == []
    assert run.compare_counts(path, key, {"f.calls": 3}) == []
    assert run.compare_counts(path, key, {"f.calls": 4}) != []
    # other sources or invocations are not compared
    assert run.compare_counts(path, {**key, "src_sha256": "1"}, {"f.calls": 5}) == []


def test_traced_run_emits_every_per_layer_metric(declared, manifest):
    record = run.execute("catalog", TRACED, 1, 0.1, 1, manifest, TRACED_EXPECTED, micro_reps=1)
    assert record["correct"], record["problems"] + record["failures"]
    assert _units(record["metrics"]) == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert record["metrics"]["trace.overhead_ratio"]["value"] > 0
    for name in run.micro.METRICS:
        assert record["metrics"][name]["value"] > 0

    # the spans written out agree with the invocation's totals
    directory = run.OUT_DIR / "trace" / "catalog"
    summary = json.loads((directory / "00.json").read_text(encoding="utf-8"))
    names, parents, starts, ends = tracer.read_spans(directory / "00.spans")
    assert len(names) == summary["spans"] > 0
    for row, parent in enumerate(parents):
        assert starts[row] <= ends[row]
        if parent >= 0:
            assert parent < row and starts[parent] <= starts[row] and ends[row] <= ends[parent]
    for code, name in enumerate(tracer.NAMES):
        if name in tracer.SPANNED:
            assert names.count(code) == summary["calls"][name]
