"""The names the benchmark under perfbench/ reaches into the package by.

The tracer rebinds each of its entry points wherever the package binds
it, and the microbenchmarks import a fixed set of names, so renaming or
deleting any of them would break the benchmark rather than a test.
These checks move that failure into the test suite.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def trace(tmp_path, *cli_args) -> dict:
    """The tracer's summary of one CLI invocation run from the repo root."""
    summary_path = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(TRACER), str(summary_path), "--", *cli_args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode in (0, 1), run.stderr
    return json.loads(summary_path.read_text(encoding="utf-8"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_entry_point(tmp_path):
    summary = trace(tmp_path, "scenarios/biased_unitary.json", "moments", "x1")
    assert summary["exit"] == 0
    # the tracer counts calls for every name in its ENTRY_POINTS table
    names = set(summary["calls"])
    assert {"cli.main", "groups.multiply", "freeness.test_freeness"} <= names
    assert set(summary["sites"]) == names
    assert all(summary["sites"][name] >= 1 for name in names)


def test_microbenchmark_names_exist():
    from tensorfree.freeness import FreeFamilySpec, centered_product_value
    from tensorfree.groups import multiply
    from tensorfree.ncpartitions import enumerate_nc, iter_pure_parity_blocks
    from tensorfree.scenario import load_scenario
    from tensorfree.spaces import (
        SpectralModel,
        gram_basis,
        gram_matrix,
        hermitian_ldl_signature,
    )
    from tensorfree.starwords import iter_words
    from tensorfree.tensor import joint_oracle, tensor_moment

    for fn in (
        centered_product_value,
        multiply,
        enumerate_nc,
        iter_pure_parity_blocks,
        load_scenario,
        gram_basis,
        gram_matrix,
        hermitian_ldl_signature,
        iter_words,
        joint_oracle,
        tensor_moment,
        SpectralModel.marginal_moment,
    ):
        assert inspect.isfunction(fn), fn
    assert list(inspect.signature(FreeFamilySpec).parameters) == ["marginals"]
    # micro.py passes a class map as the third argument
    assert list(inspect.signature(centered_product_value).parameters) == [
        "oracle",
        "letters",
        "class_of",
    ]
    # micro.py multiplies a group file's elements in its presentation
    path = ROOT / "scenarios" / "product_pair_collection.json"
    collection = load_scenario(path).collection
    presentation = collection.presentation
    d1, d2 = collection.elements.values()
    assert multiply(presentation, d1, d2).text() == "g1.1^1 g1.2^1 g2.1^1 g2.2^1"


# The scan workloads, each traced at its own invocation.  A traced
# benchmark run reports correct: false when an entry point its workload
# expects records no call, so a change that routes a scan around one (a
# fast path that skips the L0 arithmetic, say) fails here first.
SCANS = ("group-scan", "tensor-scan", "witness-search")


@pytest.mark.parametrize("workload", SCANS)
def test_small_scans_reach_the_expected_entry_points(tmp_path, workload):
    workloads = load_workloads()
    (invocation,) = workloads.WORKLOADS[workload]
    summary = trace(tmp_path, *invocation)
    silent = sorted(
        name
        for name in workloads.EXPECTED_ENTRY_POINTS[workload]
        if summary["calls"][name] < 1
    )
    assert silent == []
