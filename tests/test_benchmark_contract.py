"""The names the benchmark under perfbench/ reaches into the package by.

The tracer rebinds each of its entry points wherever the package binds
it, and the microbenchmarks import a fixed set of names, so renaming or
deleting any of them would break the benchmark rather than a test.
These checks move that failure into the test suite.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_tracer_binds_every_entry_point(tmp_path):
    summary_path = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(TRACER), str(summary_path), "--",
         "scenarios/biased_unitary.json", "moments", "x1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
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
