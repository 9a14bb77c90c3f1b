"""Shared fixtures: bundled scenario paths and files, and an in-process CLI
runner."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import pytest

from tensorfree import cli
from tensorfree.counterexample import scan_alternating_powers
from tensorfree.freeness import ScanRules
from tensorfree.scalars import ZERO
from tensorfree.scenario import ScenarioFile, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class CliResult(NamedTuple):
    code: int
    out: str
    err: str

    def json(self):
        return json.loads(self.out)


@pytest.fixture(scope="session")
def scenario_path():
    def path(name: str) -> str:
        return str(SCENARIO_DIR / f"{name}.json")

    return path


@pytest.fixture(scope="session")
def bundled():
    """A freshly loaded bundled scenario, by file stem."""

    def load(name: str) -> ScenarioFile:
        return load_scenario(SCENARIO_DIR / f"{name}.json")

    return load


@pytest.fixture
def run_cli(capsys):
    """Run the command line entry point in process, capturing both streams."""

    def run(*argv) -> CliResult:
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return CliResult(code, captured.out, captured.err)

    return run


@pytest.fixture(scope="session")
def scanned_words():
    """The letter tuples scan_alternating_powers evaluates, in its order.

    The oracle answers zero everywhere, so the Haar-type precondition
    passes; its probes, the powers +-1..+-(max_len - 1) of each
    variable, come first and are dropped from the record.
    """

    def scan(variables, max_len):
        seen = []

        def oracle(letters):
            seen.append(letters)
            return ZERO

        scan_alternating_powers(oracle, variables, max_len, ScanRules())
        probes = 2 * (max_len - 1) * len(variables)
        assert all(len({l.index for l in w}) == 1 for w in seen[:probes])
        return seen[probes:]

    return scan
