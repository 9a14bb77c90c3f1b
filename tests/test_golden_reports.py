"""Frozen CLI reports: every short bundled invocation must reproduce its
golden byte for byte.

``golden/index.json`` maps each golden file to the CLI arguments that
produce it (scenario paths relative to the repository root) and the
expected exit code.  A golden changes only together with a CHANGES.md
line naming the field that changed and why.  The long scans (the
``test-freeness`` and ``theorem-1-8`` runs on the biased-power files
and ``group-freeness`` on product_pair_collection) are pinned by the
benchmark manifest instead, because each takes seconds to tens of
seconds.  ``counterexample-k 2 --max-len 10`` on biased_power_k2, the
length-10 witness report, is pinned by both: evaluating its power-word
scan once per tracial class brings it to a few seconds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tensorfree import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
INDEX = json.loads((GOLDEN_DIR / "index.json").read_text(encoding="utf-8"))
MANIFEST = ROOT / "perfbench" / "manifest.json"


@pytest.mark.parametrize("name", sorted(INDEX))
def test_report_matches_golden(name, tmp_path, capsys):
    entry = INDEX[name]
    scenario, *rest = entry["args"]
    out = tmp_path / name
    code = cli.main([str(ROOT / scenario), *rest, "--out", str(out)])
    capsys.readouterr()
    assert code == entry["exit"]
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_goldens_match_the_benchmark_manifest():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(INDEX) == 59
    for name, entry in INDEX.items():
        scenario, *rest = entry["args"]
        key = " ".join([Path(scenario).stem, *rest])
        digest = hashlib.sha256((GOLDEN_DIR / name).read_bytes()).hexdigest()
        assert manifest[key]["stdout_sha256"] == digest, name
        assert manifest[key]["exit"] == entry["exit"], name
