"""Frozen CLI reports: every short bundled invocation must reproduce its
golden byte for byte.

``golden/index.json`` maps each golden file to the CLI arguments that
produce it (scenario paths relative to the repository root) and the
expected exit code.  A golden changes only together with a CHANGES.md
line naming the field that changed and why.

Every golden but four is also pinned by the benchmark manifest.  Two
are ``test-freeness`` on biased_power_k2 and ``theorem-1-8`` on
biased_power_k3 at the file's bounds (max_len 8): the manifest runs the
first only at ``--max-len 7`` and the second not at all.  Their
diagonal scans evaluate one word per bracelet, which keeps each under a
second.  The other two are frontier rows on biased_power_k3,
``test-freeness --max-len 16`` and ``theorem-1-8 --max-len 14``: their
diagonal scans walk only the words that keep the per-height rule
(freeness.ScanRules), which keeps each under a second too.
``test-freeness`` on biased_power_k3 and ``group-freeness`` on
product_pair_collection are pinned by the manifest alone.
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
# goldens of runs that no benchmark invocation makes
NOT_IN_MANIFEST = {
    "biased_power_k2.test-freeness.json",
    "biased_power_k3.theorem-1-8.json",
    "biased_power_k3.test-freeness-max-len-16.json",
    "biased_power_k3.theorem-1-8-max-len-14.json",
}


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
    assert len(INDEX) == 63
    for name, entry in INDEX.items():
        scenario, *rest = entry["args"]
        key = " ".join([Path(scenario).stem, *rest])
        if name in NOT_IN_MANIFEST:
            assert key not in manifest, name
            continue
        digest = hashlib.sha256((GOLDEN_DIR / name).read_bytes()).hexdigest()
        assert manifest[key]["stdout_sha256"] == digest, name
        assert manifest[key]["exit"] == entry["exit"], name
