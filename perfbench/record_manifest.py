"""Record the output manifest the benchmark checks every invocation against.

    python3 perfbench/record_manifest.py

Runs each invocation of every workload once and writes, per invocation,
its exit code, the sha256 of its stdout and every non-null ``witness``
field of the report to ``perfbench/manifest.json``.  Re-record only when
a change to the CLI's output is intended, and say which outputs changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from run import CLI, MANIFEST_PATH, Runner, checkout_problem
from workloads import WORKLOADS, invocation_id


def witnesses(node, path: str = "") -> dict[str, str]:
    """Every non-null "witness" value in a report, keyed by its JSON path."""
    found: dict[str, str] = {}
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            where = f"{path}.{key}" if path else key
            if key == "witness" and isinstance(value, str):
                found[where] = value
            else:
                found.update(witnesses(value, where))
    return found


def main() -> int:
    problem = checkout_problem()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    manifest = {}
    for workload, calls in WORKLOADS.items():
        for call in calls:
            # one invocation takes at most about a minute
            outcome = Runner(time.monotonic() + 600).spawn(CLI + call)
            if outcome.exit not in (0, 1):
                print(f"error: {invocation_id(call)} exited {outcome.exit}", file=sys.stderr)
                return 1
            manifest[invocation_id(call)] = {
                "workload": workload,
                "exit": outcome.exit,
                "stdout_sha256": hashlib.sha256(outcome.stdout).hexdigest(),
                "witnesses": witnesses(json.loads(outcome.stdout)),
            }
            print(f"{invocation_id(call)}: exit {outcome.exit} in {outcome.seconds:.2f} s")
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
