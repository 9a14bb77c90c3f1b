"""Benchmark of the tensorfree CLI: end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it needs ``src/`` and
``scenarios/``).  Each invocation of a workload is a fresh
``python -m tensorfree.cli`` process, started one at a time by this
driver: a closed loop with one client.  Every invocation's exit code and
stdout digest are checked against ``perfbench/manifest.json``.

With ``--trace 0`` the driver repeats passes over the workload for about
``--seconds`` and reports the end-to-end metrics (medians over passes).
With ``--trace 1`` it makes one untraced pass, one traced pass
(``perfbench/tracer.py`` wraps each layer's entry points) and the
microbenchmarks, and reports the per-layer metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the same
figures and the machine description goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import micro
import tracer
from workloads import EXPECTED_ENTRY_POINTS, WORKLOADS, invocation_id, invocations

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
MANIFEST_PATH = BENCH_DIR / "manifest.json"

CLI = (sys.executable, "-m", "tensorfree.cli")
TRACED_CLI = (sys.executable, str(BENCH_DIR / "tracer.py"))
# set-up as the CLI pays it: interpreter start, import, scenario parsing
SETUP_PROBE = (
    "import sys, tensorfree.cli; from tensorfree.scenario import load_scenario; "
    "load_scenario(sys.argv[1])"
)
# probes per scenario, and at least this many in all
SETUP_PROBES = 4
SETUP_PROBES_TOTAL = 12
# iterations of the loop that times a CPU's current speed (about 2 ms),
# and how often it runs beside a child on the child's CPU
CPU_PROBE_LOOP = 20_000
CPU_SAMPLE_PERIOD_S = 0.25
# a run must end within 180 s; stop spawning and kill children after this
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_per_probe": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in tracer.NAMES:
        units[f"{name}.calls"] = "count"
        if name in tracer.SPANNED:
            units[f"{name}.self_s"] = "s"
    units[tracer.YIELDED] = "count"
    units[tracer.WORDS_CHECKED] = "count"
    units["freeness.checked_per_generated"] = "ratio"
    units["tensor.oracle_calls_per_checked"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    for name in micro.METRICS:
        units[name] = micro.unit_of(name)
    return units


# -- child processes ------------------------------------------------------


@dataclass
class Outcome:
    exit: int | None  # None when killed at the deadline
    stdout: bytes
    seconds: float
    rss_mb: float
    # probe seconds on the child's CPU just before and while the child ran
    cpu_samples: list[float] = field(default_factory=list)


def cpu_probe_seconds() -> float:
    """Seconds this process takes for a fixed few milliseconds of work."""
    start = time.perf_counter()
    total = 0
    for i in range(CPU_PROBE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class CpuSampler(threading.Thread):
    """Times the probe loop on one CPU every CPU_SAMPLE_PERIOD_S until stopped."""

    def __init__(self, cpu: int) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self.done.wait(CPU_SAMPLE_PERIOD_S):
            self.samples.append(cpu_probe_seconds())

    def stop(self) -> list[float]:
        self.done.set()
        self.join()
        return self.samples


class Runner:
    """Starts one child at a time and reaps it before returning.

    On a shared host each CPU slows down by up to half, for seconds to
    minutes at a time and independently of the others.  So each child is
    pinned to the CPU that ran a short probe loop fastest just before it
    starts, and the probe loop keeps running on that CPU every
    CPU_SAMPLE_PERIOD_S while the child runs, to record the speed the
    child saw.
    """

    def __init__(self, deadline: float, stderr=subprocess.DEVNULL) -> None:
        self.deadline = deadline
        self.stderr = stderr
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.cpus = os.sched_getaffinity(0)

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def fastest_cpu(self) -> tuple[int, float]:
        """The CPU that runs the probe loop fastest now, and its probe seconds."""
        probes = {}
        try:
            for cpu in sorted(self.cpus):
                os.sched_setaffinity(0, {cpu})
                probes[cpu] = cpu_probe_seconds()
        finally:
            os.sched_setaffinity(0, self.cpus)
        cpu = min(probes, key=probes.get)
        return cpu, probes[cpu]

    def spawn(self, cmd) -> Outcome:
        timeout = self.left()
        if timeout <= 0:
            return Outcome(None, b"", 0.0, 0.0)
        killed: list[bool] = []
        cpu, probe = self.fastest_cpu()
        # the child inherits the pin
        os.sched_setaffinity(0, {cpu})
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=self.stderr
            )
        finally:
            os.sched_setaffinity(0, self.cpus)

        def kill() -> None:
            # the child is not reaped before the timer is joined, so its
            # pid cannot have been reused
            killed.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        sampler = CpuSampler(cpu)
        sampler.start()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            samples = [probe] + sampler.stop()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - start
        code = None if killed else proc.returncode
        return Outcome(code, stdout, seconds, usage.ru_maxrss / 1024, samples)


def check(manifest: dict, call, outcome: Outcome) -> str | None:
    """Why an invocation's result differs from the manifest, or None."""
    key = invocation_id(call)
    entry = manifest.get(key)
    if entry is None:
        return f"{key}: no manifest entry"
    if outcome.exit is None:
        return f"{key}: killed at the run deadline"
    if outcome.exit != entry["exit"]:
        return f"{key}: exit {outcome.exit}, manifest says {entry['exit']}"
    if hashlib.sha256(outcome.stdout).hexdigest() != entry["stdout_sha256"]:
        return f"{key}: stdout differs from the manifest"
    return None


@dataclass
class Pass:
    seconds: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    invocations: list[dict] = field(default_factory=list)


def run_pass(runner: Runner, manifest: dict, calls, command=lambda call, i: CLI + call) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for i, call in enumerate(calls):
        outcome = runner.spawn(command(call, i))
        result.attempted += 1
        result.peak_rss_mb = max(result.peak_rss_mb, outcome.rss_mb)
        reason = check(manifest, call, outcome)
        if reason is not None:
            result.failures.append(reason)
        result.invocations.append(
            {
                "id": invocation_id(call),
                "exit": outcome.exit,
                "seconds": outcome.seconds,
                "rss_mb": outcome.rss_mb,
                "cpu_samples": outcome.cpu_samples,
            }
        )
    result.seconds = time.perf_counter() - start
    return result


class SetupProbes:
    """Set-up seconds summed over the invocations.

    Each distinct scenario gets at least SETUP_PROBES child processes
    that only start, import the CLI and load the scenario, in rounds over
    the scenarios.  The host's speed drifts over seconds, so the rounds
    are split between the start and the end of the run.  An invocation
    is charged the median of its scenario's probes.
    """

    def __init__(self, calls) -> None:
        self.calls = calls
        self.times: dict[str, list[float]] = {call[0]: [] for call in calls}
        self.rounds = max(SETUP_PROBES, -(-SETUP_PROBES_TOTAL // len(self.times)))

    def probe(self, runner: Runner, rounds: int) -> None:
        for _ in range(rounds):
            for scenario, times in self.times.items():
                outcome = runner.spawn((sys.executable, "-c", SETUP_PROBE, scenario))
                if outcome.exit is None:
                    return  # out of time: the probes so far must do
                if outcome.exit != 0:
                    raise RuntimeError(f"set-up probe failed on {scenario}")
                times.append(outcome.seconds)

    def seconds(self) -> float:
        medians = {scenario: statistics.median(t) for scenario, t in self.times.items()}
        return sum(medians[call[0]] for call in self.calls)


# -- the two kinds of run -------------------------------------------------


def per_probe(call: dict) -> float:
    """An invocation's seconds over its median CPU probe; 0 if it never started."""
    samples = call["cpu_samples"]
    return call["seconds"] / statistics.median(samples) if samples else 0.0


def timed_run(runner: Runner, manifest: dict, calls, seconds: float) -> dict:
    """Passes while the next is expected to end within `seconds`; at least one.

    wall_s sums, over the invocations, the median of each invocation's
    times across the passes; with one invocation it is the median pass.
    wall_per_probe sums the same medians, but of each invocation's time
    over the median probe time on its CPU just before and while it ran,
    which takes out much of the host's slow stretches (see Runner).
    """
    setup = SetupProbes(calls)
    # warm-up: the first start in a checkout also compiles the package
    runner.spawn((sys.executable, "-c", SETUP_PROBE, calls[0][0]))
    setup.probe(runner, setup.rounds // 2)
    passes: list[Pass] = []
    begin = time.monotonic()
    while True:
        passes.append(run_pass(runner, manifest, calls))
        typical = statistics.median(p.seconds for p in passes)
        if time.monotonic() - begin + typical > seconds or typical > runner.left():
            break
    setup.probe(runner, setup.rounds - setup.rounds // 2)
    wall_s = sum(
        statistics.median(p.invocations[i]["seconds"] for p in passes)
        for i in range(len(calls))
    )
    wall_per_probe = sum(
        statistics.median(per_probe(p.invocations[i]) for p in passes)
        for i in range(len(calls))
    )
    return {
        "metrics": {
            "wall_s": wall_s,
            "wall_per_probe": wall_per_probe,
            "setup_s": setup.seconds(),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        },
        "passes": passes,
        "setup_probes": setup.times,
        "problems": [],
    }


def traced_pass(runner: Runner, manifest: dict, calls, directory: Path) -> tuple[Pass, dict]:
    """One pass through tracer.py; returns it with the summed summaries."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    def command(call, i):
        return TRACED_CLI + (str(directory / f"{i:02d}.json"), "--") + call

    result = run_pass(runner, manifest, calls, command)
    totals = {
        "calls": dict.fromkeys(tracer.NAMES, 0),
        "self_ns": dict.fromkeys(tracer.SPANNED, 0),
        "counters": {tracer.YIELDED: 0, tracer.WORDS_CHECKED: 0},
    }
    for i in range(len(calls)):
        path = directory / f"{i:02d}.json"
        if not path.exists():
            result.failures.append(f"{invocation_id(calls[i])}: no trace summary")
            continue
        summary = json.loads(path.read_text(encoding="utf-8"))
        for part, values in totals.items():
            for name in values:
                values[name] += summary[part][name]
    return result, totals


def compare_counts(path: Path, key: dict, counts: dict[str, int]) -> list[str]:
    """Differences from the counts stored at path by an earlier traced run
    with the same key (workload, invocations, source digest); then store
    these counts there."""
    problems = []
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous["key"] == key:
            for name, count in sorted(counts.items()):
                if previous["counts"].get(name) != count:
                    problems.append(
                        f"{name}: {count} here, {previous['counts'].get(name)} in an earlier run"
                    )
    path.write_text(json.dumps({"key": key, "counts": counts}, sort_keys=True), encoding="utf-8")
    return problems


def traced_run(runner: Runner, manifest: dict, workload: str, calls, seed: int,
               expected, micro_reps: int) -> dict:
    plain = run_pass(runner, manifest, calls)
    traced, totals = traced_pass(runner, manifest, calls, OUT_DIR / "trace" / workload)
    key = {
        "workload": workload,
        "invocations": sorted(invocation_id(call) for call in calls),
        "src_sha256": source_digest(),
    }
    problems = compare_counts(
        OUT_DIR / f"calls-{workload}.json", key, {**totals["calls"], **totals["counters"]}
    )
    for name in sorted(expected):
        if totals["calls"][name] == 0:
            problems.append(f"{name}: no calls, so a wrapper was not installed")

    outcome = runner.spawn(
        (sys.executable, str(BENCH_DIR / "micro.py"), "--seed", str(seed),
         "--reps", str(micro_reps))
    )
    micro_metrics = {}
    if outcome.exit == 0:
        micro_metrics = json.loads(outcome.stdout.decode().splitlines()[-1])
    else:
        problems.append(f"microbenchmarks exited with {outcome.exit}")

    metrics: dict[str, float] = {}
    for name in tracer.NAMES:
        metrics[f"{name}.calls"] = totals["calls"][name]
        if name in tracer.SPANNED:
            metrics[f"{name}.self_s"] = totals["self_ns"][name] / 1e9
    metrics.update(totals["counters"])
    checked = totals["counters"][tracer.WORDS_CHECKED]
    yielded = totals["counters"][tracer.YIELDED]
    # a ratio whose base is zero (the layer does not run) reads 0
    metrics["freeness.checked_per_generated"] = checked / yielded if yielded else 0.0
    metrics["tensor.oracle_calls_per_checked"] = (
        totals["calls"]["tensor.tensor_moment"] / checked if checked else 0.0
    )
    metrics["trace.overhead_ratio"] = traced.seconds / plain.seconds
    for name in micro.METRICS:
        metrics[name] = micro_metrics.get(name, {}).get("value", 0.0)
    return {
        "metrics": metrics,
        "passes": [plain, traced],
        "problems": problems,
    }


# -- reporting --------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, names included."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "numpy": numpy_version,
        "commit": _git_commit(),
        "src_sha256": source_digest(),
    }


def checkout_problem() -> str | None:
    for needed in ("src/tensorfree/cli.py", "scenarios"):
        if not (ROOT / needed).exists():
            return f"{needed} is missing: run from a tensorfree source checkout"
    return None


def execute(workload: str, calls, seed: int, seconds: float, trace: int, manifest: dict,
            expected=frozenset(), micro_reps: int = 3) -> dict:
    """Run the given invocations of a workload and write its results file.

    Returns the results record; its keys correct, attempted, failed and
    metrics form the line the benchmark prints last.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
    # the children's stderr, kept for diagnosis
    with open(stem.with_suffix(".stderr"), "wb") as log:
        runner = Runner(time.monotonic() + RUN_DEADLINE_S, log)
        if trace:
            run = traced_run(runner, manifest, workload, calls, seed, expected, micro_reps)
            units = layer_metric_units()
        else:
            run = timed_run(runner, manifest, calls, seconds)
            units = END_TO_END
    attempted = sum(p.attempted for p in run["passes"])
    failures = [reason for p in run["passes"] for reason in p.failures]
    record = {
        "correct": not failures and not run["problems"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()
        },
        "fail_ratio": len(failures) / attempted,
        "wall_s": run["metrics"].get("wall_s"),
        "failures": failures,
        "problems": run["problems"],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "passes": [
            {"seconds": p.seconds, "peak_rss_mb": p.peak_rss_mb, "invocations": p.invocations}
            for p in run["passes"]
        ],
        "setup_probes": run.get("setup_probes"),
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    manifest = json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))
    record = execute(
        args.workload,
        invocations(args.workload, args.seed),
        args.seed,
        args.seconds,
        args.trace,
        manifest,
        EXPECTED_ENTRY_POINTS[args.workload],
    )
    for reason in record["failures"] + record["problems"]:
        print(f"check failed: {reason}", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if record["wall_s"] is not None:
        print(f"wall_s {record['wall_s']:.6g} s (not divided by the CPU probe)")
    print(
        f"fail_ratio {record['fail_ratio']:.6g} "
        f"({record['failed']} of {record['attempted']} invocations)"
    )
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
