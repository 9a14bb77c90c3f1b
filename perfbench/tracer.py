"""Span tracing around the public entry points of each tensorfree layer.

Run one CLI invocation with tracing:

    PYTHONPATH=src python3 perfbench/tracer.py SUMMARY.json -- SCENARIO SUBCOMMAND [ARGS...]

The CLI's stdout and exit code pass through unchanged.  The wrappers are
installed by this file, not by the package: each listed entry point is
rebound in the module that defines it, on its class for methods and
operators, and at every ``from ... import`` site inside the package, so
calls between modules are seen too.  Every call to a spanned entry point
records a span (name, start, end, parent) in memory; the spans go to
``SUMMARY.spans`` and the per-entry-point totals to ``SUMMARY.json`` when
the invocation ends.
"""

from __future__ import annotations

import array
import json
import sys
import time
from types import FunctionType

# (layer, module, qualified name, record spans).  L0 operators only count
# calls: they run millions of times and a span each would swamp the run.
ENTRY_POINTS = (
    ("L0", "scalars", "ExactComplex.__mul__", False),
    ("L0", "scalars", "ExactComplex.__add__", False),
    ("L1", "starwords", "iter_words", True),
    ("L1", "ncpartitions", "enumerate_nc", True),
    ("L1", "groups", "multiply", True),
    ("L1", "groups", "reduce", True),
    ("L2", "freeness", "FreeFamilySpec.mixed_moment_letters", True),
    ("L2", "freeness", "FreeFamilySpec.class_moment", True),
    ("L2", "spaces", "SpectralModel.moment_letters", True),
    ("L2", "spaces", "TableFunctional.moment_letters", True),
    ("L2", "spaces", "GroupAlgebraModel.moment_letters", True),
    ("L3", "tensor", "tensor_moment", True),
    ("L3", "tensor", "factor_moment", True),
    ("L4", "freeness", "test_freeness", True),
    ("L4", "freeness", "centered_product_value", True),
    ("L4", "counterexample", "scan_alternating_powers", True),
    ("L4", "counterexample", "filter_counts", True),
    ("L4", "tfc", "check_tfc", True),
    ("L4", "tfc", "find_dominating", True),
    ("L4", "tfc", "check_necessary_conditions", True),
    ("L4", "spaces", "check_axioms", True),
    ("L4", "spaces", "hermitian_ldl_signature", True),
    ("L4", "groups", "is_free_collection", True),
    ("L4", "groups", "group_dominating_report", True),
    ("L5", "scenario", "load_scenario", True),
    ("L5", "cli", "main", True),
)

NAMES = tuple(f"{module}.{qualname}" for _, module, qualname, _ in ENTRY_POINTS)
SPANNED = tuple(name for name, ep in zip(NAMES, ENTRY_POINTS) if ep[3])

# array typecodes of the span columns: name, parent, start, end
SPAN_COLUMNS = ("H", "q", "q", "q")

# counters that are not plain call counts
YIELDED = "starwords.iter_words.yielded"
WORDS_CHECKED = "freeness.words_checked"


class Recorder:
    """Spans and per-entry-point totals of one traced process."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in NAMES}
        self.self_ns = {name: 0 for name in SPANNED}
        self.counters = {YIELDED: 0, WORDS_CHECKED: 0}
        # one row per span; parent is the row of the enclosing span or -1
        self.span_name, self.span_parent, self.span_start, self.span_end = (
            array.array(typecode) for typecode in SPAN_COLUMNS
        )
        # open spans: [row, nanoseconds covered by traced children]
        self._stack: list[list[int]] = []

    def counting(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanning(self, name: str, fn):
        code = NAMES.index(name)
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        rows_name, rows_parent = self.span_name, self.span_parent
        rows_start, rows_end = self.span_start, self.span_end
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            row = len(rows_name)
            rows_name.append(code)
            rows_parent.append(stack[-1][0] if stack else -1)
            rows_start.append(0)
            rows_end.append(0)
            frame = [row, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                rows_start[row] = start
                rows_end[row] = end
                elapsed = end - start
                calls[name] += 1
                self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def wrap(self, name: str, fn, spanned: bool):
        inner = self.spanning(name, fn) if spanned else self.counting(name, fn)
        counters = self.counters
        if name == "starwords.iter_words":

            def counted_words(*args, **kwargs):
                for word in inner(*args, **kwargs):
                    counters[YIELDED] += 1
                    yield word

            return counted_words
        if name == "freeness.test_freeness":

            def counted_verdict(*args, **kwargs):
                verdict = inner(*args, **kwargs)
                counters[WORDS_CHECKED] += verdict.words_checked
                return verdict

            return counted_verdict
        return inner

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "counters": self.counters,
            "spans": len(self.span_name),
        }

    def write_spans(self, path) -> None:
        """Columns as raw native arrays: name codes (u16, indices into
        NAMES), then parent row, start ns and end ns (i64), each preceded
        by its row count (i64)."""
        with open(path, "wb") as handle:
            for column in (
                self.span_name,
                self.span_parent,
                self.span_start,
                self.span_end,
            ):
                array.array("q", [len(column)]).tofile(handle)
                column.tofile(handle)


def read_spans(path) -> tuple[array.array, ...]:
    """The (name, parent, start, end) columns written by write_spans."""
    columns = []
    with open(path, "rb") as handle:
        for typecode in SPAN_COLUMNS:
            rows = array.array("q")
            rows.fromfile(handle, 1)
            column = array.array(typecode)
            column.fromfile(handle, rows[0])
            columns.append(column)
    return tuple(columns)


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "tensorfree" or name.startswith("tensorfree."))
    ]


def _package_classes(modules) -> list[type]:
    seen: dict[int, type] = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("tensorfree"):
                seen[id(value)] = value
    return list(seen.values())


def install(recorder: Recorder) -> dict[str, int]:
    """Rebind every listed entry point wherever the package binds it.

    Returns the number of bindings replaced per entry point; each is at
    least one, or ValueError is raised.
    """
    import tensorfree.cli  # noqa: F401  (loads every module of the package)

    modules = _package_modules()
    classes = _package_classes(modules)
    sites: dict[str, int] = {}
    for (_, module_name, qualname, spanned), name in zip(ENTRY_POINTS, NAMES):
        owner = sys.modules[f"tensorfree.{module_name}"]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if not isinstance(original, FunctionType):
            raise ValueError(f"{name} is not a plain function")
        wrapper = recorder.wrap(name, original, spanned)
        count = 0
        for namespace in modules + classes:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    count += 1
        if count == 0:
            raise ValueError(f"{name}: no binding found")
        sites[name] = count
    return sites


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, cli_argv = argv[0], argv[2:]
    recorder = Recorder()
    sites = install(recorder)
    import tensorfree.cli as cli

    code = cli.main(cli_argv)
    sys.stdout.flush()
    recorder.write_spans(summary_path.removesuffix(".json") + ".spans")
    summary = recorder.summary()
    summary["sites"] = sites
    summary["exit"] = code
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
