"""The benchmark's workloads: fixed lists of CLI invocations.

An invocation is the argument list given to ``python -m tensorfree.cli``.
Every input is a bundled scenario at a fixed bound, so outputs never
depend on the seed; the seed only shuffles the order of ``catalog``.
"""

from __future__ import annotations

import random

SCENARIO_DIR = "scenarios"

# (scenario, subcommand) pairs that exit 0 or 1 at the file's bounds in
# under 2 s; pairs that exit 2 (wrong scenario kind) are left out
CATALOG_PAIRS = (
    ("biased_power_k2", ("check-tfc", "find-dominating", "check-axioms")),
    ("biased_power_k3", ("check-tfc", "find-dominating", "check-axioms")),
    (
        "biased_unitary",
        ("test-freeness", "check-tfc", "find-dominating", "theorem-1-8", "check-axioms"),
    ),
    (
        "circular_dominated",
        ("test-freeness", "check-tfc", "find-dominating", "theorem-1-8", "check-axioms"),
    ),
    (
        "doubly_free",
        ("test-freeness", "check-tfc", "find-dominating", "theorem-1-8", "check-axioms"),
    ),
    ("free_pair_collection", ("prop-1-6", "check-axioms")),
    (
        "free_without_dominating",
        ("check-tfc", "find-dominating", "theorem-1-8", "check-axioms"),
    ),
    (
        "haar_dominated",
        ("test-freeness", "check-tfc", "find-dominating", "theorem-1-8", "check-axioms"),
    ),
    (
        "integer_pair_collection",
        ("test-freeness", "group-freeness", "prop-1-6", "check-axioms"),
    ),
    ("mixed_order_collection", ("prop-1-6", "check-axioms")),
    ("product_pair_collection", ("prop-1-6", "check-axioms")),
)

MOMENT_WORD = "x1 x2* x1* x2"
# circular_dominated has a single variable
ONE_VARIABLE_WORD = "x1 x1* x1 x1*"

IDENTITIES = (
    "shifted-product",
    "interpolated-product",
    "interpolated-product-conclusions",
    "product-sum",
    "product-sum-conclusions",
    "or-product",
    "or-product-conclusions",
)
# the identities ignore the scenario, but the CLI still loads one
IDENTITY_SCENARIO = "circular_dominated"


def scenario_path(name: str) -> str:
    return f"{SCENARIO_DIR}/{name}.json"


def _call(scenario: str, *args: str) -> tuple[str, ...]:
    return (scenario_path(scenario),) + args


def _catalog() -> list[tuple[str, ...]]:
    calls = [_call(s, cmd) for s, cmds in CATALOG_PAIRS for cmd in cmds]
    for scenario, _ in CATALOG_PAIRS:
        word = ONE_VARIABLE_WORD if scenario == "circular_dominated" else MOMENT_WORD
        calls.append(_call(scenario, "moments", word))
    calls.extend(_call(IDENTITY_SCENARIO, "identities", name) for name in IDENTITIES)
    return calls


WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # at the file's bound (max_len 8) this one run takes 15-25 s, which the
    # benchmark's time budget cannot afford 22 times; max_len 7 scans the
    # same way in a fifth of the time
    "tensor-scan": [_call("biased_power_k2", "test-freeness", "--max-len", "7")],
    "group-scan": [_call("product_pair_collection", "group-freeness")],
    "witness-search": [_call("biased_power_k2", "counterexample-k", "2", "--max-len", "10")],
    "catalog": _catalog(),
}

# Entry points each workload is known to reach.  A traced run fails when
# one of them records no call: that means a wrapper was not rebound at
# some import site.  Together the sets cover every traced entry point but
# those in UNREACHED.
_SCALARS = {"scalars.ExactComplex.__mul__", "scalars.ExactComplex.__add__"}
_CLI = {"cli.main", "scenario.load_scenario"}
_FREE_ENGINE = {
    "freeness.FreeFamilySpec.mixed_moment_letters",
    "freeness.FreeFamilySpec.class_moment",
    "spaces.SpectralModel.moment_letters",
}
_ORACLE = {"tensor.tensor_moment", "tensor.factor_moment"}
_STAR_SCAN = {
    "starwords.iter_words",
    "freeness.test_freeness",
    "freeness.centered_product_value",
}
_GROUP_SCAN = {
    "groups.multiply",
    "groups.reduce",
    "groups.is_free_collection",
    "spaces.GroupAlgebraModel.moment_letters",
}
EXPECTED_ENTRY_POINTS: dict[str, frozenset[str]] = {
    "tensor-scan": frozenset(_SCALARS | _CLI | _FREE_ENGINE | _ORACLE | _STAR_SCAN),
    "group-scan": frozenset(_SCALARS | _CLI | _STAR_SCAN | _GROUP_SCAN),
    "witness-search": frozenset(
        _SCALARS
        | _CLI
        | _FREE_ENGINE
        | _ORACLE
        | {"counterexample.scan_alternating_powers", "counterexample.filter_counts"}
    ),
    "catalog": frozenset(
        _SCALARS
        | _CLI
        | _FREE_ENGINE
        | _ORACLE
        | _STAR_SCAN
        | _GROUP_SCAN
        | {
            "spaces.TableFunctional.moment_letters",
            "spaces.check_axioms",
            "spaces.hermitian_ldl_signature",
            "tfc.check_tfc",
            "tfc.find_dominating",
            "tfc.check_necessary_conditions",
            "groups.group_dominating_report",
        }
    ),
}
# No subcommand reaches enumerate_nc: only the cumulant routes call it
# (mixed_moment_by_cumulants, cumulant_from_moments), and the CLI uses
# neither.  The microbenchmark ncpartitions.enumerate_nc12_ms covers it.
UNREACHED = frozenset({"ncpartitions.enumerate_nc"})


def invocation_id(call: tuple[str, ...]) -> str:
    """Manifest key: scenario stem, then the CLI arguments."""
    stem = call[0].rsplit("/", 1)[-1].removesuffix(".json")
    return " ".join((stem,) + call[1:])


def invocations(workload: str, seed: int) -> list[tuple[str, ...]]:
    calls = list(WORKLOADS[workload])
    random.Random(seed).shuffle(calls)
    return calls
