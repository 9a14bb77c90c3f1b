"""Command line runner: load a scenario file, run one check, emit a report.

The machine-readable JSON report goes to standard output (or --out) and
is byte-identical across runs of the same inputs; the human summary and
timing go to standard error.  Exit codes: 0 = ran and passed, 1 = check
failed and the report carries a witness, 2 = invalid scenario or
arguments, 3 = an enumeration or dimension limit was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .counterexample import (
    BLOCK_PAIR_CAP,
    DEFAULT_ALPHA,
    analyze_biased_power,
    biased_power_scenario,
)
from .errors import (
    FactorNotFreeError,
    LimitError,
    PreconditionError,
    ScenarioError,
    TensorFreeError,
)
from .freeness import Verdict, centered_product_value, test_freeness
from .groups import (
    GroupElement,
    GroupWitness,
    group_dominating_report,
    is_free_collection,
)
from .identities import IDENTITY_CHECKS
from .scenario import ScenarioFile, load_scenario
from .scalars import ExactComplex, fraction_from_json, scalar_json
from .spaces import check_axioms
from .starwords import StarWord, parse_word, power_word_to_star_word
from .tensor import (
    TensorScenario,
    diagonal_verdict,
    factor_moment,
    factor_oracle,
    joint_oracle,
    tensor_moment,
)
from .tfc import check_necessary_conditions, check_tfc, find_dominating

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_LIMITS = 3

DEFAULT_BOUNDS = {"max_len": 8, "max_blocks": 4, "max_exp": 3, "gram_len": 3}


def _bounds(sf: ScenarioFile, args) -> dict[str, int]:
    """Flag > scenario file > built-in default, per bound."""
    out = dict(DEFAULT_BOUNDS)
    out.update(sf.bounds)
    for key in DEFAULT_BOUNDS:
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
    for key, value in out.items():
        if value < 1:
            raise ScenarioError(f"bound {key} must be positive, got {value}")
    return out


def _require(sf: ScenarioFile, kind: str):
    """The file's tensor scenario or group algebra, by the kind asked for."""
    model = sf.tensor if kind == "tensor" else sf.collection
    if model is None:
        raise ScenarioError(
            f"subcommand needs a {kind} scenario, but {sf.name!r} is {sf.kind!r}"
        )
    return model


def _json(value):
    """A report value in its JSON form: exact scalars as scalar_json
    writes them, words and group witnesses and elements as their text,
    records as the object of their fields, tuples as arrays."""
    if isinstance(value, (ExactComplex, Fraction)):
        return scalar_json(value)
    if isinstance(value, (StarWord, GroupWitness, GroupElement)):
        return value.text()
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(item) for item in value]
    return value


def _verdict_json(verdict: Verdict, oracle=None) -> dict:
    out = verdict._asdict()
    if verdict.witness is None:
        del out["lhs"]  # a free verdict has no lhs
    else:
        # a witness's centered product should have been zero
        out["rhs"] = 0
        if oracle is not None:
            out["moment"] = oracle(verdict.witness)
    return out


def _tfc_json(report) -> dict:
    # a violation shows its word, not its pattern, its tensor_value also
    # as moment, and factor_value and variance only when they are set
    violations = [
        {
            **{
                field: x
                for field, x in v._asdict().items()
                if field != "pattern" and x is not None
            },
            "word": v.word,
            "moment": v.tensor_value,
        }
        for v in report.violations
    ]
    return {
        **report._asdict(),
        "satisfied": report.satisfied,
        "dominating": report.dominating,
        "violations": violations,
        "freeness": None if report.freeness is None else _verdict_json(report.freeness),
    }


def _canonical_trace_verdict(model, max_len: int) -> Verdict:
    """Bounded star-freeness of a group algebra's variables under its
    canonical trace, walked by the rules of the collection viewed as a
    one-factor tensor scenario (TensorScenario.scan_rules, as
    factor_verdict reads a factor's): one word per bracelet, skipping the
    words that break its gauge."""
    view = TensorScenario((model,), {v: (v,) for v in model.variables})
    # group elements are unitary, so the walk's reduced-word rule would be
    # sound too; it is left out because with it group-freeness on
    # product_pair_collection does no ExactComplex arithmetic, which
    # perfbench/workloads.py expects of the group-scan workload; bracelets
    # alone keep that arithmetic
    rules = view.scan_rules._replace(unitary=frozenset())
    return test_freeness(model.moment_letters, model.variables, max_len, rules)


# -- subcommand handlers ----------------------------------------------------


def _run_moments(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        raise ScenarioError(f"bad star word {args.word!r}: {exc}") from exc
    variables = sf.tensor.indices if sf.tensor is not None else sf.collection.variables
    for letter in word:
        if letter.index not in variables:
            raise ScenarioError(f"word uses unknown variable x{letter.index}")
    if sf.tensor is not None:
        scen = sf.tensor
        report = {
            "word": word,
            "joint_moment": tensor_moment(scen, word),
            "factor_moments": {
                str(k): factor_moment(scen, word, k) for k in range(1, scen.K + 1)
            },
        }
    else:
        model = sf.collection
        report = {
            "word": word,
            "canonical_trace_moment": model.moment_letters(word),
            "element": model.element_of(word),
        }
    return report, EXIT_OK


def _run_test_freeness(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    max_len = bounds["max_len"]
    if sf.tensor is not None:
        scen = sf.tensor
        oracle = joint_oracle(scen)
        diagonal = diagonal_verdict(scen, max_len, oracle)
        factors: dict = {}
        for k in range(1, scen.K + 1):
            verdict = scen.factor_verdict(k, max_len)
            if verdict is None:
                factors[str(k)] = {"declared_free": True}
            else:
                factors[str(k)] = _verdict_json(verdict, factor_oracle(scen, k))
        report = {
            "diagonal": _verdict_json(diagonal, oracle),
            "factors": factors,
        }
        return report, EXIT_OK if diagonal.free else EXIT_FAILED
    model = sf.collection
    verdict = _canonical_trace_verdict(model, max_len)
    report = {"canonical_trace": _verdict_json(verdict, model.moment_letters)}
    return report, EXIT_OK if verdict.free else EXIT_FAILED


def _run_check_tfc(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    scen = _require(sf, "tensor")
    try:
        report = check_tfc(scen, args.k, bounds["max_len"])
    except FactorNotFreeError as exc:
        payload = {
            "k": args.k,
            "precondition_failed": "factor family is not star-free",
            "factor_freeness": _verdict_json(exc.verdict),
        }
        return payload, EXIT_FAILED
    return _tfc_json(report), EXIT_OK if report.satisfied else EXIT_FAILED


def _run_find_dominating(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    scen = _require(sf, "tensor")
    search = find_dominating(scen, bounds["max_len"])
    report = {
        "dominating": search.dominating,
        "bound": bounds["max_len"],
        "reports": {str(k): _tfc_json(r) for k, r in search.reports.items()},
        "not_free": {
            str(k): _verdict_json(v) for k, v in search.not_free.items()
        },
    }
    return report, EXIT_OK if search.dominating is not None else EXIT_FAILED


def _run_group_freeness(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    model = _require(sf, "group")
    collection = (model.presentation, tuple(model.elements.values()))
    verdict = is_free_collection(*collection, bounds["max_blocks"], bounds["max_exp"])
    star = _canonical_trace_verdict(model, bounds["max_len"])
    report: dict = {
        "group": verdict,
        "canonical_trace": _verdict_json(star, model.moment_letters),
    }
    if verdict.witness is not None:
        # the witness numbers the elements 1..n in variable order
        word = power_word_to_star_word(
            tuple((model.variables[p - 1], n) for p, n in verdict.witness.blocks)
        )
        centered = centered_product_value(
            model.moment_letters, word, {i: i for i in model.variables}
        )
        report["bridge"] = {
            "witness_star_word": word,
            "centered_value": centered,
            "moment": model.moment_letters(word),
        }
    ok = verdict.free and star.free
    return report, EXIT_OK if ok else EXIT_FAILED


def _run_prop_1_6(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    model = _require(sf, "group")
    collection = (model.presentation, tuple(model.elements.values()))
    rep = group_dominating_report(*collection, bounds["max_blocks"], bounds["max_exp"])
    report = {
        "collection_free": rep.collection_free,
        "freeness_witness": rep.freeness_witness,
        "dominating": rep.dominating,
        "component_reports": [
            {"component": k, "projections_free": free, "orders_preserved": orders}
            for k, free, orders in rep.component_reports
        ],
        "searched": rep.searched,
        "suspect": rep.suspect,
    }
    ok = rep.collection_free and rep.dominating is not None
    return report, EXIT_OK if ok else EXIT_FAILED


def _run_theorem_1_8(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    scen = _require(sf, "tensor")
    oracle = joint_oracle(scen)
    rep = check_necessary_conditions(scen, bounds["max_len"], bounds["gram_len"])
    claims = {
        "claim1": rep.claim1_holds,
        "claim2": rep.claim2_holds,
        "claim3": rep.claim3_holds,
    }
    report = rep._asdict()
    # d_verdict shows as diagonal
    del report["d_verdict"]
    verdict = rep.d_verdict
    report.update(
        hypotheses_met=rep.hypotheses_met,
        diagonal=None if verdict is None else _verdict_json(verdict, oracle),
        dominating=rep.dominating,
        tfc=None if rep.tfc is None else _tfc_json(rep.tfc),
        claims=claims,
    )
    failed = any(value is False for value in claims.values())
    return report, EXIT_FAILED if failed else EXIT_OK


def _run_counterexample_k(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    scen = _require(sf, "tensor")
    if scen.K != args.K:
        raise ScenarioError(
            f"scenario {sf.name!r} has {scen.K} factors, "
            f"but the command asked for K = {args.K}"
        )
    alpha = sf.alpha if sf.alpha is not None else DEFAULT_ALPHA
    # spectral models compare by their freeness flag and moment sequences
    if scen != biased_power_scenario(args.K, alpha):
        raise ScenarioError(
            f"scenario {sf.name!r} is not the biased-power pair for "
            f"K = {args.K} and alpha {alpha}"
        )
    analysis = analyze_biased_power(args.K, alpha, bounds["max_len"])
    report = {
        **analysis._asdict(),
        "factors": args.K,
        "alpha": alpha,
        "bound": bounds["max_len"],
        "verdict": _verdict_json(analysis.verdict),
        "block_pair_cap": BLOCK_PAIR_CAP,
        "note": (
            "a violating word needs one partition with all singleton exponents "
            "+-k per factor k, with pairwise disjoint singleton positions; "
            "block pair counts whose capacity is below the factor count "
            "admit no violation"
        ),
    }
    return report, EXIT_OK if analysis.verdict.free else EXIT_FAILED


def _parse_flag(text: str, flag: str) -> Fraction | tuple[Fraction, ...]:
    """--alpha as one rational, any other flag as a nonempty array of
    them, each in the scenario files' scalar encoding."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{flag}: not valid JSON: {exc}") from exc
    try:
        if flag == "--alpha":
            return fraction_from_json(data)
        if isinstance(data, list) and data:
            return tuple(fraction_from_json(e) for e in data)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{flag}: not a rational: {exc}") from exc
    raise ScenarioError(f"{flag}: expected a nonempty JSON array")


def _run_identities(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    name = args.name
    if name not in IDENTITY_CHECKS:
        raise ScenarioError(
            f"unknown identity {name!r}; choose from {sorted(IDENTITY_CHECKS)}"
        )
    func, defaults = IDENTITY_CHECKS[name]
    for param in ("alpha", "t", "x", "y"):
        if param not in defaults and getattr(args, param) is not None:
            raise ScenarioError(
                f"--{param}: identity {name!r} takes only "
                + ", ".join("--" + p for p in defaults)
            )
    inputs = dict(defaults)
    for param in defaults:
        flag = getattr(args, param)
        if flag is not None:
            inputs[param] = _parse_flag(flag, "--" + param)
    try:
        result = func(**inputs)
    except (PreconditionError, ValueError) as exc:
        raise ScenarioError(f"identity inputs rejected: {exc}") from exc
    # every identity result ends with its verdict: equal, holds or all_zero
    ok = result[-1]
    payload = {"identity": name, "inputs": inputs, **result._asdict()}
    return payload, EXIT_OK if ok else EXIT_FAILED


def _run_check_axioms(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    gram_len = bounds["gram_len"]
    if sf.tensor is not None:
        scen = sf.tensor
        reports = {str(k): scen.axioms(k, gram_len) for k in range(1, scen.K + 1)}
    else:
        reports = {"canonical_trace": check_axioms(sf.collection, gram_len)}
    ok = all(
        r.unital and r.hermitian and r.tracial and r.positive_semidefinite
        for r in reports.values()
    )
    # positivity is always decided exactly; the key stays because report
    # goldens and benchmark stdout hashes pin it
    report = {key: {**r._asdict(), "mode": "exact"} for key, r in reports.items()}
    if sf.tensor is not None:
        report = {"factors": report}
    return report, EXIT_OK if ok else EXIT_FAILED


_HANDLERS = {
    "moments": _run_moments,
    "test-freeness": _run_test_freeness,
    "check-tfc": _run_check_tfc,
    "find-dominating": _run_find_dominating,
    "group-freeness": _run_group_freeness,
    "prop-1-6": _run_prop_1_6,
    "theorem-1-8": _run_theorem_1_8,
    "counterexample-k": _run_counterexample_k,
    "identities": _run_identities,
    "check-axioms": _run_check_axioms,
}


# an argument: (name, type, default, help)
_SHARED = (
    ("--max-len", int, None, "star word length bound (default 8 or scenario value)"),
    ("--max-blocks", int, None, "group word block bound (default 4 or scenario value)"),
    ("--max-exp", int, None, "group exponent bound (default 3 or scenario value)"),
    ("--gram-len", int, None, "Gram basis word length (default 3 or scenario value)"),
    ("--out", None, None, "write the JSON report here instead of stdout"),
)

# command: (help, its own arguments); every command also takes _SHARED
_COMMANDS = {
    "moments": ("evaluate one star word's moment",
                (("word", None, None, "star word, e.g. 'x1 x2*'"),)),
    "test-freeness": ("bounded star-freeness of the scenario's family", ()),
    "check-tfc": ("tensor freeness conditions for one factor",
                  (("--k", int, 1, "candidate factor (default 1)"),)),
    "find-dominating": ("smallest factor whose conditions hold", ()),
    "group-freeness": ("group-level freeness plus the canonical trace route", ()),
    "prop-1-6": ("dominating component search for a group collection", ()),
    "theorem-1-8": ("necessary-condition instance checks", ()),
    "counterexample-k": ("biased-power family scan and filter analysis",
                         (("K", int, None, "number of tensor factors (>= 2)"),)),
    "identities": ("polynomial identity and inequality instances", (
        ("name", None, None, "identity name, e.g. shifted-product"),
        ("--alpha", None, None, "scalar as JSON, e.g. 2 or [1,2]"),
        *((flag, None, None, "vector as JSON array of rationals")
          for flag in ("--t", "--x", "--y")),
    )),
    "check-axioms": ("functional axioms and Gram positivity per factor", ()),
}


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: a subparser for the command argv names after
    the scenario (each costs start-up time), or for every command if none."""
    named = argv[1] if len(argv) > 1 and not argv[0].startswith("-") else None
    parser = argparse.ArgumentParser(
        prog="tensorfree",
        description="Run exact freeness and tensor-freeness checks on a scenario file.",
    )
    parser.add_argument("scenario", help="path to a scenario JSON file")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments) in _COMMANDS.items():
        if named in _COMMANDS and name != named:
            continue
        p = commands.add_parser(name, help=text)
        for argument, kind, default, argument_help in _SHARED + arguments:
            p.add_argument(argument, type=kind, default=default, help=argument_help)
    return parser


def _emit(report: dict, out_path: str | None) -> None:
    blob = json.dumps(_json(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(blob)
        except OSError as exc:
            raise ScenarioError(f"--out: {exc}") from exc
    else:
        sys.stdout.write(blob)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv).parse_args(argv)
    started = time.monotonic()
    try:
        sf = load_scenario(args.scenario)
        bounds = _bounds(sf, args)
        handler = _HANDLERS[args.command]
        payload, code = handler(sf, args, bounds)
        report = {
            "command": args.command,
            "scenario": sf.name,
            "kind": sf.kind,
            "bounds": bounds,
            "report": payload,
        }
        _emit(report, args.out)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMITS
    except TensorFreeError as exc:
        # scenario, precondition and evaluability errors alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    status = "pass" if code == EXIT_OK else "fail"
    elapsed = time.monotonic() - started
    print(
        f"{args.command} on {sf.name}: {status} in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
