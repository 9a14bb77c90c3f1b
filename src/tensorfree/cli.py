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

from .counterexample import DEFAULT_ALPHA, analyze_biased_power
from .errors import (
    FactorNotFreeError,
    LimitError,
    PreconditionError,
    ScenarioError,
    TensorFreeError,
)
from .freeness import Verdict, centered_product_value, test_freeness
from .groups import group_dominating_report, is_free_collection
from .identities import IDENTITY_CHECKS, ConclusionReport, IdentityCheck, InequalityCheck
from .scenario import ScenarioFile, canonical_trace_view, load_scenario
from .scalars import fraction_from_json, scalar_json
from .spaces import check_axioms
from .starwords import StarWord, parse_word, power_word_to_star_word
from .tensor import factor_moment, joint_oracle, tensor_moment
from .tfc import (
    check_necessary_conditions,
    check_tfc,
    factor_freeness_verdict,
    find_dominating,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_LIMITS = 3

DEFAULT_BOUNDS = {"max_len": 8, "max_blocks": 4, "max_exp": 3, "gram_len": 3}

# worked inputs used when an identity check gets no vectors on the line
IDENTITY_DEFAULTS = {
    "shifted-product": {"alpha": Fraction(2), "x": (3, 5)},
    "interpolated-product": {"t": (Fraction(1, 2), Fraction(1, 3)), "x": (3, 4)},
    "interpolated-product-conclusions": {"t": (1, Fraction(1, 3)), "x": (1, 5)},
    "product-sum": {"x": (2, 1), "y": (1, 3)},
    "product-sum-conclusions": {"x": (2, 1), "y": (1, 1)},
    "or-product": {"x": (Fraction(1, 2), 1), "y": (Fraction(1, 3), Fraction(1, 4))},
    "or-product-conclusions": {"x": (Fraction(1, 2), 1), "y": (Fraction(1, 3), 1)},
}


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


def _require_tensor(sf: ScenarioFile):
    if sf.tensor is None:
        raise ScenarioError(
            f"subcommand needs a tensor scenario, but {sf.name!r} is {sf.kind!r}"
        )
    return sf.tensor


def _require_collection(sf: ScenarioFile):
    if sf.collection is None:
        raise ScenarioError(
            f"subcommand needs a group scenario, but {sf.name!r} is {sf.kind!r}"
        )
    return sf.collection


def _verdict_json(verdict: Verdict, oracle=None) -> dict:
    out: dict = {
        "free": verdict.free,
        "bound": verdict.bound,
        "words_checked": verdict.words_checked,
        "witness": None,
    }
    if verdict.witness is not None:
        out["witness"] = verdict.witness.text()
        out["lhs"] = scalar_json(verdict.lhs)
        out["rhs"] = scalar_json(verdict.rhs)
        if oracle is not None:
            out["moment"] = scalar_json(oracle(verdict.witness.letters))
    return out


def _axioms_json(report) -> dict:
    return {
        "unital": report.unital,
        "hermitian": report.hermitian,
        "tracial": report.tracial,
        "positive_semidefinite": report.positive_semidefinite,
        "positive_definite": report.positive_definite,
        "basis_size": report.basis_size,
        "gram_len": report.gram_len,
        # positivity is always decided exactly; the key stays because
        # report goldens and benchmark stdout hashes pin it
        "mode": "exact",
        "notes": list(report.notes),
    }


def _tfc_json(report, oracle) -> dict:
    violations = []
    for v in report.violations:
        entry = {
            "condition": v.condition,
            "index": v.index,
            "word": v.word_text(),
            "factor": v.factor,
            "tensor_value": scalar_json(v.tensor_value),
            "moment": scalar_json(oracle(parse_word(v.word_text()).letters)),
        }
        if v.factor_value is not None:
            entry["factor_value"] = scalar_json(v.factor_value)
        if v.variance is not None:
            entry["variance"] = scalar_json(v.variance)
        violations.append(entry)
    return {
        "k": report.k,
        "bound": report.bound,
        "satisfied": report.satisfied,
        "dominating": report.dominating,
        "patterns_checked": report.patterns_checked,
        "violations": violations,
        "freeness": None if report.freeness is None else _verdict_json(report.freeness),
        "notes": list(report.notes),
    }


# -- subcommand handlers ----------------------------------------------------


def _run_moments(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        raise ScenarioError(f"bad star word {args.word!r}: {exc}") from exc
    if sf.tensor is not None:
        scen = sf.tensor
        for letter in word.letters:
            if letter.index not in scen.indices:
                raise ScenarioError(f"word uses unknown variable x{letter.index}")
        report = {
            "word": word.text(),
            "joint_moment": scalar_json(tensor_moment(scen, word)),
            "factor_moments": {
                str(k): scalar_json(factor_moment(scen, word, k))
                for k in range(1, scen.K + 1)
            },
        }
    else:
        collection = sf.collection
        model = canonical_trace_view(collection)
        for letter in word.letters:
            if letter.index not in collection.indices:
                raise ScenarioError(f"word uses unknown variable x{letter.index}")
        report = {
            "word": word.text(),
            "canonical_trace_moment": scalar_json(model.moment(word)),
            "element": model.element_of(word.letters).text(),
        }
    return report, EXIT_OK


def _run_test_freeness(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    max_len = bounds["max_len"]
    if sf.tensor is not None:
        scen = sf.tensor
        oracle = joint_oracle(scen)
        diagonal = test_freeness(oracle, scen.indices, max_len)
        factors: dict = {}
        for k in range(1, scen.K + 1):
            verdict = factor_freeness_verdict(scen, k, max_len)
            if verdict is None:
                factors[str(k)] = {"declared_free": True}
            else:
                def factor_oracle(letters, k=k):
                    return factor_moment(scen, StarWord(tuple(letters)), k)

                factors[str(k)] = _verdict_json(verdict, factor_oracle)
        report = {
            "diagonal": _verdict_json(diagonal, oracle),
            "factors": factors,
        }
        return report, EXIT_OK if diagonal.free else EXIT_FAILED
    collection = sf.collection
    model = canonical_trace_view(collection)
    verdict = test_freeness(model.moment_letters, collection.indices, max_len)
    report = {"canonical_trace": _verdict_json(verdict, model.moment_letters)}
    return report, EXIT_OK if verdict.free else EXIT_FAILED


def _run_check_tfc(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    scen = _require_tensor(sf)
    oracle = joint_oracle(scen)
    try:
        report = check_tfc(scen, args.k, bounds["max_len"])
    except FactorNotFreeError as exc:
        payload = {
            "k": args.k,
            "precondition_failed": "factor family is not star-free",
            "factor_freeness": _verdict_json(exc.verdict),
        }
        return payload, EXIT_FAILED
    return _tfc_json(report, oracle), EXIT_OK if report.satisfied else EXIT_FAILED


def _run_find_dominating(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    scen = _require_tensor(sf)
    oracle = joint_oracle(scen)
    search = find_dominating(scen, bounds["max_len"])
    report = {
        "dominating": search.dominating,
        "bound": search.bound,
        "reports": {str(k): _tfc_json(r, oracle) for k, r in search.reports.items()},
        "not_free": {
            str(k): _verdict_json(v) for k, v in search.not_free.items()
        },
    }
    return report, EXIT_OK if search.dominating is not None else EXIT_FAILED


def _run_group_freeness(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    collection = _require_collection(sf)
    verdict = is_free_collection(
        collection.presentation,
        collection.elements,
        bounds["max_blocks"],
        bounds["max_exp"],
    )
    model = canonical_trace_view(collection)
    star = test_freeness(model.moment_letters, collection.indices, bounds["max_len"])
    report: dict = {
        "group": {
            "free": verdict.free,
            "witness": verdict.witness.text() if verdict.witness else None,
            "max_blocks": verdict.max_blocks,
            "max_exp": verdict.max_exp,
            "words_checked": verdict.words_checked,
        },
        "canonical_trace": _verdict_json(star, model.moment_letters),
    }
    if verdict.witness is not None:
        word = power_word_to_star_word(verdict.witness.blocks)
        centered = centered_product_value(
            model.moment_letters, word.letters, {i: i for i in collection.indices}
        )
        report["bridge"] = {
            "witness_star_word": word.text(),
            "centered_value": scalar_json(centered),
            "moment": scalar_json(model.moment(word)),
        }
    ok = verdict.free and star.free
    return report, EXIT_OK if ok else EXIT_FAILED


def _run_prop_1_6(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    collection = _require_collection(sf)
    rep = group_dominating_report(
        collection.presentation,
        collection.elements,
        bounds["max_blocks"],
        bounds["max_exp"],
    )
    report = {
        "collection_free": rep.collection_free,
        "freeness_witness": rep.freeness_witness.text() if rep.freeness_witness else None,
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
    scen = _require_tensor(sf)
    oracle = joint_oracle(scen)
    rep = check_necessary_conditions(scen, bounds["max_len"], bounds["gram_len"])
    claims = {
        "claim1": rep.claim1_holds,
        "claim2": rep.claim2_holds,
        "claim3": rep.claim3_holds,
    }
    report = {
        "classification": rep.classification,
        "hypotheses_met": rep.hypotheses_met,
        "hypothesis_problems": list(rep.hypothesis_problems),
        "non_unitary": [list(pair) for pair in rep.non_unitary],
        "diagonal": None if rep.d_verdict is None else _verdict_json(rep.d_verdict, oracle),
        "dominating": rep.dominating,
        "tfc": None if rep.tfc is None else _tfc_json(rep.tfc, oracle),
        "power_witness": None if rep.power_witness is None else list(rep.power_witness),
        "group_like": rep.group_like,
        "claims": claims,
        "notes": list(rep.notes),
    }
    failed = any(value is False for value in claims.values())
    return report, EXIT_FAILED if failed else EXIT_OK


def _run_counterexample_k(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    if sf.tensor is not None and sf.tensor.K != args.K:
        raise ScenarioError(
            f"scenario {sf.name!r} has {sf.tensor.K} factors, "
            f"but the command asked for K = {args.K}"
        )
    alpha = sf.alpha if sf.alpha is not None else DEFAULT_ALPHA
    analysis = analyze_biased_power(args.K, alpha, bounds["max_len"])
    report = {
        "factors": analysis.factors,
        "alpha": scalar_json(analysis.alpha),
        "bound": analysis.bound,
        "verdict": _verdict_json(analysis.verdict),
        "scan": [
            {
                "block_pairs": line.block_pairs,
                "words": line.words,
                "violations": line.violations,
            }
            for line in analysis.scan
        ],
        "filters": [
            {
                "block_pairs": fc.block_pairs,
                "noncrossing": fc.noncrossing,
                "pure_parity": fc.pure_parity,
                "no_even_singletons": fc.no_even_singletons,
                "disjoint_singleton_capacity": fc.disjoint_singleton_capacity,
                "singleton_supports": [list(s) for s in fc.singleton_supports],
            }
            for fc in analysis.filters
        ],
        "minimal_block_pairs": analysis.minimal_block_pairs,
        "block_pair_cap": analysis.block_pair_cap,
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
    func, params = IDENTITY_CHECKS[name]
    for param in ("alpha", "t", "x", "y"):
        if param not in params and getattr(args, param) is not None:
            raise ScenarioError(
                f"--{param}: identity {name!r} takes only "
                + ", ".join("--" + p for p in params)
            )
    defaults = IDENTITY_DEFAULTS[name]
    inputs: dict = {}
    for param in params:
        flag = getattr(args, param, None)
        if flag is None:
            inputs[param] = defaults[param]
        else:
            inputs[param] = _parse_flag(flag, "--" + param)
    try:
        result = func(**inputs)
    except (PreconditionError, ValueError) as exc:
        raise ScenarioError(f"identity inputs rejected: {exc}") from exc

    def _num(value):
        return scalar_json(value)

    payload: dict = {"identity": name, "inputs": {}}
    for param, value in inputs.items():
        if param == "alpha":
            payload["inputs"][param] = _num(value)
        else:
            payload["inputs"][param] = [_num(e) for e in value]
    if isinstance(result, IdentityCheck):
        payload.update(
            {"lhs": _num(result.lhs), "rhs": _num(result.rhs), "equal": result.equal}
        )
        ok = result.equal
    elif isinstance(result, InequalityCheck):
        payload.update(
            {"lhs": _num(result.lhs), "rhs": _num(result.rhs), "holds": result.holds}
        )
        ok = result.holds
    else:
        assert isinstance(result, ConclusionReport)
        payload.update(
            {
                "hypothesis_lhs": _num(result.hypothesis_lhs),
                "hypothesis_rhs": _num(result.hypothesis_rhs),
                "terms": [[label, _num(value)] for label, value in result.terms],
                "all_zero": result.all_zero,
            }
        )
        ok = result.all_zero
    return payload, EXIT_OK if ok else EXIT_FAILED


def _run_check_axioms(sf: ScenarioFile, args, bounds) -> tuple[dict, int]:
    gram_len = bounds["gram_len"]
    if sf.tensor is not None:
        scen = sf.tensor
        factors = {}
        ok = True
        for k in range(1, scen.K + 1):
            rep = check_axioms(scen.factors[k - 1], gram_len)
            factors[str(k)] = _axioms_json(rep)
            ok = ok and rep.unital and rep.hermitian and rep.tracial
            ok = ok and rep.positive_semidefinite
        return {"factors": factors}, EXIT_OK if ok else EXIT_FAILED
    collection = sf.collection
    model = canonical_trace_view(collection)
    rep = check_axioms(model, gram_len)
    ok = rep.unital and rep.hermitian and rep.tracial and rep.positive_semidefinite
    return {"canonical_trace": _axioms_json(rep)}, EXIT_OK if ok else EXIT_FAILED


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


def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--max-len", dest="max_len", type=int, default=None,
                        help="star word length bound (default 8 or scenario value)")
    shared.add_argument("--max-blocks", dest="max_blocks", type=int, default=None,
                        help="group word block bound (default 4 or scenario value)")
    shared.add_argument("--max-exp", dest="max_exp", type=int, default=None,
                        help="group exponent bound (default 3 or scenario value)")
    shared.add_argument("--gram-len", dest="gram_len", type=int, default=None,
                        help="Gram basis word length (default 3 or scenario value)")
    shared.add_argument("--out", default=None,
                        help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="tensorfree",
        description="Run exact freeness and tensor-freeness checks on a scenario file.",
    )
    parser.add_argument("scenario", help="path to a scenario JSON file")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("moments", parents=[shared],
                            help="evaluate one star word's moment")
    p.add_argument("word", help="star word, e.g. 'x1 x2*'")
    commands.add_parser("test-freeness", parents=[shared],
                        help="bounded star-freeness of the scenario's family")
    p = commands.add_parser("check-tfc", parents=[shared],
                            help="tensor freeness conditions for one factor")
    p.add_argument("--k", type=int, default=1, help="candidate factor (default 1)")
    commands.add_parser("find-dominating", parents=[shared],
                        help="smallest factor whose conditions hold")
    commands.add_parser("group-freeness", parents=[shared],
                        help="group-level freeness plus the canonical trace route")
    commands.add_parser("prop-1-6", parents=[shared],
                        help="dominating component search for a group collection")
    commands.add_parser("theorem-1-8", parents=[shared],
                        help="necessary-condition instance checks")
    p = commands.add_parser("counterexample-k", parents=[shared],
                            help="biased-power family scan and filter analysis")
    p.add_argument("K", type=int, help="number of tensor factors (>= 2)")
    p = commands.add_parser("identities", parents=[shared],
                            help="polynomial identity and inequality instances")
    p.add_argument("name", help="identity name, e.g. shifted-product")
    p.add_argument("--alpha", default=None, help="scalar as JSON, e.g. 2 or [1,2]")
    p.add_argument("--t", default=None, help="vector as JSON array of rationals")
    p.add_argument("--x", default=None, help="vector as JSON array of rationals")
    p.add_argument("--y", default=None, help="vector as JSON array of rationals")
    commands.add_parser("check-axioms", parents=[shared],
                        help="functional axioms and Gram positivity per factor")
    return parser


def _emit(report: dict, out_path: str | None) -> None:
    blob = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(blob)
        except OSError as exc:
            raise ScenarioError(f"--out: {exc}") from exc
    else:
        sys.stdout.write(blob)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
