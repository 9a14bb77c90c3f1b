"""Scenario files: JSON descriptions of spaces, variables, and bindings.

Two kinds of file.  A tensor scenario lists K factor spaces (group
algebra, group algebra with a value table, or spectral) and binds each
joint variable to one component variable per factor.  A group scenario
lists a presented group and a collection of its elements; it loads as
the group algebra of those elements with the canonical trace, for the
group-level freeness checks and their group-algebra bridge.

Values are exact: scalars are integers, [num, den] rationals, or
[re_num, re_den, im_num, im_den] complex rationals.  Star patterns use
the grammar "aa*a" (a letter per "a", starred by a following "*");
unitary power moments are keyed by signed integers; group elements use
the shared token grammar ("g1.2^-3", identity "e").  Integers written
as text, keys and token numbers alike, are ASCII decimal; variable keys
are unsigned, as the x<INT> of word text is.  Every object
rejects a key it does not read.  The committed files in scenarios/ are
written by hand; nothing in the package writes a scenario.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, NamedTuple

from .errors import ScenarioError
from .groups import (
    FreeProductPresentation,
    GroupElement,
    GroupPresentation,
    parse_group_word,
)
from .ncpartitions import MomentSequence
from .scalars import ExactComplex, scalar_from_json
from .spaces import (
    GroupAlgebraModel,
    MomentFunctional,
    SpectralModel,
    TableFunctional,
)
from .starwords import parse_int
from .tensor import TensorScenario

SCHEMA_VERSION = 1

# the keys each object level may carry; the top level adds its kind's keys
SCENARIO_KEYS = ("version", "name", "kind", "bounds", "alpha")
KIND_KEYS = {"tensor": ("factors", "tensor"), "group": ("presentation", "elements")}
FACTOR_KEYS = {
    "spectral": ("space", "assume_free", "variables"),
    "group": ("space", "presentation", "variables"),
    "table": ("space", "presentation", "variables", "table"),
}
SEQUENCE_KEYS = ("unitary", "period", "complete_through", "moments")


class ScenarioFile(NamedTuple):
    """A parsed scenario: exactly one of tensor or collection is set.

    A group file's collection is the group algebra of its elements with
    the canonical trace, one variable per element key."""

    name: str
    kind: str
    bounds: Mapping[str, int]
    alpha: ExactComplex | None
    tensor: TensorScenario | None = None
    collection: GroupAlgebraModel | None = None


def _object(data, keys, where: str) -> None:
    """Require a JSON object whose keys all lie in keys, so that a
    misspelt optional key is an error rather than silently dropped."""
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: must be an object")
    for key in data:
        if key not in keys:
            raise ScenarioError(f"{where}: unknown key {key!r}")


def _require(data: Mapping, key: str, where: str):
    if key not in data:
        raise ScenarioError(f"{where}: missing {key!r}")
    return data[key]


def _require_object(data: Mapping, key: str, where: str) -> Mapping:
    """The value at key, which must be a JSON object (not a list)."""
    value = _require(data, key, where)
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where}.{key}: must be an object")
    return value


def _scalar(raw, where: str) -> ExactComplex:
    try:
        return scalar_from_json(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: bad scalar {raw!r}: {exc}") from exc


def _int_key(
    text: str, where: str, taken: Mapping[int, object], *, signed: bool
) -> int:
    """Integer value of an object key that must differ from the keys in
    taken, so that "01" cannot silently overwrite "1".

    Variable keys are unsigned (signed=False): word text names a
    variable as x<INT> with INT unsigned, so a variable keyed "-1" or
    "+1" could be named by no word.  Power moment keys are signed.
    """
    try:
        key = parse_int(text, signed=True)
    except ValueError:
        raise ScenarioError(f"{where}: bad integer key {text!r}") from None
    if not signed and text[0] in "+-":
        raise ScenarioError(
            f"{where}: key {text!r} is signed, but a variable index is "
            "unsigned (words name x0, x1, ...)"
        )
    if key in taken:
        raise ScenarioError(f"{where}: key {text!r} repeats the integer key {key}")
    return key


def _group_word(presentation: GroupPresentation, text, where: str) -> GroupElement:
    if not isinstance(text, str):
        raise ScenarioError(f"{where}: must be a group word")
    try:
        return parse_group_word(presentation, text)
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _group_words(
    presentation: GroupPresentation, data: Mapping, key: str, where: str
) -> dict[int, GroupElement]:
    """The nonempty object of variable id -> group word at data[key]."""
    raw = _require_object(data, key, where)
    where = f"{where}.{key}"
    words: dict[int, GroupElement] = {}
    for v, text in raw.items():
        index = _int_key(v, where, words, signed=False)
        words[index] = _group_word(presentation, text, f"{where}[{v}]")
    if not words:
        raise ScenarioError(f"{where}: empty group collection")
    return words


def _flag(data: Mapping, key: str, where: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: {key} must be true or false, got {value!r}")
    return value


def _is_int(value) -> bool:
    """JSON integers only: true and false are not the integers 1 and 0."""
    return type(value) is int


def presentation_from_json(data, where: str = "presentation") -> GroupPresentation:
    _object(data, ("components",), where)
    components = _require(data, "components", where)
    if not isinstance(components, list) or not components:
        raise ScenarioError(f"{where}: components must be a nonempty list")
    parts = []
    for n, comp in enumerate(components, start=1):
        comp_where = f"{where}.components[{n}]"
        _object(comp, ("cyclic_orders",), comp_where)
        orders_raw = _require(comp, "cyclic_orders", comp_where)
        orders = []
        for o in orders_raw:
            if o == "inf" or o is None:
                orders.append(None)
            elif _is_int(o):
                orders.append(o)
            else:
                raise ScenarioError(
                    f"{where}: cyclic order must be an integer or \"inf\", got {o!r}"
                )
        parts.append(FreeProductPresentation(tuple(orders)))
    return GroupPresentation(tuple(parts))


def _pattern_from_text(text: str) -> tuple[bool, ...]:
    out: list[bool] = []
    for ch in text:
        if ch == "a":
            out.append(False)
        elif ch == "*":
            if not out or out[-1]:
                raise ScenarioError(f"bad star pattern {text!r}")
            out[-1] = True
        else:
            raise ScenarioError(f"bad star pattern {text!r}")
    if not out:
        raise ScenarioError("empty star pattern")
    return tuple(out)


def _sequence_from_json(data, where: str) -> MomentSequence:
    _object(data, SEQUENCE_KEYS, where)
    unitary = _flag(data, "unitary", where)
    period = data.get("period")
    if period is not None and (not _is_int(period) or period < 1):
        raise ScenarioError(f"{where}: period must be a positive integer")
    complete_through = data.get("complete_through")
    if complete_through is not None and (
        not _is_int(complete_through) or complete_through < 0
    ):
        raise ScenarioError(f"{where}: complete_through must be a nonnegative integer")
    moments_raw = data.get("moments", {})
    if not isinstance(moments_raw, Mapping):
        raise ScenarioError(f"{where}: moments must be an object")
    moments: dict = {}
    for key_text, raw in moments_raw.items():
        value = _scalar(raw, f"{where}.moments[{key_text!r}]")
        if unitary:
            key = _int_key(key_text, f"{where}.moments", moments, signed=True)
            moments[key] = value
        else:
            moments[_pattern_from_text(key_text)] = value
    try:
        return MomentSequence(
            moments,
            unitary=unitary,
            period=period,
            complete_through=complete_through,
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def factor_from_json(data, where: str) -> MomentFunctional:
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: must be an object")
    kind = _require(data, "space", where)
    if kind not in FACTOR_KEYS:
        raise ScenarioError(f"{where}: unknown space kind {kind!r}")
    _object(data, FACTOR_KEYS[kind], where)
    if kind == "spectral":
        variables_raw = _require_object(data, "variables", where)
        variables = {}
        for v, seq in variables_raw.items():
            key = _int_key(v, f"{where}.variables", variables, signed=False)
            variables[key] = _sequence_from_json(seq, f"{where}.variables[{v}]")
        if not variables:
            raise ScenarioError(f"{where}: no variables")
        return SpectralModel(variables, assume_free=_flag(data, "assume_free", where))
    presentation = presentation_from_json(
        _require(data, "presentation", where), f"{where}.presentation"
    )
    elements = _group_words(presentation, data, "variables", where)
    if kind == "group":
        return GroupAlgebraModel(presentation, elements)
    table_raw = _require_object(data, "table", where)
    table = {}
    for text, raw in table_raw.items():
        element = _group_word(presentation, text, f"{where}.table[{text!r}]")
        if element in table:
            raise ScenarioError(
                f"{where}.table: key {text!r} repeats the element {element.text()}"
            )
        table[element] = _scalar(raw, f"{where}.table[{text!r}]")
    return TableFunctional(presentation, elements, table)


def scenario_from_json(data, default_name: str = "") -> ScenarioFile:
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario: top level must be an object")
    version = data.get("version", SCHEMA_VERSION)
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario: unsupported version {version!r}")
    name = data.get("name", default_name)
    if not isinstance(name, str):
        raise ScenarioError("scenario: name must be a string")
    bounds_raw = data.get("bounds", {})
    if not isinstance(bounds_raw, Mapping):
        raise ScenarioError("scenario: bounds must be an object")
    bounds = {}
    for key, value in bounds_raw.items():
        if key not in ("max_len", "max_blocks", "max_exp", "gram_len"):
            raise ScenarioError(f"scenario: unknown bound {key!r}")
        if not _is_int(value) or value < 1:
            raise ScenarioError(f"scenario: bound {key!r} must be a positive integer")
        bounds[key] = value
    alpha = None
    if "alpha" in data:
        alpha = _scalar(data["alpha"], "scenario.alpha")
    kind = _require(data, "kind", "scenario")
    if kind not in KIND_KEYS:
        raise ScenarioError(f"scenario: unknown kind {kind!r}")
    _object(data, SCENARIO_KEYS + KIND_KEYS[kind], "scenario")
    if kind == "tensor":
        factors_raw = _require(data, "factors", "scenario")
        if not isinstance(factors_raw, list) or not factors_raw:
            raise ScenarioError("scenario: factors must be a nonempty list")
        factors = tuple(
            factor_from_json(f, f"factors[{n}]")
            for n, f in enumerate(factors_raw, start=1)
        )
        tensor_raw = _require(data, "tensor", "scenario")
        _object(tensor_raw, ("variables",), "scenario.tensor")
        variables_raw = _require_object(tensor_raw, "variables", "scenario.tensor")
        assignments = {}
        for i, components in variables_raw.items():
            if not isinstance(components, list) or not all(map(_is_int, components)):
                raise ScenarioError(
                    f"scenario.tensor.variables[{i}]: must be a list of variable ids"
                )
            key = _int_key(i, "scenario.tensor.variables", assignments, signed=False)
            assignments[key] = tuple(components)
        tensor = TensorScenario(factors=factors, assignments=assignments)
        return ScenarioFile(name, "tensor", tensor=tensor, bounds=bounds, alpha=alpha)
    presentation = presentation_from_json(
        _require(data, "presentation", "scenario"), "scenario.presentation"
    )
    elements = _group_words(presentation, data, "elements", "scenario")
    collection = GroupAlgebraModel(presentation, elements)
    return ScenarioFile(
        name, "group", collection=collection, bounds=bounds, alpha=alpha
    )


def load_scenario(path) -> ScenarioFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"scenario file nests too deeply: {exc}") from exc
    default_name = os.path.splitext(os.path.basename(str(path)))[0]
    return scenario_from_json(data, default_name)
