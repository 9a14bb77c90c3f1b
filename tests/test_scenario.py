"""Scenario JSON: the reader, its parsed objects, and its located error
messages."""

import json
from fractions import Fraction

import pytest

from tensorfree.errors import ScenarioError
from tensorfree.groups import FreeProductPresentation, GroupPresentation
from tensorfree.scalars import ExactComplex, ONE, scalar_json
from tensorfree.scenario import (
    load_scenario,
    presentation_from_json,
    scenario_from_json,
)
from tensorfree.spaces import GroupAlgebraModel
from tensorfree.starwords import parse_word as word


def group_payload(**overrides):
    data = {
        "version": 1,
        "name": "pair",
        "kind": "group",
        "presentation": {"components": [{"cyclic_orders": ["inf", "inf"]}]},
        "elements": {"1": "g1.1^1", "2": "g1.2^1"},
    }
    data.update(overrides)
    return data


def spectral_factor(**overrides):
    factor = {
        "space": "spectral",
        "variables": {"1": {"complete_through": 2, "moments": {"a": 0, "aa*": 1}}},
    }
    factor.update(overrides)
    return factor


def tensor_payload(factor=None, **overrides):
    data = {
        "version": 1,
        "name": "one",
        "kind": "tensor",
        "factors": [factor if factor is not None else spectral_factor()],
        "tensor": {"variables": {"1": [1]}},
    }
    data.update(overrides)
    return data


# -- files -------------------------------------------------------------------


def test_save_and_load(tmp_path):
    target = tmp_path / "pair.json"
    target.write_text(json.dumps(group_payload()), encoding="utf-8")
    loaded = load_scenario(target)
    assert loaded.name == "pair"
    assert loaded.kind == "group"
    assert loaded.tensor is None
    assert loaded.collection.variables == (1, 2)
    assert [g.text() for g in loaded.collection.elements.values()] == ["g1.1^1", "g1.2^1"]
    assert loaded.collection.presentation == GroupPresentation(
        (FreeProductPresentation((None, None)),)
    )


def test_name_defaults_to_the_file_stem(tmp_path):
    payload = group_payload()
    del payload["name"]
    target = tmp_path / "someword.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    assert load_scenario(target).name == "someword"


def test_load_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read scenario file"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)


# -- scalars and presentations ------------------------------------------------


def test_scalar_json_uses_the_most_compact_form():
    assert scalar_json(3) == 3
    assert scalar_json(Fraction(-1, 2)) == [-1, 2]
    assert scalar_json(ExactComplex(Fraction(1, 2), Fraction(-2, 3))) == [1, 2, -2, 3]


def test_presentation_round_trip_with_infinite_orders():
    pres = GroupPresentation(
        (FreeProductPresentation((None, 2)), FreeProductPresentation((3,)))
    )
    data = {"components": [{"cyclic_orders": ["inf", 2]}, {"cyclic_orders": [3]}]}
    assert presentation_from_json(data) == pres
    # JSON null is read as an infinite order too
    assert presentation_from_json(
        {"components": [{"cyclic_orders": [None, 2]}, {"cyclic_orders": [3]}]}
    ) == pres


def test_presentation_reader_errors():
    with pytest.raises(ScenarioError, match="must be an object"):
        presentation_from_json([])
    with pytest.raises(ScenarioError, match="components must be a nonempty list"):
        presentation_from_json({"components": []})
    with pytest.raises(ScenarioError, match='integer or "inf"'):
        presentation_from_json({"components": [{"cyclic_orders": ["x"]}]})


def test_group_file_loads_as_its_group_algebra():
    # elements written out of key order still list in variable order
    loaded = scenario_from_json(group_payload(elements={"2": "g1.2^1", "1": "g1.1^1"}))
    model = loaded.collection
    assert isinstance(model, GroupAlgebraModel)
    assert model.variables == (1, 2)
    assert list(model.elements) == [1, 2]
    assert [g.text() for g in model.elements.values()] == ["g1.1^1", "g1.2^1"]
    assert model.moment_letters(word("x1 x1*")) == ONE
    assert model.moment_letters(word("x1 x2")).is_zero()
    with pytest.raises(ScenarioError, match="scenario.elements: empty group collection"):
        scenario_from_json(group_payload(elements={}))


# -- top-level reader errors ---------------------------------------------------


def test_top_level_errors():
    with pytest.raises(ScenarioError, match="top level must be an object"):
        scenario_from_json([])
    with pytest.raises(ScenarioError, match="unsupported version"):
        scenario_from_json(group_payload(version=2))
    with pytest.raises(ScenarioError, match="scenario: missing 'kind'"):
        scenario_from_json({"version": 1})
    with pytest.raises(ScenarioError, match="unknown kind 'weird'"):
        scenario_from_json(group_payload(kind="weird"))
    with pytest.raises(ScenarioError, match="name must be a string"):
        scenario_from_json(group_payload(name=7))


def test_bounds_errors():
    with pytest.raises(ScenarioError, match="unknown bound 'max_foo'"):
        scenario_from_json(group_payload(bounds={"max_foo": 3}))
    with pytest.raises(ScenarioError, match="'max_len' must be a positive integer"):
        scenario_from_json(group_payload(bounds={"max_len": 0}))
    with pytest.raises(ScenarioError, match="bounds must be an object"):
        scenario_from_json(group_payload(bounds=[1]))


def test_alpha_is_parsed_and_located():
    scen = scenario_from_json(group_payload(alpha=[1, 10]))
    assert scen.alpha == ExactComplex(Fraction(1, 10))
    with pytest.raises(ScenarioError, match="scenario.alpha: bad scalar"):
        scenario_from_json(group_payload(alpha=[1.5]))


# -- tensor reader errors -------------------------------------------------------


def test_tensor_structure_errors():
    with pytest.raises(ScenarioError, match="factors must be a nonempty list"):
        scenario_from_json(tensor_payload(factors=[]))
    with pytest.raises(ScenarioError, match="scenario: missing 'tensor'"):
        payload = tensor_payload()
        del payload["tensor"]
        scenario_from_json(payload)
    with pytest.raises(ScenarioError, match="must be a list of variable ids"):
        scenario_from_json(tensor_payload(tensor={"variables": {"1": 1}}))
    with pytest.raises(ScenarioError, match="bad integer key 'x'"):
        scenario_from_json(tensor_payload(tensor={"variables": {"x": [1]}}))


def test_factor_reader_errors():
    with pytest.raises(ScenarioError, match="factors\\[1\\]: missing 'space'"):
        scenario_from_json(tensor_payload(factor={}))
    with pytest.raises(ScenarioError, match="unknown space kind 'weird'"):
        scenario_from_json(tensor_payload(factor={"space": "weird"}))
    with pytest.raises(ScenarioError, match="factors\\[1\\]: no variables"):
        scenario_from_json(tensor_payload(factor={"space": "spectral", "variables": {}}))


def test_sequence_reader_errors():
    def seq_payload(seq):
        return tensor_payload(
            factor={"space": "spectral", "variables": {"1": seq}}
        )

    with pytest.raises(ScenarioError, match="bad star pattern 'a\\*\\*'"):
        scenario_from_json(seq_payload({"moments": {"a**": 1}}))
    with pytest.raises(ScenarioError, match="empty star pattern"):
        scenario_from_json(seq_payload({"moments": {"": 1}}))
    with pytest.raises(ScenarioError, match="period must be a positive integer"):
        scenario_from_json(seq_payload({"unitary": True, "period": 0}))
    with pytest.raises(ScenarioError, match="complete_through must be a nonnegative"):
        scenario_from_json(seq_payload({"complete_through": -1}))
    with pytest.raises(ScenarioError, match="moments must be an object"):
        scenario_from_json(seq_payload({"moments": [1]}))
    with pytest.raises(ScenarioError, match="bad scalar 1.5"):
        scenario_from_json(seq_payload({"moments": {"a": 1.5}}))
    with pytest.raises(
        ScenarioError, match="variables\\[1\\]: power keys must be nonzero"
    ):
        scenario_from_json(seq_payload({"unitary": True, "moments": {"0": 1}}))


def test_group_factor_reader_errors():
    base = {
        "space": "group",
        "presentation": {"components": [{"cyclic_orders": ["inf"]}]},
        "variables": {"1": "g1.1^1"},
    }
    bad_word = dict(base, variables={"1": 7})
    with pytest.raises(ScenarioError, match="must be a group word"):
        scenario_from_json(tensor_payload(factor=bad_word))
    bad_token = dict(base, variables={"1": "h1.1"})
    with pytest.raises(ScenarioError, match="bad group token"):
        scenario_from_json(tensor_payload(factor=bad_token))
    table_missing = dict(base, space="table")
    with pytest.raises(ScenarioError, match="missing 'table'"):
        scenario_from_json(tensor_payload(factor=table_missing))


def test_group_scenario_reader_errors():
    with pytest.raises(ScenarioError, match="elements\\[1\\]: must be a group word"):
        scenario_from_json(group_payload(elements={"1": 3}))
    with pytest.raises(ScenarioError, match="empty group collection"):
        scenario_from_json(group_payload(elements={}))


# -- semantic spot checks -------------------------------------------------------


def test_parsed_tensor_scenario_evaluates():
    scen = scenario_from_json(tensor_payload())
    from tensorfree.tensor import tensor_moment

    assert tensor_moment(scen.tensor, word("x1 x1*")) == ONE
    assert scen.bounds == {}


def test_bounds_are_threaded_through():
    scen = scenario_from_json(tensor_payload(bounds={"max_len": 4, "gram_len": 2}))
    assert scen.bounds == {"gram_len": 2, "max_len": 4}
