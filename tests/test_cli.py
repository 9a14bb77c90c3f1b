"""Command line contract: deterministic JSON reports on stdout, human
summaries on stderr, and the documented exit codes."""

import json

import pytest

from tensorfree import cli, errors


def canonical(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_scenario(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def square_drop_payload():
    # infinite-order generator times an order-two generator on one
    # joint variable: condition (1) fails for candidate factor 2
    return {
        "version": 1,
        "name": "square_drop",
        "kind": "tensor",
        "factors": [
            {
                "space": "group",
                "presentation": {"components": [{"cyclic_orders": ["inf"]}]},
                "variables": {"1": "g1.1^1"},
            },
            {
                "space": "group",
                "presentation": {"components": [{"cyclic_orders": [2]}]},
                "variables": {"1": "g1.1^1"},
            },
        ],
        "tensor": {"variables": {"1": [1, 1]}},
    }


def integer_pair_tensor_payload():
    return {
        "version": 1,
        "name": "intpair_tensor",
        "kind": "tensor",
        "factors": [
            {
                "space": "group",
                "presentation": {"components": [{"cyclic_orders": ["inf"]}]},
                "variables": {"1": "g1.1^1", "2": "g1.1^2"},
            }
        ],
        "tensor": {"variables": {"1": [1], "2": [2]}},
    }


# -- output contract ----------------------------------------------------------


def test_report_shape_and_streams(run_cli, scenario_path):
    res = run_cli(scenario_path("haar_dominated"), "moments", "x1 x1 x2*")
    assert res.code == 0
    report = res.json()
    assert sorted(report) == ["bounds", "command", "kind", "report", "scenario"]
    assert report["command"] == "moments"
    assert report["scenario"] == "haar_dominated"
    assert report["kind"] == "tensor"
    # flag > file > default, per bound
    assert report["bounds"] == {
        "gram_len": 2,
        "max_blocks": 4,
        "max_exp": 3,
        "max_len": 6,
    }
    assert res.out == canonical(report)
    assert res.err.startswith("moments on haar_dominated: pass in ")
    assert res.err.rstrip().endswith("s")


def test_stdout_is_byte_identical_across_runs(run_cli, scenario_path):
    first = run_cli(scenario_path("circular_dominated"), "theorem-1-8")
    second = run_cli(scenario_path("circular_dominated"), "theorem-1-8")
    assert first.code == second.code == 0
    assert first.out == second.out


def test_out_flag_writes_the_same_bytes(run_cli, scenario_path, tmp_path):
    plain = run_cli(scenario_path("haar_dominated"), "moments", "x1")
    target = tmp_path / "report.json"
    filed = run_cli(
        scenario_path("haar_dominated"), "moments", "x1", "--out", str(target)
    )
    assert filed.code == 0
    assert filed.out == ""
    assert target.read_text(encoding="utf-8") == plain.out


def test_out_to_an_unwritable_path(run_cli, scenario_path, tmp_path):
    target = tmp_path / "missing" / "report.json"
    res = run_cli(scenario_path("haar_dominated"), "moments", "x1", "--out", target)
    assert res.code == 2
    assert res.out == ""
    assert res.err.startswith("error: --out: ")
    assert "Traceback" not in res.err
    assert not target.exists()


# -- moments -------------------------------------------------------------------


def test_moments_on_a_tensor_scenario(run_cli, scenario_path):
    res = run_cli(scenario_path("haar_dominated"), "moments", "x1 x1 x2*")
    body = res.json()["report"]
    assert body == {
        "word": "x1 x1 x2*",
        "joint_moment": 0,
        "factor_moments": {"1": 0, "2": 1},
    }


def test_moments_on_a_group_scenario(run_cli, scenario_path):
    res = run_cli(scenario_path("integer_pair_collection"), "moments", "x1 x1 x2*")
    assert res.code == 0
    body = res.json()["report"]
    assert body == {
        "word": "x1 x1 x2*",
        "canonical_trace_moment": 1,
        "element": "e",
    }


def test_moments_rejects_bad_words(run_cli, scenario_path):
    assert run_cli(scenario_path("haar_dominated"), "moments", "x").code == 2
    assert run_cli(scenario_path("haar_dominated"), "moments", "x9").code == 2


# -- test-freeness ---------------------------------------------------------------


def test_freeness_on_a_dominated_tensor(run_cli, scenario_path):
    res = run_cli(scenario_path("haar_dominated"), "test-freeness")
    assert res.code == 0
    body = res.json()["report"]
    assert body["diagonal"]["free"] is True
    assert body["diagonal"]["witness"] is None
    assert body["factors"]["1"]["free"] is True
    # the non-free factor family is reported without failing the run
    assert body["factors"]["2"]["free"] is False
    assert body["factors"]["2"]["witness"] == "x1 x1 x2*"
    assert body["factors"]["2"]["moment"] == 1


def test_freeness_failure_reevaluates_the_witness(run_cli, tmp_path):
    path = write_scenario(tmp_path, "intpair_tensor", integer_pair_tensor_payload())
    res = run_cli(path, "test-freeness", "--max-len", "4")
    assert res.code == 1
    diagonal = res.json()["report"]["diagonal"]
    assert diagonal["free"] is False
    assert diagonal["witness"] == "x1 x1 x2*"
    assert diagonal["lhs"] == 1
    assert diagonal["rhs"] == 0
    assert diagonal["moment"] == 1


def test_freeness_on_a_group_scenario(run_cli, scenario_path):
    res = run_cli(scenario_path("integer_pair_collection"), "test-freeness")
    assert res.code == 1
    verdict = res.json()["report"]["canonical_trace"]
    assert verdict["witness"] == "x1 x1 x2*"
    assert verdict["moment"] == 1


# -- check-tfc and find-dominating ------------------------------------------------


def test_check_tfc_pass_and_precondition(run_cli, scenario_path):
    res = run_cli(scenario_path("haar_dominated"), "check-tfc", "--k", "1")
    assert res.code == 0
    body = res.json()["report"]
    assert body["satisfied"] is True
    assert body["dominating"] == 1
    assert body["violations"] == []

    res = run_cli(scenario_path("haar_dominated"), "check-tfc", "--k", "2")
    assert res.code == 1
    body = res.json()["report"]
    assert body["precondition_failed"] == "factor family is not star-free"
    assert body["factor_freeness"]["witness"] == "x1 x1 x2*"


def test_check_tfc_violation_report(run_cli, tmp_path):
    path = write_scenario(tmp_path, "square_drop", square_drop_payload())
    res = run_cli(path, "check-tfc", "--k", "2", "--max-len", "4")
    assert res.code == 1
    body = res.json()["report"]
    assert body["satisfied"] is False
    assert body["violations"] == [
        {
            "condition": 1,
            "index": 1,
            "word": "x1 x1",
            "factor": 2,
            "tensor_value": 0,
            "moment": 0,
            "factor_value": 1,
        }
    ]


def test_check_tfc_requires_a_tensor_scenario(run_cli, scenario_path):
    res = run_cli(scenario_path("free_pair_collection"), "check-tfc")
    assert res.code == 2
    assert "needs a tensor scenario" in res.err


def test_find_dominating(run_cli, scenario_path):
    res = run_cli(scenario_path("haar_dominated"), "find-dominating")
    assert res.code == 0
    assert res.json()["report"]["dominating"] == 1

    res = run_cli(scenario_path("free_without_dominating"), "find-dominating")
    assert res.code == 1
    body = res.json()["report"]
    assert body["dominating"] is None
    assert body["reports"] == {}
    assert {k: v["witness"] for k, v in body["not_free"].items()} == {
        "1": "x1 x2",
        "2": "x1 x1 x2*",
    }


# -- group subcommands --------------------------------------------------------------


def test_group_freeness_bridge(run_cli, scenario_path):
    res = run_cli(
        scenario_path("mixed_order_collection"), "group-freeness", "--max-len", "4"
    )
    assert res.code == 1
    body = res.json()["report"]
    assert body["group"]["free"] is False
    assert body["group"]["witness"] == "d1^2 d2^3 d1^-2 d2^3"
    assert body["group"]["words_checked"] == 1103
    # the star witness is longer than the star bound, so that route
    # still reports free; the bridge shows the translated word instead
    assert body["canonical_trace"]["free"] is True
    assert body["canonical_trace"]["words_checked"] == 280
    assert body["bridge"] == {
        "witness_star_word": "x1 x1 x2 x2 x2 x1* x1* x2 x2 x2",
        "centered_value": 1,
        "moment": 1,
    }


def test_group_freeness_on_a_free_pair(run_cli, scenario_path):
    res = run_cli(scenario_path("free_pair_collection"), "group-freeness")
    assert res.code == 0
    body = res.json()["report"]
    assert body["group"]["free"] is True
    assert body["group"]["witness"] is None
    assert body["canonical_trace"]["free"] is True
    assert "bridge" not in body


def test_group_freeness_requires_a_group_scenario(run_cli, scenario_path):
    res = run_cli(scenario_path("haar_dominated"), "group-freeness")
    assert res.code == 2
    assert "needs a group scenario" in res.err


def test_dominating_component_search(run_cli, scenario_path):
    res = run_cli(scenario_path("product_pair_collection"), "prop-1-6")
    assert res.code == 0
    body = res.json()["report"]
    assert body["collection_free"] is True
    assert body["dominating"] == 1
    assert body["component_reports"] == [
        {"component": 1, "projections_free": True, "orders_preserved": True},
        {"component": 2, "projections_free": True, "orders_preserved": True},
    ]
    assert body["searched"] is True
    assert body["suspect"] is False

    res = run_cli(scenario_path("mixed_order_collection"), "prop-1-6")
    assert res.code == 1
    body = res.json()["report"]
    assert body["collection_free"] is False
    assert body["freeness_witness"] == "d1^2 d2^3 d1^-2 d2^3"
    assert body["dominating"] is None
    assert body["searched"] is False


def test_dominating_search_checks_exact_orders(run_cli, tmp_path):
    # g1.1 g2.1 in Z5 x Z7 has order 35, and its components die at powers
    # 5 and 7, past the default exponent bound 3
    path = write_scenario(
        tmp_path,
        "z5_z7",
        {
            "version": 1,
            "name": "z5_z7",
            "kind": "group",
            "presentation": {
                "components": [{"cyclic_orders": [5]}, {"cyclic_orders": [7]}]
            },
            "elements": {"1": "g1.1^1 g2.1^1"},
        },
    )
    res = run_cli(path, "prop-1-6")
    assert res.code == 1
    body = res.json()["report"]
    assert body["collection_free"] is True
    assert body["dominating"] is None
    assert body["component_reports"] == [
        {"component": 1, "projections_free": True, "orders_preserved": False},
        {"component": 2, "projections_free": True, "orders_preserved": False},
    ]
    assert body["suspect"] is True


# -- necessary conditions --------------------------------------------------------------


def test_necessary_conditions_classifications(run_cli, scenario_path):
    res = run_cli(scenario_path("circular_dominated"), "theorem-1-8")
    assert res.code == 0
    body = res.json()["report"]
    assert body["classification"] == "one_nonunitary_factor"
    assert body["claims"] == {"claim1": True, "claim2": True, "claim3": None}
    assert body["dominating"] == 1
    assert body["non_unitary"] == [[1, 1]]

    res = run_cli(scenario_path("haar_dominated"), "theorem-1-8")
    assert res.code == 0
    body = res.json()["report"]
    assert body["classification"] == "hypotheses_not_met"
    assert body["claims"] == {"claim1": None, "claim2": None, "claim3": None}


def test_theorem_1_8_is_invariant_under_rescaling(run_cli, scenario_path, tmp_path):
    # 2a for the circular a: a pattern of length n gets 2^n, and the
    # normalization pre-flight must undo exactly that
    path = scenario_path("circular_dominated")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    moments = payload["factors"][0]["variables"]["1"]["moments"]
    for pattern, value in moments.items():
        moments[pattern] = value * 2 ** pattern.count("a")
    plain = run_cli(path, "theorem-1-8")
    scaled = run_cli(write_scenario(tmp_path, "scaled", payload), "theorem-1-8")
    assert moments["aa*"] == 4
    assert scaled.code == plain.code == 0
    assert scaled.out == plain.out


# -- counterexample-k --------------------------------------------------------------------


def test_counterexample_scan(run_cli, scenario_path):
    res = run_cli(
        scenario_path("biased_power_k2"), "counterexample-k", "2", "--max-len", "4"
    )
    assert res.code == 0
    report = res.json()
    assert report["bounds"]["max_len"] == 4  # flag beats the file's 8
    body = report["report"]
    assert body["factors"] == 2
    assert body["alpha"] == [1, 10]
    assert body["verdict"]["free"] is True
    assert [
        (l["block_pairs"], l["words"], l["violations"]) for l in body["scan"]
    ] == [(1, 48, 0), (2, 96, 0)]
    assert body["minimal_block_pairs"] == 4
    assert body["filters"][-1]["disjoint_singleton_capacity"] == 2


def test_counterexample_factor_count_must_match(run_cli, scenario_path):
    res = run_cli(scenario_path("biased_power_k2"), "counterexample-k", "3")
    assert res.code == 2
    assert "has 2 factors" in res.err


# -- identities ------------------------------------------------------------------------------


def test_identities_defaults(run_cli, scenario_path):
    any_scenario = scenario_path("free_pair_collection")
    res = run_cli(any_scenario, "identities", "shifted-product")
    assert res.code == 0
    body = res.json()["report"]
    assert body["inputs"] == {"alpha": 2, "x": [3, 5]}
    assert body["lhs"] == body["rhs"] == 16
    assert body["equal"] is True

    res = run_cli(any_scenario, "identities", "or-product")
    body = res.json()["report"]
    assert body["lhs"] == [13, 24]
    assert body["rhs"] == [2, 3]
    assert body["holds"] is True

    res = run_cli(any_scenario, "identities", "product-sum-conclusions")
    body = res.json()["report"]
    assert body["all_zero"] is True
    assert body["terms"] == [["(x1-1)(y2-1)", 0], ["(x2-1)(y1-1)", 0]]


def test_identities_flag_overrides(run_cli, scenario_path):
    any_scenario = scenario_path("free_pair_collection")
    res = run_cli(
        any_scenario,
        "identities",
        "shifted-product",
        "--alpha",
        "[1, 2]",
        "--x",
        "[3, 5]",
    )
    assert res.code == 0
    body = res.json()["report"]
    assert body["inputs"] == {"alpha": [1, 2], "x": [3, 5]}
    assert body["lhs"] == 4

    res = run_cli(
        any_scenario, "identities", "product-sum", "--x", "[2, 2]", "--y", "[2, 2]"
    )
    assert res.code == 0
    body = res.json()["report"]
    assert body["lhs"] == 7
    assert body["rhs"] == 9


def test_identities_input_errors(run_cli, scenario_path):
    any_scenario = scenario_path("free_pair_collection")
    assert run_cli(any_scenario, "identities", "no-such-check").code == 2
    res = run_cli(any_scenario, "identities", "product-sum", "--x", "oops")
    assert res.code == 2
    assert "--x: not valid JSON" in res.err
    res = run_cli(any_scenario, "identities", "product-sum", "--x", "[]")
    assert res.code == 2
    assert "nonempty JSON array" in res.err
    res = run_cli(
        any_scenario,
        "identities",
        "product-sum-conclusions",
        "--x",
        "[2, 2]",
        "--y",
        "[2, 2]",
    )
    assert res.code == 2
    assert "identity inputs rejected" in res.err


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("shifted-product", "--alpha", "[1, 0]"),
        ("shifted-product", "--alpha", "oops"),
        ("shifted-product", "--alpha", '"abc"'),
        ("shifted-product", "--alpha", "[true, 2]"),
        ("product-sum", "--x", "[[1,0]]"),
    ],
)
def test_identity_flags_reject_bad_scalars(run_cli, scenario_path, name, flag, value):
    res = run_cli(scenario_path("circular_dominated"), "identities", name, flag, value)
    assert res.code == 2
    assert flag in res.err
    assert "Traceback" not in res.err


@pytest.mark.parametrize(
    "name, flags",
    [
        ("shifted-product", ("--t", "[1]", "--y", "[2]")),
        ("shifted-product", ("--y", "[2]")),
        ("interpolated-product", ("--alpha", "2")),
        ("product-sum", ("--t", "[1, 2]")),
    ],
)
def test_identities_reject_flags_the_identity_does_not_take(
    run_cli, scenario_path, name, flags
):
    res = run_cli(scenario_path("circular_dominated"), "identities", name, *flags)
    assert res.code == 2
    assert res.out == ""
    assert f"error: {flags[0]}: identity {name!r} takes only" in res.err


# -- check-axioms -------------------------------------------------------------------------


def test_check_axioms_exact(run_cli, scenario_path):
    res = run_cli(scenario_path("free_pair_collection"), "check-axioms")
    assert res.code == 0
    body = res.json()["report"]["canonical_trace"]
    assert body["basis_size"] == 53
    assert body["gram_len"] == 3
    assert body["mode"] == "exact"
    assert body["positive_definite"] is True


def test_check_axioms_reports_broken_traces(run_cli, scenario_path):
    res = run_cli(scenario_path("free_without_dominating"), "check-axioms")
    assert res.code == 1
    factors = res.json()["report"]["factors"]
    assert factors["1"]["tracial"] is False
    assert factors["2"]["tracial"] is True


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(("--float",), id="float"),
        pytest.param(("--exact",), id="exact"),
    ],
)
def test_check_axioms_rejects_removed_flags(scenario_path, capsys, flags):
    # positivity is decided exactly only; the float mode's flags are gone
    with pytest.raises(SystemExit) as exit_info:
        cli.main([scenario_path("biased_unitary"), "check-axioms", *flags])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flags[0] in captured.err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_check_axioms_rejects_a_bad_tolerance(scenario_path, capsys, value):
    # --tolerance went with the float mode: any value is refused as an
    # unknown flag, not silently ignored
    with pytest.raises(SystemExit) as exit_info:
        cli.main([scenario_path("biased_unitary"), "check-axioms", "--tolerance", value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance" in captured.err


def test_check_axioms_dimension_limit(run_cli, scenario_path):
    res = run_cli(
        scenario_path("free_pair_collection"), "check-axioms", "--gram-len", "5"
    )
    assert res.code == 3
    assert res.out == ""
    assert "cap is 320" in res.err


@pytest.mark.parametrize(
    "args",
    [
        ("check-axioms", "--gram-len", "5"),
        ("check-tfc", "--max-len", "9"),
        ("theorem-1-8", "--gram-len", "5"),
    ],
    ids=lambda args: args[0],
)
def test_complete_through_overrun_is_a_limit(run_cli, scenario_path, args):
    # the circular table is complete through length 8
    res = run_cli(scenario_path("circular_dominated"), *args)
    assert res.code == 3
    assert res.out == ""
    assert "exceeds bound 8" in res.err


# -- argument and file errors ----------------------------------------------------------------


def test_missing_file_and_bad_bounds(run_cli, scenario_path, tmp_path):
    res = run_cli(str(tmp_path / "nope.json"), "moments", "x1")
    assert res.code == 2
    assert "cannot read scenario file" in res.err

    res = run_cli(scenario_path("haar_dominated"), "moments", "x1", "--max-len", "0")
    assert res.code == 2
    assert "bound max_len must be positive" in res.err


def set_in(path, value):
    """Mutation setting payload[path[0]][path[1]]... to value."""

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def duplicate_key(path, key, twin):
    """Mutation adding twin next to key in the object at path, with key's value."""

    def mutate(payload):
        node = payload
        for part in path:
            node = node[part]
        node[twin] = node[key]

    return mutate


UNITARY_1 = ("factors", 0, "variables", "1")

STRICT_INPUTS = [
    ("flag-string", set_in(UNITARY_1 + ("unitary",), "false"), "unitary must be true or false"),
    ("flag-number", set_in(("factors", 0, "assume_free"), 1), "assume_free must be true or false"),
    ("bound-bool", set_in(("bounds", "max_len"), True), "bound 'max_len'"),
    ("period-bool", set_in(UNITARY_1 + ("period",), True), "period must be"),
    (
        "complete-through-bool",
        set_in(("factors", 0, "variables", "2"), {"moments": {"a": 0}, "complete_through": True}),
        "complete_through must be",
    ),
    (
        "cyclic-order-bool",
        set_in(("factors", 1, "presentation", "components", 0, "cyclic_orders"), [True]),
        'cyclic order must be an integer or "inf"',
    ),
    ("version-bool", set_in(("version",), True), "unsupported version"),
    ("component-bool", set_in(("tensor", "variables", "1"), [True, 1]), "tensor.variables[1]"),
    ("scalar-bool", set_in(("alpha",), True), "scenario.alpha: bad scalar"),
    (
        "scalar-entry-bool",
        set_in(UNITARY_1 + ("moments", "1"), [True, 4]),
        "moments['1']: bad scalar",
    ),
    (
        "joint-key-collision",
        duplicate_key(("tensor", "variables"), "1", "01"),
        "tensor.variables: key '01'",
    ),
    (
        "spectral-key-collision",
        duplicate_key(("factors", 0, "variables"), "1", "+1"),
        "factors[1].variables: key '+1'",
    ),
    (
        "group-key-collision",
        duplicate_key(("factors", 1, "variables"), "2", "02"),
        "factors[2].variables: key '02'",
    ),
    (
        "power-key-collision",
        duplicate_key(UNITARY_1 + ("moments",), "1", "01"),
        "moments: key '01'",
    ),
    ("unknown-top-key", set_in(("bogus",), 1), "scenario: unknown key 'bogus'"),
    (
        "unknown-tensor-key",
        set_in(("tensor", "varaibles"), {}),
        "scenario.tensor: unknown key 'varaibles'",
    ),
    (
        "tensor-free-key",
        set_in(("tensor", "free"), "yes"),
        "scenario.tensor: unknown key 'free'",
    ),
    (
        "unknown-factor-key",
        set_in(("factors", 0, "typo_key"), 3),
        "factors[1]: unknown key 'typo_key'",
    ),
    (
        "unknown-sequence-key",
        set_in(UNITARY_1 + ("perod",), 3),
        "factors[1].variables[1]: unknown key 'perod'",
    ),
    (
        "spectral-variables-list",
        set_in(("factors", 0, "variables"), []),
        "factors[1].variables: must be an object",
    ),
    (
        "table-list",
        set_in(
            ("factors", 1),
            {
                "space": "table",
                "presentation": {"components": [{"cyclic_orders": ["inf"]}]},
                "variables": {"1": "e", "2": "g1.1^1"},
                "table": [],
            },
        ),
        "factors[2].table: must be an object",
    ),
    (
        "tensor-variables-list",
        set_in(("tensor", "variables"), [1]),
        "scenario.tensor.variables: must be an object",
    ),
    # rows on a group scenario name it as a fourth entry
    (
        "elements-list",
        set_in(("elements",), ["g1.1^1"]),
        "scenario.elements: must be an object",
        "free_pair_collection",
    ),
]


@pytest.mark.parametrize(
    "mutate, field, scenario",
    [(case[1], case[2], case[3] if len(case) > 3 else "biased_unitary") for case in STRICT_INPUTS],
    ids=[case[0] for case in STRICT_INPUTS],
)
def test_scenario_input_is_strict(run_cli, scenario_path, tmp_path, mutate, field, scenario):
    with open(scenario_path(scenario), encoding="utf-8") as handle:
        payload = json.load(handle)
    mutate(payload)
    res = run_cli(write_scenario(tmp_path, "strict", payload), "moments", "x1")
    assert res.code == 2
    assert res.out == ""
    assert field in res.err


@pytest.mark.parametrize(
    "scenario, mutate, field",
    [
        (
            "mixed_order_collection",
            duplicate_key(("elements",), "1", "001"),
            "scenario.elements: key '001'",
        ),
        (
            "free_without_dominating",
            duplicate_key(("factors", 0, "table"), "g1.1^1 g1.2^1", "g1.1^1 g1.2^1 g1.2^0"),
            "factors[1].table: key 'g1.1^1 g1.2^1 g1.2^0' repeats the element g1.1^1 g1.2^1",
        ),
    ],
    ids=["group-elements", "table-elements"],
)
def test_element_keys_must_not_collide(run_cli, scenario_path, tmp_path, scenario, mutate, field):
    with open(scenario_path(scenario), encoding="utf-8") as handle:
        payload = json.load(handle)
    mutate(payload)
    res = run_cli(write_scenario(tmp_path, "strict", payload), "moments", "x1")
    assert res.code == 2
    assert field in res.err


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.ScenarioError("bad file"), 2),
        (errors.PreconditionError("bad input"), 2),
        (errors.InsufficientMomentDataError("no entry"), 2),
        (errors.DimensionLimitError("Gram basis", 400, 320), 3),
        (errors.EnumerationLimitError("noncrossing partitions", 15, 14), 3),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_error_classes_map_to_exit_codes(run_cli, scenario_path, monkeypatch, error, code):
    def fail(sf, args, bounds):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "moments", fail)
    res = run_cli(scenario_path("haar_dominated"), "moments", "x1")
    assert res.code == code
    assert res.out == ""
    assert res.err == f"error: {error}\n"
