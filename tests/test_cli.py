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


def test_check_tfc_condition_two_report(run_cli, scenario_path, tmp_path):
    # an order-two generator beside the circular element of
    # circular_dominated: condition (1) fails for x1 x1 and condition (2)
    # for x1 x1*, whose factor 2 component has variance 1
    with open(scenario_path("circular_dominated"), encoding="utf-8") as handle:
        circular = json.load(handle)["factors"][0]
    payload = {
        "version": 1,
        "name": "order2_circular",
        "kind": "tensor",
        "factors": [square_drop_payload()["factors"][1], circular],
        "tensor": {"variables": {"1": [1, 1]}},
    }
    res = run_cli(
        write_scenario(tmp_path, "order2_circular", payload),
        "check-tfc", "--k", "1", "--max-len", "4",
    )
    assert res.code == 1
    first, second = res.json()["report"]["violations"]
    assert first["condition"] == 1
    assert "factor_value" in first and "variance" not in first
    assert second["condition"] == 2
    assert second["word"] == "x1 x1*"
    assert second["variance"] == 1
    assert "factor_value" not in second


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


@pytest.mark.parametrize(
    "keys, star_word",
    [(("2", "3"), "x2 x2 x3*"), (("1", "3"), "x1 x1 x3*"), (("3", "1"), "x1 x3* x3*")],
    ids=["2-3", "1-3", "3-1"],
)
def test_group_freeness_bridge_uses_the_element_keys(
    run_cli, scenario_path, tmp_path, keys, star_word
):
    # the group witness numbers the elements 1..n in key order; the
    # bridge word must name them by their keys
    with open(scenario_path("integer_pair_collection"), encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["elements"] = dict(zip(keys, payload["elements"].values()))
    res = run_cli(write_scenario(tmp_path, "keyed", payload), "group-freeness")
    assert res.code == 1, res.err
    body = res.json()["report"]
    assert body["bridge"]["witness_star_word"] == star_word
    assert body["bridge"]["centered_value"] == 1
    assert body["canonical_trace"]["witness"] == star_word


@pytest.mark.parametrize(
    "command",
    [
        ("moments", "x1 x2* x1* x2"),
        ("test-freeness",),
        ("group-freeness",),
        ("prop-1-6",),
        ("check-axioms",),
    ],
    ids=lambda command: command[0],
)
def test_group_reports_do_not_depend_on_element_listing_order(
    run_cli, scenario_path, tmp_path, command
):
    # elements are variables in key order however the file lists them
    plain = scenario_path("integer_pair_collection")
    with open(plain, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["elements"] = dict(reversed(payload["elements"].items()))
    reversed_path = write_scenario(tmp_path, "integer_pair_collection", payload)
    before, after = run_cli(plain, *command), run_cli(reversed_path, *command)
    assert before.code == after.code != 2
    assert before.out == after.out


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


def diagonal_spectral_payload(name, first, second):
    """Two assume_free spectral factors, each holding x1 = first and
    x2 = second, paired diagonally."""
    factor = {
        "space": "spectral",
        "assume_free": True,
        "variables": {"1": first, "2": second},
    }
    return {
        "version": 1,
        "name": name,
        "kind": "tensor",
        "bounds": {"gram_len": 2},
        "factors": [factor, factor],
        "tensor": {"variables": {"1": [1, 1], "2": [2, 2]}},
    }


HAAR = {"moments": {}, "unitary": True}
HALF = {"moments": {"1": [1, 2]}, "unitary": True}


def test_theorem_1_8_screen_reports_a_zero_component(run_cli, tmp_path):
    # normalizing would divide by the zero second moment of x1
    empty = {"moments": {}, "complete_through": 4}
    payload = diagonal_spectral_payload("zero", empty, HAAR)
    res = run_cli(write_scenario(tmp_path, "zero", payload), "theorem-1-8")
    assert res.code == 0
    body = res.json()["report"]
    assert body["classification"] == "hypotheses_not_met"
    assert body["hypothesis_problems"] == ["joint variable 1 has a zero component"]


def test_theorem_1_8_bounded_classifications(run_cli, scenario_path, tmp_path):
    with open(scenario_path("circular_dominated"), encoding="utf-8") as handle:
        circular = json.load(handle)["factors"][0]["variables"]["1"]
    payload = diagonal_spectral_payload("circular_pair", circular, HAAR)
    res = run_cli(write_scenario(tmp_path, "circular", payload), "theorem-1-8", "--max-len", "2")
    assert res.code == 1
    body = res.json()["report"]
    assert body["classification"] == "claim1_violated"
    assert body["claims"] == {"claim1": False, "claim2": None, "claim3": None}

    path = write_scenario(tmp_path, "half", diagonal_spectral_payload("half", HALF, HALF))
    res = run_cli(path, "theorem-1-8", "--max-len", "4")
    assert res.code == 0
    body = res.json()["report"]
    assert body["classification"] == "not_free_at_bound"
    assert body["diagonal"]["witness"] == "x1 x2 x1 x2"

    res = run_cli(path, "theorem-1-8", "--max-len", "3")
    assert res.code == 1
    body = res.json()["report"]
    assert body["classification"] == "power_hypothesis"
    assert body["claims"] == {"claim1": True, "claim2": None, "claim3": False}


@pytest.mark.parametrize(
    "command", ["test-freeness", "check-tfc", "find-dominating", "theorem-1-8"]
)
def test_an_unevaluable_factor_word_names_the_factor(run_cli, tmp_path, command):
    # factor 1 holds two unitaries without a freeness flag, so it has no
    # value for their mixed words; every route reports the factor and word
    payload = diagonal_spectral_payload("unflagged", HALF, HAAR)
    payload["factors"][0] = dict(payload["factors"][0], assume_free=False)
    path = write_scenario(tmp_path, "unflagged", payload)
    res = run_cli(path, command, "--max-len", "4")
    assert res.code == 2
    assert res.out == ""
    assert "factor 1 cannot evaluate 'x1 x2'" in res.err


def test_an_unevaluable_word_of_factor_2_names_factor_2(run_cli, tmp_path):
    # factor 2's family is scanned as a one-factor scenario of its own,
    # and the error still names factor 2, not that scenario's only factor
    payload = diagonal_spectral_payload("unflagged_2", HALF, HAAR)
    payload["factors"][1] = dict(payload["factors"][1], assume_free=False)
    path = write_scenario(tmp_path, "unflagged_2", payload)
    res = run_cli(path, "check-tfc", "--k", "2", "--max-len", "4")
    assert res.code == 2
    assert res.out == ""
    assert "factor 2 cannot evaluate 'x1 x2'" in res.err


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


@pytest.mark.parametrize("K", [3, 10**6])
def test_counterexample_compares_the_factor_count_first(
    run_cli, scenario_path, monkeypatch, K
):
    # a wrong K is refused before the K-factor pair is built
    def fail(*args):
        raise AssertionError("built the biased-power pair")

    monkeypatch.setattr(cli, "biased_power_scenario", fail)
    res = run_cli(scenario_path("biased_power_k2"), "counterexample-k", K)
    assert res.code == 2
    assert res.out == ""
    assert "has 2 factors" in res.err


@pytest.mark.parametrize("alpha", [1, [3, 4], [0, 1, 1, 1]], ids=["1", "3/4", "i"])
def test_counterexample_rejects_alpha_that_is_not_a_state(
    run_cli, tmp_path, scenario_path, alpha
):
    # the biased law has density 1 + 2 Re(conj(alpha) e^{ik theta}),
    # a state exactly when |alpha| <= 1/2
    with open(scenario_path("biased_power_k2"), encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["alpha"] = alpha
    path = write_scenario(tmp_path, "biased", payload)
    res = run_cli(path, "counterexample-k", "2", "--max-len", "4")
    assert res.code == 2
    assert res.out == ""
    assert "alpha" in res.err


@pytest.mark.parametrize(
    "name, alpha",
    [("doubly_free", None), ("free_pair_collection", None), ("biased_power_k2", [1, 5])],
    ids=["doubly_free", "free_pair_collection", "biased_power_k2-alpha-1/5"],
)
def test_counterexample_needs_the_biased_pair(
    run_cli, tmp_path, scenario_path, name, alpha
):
    # the analysis builds the pair from K and alpha, so a file holding
    # anything else would get a report about a family it does not hold
    with open(scenario_path(name), encoding="utf-8") as handle:
        payload = json.load(handle)
    if alpha is not None:
        payload["alpha"] = alpha
    path = write_scenario(tmp_path, name, payload)
    res = run_cli(path, "counterexample-k", "2", "--max-len", "4")
    assert res.code == 2
    assert res.out == ""
    assert repr(name) in res.err


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


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "not UTF-8"),
        (b"[" * 200_000, "nests too deeply"),
    ],
    ids=["not-utf8", "too-deep"],
)
def test_malformed_scenario_files(run_cli, tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    res = run_cli(path, "moments", "x1")
    assert res.code == 2
    assert res.out == ""
    assert res.err.startswith("error: scenario file ")
    assert message in res.err


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
    # integer text is ASCII [+-]?[0-9]+: no underscores, spaces or other digits
    (
        "factor-word-exponent-underscore",
        set_in(("factors", 1, "variables", "2"), "g1.1^1_0"),
        "factors[2].variables[2]: bad exponent in group token 'g1.1^1_0'",
    ),
    # variable keys are unsigned, as the x<INT> of word text is
    (
        "spectral-key-negative",
        duplicate_key(("factors", 0, "variables"), "1", "-1"),
        "factors[1].variables: key '-1' is signed",
    ),
    (
        "group-key-negative",
        duplicate_key(("factors", 1, "variables"), "2", "-2"),
        "factors[2].variables: key '-2' is signed",
    ),
    (
        "joint-key-negative",
        duplicate_key(("tensor", "variables"), "1", "-1"),
        "scenario.tensor.variables: key '-1' is signed",
    ),
    # rows on a group scenario name it as a fourth entry
    (
        "element-key-negative",
        duplicate_key(("elements",), "2", "-1"),
        "scenario.elements: key '-1' is signed",
        "free_pair_collection",
    ),
    (
        "elements-list",
        set_in(("elements",), ["g1.1^1"]),
        "scenario.elements: must be an object",
        "free_pair_collection",
    ),
    (
        "element-key-underscore",
        duplicate_key(("elements",), "2", "1_0"),
        "scenario.elements: bad integer key '1_0'",
        "free_pair_collection",
    ),
    (
        "element-key-space",
        duplicate_key(("elements",), "2", " 3"),
        "scenario.elements: bad integer key ' 3'",
        "free_pair_collection",
    ),
    (
        "element-key-arabic-indic-digit",
        duplicate_key(("elements",), "2", "\u0663"),
        "scenario.elements: bad integer key '\u0663'",
        "free_pair_collection",
    ),
    (
        "element-exponent-underscore",
        set_in(("elements", "1"), "g1.1^1_0"),
        "scenario.elements[1]: bad exponent in group token 'g1.1^1_0'",
        "free_pair_collection",
    ),
    (
        "element-component-superscript",
        set_in(("elements", "1"), "g\u00b2.1^1"),
        "scenario.elements[1]: bad group token 'g\u00b2.1^1'",
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
