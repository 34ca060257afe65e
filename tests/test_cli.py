"""The command-line interface: parsing, outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from collections.abc import Iterator
from fractions import Fraction as F

import pytest

import hamcircle
from hamcircle import (
    BundleType,
    Chain,
    DecoratedGraph,
    canonical_json,
    count_actions,
    cremona_reduce,
    emin,
    enumerate_actions,
    gromov_width,
    packing_number,
    to_json_dict,
    volume,
)
from hamcircle.cli import (
    EXIT_BUG,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SCALAR_DIGITS,
    MAX_VECTOR_DIGITS,
    _crosscheck,
    _json_text,
    format_vector,
    main,
    parse_vector,
    to_dot,
)
from hamcircle.enumeration import MAX_GRAPHS
from hamcircle.graphs import compact_json
from test_enumeration import GOLDEN, _twists_past_the_window
from test_graphs import _seeded_runs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- vector literals -----------------------------------------------------------


def test_parse_vector_forms():
    v = parse_vector("2,1;1,1")
    assert (v.lambda_f, v.lambda_b, v.deltas) == (2, 1, (1, 1))
    assert parse_vector("1,1;").deltas == ()
    assert parse_vector("1,1").deltas == ()
    assert parse_vector(" 3 , 7 ; 1/2 , 0.25 ").deltas == (F(1, 2), F(1, 4))


def test_parse_vector_decimals_are_exact():
    assert parse_vector("2,10;1.9,1.9,1.9,1.9").deltas == (F(19, 10),) * 4


def test_parse_vector_errors():
    with pytest.raises(ValueError):
        parse_vector("1;2,3")
    with pytest.raises(ValueError):
        parse_vector("1,2;x")
    with pytest.raises(ValueError):
        parse_vector("1,2,3;4")


def test_format_vector_round_trips():
    for text in ["2,1;1,1", "1,1", "3,7;1/2,1/4"]:
        assert format_vector(parse_vector(text)) == text


# --- check ------------------------------------------------------------------------


def test_check_reports_cone_and_reduced(capsys):
    code, out, _ = run(capsys, "check", "-v", "2,1;1,1", "-b", "trivial", "-g", "2")
    assert code == EXIT_OK
    assert "in cone: yes" in out and "g-reduced: yes" in out
    # with fewer than two blowups there is no defect to report
    code, out, _ = run(capsys, "check", "-v", "2,1;1")
    assert code == EXIT_OK
    assert "g-reduced: yes (vacuous for k <= 1)" in out


def test_check_reports_positive_defect(capsys):
    code, out, _ = run(capsys, "check", "-v", "3,3;2,2")
    assert code == EXIT_OK
    assert "g-reduced: no (defect 1)" in out


def test_check_rejects_non_cone(capsys):
    code, out, _ = run(capsys, "check", "-v", "4,1;3,1")
    assert code == EXIT_DOMAIN
    assert "in cone: no" in out and "volume_positive" in out


def test_parse_failure_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "-v", "bogus")
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("scalar", ["1e5000", "1e100000", "9" * 5000])
def test_huge_scalar_is_a_usage_error(capsys, scalar):
    code, out, err = run(capsys, "check", "-v", f"{scalar},1;1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: scalar") and len(err) < 200


def test_scalar_limits_are_inclusive():
    big = parse_vector(f"{'9' * MAX_SCALAR_DIGITS},1e{MAX_SCALAR_DIGITS};1e-{MAX_SCALAR_DIGITS}")
    assert big.lambda_f == 10**MAX_SCALAR_DIGITS - 1
    assert big.lambda_b == 10**MAX_SCALAR_DIGITS
    assert big.deltas == (F(1, 10**MAX_SCALAR_DIGITS),)
    with pytest.raises(ValueError, match="digits"):
        parse_vector(f"{'9' * (MAX_SCALAR_DIGITS + 1)},1")
    with pytest.raises(ValueError, match="exponent"):
        parse_vector(f"1e{MAX_SCALAR_DIGITS + 1},1")


def test_vector_digit_limit_counts_parsed_values():
    # 1e-100 is four characters but a 101-digit denominator
    with pytest.raises(ValueError, match="digits"):
        parse_vector("1,1;" + ",".join(["1e-100"] * 10))
    # "1,1" has 4 digits (numerators and denominators); each 99-nine delta has 100
    fits = "1,1;" + ",".join(["9" * 99] * 9 + ["9" * 95])
    assert len(parse_vector(fits).deltas) == 10
    with pytest.raises(ValueError, match=f"more than {MAX_VECTOR_DIGITS}"):
        parse_vector(fits + "9")


def test_many_coprime_deltas_are_a_usage_error(capsys):
    deltas = ",".join(f"1/{10**45 + i}" for i in range(1, 120))
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", "-v", f"1e40,1e40;{deltas}")
    assert time.perf_counter() - start < 1
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: vector has") and err.count("\n") == 1


# --- domain errors: one handler for every subcommand --------------------------------


@pytest.mark.parametrize(
    "argv, violations",
    [
        pytest.param(("reduce", "-v", "1,1;3/2"), "delta_1_below_lambda_f, volume_positive", id="reduce-k1"),
        pytest.param(("reduce", "-v", "4,1;3,1"), "volume_positive", id="reduce-k2"),
        pytest.param(("count", "-v", "4,1;3,1"), "volume_positive", id="count"),
        pytest.param(("enumerate", "-v", "4,1;3,1"), "volume_positive", id="enumerate"),
        pytest.param(("invariants", "-v", "4,1;3,1"), "volume_positive", id="invariants"),
        pytest.param(("count", "-v", "1,1e30;2"), "delta_1_below_lambda_f", id="count-wide"),
    ],
)
def test_non_cone_is_a_domain_error(capsys, argv, violations):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert err == f"error: not a blowup form: {violations}\n"


# --- reduce ------------------------------------------------------------------------


def test_reduce_text_output(capsys):
    code, out, _ = run(capsys, "reduce", "-v", "3,3;2,2")
    assert code == EXIT_OK
    assert "reduced: 3,2;1,1" in out and "iterations: 1" in out


def test_reduce_fixed_point(capsys):
    code, out, _ = run(capsys, "reduce", "-v", "12,2;3,3")
    assert code == EXIT_OK
    assert "reduced: 12,2;3,3" in out and "iterations: 0" in out


def test_reduce_json_trace(capsys):
    code, out, _ = run(capsys, "reduce", "-v", "2,10;1.9,1.9,1.9,1.9", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["reduced"] == "2,32/5;1/10,1/10,1/10,1/10"
    assert payload["iterations"] == 2
    assert len(payload["steps"]) == 3


def test_reduce_single_blowup_is_already_reduced(capsys):
    code, out, _ = run(capsys, "reduce", "-v", "2,1;1")
    assert code == EXIT_OK and "iterations: 0" in out


# --- count --------------------------------------------------------------------------


def test_count_zero_actions(capsys):
    code, out, _ = run(capsys, "count", "-v", "12,2;3,3", "-b", "trivial", "-g", "1")
    assert code == EXIT_OK
    assert "actions: 0" in out


def test_count_three_actions(capsys):
    code, out, _ = run(capsys, "count", "-v", "1,1;1/4,1/16")
    assert code == EXIT_OK
    assert "actions: 3" in out


def test_count_nontrivial_bundle(capsys):
    code, out, _ = run(capsys, "count", "-v", "2,3;1/2", "-b", "nontrivial")
    assert code == EXIT_OK
    assert "actions: 2" in out


@pytest.mark.parametrize(
    "vector, bundle, twists",
    [
        ("3,3;2,2", "trivial", (0, 2, 1)),  # the twists of the reduced vector 3,2;1,1
        ("1,3;1/2", "trivial", (0, 2, 3)),
        ("1,7/2;1/4", "nontrivial", (1, 2, 3)),
        ("2,1/2", "nontrivial", (1, 2, 0)),  # the base is too small for the odd twist
    ],
)
def test_count_writes_the_twists_as_a_range(capsys, vector, bundle, twists):
    first, step, number = twists
    code, out, _ = run(capsys, "count", "-v", vector, "-b", bundle)
    assert code == EXIT_OK
    assert f"initial twists: first {first}, step {step}, number {number}\n" in out
    for command in ("count", "enumerate"):
        code, out, _ = run(capsys, command, "-v", vector, "-b", bundle, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["initial_twists"] == {"first": first, "step": step, "number": number}


def test_count_json_schema(capsys):
    code, out, _ = run(capsys, "count", "-v", "3,3;2,2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["reduced"] == "3,2;1,1"
    assert payload["auto_reduced"] is True
    assert payload["stage_counts"][-1] == payload["count"]


def test_count_formula_crosscheck_agrees(capsys):
    code, out, _ = run(capsys, "count", "-v", "10,2;1,1", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "crosscheck (equal sizes): 1" in out
    code, out, _ = run(capsys, "count", "-v", "3,7", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "crosscheck (ruled): 3" in out


# every count and enumerate is checked, with the flag or without it; OUT stands for a path
CHECKED_INVOCATIONS = [
    ("count",),
    ("count", "--formula-crosscheck"),
    ("count", "--format", "json"),
    ("count", "--format", "json", "--formula-crosscheck"),
    ("enumerate",),
    ("enumerate", "--format", "dot"),
    ("enumerate", "--out", "OUT"),
    ("enumerate", "--format", "dot", "--out", "OUT"),
]


def _invocation_id(argv):
    return "_".join(arg.lstrip("-") for arg in argv)


def _assert_mismatch_exits_3_and_writes_nothing(capsys, tmp_path, vector, argv):
    target = tmp_path / "out"
    command, *flags = (str(target) if arg == "OUT" else arg for arg in argv)
    code, out, err = run(capsys, command, "-v", vector, *flags)
    assert code == EXIT_BUG
    assert out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "closed form gives 99" in err


@pytest.mark.parametrize("argv", CHECKED_INVOCATIONS, ids=_invocation_id)
def test_count_crosscheck_mismatch_signals_a_bug(capsys, monkeypatch, tmp_path, argv):
    import hamcircle.cli as cli

    monkeypatch.setattr(cli, "count_equal_sizes", lambda *a, **k: 99)
    _assert_mismatch_exits_3_and_writes_nothing(capsys, tmp_path, "10,2;1,1", argv)


def test_count_output_is_the_same_with_the_crosscheck_flag(capsys):
    for text, bundle in LAYOUT_VECTORS:
        for fmt in ("text", "json"):
            argv = ("count", "-v", text, "-b", bundle, "--format", fmt)
            assert run(capsys, *argv) == run(capsys, *argv, "--formula-crosscheck")
    # the flag still parses, but the help no longer offers it
    assert "formula-crosscheck" not in run(capsys, "count", "--help")[1]


def test_count_crosscheck_not_applicable_is_fine(capsys):
    # unequal sizes whose decay is too slow for the max_count conditions
    code, out, _ = run(capsys, "count", "-v", "1,2;1/3,1/4,1/5", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "no closed form applies" in out
    # the max_count conditions are stated for the trivial bundle only
    code, out, _ = run(capsys, "count", "-v", "1,2;1/4,1/16", "-b", "nontrivial", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "no closed form applies" in out
    # without the flag the count is checked all the same
    code, out, _ = run(capsys, "count", "-v", "1,2;1/3,1/4,1/5")
    assert code == EXIT_OK
    assert "crosscheck: no closed form applies" in out


def test_count_crosscheck_max_count_agrees(capsys):
    code, out, _ = run(capsys, "count", "-v", "1,2;1/4,1/16", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "actions: 9" in out and "crosscheck (max_count): 9" in out
    code, out, _ = run(capsys, "count", "-v", "1,2;1/4,1/16", "--formula-crosscheck", "--format", "json")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert (payload["count"], payload["formula_count"], payload["formula_kind"]) == (9, 9, "max_count")


@pytest.mark.parametrize("argv", CHECKED_INVOCATIONS, ids=_invocation_id)
def test_count_crosscheck_max_count_mismatch_signals_a_bug(capsys, monkeypatch, tmp_path, argv):
    import hamcircle.cli as cli

    monkeypatch.setattr(cli, "max_count", lambda *a, **k: 99)
    _assert_mismatch_exits_3_and_writes_nothing(capsys, tmp_path, "1,2;1/4,1/16", argv)


def test_count_far_past_the_onset_is_quick(capsys):
    # 10**5 twists: the count takes them in closed form over the shapes
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "-v", "1,100000;1/2,1/4,1/8")
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK and err == ""
    assert "initial twists: first 0, step 2, number 100000\n" in out and "actions: 2399988" in out
    # the JSON gives the same twists as the same three numbers
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "-v", "1,100000;1/2,1/4,1/8", "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["initial_twists"] == {"first": 0, "step": 2, "number": 100000}
    assert payload["count"] == 2399988


def test_equal_sizes_crosscheck_far_past_the_onset_is_quick(capsys):
    # 10**5 twists and sixteen blowups of lambda_f/2: the closed form is O(k)
    deltas = ",".join(["1/2"] * 16)
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--formula-crosscheck", "-v", f"1,100000;{deltas}")
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK and err == ""
    assert "actions: 199992" in out and "crosscheck (equal sizes): 199992" in out


@pytest.mark.parametrize(
    "vector, bundle, fmt",
    [
        ("1,1e30", "trivial", "text"),
        ("1,1e30;1/2", "trivial", "text"),
        ("1,1e30", "nontrivial", "json"),
        ("3,1e30", "nontrivial", "json"),
    ],
)
def test_count_takes_any_lambda_b(capsys, vector, bundle, fmt):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "-v", vector, "-b", bundle, "--format", fmt, "--formula-crosscheck")
    assert time.perf_counter() - start < 1
    # a crosscheck that disagreed would exit 3
    assert code == EXIT_OK and err == ""
    # the twists n < 2*lambda_b/lambda_f of the bundle's parity, more than len() of a range can count
    v = parse_vector(vector)
    first = int(bundle == "nontrivial")
    number = math.ceil(v.lambda_b / v.lambda_f - F(first, 2))
    assert number > 10**29
    if fmt == "json":
        payload = json.loads(out)
        assert payload["initial_twists"] == {"first": first, "step": 2, "number": number}
        assert payload["formula_count"] == payload["count"]
    else:
        assert f"initial twists: first {first}, step 2, number {number}\n" in out and "crosscheck (" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-v", "1,1e30"),
        ("enumerate", "-v", "1,1e30;1/2", "--format", "dot"),
        ("enumerate", "-v", "1,100000;1/2,1/4,1/8"),
    ],
)
def test_too_many_graphs_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and f"graphs exceed the limit of {MAX_GRAPHS}\n" in err and err.count("\n") == 1


def test_graph_limit_is_inclusive(capsys, monkeypatch):
    import hamcircle.enumeration as enumeration

    monkeypatch.setattr(enumeration, "MAX_GRAPHS", 3)
    code, out, _ = run(capsys, "enumerate", "-v", "1,3")
    assert code == EXIT_OK and json.loads(out)["count"] == 3
    code, out, err = run(capsys, "enumerate", "-v", "1,7/2")
    assert code == EXIT_USAGE and out == "" and err == "error: 4 graphs exceed the limit of 3\n"
    code, out, _ = run(capsys, "count", "-v", "1,7/2")
    assert code == EXIT_OK and "actions: 4" in out


def test_enumerate_past_the_budget_writes_no_file(capsys, tmp_path):
    path = tmp_path / "graphs.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "-v", "1,1e30;1/2", "--out", str(path))
    assert time.perf_counter() - start < 1
    assert code == EXIT_USAGE and out == "" and err.count("\n") == 1
    assert not path.exists()


def test_genus_flag_must_be_positive(capsys):
    code, _, err = run(capsys, "count", "-v", "1,1;1/4", "-g", "0")
    assert code == EXIT_USAGE and "genus" in err


# --- enumerate -----------------------------------------------------------------------


def test_enumerate_json_graphs_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "-v", "1,1;1/4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["graphs"][0]["chains"] == [["1/4"]]
    (g,), _ = enumerate_actions(parse_vector("1,1;1/4"))
    assert g.bottom_area == F(3, 4)
    assert payload["graphs"][0] == to_json_dict(g)


def test_enumerate_empty_is_success(capsys):
    code, out, _ = run(capsys, "enumerate", "-v", "12,2;3,3")
    assert code == EXIT_OK
    assert json.loads(out)["graphs"] == []


def test_enumerate_dot_output(capsys):
    code, out, _ = run(capsys, "enumerate", "-v", "1,1;1/4", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("graph actions {")
    assert 'shape=box, label="area 3/4, genus 1"' in out
    assert 'g0_c0_v0 [label="1/4"]' in out
    assert 'g0_bottom -- g0_c0_v0 [label="1"]' in out


DOT_TWO_BLOWUPS = """graph actions {
  subgraph cluster_0 {
    label="graph 0";
    g0_bottom [shape=box, label="area 11/16, genus 1"];
    g0_top [shape=box, label="area 1, genus 1"];
    g0_c0_v0 [label="1/16"];
    g0_bottom -- g0_c0_v0 [label="1"];
    g0_c0_v0 -- g0_top [label="1"];
    g0_c1_v0 [label="1/4"];
    g0_bottom -- g0_c1_v0 [label="1"];
    g0_c1_v0 -- g0_top [label="1"];
  }
  subgraph cluster_1 {
    label="graph 1";
    g1_bottom [shape=box, label="area 3/4, genus 1"];
    g1_top [shape=box, label="area 15/16, genus 1"];
    g1_c0_v0 [label="1/4"];
    g1_bottom -- g1_c0_v0 [label="1"];
    g1_c0_v0 -- g1_top [label="1"];
    g1_c1_v0 [label="15/16"];
    g1_bottom -- g1_c1_v0 [label="1"];
    g1_c1_v0 -- g1_top [label="1"];
  }
  subgraph cluster_2 {
    label="graph 2";
    g2_bottom [shape=box, label="area 3/4, genus 1"];
    g2_top [shape=box, label="area 1, genus 1"];
    g2_c0_v0 [label="3/16"];
    g2_c0_v1 [label="5/16"];
    g2_bottom -- g2_c0_v0 [label="1"];
    g2_c0_v0 -- g2_c0_v1 [label="2"];
    g2_c0_v1 -- g2_top [label="1"];
  }
}
"""


def test_to_dot_yields_one_piece_per_graph():
    pieces = to_dot(enumerate_actions(parse_vector("1,1;1/4,1/16"))[0])
    assert isinstance(pieces, Iterator) and not isinstance(pieces, str)
    pieces = list(pieces)
    # the opening line, one piece per graph, the closing line
    assert len(pieces) == 1 + 3 + 1 and all(piece.endswith("\n") for piece in pieces)
    assert "".join(pieces) == DOT_TWO_BLOWUPS


def test_enumerate_dot_writes_the_lines_of_to_dot(capsys):
    for text in ("1,1;1/4,1/16", "1,3;1/2,1/4,1/8", "12,2;3,3"):
        code, out, _ = run(capsys, "enumerate", "-v", text, "--format", "dot")
        assert code == EXIT_OK
        assert out == "".join(to_dot(enumerate_actions(parse_vector(text))[0]))
    assert out == "graph actions {\n}\n"  # the last vector has no action


def test_enumerate_writes_files(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "enumerate", "-v", "1,1;1/4", "--out", str(target))
    assert code == EXIT_OK and out == ""
    payload = json.loads(target.read_text())
    assert payload["count"] == 1


def test_enumerate_unwritable_path(capsys):
    code, _, err = run(capsys, "enumerate", "-v", "1,1;1/4", "--out", "/nonexistent-dir/x.json")
    assert code == EXIT_USAGE and "cannot write" in err


@pytest.mark.parametrize("text, past", [("1,1;1/4,1/16,1/64,1/256", 0), ("1,40;1/2,1/3,1/5", 38)])
def test_enumerate_json_builds_no_graph_and_one_chain_per_word(monkeypatch, capsys, text, past):
    # the JSON lines are spelled from the lattice rows: no graph is built, and
    # each distinct word is validated once as a Chain, inside the window and past it
    graphs, report = enumerate_actions(parse_vector(text))
    assert _twists_past_the_window(report) == past
    words = {c for g in graphs for c in g.chains}
    built = {DecoratedGraph: 0, Chain: 0}
    post_init, new_chain = DecoratedGraph.__post_init__, Chain.__new__

    def counting_graph(self):
        built[DecoratedGraph] += 1
        post_init(self)

    def counting_chain(cls, seq):
        built[Chain] += 1
        return new_chain(cls, seq)

    monkeypatch.setattr(DecoratedGraph, "__post_init__", counting_graph)
    monkeypatch.setattr(Chain, "__new__", counting_chain)
    code, out, _ = run(capsys, "enumerate", "-v", text)
    assert code == EXIT_OK and json.loads(out)["count"] == len(graphs)
    assert built == {DecoratedGraph: 0, Chain: len(words)} and len(words) < len(graphs)


def test_enumerate_json_is_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "enumerate", "-v", "1,2;1/4,1/16")
    _, out2, _ = run(capsys, "enumerate", "-v", "1,2;1/4,1/16")
    assert out1 == out2


# --- invariants -----------------------------------------------------------------------


def test_invariants_single_blowup(capsys):
    code, out, _ = run(capsys, "invariants", "-v", "2,1;1")
    assert code == EXIT_OK
    assert "volume: 3/2" in out
    assert "gromov width^2: 3" in out
    assert "packing number: 1" in out
    assert "E_min: {E1, F-E1} (case k1_case3" in out


def test_invariants_ruled_surface(capsys):
    code, out, _ = run(capsys, "invariants", "-v", "1,1;")
    assert code == EXIT_OK
    assert "volume: 1" in out and "packing number: 2" in out
    assert "E_min: none" in out
    assert "gromov width^2: 1 (capped by fiber" in out


def test_invariants_tail_case(capsys):
    code, out, _ = run(capsys, "invariants", "-v", "6,1;2,1")
    assert code == EXIT_OK
    assert "E_min: {E2} (case case1a, tail start 1)" in out


def test_invariants_auto_reduce_notice(capsys):
    code, out, _ = run(capsys, "invariants", "-v", "3,3;2,2")
    assert code == EXIT_OK
    assert "auto-reduced 3,2;1,1" in out


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "-v", "6,1;2,1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["volume"] == "7/2"
    assert payload["emin"]["classes"] == ["E2"]
    assert payload["emin"]["case"] == "case1a"


def test_invariants_width_beyond_the_float_range(capsys):
    # within both digit bounds, yet the squared width is about 1e392
    big = f"{'9' * 96}e100"
    code, out, err = run(capsys, "invariants", "-v", f"{big},{big}")
    assert code == EXIT_OK and err == ""
    approx = out.partition("(capped by fiber, approx ")[2].partition(")")[0]
    assert math.isclose(float(approx), float(F(big)))
    code, out, err = run(capsys, "invariants", "-v", f"{big},{big}", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert math.isclose(json.loads(out)["width_approx"], float(F(big)))


# --- the full text output ---------------------------------------------------------------

# Every text branch of check, reduce, count and invariants, written out whole.
TEXT_OUTPUTS = [
    (
        ("check", "-v", "3,3;2,2"),
        EXIT_OK,
        "vector: 3,3;2,2 (trivial, genus 1)\nin cone: yes\ng-reduced: no (defect 1)\n",
    ),
    (
        ("check", "-v", "1,1;2"),
        EXIT_DOMAIN,
        "vector: 1,1;2 (trivial, genus 1)\n"
        "in cone: no\n"
        "violated: delta_1_below_lambda_f, volume_positive\n"
        "g-reduced: yes (vacuous for k <= 1)\n",
    ),
    (
        ("reduce", "-v", "3,3;2,2"),
        EXIT_OK,
        "input:   3,3;2,2\nreduced: 3,2;1,1\niterations: 1\n  0: 3,3;2,2\n  1: 3,2;1,1\n",
    ),
    (
        ("reduce", "-v", "1,1"),
        EXIT_OK,
        "input:   1,1\nreduced: 1,1\niterations: 0\n  0: 1,1\n",
    ),
    (
        ("count", "-v", "3,3;2,2"),
        EXIT_OK,
        "input: 3,3;2,2 (trivial, genus 1)\n"
        "reduced: 3,2;1,1 (auto-reduced: yes)\n"
        "initial twists: first 0, step 2, number 1\n"
        "stage counts: [1, 1, 1]\n"
        "actions: 1\n"
        "crosscheck (equal sizes): 1\n",
    ),
    (
        ("count", "-v", "3,7", "-b", "nontrivial"),
        EXIT_OK,
        "input: 3,7 (nontrivial, genus 1)\n"
        "reduced: 3,7 (auto-reduced: no)\n"
        "initial twists: first 1, step 2, number 2\n"
        "stage counts: [2]\n"
        "actions: 2\n"
        "crosscheck (ruled): 2\n",
    ),
    (
        ("count", "-v", "1,1;1/4,1/16"),
        EXIT_OK,
        "input: 1,1;1/4,1/16 (trivial, genus 1)\n"
        "reduced: 1,1;1/4,1/16 (auto-reduced: no)\n"
        "initial twists: first 0, step 2, number 1\n"
        "stage counts: [1, 1, 3]\n"
        "actions: 3\n"
        "crosscheck (max_count): 3\n",
    ),
    (
        ("count", "-v", "2,3;1/2,1/3", "-b", "nontrivial"),
        EXIT_OK,
        "input: 2,3;1/2,1/3 (nontrivial, genus 1)\n"
        "reduced: 2,3;1/2,1/3 (auto-reduced: no)\n"
        "initial twists: first 1, step 2, number 1\n"
        "stage counts: [1, 2, 6]\n"
        "actions: 6\n"
        "crosscheck: no closed form applies (unequal sizes or 2*delta > lambda_f)\n",
    ),
    (
        ("invariants", "-v", "3,3;2,2"),
        EXIT_OK,
        "vector: 3,3;2,2 (trivial, genus 1)\n"
        "volume: 5\n"
        "gromov width^2: 9 (capped by fiber, approx 3.000000)\n"
        "packing number: 2\n"
        "E_min: {E1, E2} (case case1a, tail start 0) (computed on auto-reduced 3,2;1,1)\n",
    ),
    (
        ("invariants", "-v", "1,1"),
        EXIT_OK,
        "vector: 1,1 (trivial, genus 1)\n"
        "volume: 1\n"
        "gromov width^2: 1 (capped by fiber, approx 1.000000)\n"
        "packing number: 2\n"
        "E_min: none (no blowups)\n",
    ),
    (
        ("invariants", "-v", "6,1;2,1"),
        EXIT_OK,
        "vector: 6,1;2,1 (trivial, genus 1)\n"
        "volume: 7/2\n"
        "gromov width^2: 7 (volume bound, approx 2.645751)\n"
        "packing number: 1\n"
        "E_min: {E2} (case case1a, tail start 1)\n",
    ),
]


@pytest.mark.parametrize("argv, code, text", TEXT_OUTPUTS, ids=[" ".join(argv) for argv, _, _ in TEXT_OUTPUTS])
def test_text_output_is_pinned(capsys, argv, code, text):
    assert run(capsys, *argv) == (code, text, "")


# --- the JSON layout ----------------------------------------------------------------------
#
# Every subcommand writes one key per line with a compact value, and the graphs
# one per line; the reference is the earlier layout, json.dumps(payload,
# indent=2), of a payload built here from the library.


def _report_payload(report):
    return {
        "input": format_vector(report.input_vector),
        "bundle": report.input_vector.bundle.value,
        "genus": report.input_vector.genus,
        "reduced": format_vector(report.reduced_vector),
        "auto_reduced": report.auto_reduced,
        "initial_twists": {
            "first": report.initial_twists.start,
            "step": report.initial_twists.step,
            "number": len(report.initial_twists),
        },
        "stage_counts": list(report.stage_counts),
        "count": report.count,
    }


def _indented_reference(command, v):
    if command == "reduce":
        steps = cremona_reduce(v).steps
        payload = {
            "input": format_vector(v),
            "reduced": format_vector(steps[-1]),
            "steps": [format_vector(s) for s in steps],
            "iterations": len(steps) - 1,
        }
    elif command == "count":
        report = count_actions(v)
        payload = _report_payload(report)
        payload["formula_count"], payload["formula_kind"] = _crosscheck(report)
    elif command == "enumerate":
        graphs, report = enumerate_actions(v)
        payload = _report_payload(report)
        payload["count"] = len(graphs)
        payload["formula_count"], payload["formula_kind"] = _crosscheck(report)
        payload["graphs"] = [to_json_dict(g) for g in graphs]
    else:
        width, reduced = gromov_width(v), cremona_reduce(v).vector
        minimal = emin(reduced) if v.k else None
        payload = {
            "vector": format_vector(v),
            "bundle": v.bundle.value,
            "genus": v.genus,
            "volume": str(volume(v)),
            "width_squared": str(width.width_squared),
            "width_capped_by_fiber": width.capped_by_fiber,
            "width_approx": width.approx,
            "packing_number": packing_number(v),
            "emin": None
            if minimal is None
            else {
                "classes": sorted(str(c) for c in minimal.classes),
                "case": minimal.case.value,
                "tail_start": minimal.tail_start,
                "vector": format_vector(reduced),
            },
        }
    return json.dumps(payload, indent=2)


def _layout(out):
    """The keys with their value text, one line each, and the graph rows."""
    lines = out.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    keys, rows = [], None
    for line in lines[1:-2]:
        if rows is not None and line.startswith("    "):
            rows.append(line[4:].removesuffix(","))
            continue
        if line in ("  ]", "  ],"):
            assert rows
            continue
        assert line.startswith('  "')
        key, _, value = line[2:].partition(": ")
        keys.append((json.loads(key), value.removesuffix(",")))
        if value == "[":
            rows = []
    return keys, rows


LAYOUT_VECTORS = [
    ("1,2;1/4,1/16", "trivial"),  # reduced, crosschecked by max_count
    ("3,3;2,2", "trivial"),  # auto-reduced
    ("2,10;1.9,1.9,1.9,1.9", "nontrivial"),  # auto-reduced, no closed form
    ("1,40;1/2,1/3,1/5", "nontrivial"),  # far past the window: least-a shapes list the twists
    ("2,3;1/2", "nontrivial"),  # equal sizes
    ("3,7", "trivial"),  # k = 0
    ("12,2;3,3", "trivial"),  # no action
]


@pytest.mark.parametrize("text, bundle", LAYOUT_VECTORS)
@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate",),
        ("count", "--formula-crosscheck", "--format", "json"),
        ("reduce", "--format", "json"),
        ("invariants", "--format", "json"),
    ],
)
def test_json_layout_keeps_the_indented_content(capsys, tmp_path, text, bundle, argv):
    command, *flags = argv
    code, out, err = run(capsys, command, "-v", text, "-b", bundle, *flags)
    assert code == EXIT_OK and err == ""
    v = parse_vector(text, BundleType(bundle))
    payload = json.loads(out)
    assert payload == json.loads(_indented_reference(command, v))
    keys, rows = _layout(out)
    assert [key for key, _ in keys] == list(payload)
    for key, value in keys:
        if key != "graphs" or not payload["graphs"]:
            assert value == json.dumps(payload[key], separators=(",", ":"))
    if command == "enumerate":
        assert (rows or []) == [canonical_json(g) for g in enumerate_actions(v)[0]]
        target = tmp_path / "out.json"
        assert run(capsys, command, "-v", text, "-b", bundle, "--out", str(target)) == (EXIT_OK, "", "")
        assert target.read_bytes() == out.encode()


def test_enumerate_json_rows_are_the_library_graphs(capsys, tmp_path):
    # the CLI spells its lines from the lattice rows, the library builds
    # graphs: the same bytes on every seeded run and golden vector, to
    # stdout and to a file
    target = tmp_path / "out.json"
    vectors = [*_seeded_runs(), *(parse_vector(text, bundle) for text, bundle, _, _ in GOLDEN)]
    for v in vectors:
        argv = ("enumerate", "-v", format_vector(v), "-b", v.bundle.value, "-g", str(v.genus))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        _, rows = _layout(out)
        assert (rows or []) == [canonical_json(g) for g in enumerate_actions(v)[0]]
        assert run(capsys, *argv, "--out", str(target)) == (EXIT_OK, "", "")
        assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("graphs", [[], (), iter(()), (line for line in ())])
def test_json_text_writes_no_graphs_as_an_empty_list(graphs):
    # an iterator of lines cannot be tested for emptiness by its truth value
    text = "".join(_json_text({"count": 0, "graphs": graphs}))
    assert text == '{\n  "count": 0,\n  "graphs": ' + compact_json([]) + "\n}\n"
    assert json.loads(text) == {"count": 0, "graphs": []}


def test_json_text_writes_the_graph_lines_as_given():
    lines = iter(['{"a":1}', '{"b":2}'])
    assert "".join(_json_text({"graphs": lines})) == '{\n  "graphs": [\n    {"a":1},\n    {"b":2}\n  ]\n}\n'


# --- parser-level behaviour --------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK


# --- a closed stdout -------------------------------------------------------------------

# the directory that holds the package, for the interpreters started below
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hamcircle.__file__)))


def cli_process(argv, stdout):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "hamcircle.cli", *argv]
    return subprocess.Popen(command, stdout=stdout, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})


def read_whole(capsys, argv):
    """The output of ``main``, checked to be what a reader that reads everything gets."""
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    with cli_process(argv, subprocess.PIPE) as proc:
        assert proc.communicate(timeout=120) == (out.encode(), b"")
    assert proc.returncode == EXIT_OK
    return out


def assert_io_error(proc):
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == EXIT_USAGE
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("enumerate", "-v", "1,300;1/2,1/4", "--format", fmt) for fmt in ("json", "dot")])
def test_a_reader_that_stops_early_is_an_io_error(capsys, argv):
    # far more output than a pipe holds, so the writer is still writing when
    # the reader goes, as under ``| head -c 100``
    out = read_whole(capsys, argv)
    assert len(out) > 2**17
    with cli_process(argv, subprocess.PIPE) as proc:
        assert proc.stdout.read(100) == out.encode()[:100]
        proc.stdout.close()
        assert_io_error(proc)


def test_a_reader_that_is_gone_before_the_first_write_is_an_io_error(capsys):
    argv = ("reduce", "-v", "2,30;19/10,19/10,19/10,19/10")
    assert read_whole(capsys, argv).count("\n") == 6
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(argv, write_end)
    finally:
        os.close(write_end)
    with proc:
        assert_io_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device whose every write fails")
@pytest.mark.parametrize(
    "argv",
    [
        # a few lines through ``print``: the write fails at the last flush
        ("reduce", "-v", "2,30;19/10,19/10,19/10,19/10"),
        # far more than a buffer holds through ``writelines``: it fails mid-write
        ("enumerate", "-v", "1,300;1/2,1/4", "--format", "json"),
    ],
)
def test_a_full_device_on_stdout_is_an_io_error(argv):
    with open("/dev/full", "wb") as full, cli_process(argv, full) as proc:
        assert_io_error(proc)
