"""The command-line interface: parsing, outputs, exit codes, determinism."""

import json
import time
from fractions import Fraction as F

import pytest

from hamcircle import graph_from_json_dict
from hamcircle.cli import (
    EXIT_BUG,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SCALAR_DIGITS,
    MAX_TWISTS,
    MAX_VECTOR_DIGITS,
    format_vector,
    main,
    parse_vector,
)


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


def test_count_json_schema(capsys):
    code, out, _ = run(capsys, "count", "-v", "3,3;2,2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["reduced"] == "3,2;1,1"
    assert payload["auto_reduced"] is True
    assert payload["stage_counts"][-1] == payload["count"]


def test_count_no_reduce_rejects_crooked_input(capsys):
    code, _, err = run(capsys, "count", "-v", "3,3;2,2", "--no-reduce")
    assert code == EXIT_DOMAIN and "not g-reduced" in err


def test_count_formula_crosscheck_agrees(capsys):
    code, out, _ = run(capsys, "count", "-v", "10,2;1,1", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "crosscheck (equal sizes): 1" in out
    code, out, _ = run(capsys, "count", "-v", "3,7", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "crosscheck (ruled): 3" in out


def test_count_crosscheck_mismatch_signals_a_bug(capsys, monkeypatch):
    import hamcircle.cli as cli

    monkeypatch.setattr(cli, "count_equal_sizes", lambda *a, **k: 99)
    code, _, err = run(capsys, "count", "-v", "10,2;1,1", "--formula-crosscheck")
    assert code == EXIT_BUG
    assert "closed form gives 99" in err


def test_count_crosscheck_not_applicable_is_fine(capsys):
    code, out, _ = run(capsys, "count", "-v", "1,2;1/4,1/16", "--formula-crosscheck")
    assert code == EXIT_OK
    assert "no closed form applies" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-v", "1,1e30"),
        ("count", "-v", "1,1e30;1/2"),
        ("count", "-v", "1,1e30", "-b", "nontrivial"),
        ("enumerate", "-v", "1,1e30"),
    ],
)
def test_too_many_twists_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and f"limit of {MAX_TWISTS}" in err and err.count("\n") == 1


def test_twist_limit_is_inclusive(capsys, monkeypatch):
    import hamcircle.cli as cli

    monkeypatch.setattr(cli, "MAX_TWISTS", 3)
    code, out, _ = run(capsys, "count", "-v", "1,3")
    assert code == EXIT_OK and "actions: 3" in out
    code, _, err = run(capsys, "enumerate", "-v", "1,7/2")
    assert code == EXIT_USAGE and err == "error: 4 twists exceed the limit of 3\n"


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
    rebuilt = graph_from_json_dict(payload["graphs"][0])
    assert rebuilt.bottom.area == F(3, 4)


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


def test_enumerate_writes_files(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "enumerate", "-v", "1,1;1/4", "--out", str(target))
    assert code == EXIT_OK and out == ""
    payload = json.loads(target.read_text())
    assert payload["count"] == 1


def test_enumerate_unwritable_path(capsys):
    code, _, err = run(capsys, "enumerate", "-v", "1,1;1/4", "--out", "/nonexistent-dir/x.json")
    assert code == EXIT_USAGE and "cannot write" in err


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


# --- parser-level behaviour --------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
