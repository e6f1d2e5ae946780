"""Command-line contract: subcommands, flags, exit codes, serialization."""

import json
import sys

import pytest

from tolerant.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tol_value_output(capsys):
    code, out, err = run(capsys, "tol", "(x-2)^2*(x-3)")
    assert code == 0 and out.strip() == "1" and err == ""


def test_value_subcommands(capsys):
    assert run(capsys, "dupl", "2*(x-1)*(x+1)")[1].strip() == "64"
    assert run(capsys, "gdisc", "x^2-1")[1].strip() == "-4"
    assert run(capsys, "disc", "x^2+1")[1].strip() == "-4"
    assert run(capsys, "tol", "x^10-t", "--field", "fpt:5")[1].strip() == "4*t^5"
    assert run(capsys, "tol", "x^3+x+1", "--field", "fp:7")[1].strip() == "4"


def test_tol_of_a_degree_2000_binomial(capsys):
    # separable and monic: tol = (-1)^C(n,2) disc = n^n * a^(n-1), here
    # 2000^2000 mod 7 = 4.  The degree is chosen so that a resultant kernel
    # cubic in the degree would make this test take seconds.
    code, out, err = run(capsys, "tol", "x^2000+1", "--field", "fp:7")
    assert code == 0 and err == ""
    assert out.strip() == str(pow(2000, 2000, 7)) == "4"


@pytest.mark.parametrize("argv,value", [
    (("tol", "-x^2+1"), "4"),
    (("tol", "-x^2+1", "--field", "fp:7"), "4"),
    (("tol", "--field", "fp:7", "-x^2+1"), "4"),
    (("tol", "--", "-x^2+1"), "4"),
    (("tol", "--field", "fp:7", "--", "-x^2+1"), "4"),
])
def test_negative_leading_coefficient_is_an_expression(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.strip() == value


def test_help_still_exits_zero(capsys):
    for argv in (["-h"], ["tol", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_negative_option_value_is_read_as_the_value(capsys):
    code, out, _ = run(capsys, "selfcheck", "--seed", "-1", "--count", "2")
    assert code == 0
    assert "seed=-1" in out.splitlines()[0]


@pytest.mark.parametrize("command", ["tol", "report", "batch"])
def test_seed_is_a_selfcheck_option_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1", "x^2+1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_report_json_shape(capsys):
    code, out, _ = run(capsys, "report", "(x-2)^2*(x-3)")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"field", "input", "degree", "tol", "dupl", "gdisc",
                        "disc", "separable", "in_T", "homothety_exponent",
                        "paths_agree", "trusted_input", "errors"}
    assert doc["tol"] == "1"
    assert doc["gdisc"] == "-1"
    assert doc["disc"] == "REPEATED_ROOT"
    assert doc["in_T"] is False
    assert doc["homothety_exponent"] == 8
    assert doc["paths_agree"] is True
    assert doc["errors"] == []


def test_report_pretty_is_indented(capsys):
    _, out, _ = run(capsys, "report", "x^2+1", "--pretty")
    assert out.startswith("{\n")
    assert json.loads(out)["separable"] is True


def test_report_trusted_factored_assertion(capsys):
    code, out, _ = run(capsys, "report", "(x^5-t)", "--field", "fpt:5",
                       "--factored")
    doc = json.loads(out)
    assert code == 0
    assert doc["tol"] == "1"
    assert doc["trusted_input"] is True


def test_factored_modes(capsys):
    base = ["tol", "(x^5-t)*(x-1)", "--field", "fpt:5", "--factored"]
    _, corrected, _ = run(capsys, *base, "--mode", "corrected")
    _, general, _ = run(capsys, *base, "--mode", "paper-general")
    assert corrected.strip() == "t^2 + 3*t + 1"
    assert general.strip() == "t^10 + 3*t^5 + 1"
    _, sep_out, _ = run(capsys, "tol", "(x-1)*(x-2)", "--factored",
                        "--mode", "paper-separable")
    assert sep_out.strip() == "1"


def test_assert_irreducible_shortcut(capsys):
    code, out, _ = run(capsys, "tol", "x^10-t", "--field", "fpt:5",
                       "--assert-irreducible")
    assert code == 0 and out.strip() == "4*t^5"


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "value.txt"
    code, out, _ = run(capsys, "tol", "x^2+1", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip() == "-4"


def test_malformed_input_exits_one_with_position(capsys):
    code, out, err = run(capsys, "tol", "x^^2")
    assert code == 1 and out == ""
    assert "SYNTAX_ERROR" in err and "offset 2" in err


def test_bad_field_descriptor_exits_one(capsys):
    code, _, err = run(capsys, "tol", "x", "--field", "fp:6")
    assert code == 1 and err


def test_degree_too_small_exits_one(capsys):
    code, _, err = run(capsys, "gdisc", "x+1")
    assert code == 1 and "DEGREE_TOO_SMALL" in err


def test_batch_processing(capsys, tmp_path):
    src = tmp_path / "batch.txt"
    src.write_text("# comment\n"
                   "(x-2)^2*(x-3)\n"
                   "\n"
                   "@fp:7 x^3+x+1\n"
                   "x^^1\n")
    code, out, _ = run(capsys, "batch", str(src))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    assert lines[0]["tol"] == "1" and lines[0]["field"] == "q"
    assert lines[1]["field"] == "fp:7" and lines[1]["tol"] == "4"
    # malformed line keeps the report shape, values nulled, error recorded
    assert lines[2]["tol"] is None
    assert lines[2]["errors"][0]["code"] == "SYNTAX_ERROR"
    assert lines[2]["input"] == "x^^1"


def test_batch_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("x^2+1\n"))
    code, out, _ = run(capsys, "batch", "-")
    assert code == 0
    assert json.loads(out.splitlines()[0])["tol"] == "-4"


def test_batch_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "batch", str(tmp_path / "absent.txt"))
    assert code == 1 and "IO_ERROR" in err


def test_unwritable_output_path_exits_one(capsys, tmp_path):
    target = tmp_path / "absent" / "out.txt"
    code, out, err = run(capsys, "tol", "x^2", "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error[IO_ERROR]: ")
    assert not target.exists()


def test_value_past_the_int_string_limit_prints(capsys):
    # tol(x^n + 1) = n^n; 1400^1400 has 4405 digits, more than the
    # interpreter's default limit of 4300 for int-to-text conversion
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(1400 ** 1400)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 4300
    code, out, err = run(capsys, "tol", "x^1400+1")
    assert code == 0 and err == ""
    assert out.strip() == expected


def test_selfcheck_cli_pass_and_determinism(capsys):
    code1, out1, _ = run(capsys, "selfcheck", "--seed", "42", "--count", "20")
    code2, out2, _ = run(capsys, "selfcheck", "--seed", "42", "--count", "20")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result: PASS" in out1


def test_selfcheck_cli_fp_field(capsys):
    code, out, _ = run(capsys, "selfcheck", "--field", "fp:13",
                       "--seed", "1", "--count", "10")
    assert code == 0 and "field=fp:13" in out


def test_selfcheck_cli_count_zero(capsys):
    code, out, _ = run(capsys, "selfcheck", "--count", "0")
    assert code == 0 and "result: PASS" in out


def test_selfcheck_cli_fpt_rejected(capsys):
    code, _, err = run(capsys, "selfcheck", "--field", "fpt:5")
    assert code == 1 and "UNSUPPORTED_FIELD" in err


def test_round_trip_via_report_input_field(capsys):
    # printed form re-parses to the same polynomial
    from tolerant import parse_polynomial, rationals
    _, out, _ = run(capsys, "report", "(x-1)^3*(x+2)")
    doc = json.loads(out)
    Q = rationals()
    assert parse_polynomial(doc["input"], Q) == \
        parse_polynomial("(x-1)^3*(x+2)", Q)
