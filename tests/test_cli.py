"""Command-line contract: subcommands, flags, exit codes, serialization."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tolerant
from tolerant import (Factorization, Polynomial, parse_field,
                      parse_polynomial, rationals)
from tolerant.cli import _build_parser, _expression_last, _fast_args, main
from tolerant.field import _int_text

from conftest import EXPR_COMMANDS, load_bench_corpus, readme_examples


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
    # the sign-law route from tol refuses degree < 2 the way gdisc does
    for argv in (("(x+1)", "--factored"), ("3", "--factored"),
                 ("(x+t)", "--factored", "--field", "fpt:3"),
                 ("x+1", "--assert-irreducible")):
        assert run(capsys, "gdisc", *argv) == (
            1, "", "error[DEGREE_TOO_SMALL]: gdisc needs degree >= 2\n")


@pytest.mark.parametrize("field,expr", [
    ("q", "-1/2*(x-1)^2*(x+3)*(x^2+1)"),
    # x^7-2 = (x-2)^7 over F_7 desubstitutes to x-2 with exponent 1
    ("fp:7", "3*(x^7-2)*(x-1)^2*(x^2+1)"),
    # x^3-t has inseparability exponent 1, the other parts 0
    ("fpt:3", "t*(x^3-t)*(x-1)^2*(x^2+t)"),
])
def test_factored_values_without_expansion(capsys, monkeypatch, field, expr):
    expected = {command: run(capsys, command, "--field", field, "--", expr)
                for command in ("tol", "dupl", "gdisc")}

    def refuse(*_):
        raise AssertionError("a value command expanded or re-checked "
                             "the factorization")

    monkeypatch.setattr(Factorization, "expand", refuse)
    monkeypatch.setattr(Factorization, "pairwise_coprime", refuse)
    for command, (code, out, err) in expected.items():
        assert (code, err) == (0, "")
        assert run(capsys, command, "--factored", "--field", field, "--",
                   expr) == (0, out, "")


def test_parts_sharing_a_root_across_exponents_are_not_coprime(capsys):
    # x^3-t^3 = (x-t)^3 desubstitutes to x-t^3 with exponent 1; x-t has
    # exponent 0; both vanish at t
    args = ("(x^3-t^3)*(x-t)", "--factored", "--field", "fpt:3")
    message = "factors are not pairwise coprime"
    assert run(capsys, "tol", *args) == (
        1, "", f"error[INVALID_FACTORIZATION]: {message}\n")
    code, out, _ = run(capsys, "report", *args)
    assert code == 0
    assert json.loads(out)["errors"] == [{
        "op": "factorization", "code": "INVALID_FACTORIZATION",
        "message": message}]


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


def test_batch_summary_line_on_stderr(capsys, tmp_path):
    src = tmp_path / "batch.txt"
    src.write_text("# comment\n"
                   "(x-2)^2*(x-3)\n"
                   "\n"
                   "@fp:7 x^3+x+1\n"
                   "x^^1\n"
                   "@zz x\n"
                   "x+t\n")
    code, out, err = run(capsys, "batch", str(src))
    assert code == 0
    assert len(out.splitlines()) == 5
    summary = json.loads(err)
    assert err.count("\n") == 1 and set(summary) == {"lines", "errors", "ms"}
    assert summary["lines"] == 5
    assert summary["errors"] == {"FIELD_ERROR": 1, "FIELD_LITERAL_ERROR": 1,
                                 "SYNTAX_ERROR": 1}
    assert summary["ms"] >= 0
    # stdout is the same with or without --output; the summary still goes
    # to stderr
    target = tmp_path / "out.txt"
    code, again, err = run(capsys, "batch", str(src), "--output", str(target))
    assert code == 0 and again == "" and target.read_text() == out
    assert json.loads(err)["lines"] == 5


def test_batch_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("x^2+1\n"))
    code, out, _ = run(capsys, "batch", "-")
    assert code == 0
    assert json.loads(out.splitlines()[0])["tol"] == "-4"


def test_batch_pretty_indents_every_object(capsys, monkeypatch):
    import io
    outputs = []
    for flags in ((), ("--pretty",)):
        monkeypatch.setattr("sys.stdin", io.StringIO("x^2-1\nx^^2\n"))
        code, out, _ = run(capsys, "batch", "-", *flags)
        assert code == 0
        outputs.append(out)
    # the report and the malformed line's object, each indented alike
    objects = [json.loads(line) for line in outputs[0].splitlines()]
    assert objects[1]["errors"][0]["code"] == "SYNTAX_ERROR"
    assert outputs[1] == "\n".join(json.dumps(o, indent=2)
                                   for o in objects) + "\n"


def run_in_subprocess(*argv):
    """stdout of `python -m tolerant ARGV` in a fresh interpreter, which
    must exit 0 within 30 s and write nothing to stderr."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(tolerant.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "tolerant", *argv],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout


def sign_law(tol_value, n):
    """gdisc as the sign law (-1)^C(n,2) * tol."""
    return -tol_value if (n * (n - 1) // 2) % 2 else tol_value


@pytest.mark.parametrize("argv", [
    ("x^60+x+1",),
    ("x^2000+1", "--field", "fp:7"),
    ("x^40+t*x+1", "--field", "fpt:3"),
    ("x^40+x+1", "--field", "fp:10007"),
], ids=["q", "fp:7", "fpt:3", "fp:10007"])
def test_report_on_short_high_degree_input_finishes(argv):
    # Separable inputs whose elimination against the paper's full G ran for
    # tens of seconds or more; at width 1 gdisc is res(f, f').
    report = json.loads(run_in_subprocess("report", *argv))
    assert report["paths_agree"] is True and report["separable"] is True
    field = parse_field(report["field"])
    tol_value = parse_polynomial(report["tol"], field)
    assert parse_polynomial(report["gdisc"], field) == sign_law(
        tol_value, report["degree"])


@pytest.mark.parametrize("argv", [
    ("gdisc", "(x+1)^30*(x-1)^10"),
    ("gdisc", "(x^3+x+1)^12"),
    ("gdisc", "x^2401+1", "--field", "fp:7"),
    ("report", "(x^3-t)^4*(x+t)^5", "--field", "fpt:3"),
    ("gdisc", "(x^20+3*x^7-5*x^3+2*x+7)^6*(x^10-x^3+4)^3"),
    ("gdisc", "(x^7-2)^5*(x^9-3)^3*(x^4+5)^2"),
], ids=["q-M30", "q-M12", "fp:7-sparse", "fpt:3-report", "q-dense-M6",
        "q-binomials-M5"])
def test_gdisc_on_high_multiplicity_input_finishes(argv):
    # Repeated roots of multiplicity near the degree, where one elimination
    # against G cut at M ran for tens of seconds or more, and dense Q input
    # whose block eliminations over Z[u] ran for seconds; gdisc now takes
    # one scalar resultant per multiplicity.
    out = run_in_subprocess(*argv)
    field = parse_field(argv[3] if len(argv) > 2 else "q")
    f = parse_polynomial(argv[1], field)
    if argv[0] == "report":
        report = json.loads(out)
        assert report["paths_agree"] is True and report["separable"] is False
        out = report["gdisc"]
    expected = sign_law(tolerant.tol(f), f.degree)
    assert parse_polynomial(out, field) == Polynomial.constant(field, expected)


@pytest.mark.parametrize("argv", [
    ("report", "((t^3+1)*x^4+t*x+1)^5*(x^2+t)^2", "--field", "fpt:5"),
    ("report", "(3*x^2/7+x/5+1)^6*(x-1/3)^5"),
    ("tol", "(x+1)^3000"),
], ids=["fpt:5-report", "q-report", "q-tol"])
def test_gcd_heavy_input_finishes(argv):
    # Long gcd chains and squarefree decompositions, over non-integral Q
    # coefficients and non-monic t-leading coefficients
    out = run_in_subprocess(*argv)
    if argv[0] == "report":
        report = json.loads(out)
        assert report["paths_agree"] is True and report["separable"] is False
    else:
        assert out == "1\n"         # one distinct root, leading coefficient 1


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


def test_int_text_matches_str_past_the_split_point():
    # random values around the 2000-bit point where _int_text stops calling
    # str(), and several splits past it, negative ones too
    rng = random.Random(3)
    values = [0, -1, 2 ** 2000, 2 ** 2000 - 1, -(2 ** 2001), 10 ** 1300]
    for bits in [*range(1995, 2006), 4001, 8000, 30001]:
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        values += [n, -n]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in values:
            assert _int_text(n) == str(n), n.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)


def test_value_of_millions_of_digits_prints_in_time():
    # tol((2x+1)^2000) = (2^2000)^3998 has 2.4 million digits; printing them
    # by repeated division by powers of ten took about a minute
    out = run_in_subprocess("tol", "(2*x+1)^2000").strip()
    assert out[-30:] == str(pow(2, 2000 * 3998, 10 ** 30)).zfill(30)
    assert len(out) == math.floor(2000 * 3998 * math.log10(2)) + 1


def test_printed_long_value_parses_back(capsys):
    # the 4405-digit value above is read back as an input literal
    code, out, _ = run(capsys, "tol", "x^1400+1")
    value = out.strip()
    assert code == 0 and len(value) > 4300
    parsed = parse_polynomial(value, rationals())
    assert parsed.constant_term().value == 1400 ** 1400
    # disc(x^2 - v) = 4v, printed again in full
    code, out, _ = run(capsys, "disc", f"x^2 - {value}")
    assert code == 0
    assert parse_polynomial(out.strip(), rationals()) == parsed.scale(
        rationals().from_int(4))


def test_degree_past_the_cap_exits_one(capsys):
    # refused by the parser before a dense list of 10^9 entries is built
    code, out, err = run(capsys, "tol", "x^1000000000+1", "--field", "fp:7")
    assert code == 1 and out == ""
    assert err.startswith("error[INPUT_TOO_LARGE]: ")
    assert "offset 2" in err
    # a factored product is capped as a whole, before disc expands it
    code, out, err = run(capsys, "disc", "--factored", "--field", "fp:7",
                         "(x+1)^100000*(x+2)^100000")
    assert code == 1 and out == ""
    assert err.startswith("error[INPUT_TOO_LARGE]: ")
    assert "offset 13" in err


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


# -- the fixed-grammar fast path against argparse ------------------------------

OPTION_VALUES = ("q", "fp:7", "fpt:3", "-1", "-x^2+1", "-", "", "x^2+1", "x",
                 "corrected", "paper-general", "paper-separable", "bogus",
                 "out.txt", "--", "--pretty", "-h")
# Tokens outside the grammar that argparse may still accept or read.
FOREIGN_TOKENS = ("-h", "--help", "--seed", "--count", "--fi", "--f", "--pre",
                  "--field=fp:7", "--mode=corrected", "--pretty=1",
                  "--output=o.txt", "-1", "-x")
# '--' and an expression twice over, so that more lists hold one of each.
ARGV_TOKENS = OPTION_VALUES + FOREIGN_TOKENS + (
    "--field", "--mode", "--output", "--factored", "--assert-irreducible",
    "--pretty", "--", "--", "x^2+1", "x^2+1")


def argparse_args(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except SystemExit:
        return None


def fast_args(argv):
    args = _fast_args(list(argv))
    return None if args is None else vars(args)


@st.composite
def grammar_argv(draw):
    """An expression command with options of its grammar in any order and
    repeated, the expression anywhere or after '--', values that are right,
    wrong, empty or option-like, and now and then a foreign token."""
    parts = draw(st.lists(st.one_of(
        st.sampled_from(["--factored", "--assert-irreducible", "--pretty"])
        .map(lambda flag: [flag]),
        st.sampled_from(FOREIGN_TOKENS).map(lambda token: [token]),
        st.tuples(st.sampled_from(["--field", "--mode", "--output"]),
                  st.sampled_from(OPTION_VALUES)).map(list)), max_size=5))
    expr = [draw(st.sampled_from(OPTION_VALUES))]
    if draw(st.booleans()):
        parts.append(["--", *expr])
    else:
        parts.insert(draw(st.integers(0, len(parts))), expr)
    return [draw(st.sampled_from(EXPR_COMMANDS))] + sum(parts, [])


any_argv = st.one_of(
    grammar_argv(),
    st.tuples(st.sampled_from(EXPR_COMMANDS + ("batch", "selfcheck", "factor",
                                               "-h", "--field", "")),
              st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
    .map(lambda parts: [parts[0], *parts[1]]),
    st.just([]))


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(any_argv)
def test_fast_path_reads_argv_as_argparse_does(argv):
    # main hands the fast path argv after _expression_last; the raw argv is
    # checked too, so the fast path holds on its own.
    for args in (argv, _expression_last(argv)):
        want, got = argparse_args(args), fast_args(args)
        if want is None:
            assert got is None, args
        elif got is not None:
            assert got == want, args


@pytest.mark.parametrize("argv", [
    ["tol", "--factored", "--mode", "paper-general", "--mode", "corrected",
     "--", "x^2+1"],
    ["report", "x^2+1", "--field", "fp:7", "--pretty", "--pretty",
     "--output", "", "--field", "q"],
    ["disc", ""],
    ["gdisc", "--", "--"],
    ["dupl", "--assert-irreducible", "--field", "fpt:3", "--", "-x^2+t"],
    _expression_last(["tol", "-x^2+1", "--field", "fp:7"]),
])
def test_fast_path_takes_every_option_of_the_grammar(argv):
    assert fast_args(argv) == argparse_args(argv) is not None


def test_gated_and_readme_argv_take_the_fast_path(monkeypatch):
    corpus = load_bench_corpus(monkeypatch)
    argvs = [item.argv() for workload in ("report-mixed", "factored-highdeg")
             for item in corpus.build_corpus(workload, 0)]
    examples = readme_examples()
    assert len(examples) >= 5
    for argv in argvs + examples:
        argv = _expression_last(argv)
        assert fast_args(argv) == argparse_args(argv) is not None, argv


def test_expression_commands_skip_argparse():
    # -S: no site hook can import argparse ahead of the package.
    code = textwrap.dedent("""
        import contextlib, io, sys
        from tolerant import cli
        for argv in (["report", "--field", "q", "--", "x^3+2*x+5"],
                     ["tol", "--field", "fp:10007", "--factored", "--",
                      "(x+1)^2*(x^2+x+1)"],
                     ["disc", "--field", "fpt:3", "--", "-x^3+t"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        assert "argparse" not in sys.modules
        assert cli._build_parser.cache_info().misses == 0
        cli.main(["-h"])
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(tolerant.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: tolerant")
