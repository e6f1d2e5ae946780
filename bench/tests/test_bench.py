"""Checks of the benchmark itself: corpus determinism, oracle values and the
span recorder.  Run with ``python3 -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from corpus import Factor, Field, Instance  # noqa: E402


def corpus_bytes(workload: str, seed: int) -> bytes:
    """One JSON line per input: its argv and its oracle values."""
    return "\n".join(json.dumps({"argv": it.argv(), "expect": {
        k: repr(v) for k, v in it.expect.items()}}, sort_keys=True)
        for it in corpus.build_corpus(workload, seed)).encode()


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(workload):
    first = corpus_bytes(workload, 7)
    assert first == corpus_bytes(workload, 7)
    assert first != corpus_bytes(workload, 8)


def test_every_expression_is_passed_after_a_separator():
    items = corpus.build_corpus("report-mixed", 0)
    assert all(it.argv()[-2] == "--" for it in items)
    assert any(it.expr.startswith("-") for it in items)


def test_oracle_readme_values():
    Q = corpus.FIELDS["q"]
    f = Instance(Q, Fraction(1), (Factor((Fraction(2),), m=2),
                                  Factor((Fraction(3),))))
    assert corpus.poly_text(Q, corpus.expand(f)) == "x^3 - 7*x^2 + 16*x - 12"
    want = corpus.oracle(f)
    assert (want["tol"], want["gdisc"], want["dupl"]) == (1, -1, 1)
    assert want["disc"] == corpus.REPEATED_ROOT
    assert want["homothety_exponent"] == 8
    assert want["in_T"] is False

    F7 = Field("fp:7")
    g = Instance(F7, F7.of(1), (Factor((F7.of(1), F7.of(-1))),))
    assert corpus.oracle(g)["tol"] == F7.parse_value("4")
    assert corpus.oracle(g)["disc"] == F7.parse_value("4")

    F5T = Field("fpt:5")
    h = Instance(F5T, F5T.of(1), (Factor((F5T.poly_t([0, 1]),), q=5, k=2),))
    assert corpus.poly_text(F5T, corpus.expand(h)) == "x^10 + (-t)"
    assert corpus.oracle(h)["tol"] == F5T.parse_value("4*t^5")
    assert corpus.oracle(h)["tol"] != F5T.parse_value("4*t^4")


def test_coinciding_closure_roots_are_rejected():
    F3T = Field("fpt:3")
    t = F3T.poly_t([0, 1])
    # x^3 - t has the root t^(1/3), apart from the simple root t; x^3 - t^3
    # is (x - t)^3 and repeats it.
    assert corpus.tol_oracle(Instance(F3T, F3T.of(1), (
        Factor((t,), q=3), Factor((t,))))) != 0
    with pytest.raises(ValueError):
        corpus.tol_oracle(Instance(F3T, F3T.of(1), (
            Factor((t * t * t,), q=3), Factor((t,)))))


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.mark.xfail(strict=True, reason="resultant.discriminant divides the "
                   "exact-degree res(f, f') by lc once, so disc is short by "
                   "lc^((n-1) - deg f') when p divides n")
def test_disc_when_p_divides_the_degree(cli):
    # 2*(x-1)*(x-2)*(x-t) over F_3(t): separable, so disc must equal tol.
    # Its derivative has degree 1, and the program prints -tol.
    F3T = corpus.FIELDS["fpt:3"]
    f = Instance(F3T, F3T.of(2), (Factor((F3T.of(1), F3T.of(2),
                                          F3T.poly_t([0, 1]))),))
    _, rc, out, _ = run.call(cli, ["disc", "--field", "fpt:3", "--",
                                   corpus.poly_text(F3T, corpus.expand(f))])
    assert rc == 0
    assert F3T.parse_value(out.strip()) == corpus.oracle(f)["tol"]


def test_report_mixed_avoids_the_disc_defect():
    for seed in range(5):
        for it in corpus.build_corpus("report-mixed", seed):
            if it.field.p and it.expect["separable"]:
                assert it.degree % it.field.p, it.expr


def test_traced_pass_matches_untraced_and_restores_bindings(cli):
    items = [it for it in corpus.build_corpus("report-mixed", 0) if it.degree <= 4]
    items += [it for it in corpus.build_corpus("factored-highdeg", 0)
              if it.degree == 16][:4]
    plain = [run.call(cli, it.argv())[1:3] for it in items]
    originals = {name: spans._resolve(module, path)
                 for name, module, path in spans.SPAN_TARGETS + spans.COUNT_TARGETS}
    bound = {name: spans._bindings(fn) for name, fn in originals.items()}
    recorder = spans.Recorder()
    with recorder:
        assert spans.leftover_wrappers()
        traced = [run.call(cli, it.argv())[1:3] for it in items]
    assert traced == plain
    assert spans.leftover_wrappers() == []
    assert {name: spans._bindings(fn) for name, fn in originals.items()} == bound
    layers = spans.layer_metrics(recorder.spans, recorder.counts)
    assert layers["cli.main.calls"] == len(items)
    assert layers["invariants.build_report.calls"] == sum(
        it.command == "report" for it in items)
    assert layers["field.FieldElement.ops"] > 0


def test_one_slow_pass_moves_no_latency_figure():
    items = corpus.build_corpus("tol-ladder", 0)
    fast = {"wall": 1.0, "markers": 0,
            "latencies": [0.01 * (i + 1) for i in range(len(items))]}
    slow = {"wall": 3.0, "markers": 0,
            "latencies": [3 * x for x in fast["latencies"]]}
    steady, _, _ = run.end_to_end(items, [fast, fast, fast], [0.1])
    mixed, _, shares = run.end_to_end(items, [fast, slow, fast], [0.1])
    for name in ("items_per_s", "latency_p50_ms", "latency_tail_ms",
                 "top_rung_ms"):
        assert mixed[name] == steady[name]
    assert set(shares) == {f"pass_share.{f}" for f in corpus.FIELDS}
    assert sum(shares.values()) == pytest.approx(1)


def test_without_the_package_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "tol-ladder", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_baseline_mode_records_rows_and_compares_with_the_last_run(
        tmp_path, monkeypatch, capsys, cli):
    import baseline
    monkeypatch.setattr(baseline, "RESULTS", tmp_path)
    monkeypatch.setattr(baseline, "ROWS", {
        name: baseline.ROWS[name] for name in ("disc_q18", "sqf_fpt17")})
    monkeypatch.setattr(baseline, "SAME_VALUE", [])
    assert baseline.main(BENCH.parent, 0) == 0
    (first,) = tmp_path.glob("baseline-*.json")
    first.rename(tmp_path / "baseline-00000000T000000Z.json")
    assert baseline.main(BENCH.parent, 0) == 0
    out = capsys.readouterr().out
    assert "% vs " in out and "skipped" in out
    newest = json.loads(sorted(tmp_path.glob("baseline-*.json"))[-1].read_text())
    assert newest["rows"]["disc_q18"]["status"] == "ok"
    assert newest["rows"]["sqf_fpt17"]["status"] == "skipped"
    assert {"python", "nproc", "git_sha", "seed"} <= newest.keys()
