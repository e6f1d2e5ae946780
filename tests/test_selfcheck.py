"""Randomized cross-validation harness: determinism and coverage."""

import pytest

from tolerant import prime_field, rational_function_field, rationals
from tolerant.errors import UnsupportedFieldError
from tolerant.selfcheck import run_selfcheck


def test_selfcheck_q_passes_and_is_deterministic():
    a = run_selfcheck(rationals(), seed=7, count=30)
    b = run_selfcheck(rationals(), seed=7, count=30)
    assert a.ok
    assert a.failed == {}
    assert a.first_counterexample is None
    assert a.lines() == b.lines()


def test_selfcheck_fp_passes():
    s = run_selfcheck(prime_field(13), seed=42, count=30)
    assert s.ok
    assert s.failed == {}
    # every check family actually fired
    assert set(s.passed) >= {"tol-nonzero", "corrected-path", "sign-law",
                             "elimination", "duplicant-relation",
                             "translation-invariance", "homothety-law",
                             "inversion-criterion"}


@pytest.mark.parametrize("field", [rationals(), prime_field(7)],
                         ids=["q", "fp:7"])
def test_selfcheck_runs_the_elimination_on_every_instance(field):
    # gdisc against the paper's elimination, on every instance of degree
    # >= 2; no report runs the elimination
    s = run_selfcheck(field, seed=3, count=40)
    assert s.ok, s.failed
    assert s.passed["elimination"] == s.passed["sign-law"] > 0


def test_selfcheck_q_exercises_roots_oracle():
    s = run_selfcheck(rationals(), seed=1, count=20)
    assert s.passed.get("roots-oracle", 0) > 0
    assert s.passed.get("disc-when-separable", 0) >= 0


def test_selfcheck_different_seeds_differ():
    a = run_selfcheck(rationals(), seed=1, count=10)
    b = run_selfcheck(rationals(), seed=2, count=10)
    assert a.lines() != b.lines()


def test_selfcheck_count_zero_is_empty_pass():
    s = run_selfcheck(prime_field(7), seed=0, count=0)
    assert s.ok
    assert s.passed == {} and s.failed == {}


def test_selfcheck_fpt_unsupported():
    with pytest.raises(UnsupportedFieldError):
        run_selfcheck(rational_function_field(5), seed=0, count=5)


@pytest.mark.parametrize("p", [3, 5])
def test_selfcheck_disc_when_p_divides_the_degree(p):
    # seed 1 draws separable inputs of degree divisible by p with lc != 1,
    # where disc needs lc^(n-2-deg f') * res(f, f'), not res(f, f') / lc
    s = run_selfcheck(prime_field(p), seed=1, count=200)
    assert s.ok, s.failed
    assert s.passed["disc-when-separable"] > 0
