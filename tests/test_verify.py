"""Fuzz verdicts: multiplicativity, pointwise equality, commutator depth."""

import pytest

from multmap import verify
from multmap.errors import DimensionMismatch, FieldMismatch, ParseError
from multmap.field import RATIONAL, quadratic
from multmap.mapexpr import Cof, MapExpr
from multmap.matrix import identity
from multmap.verify import FuzzConfig, Verdict, check_equal, check_multiplicative, lcs_depth_check

from helpers import int_matrix

Q2 = quadratic(2)


def test_cofactor_is_multiplicative():
    expr = MapExpr(3, RATIONAL, (Cof(),))
    verdict = check_multiplicative(expr.evaluate, RATIONAL, 3, FuzzConfig(seed=5))
    assert verdict.passed
    assert verdict.samples == 50
    assert verdict.counterexample is None


def test_adjugate_transpose_fails_with_counterexample():
    def adj_t(a):
        return a.cofactor().transpose()

    verdict = check_multiplicative(adj_t, RATIONAL, 2, FuzzConfig(seed=5))
    assert not verdict.passed
    a, b = verdict.counterexample
    # the witness itself must still violate the law after shrinking
    assert adj_t(a * b) != adj_t(a) * adj_t(b)
    # shrinking reached a local fixpoint: every nonzero entry is needed
    for which, m in ((0, a), (1, b)):
        for i in range(2):
            for j in range(2):
                if m[i, j].is_zero:
                    continue
                rows = [list(r) for r in m.rows]
                rows[i][j] = rows[i][j] - rows[i][j]
                from multmap.matrix import Matrix

                smaller = Matrix(RATIONAL, rows)
                sa = smaller if which == 0 else a
                sb = b if which == 0 else smaller
                assert adj_t(sa * sb) == adj_t(sa) * adj_t(sb)


def test_check_equal_reports_a_slot():
    f = lambda a: a
    g = lambda a: a + identity(RATIONAL, 2)
    verdict = check_equal(f, g, RATIONAL, 2, FuzzConfig(seed=1))
    assert not verdict.passed
    a, b = verdict.counterexample
    assert b is None
    assert f(a) != g(a)
    same = check_equal(f, f, RATIONAL, 2, FuzzConfig(seed=1))
    assert same.passed


def test_verdicts_are_reproducible():
    def adj_t(a):
        return a.cofactor().transpose()

    v1 = check_multiplicative(adj_t, Q2, 2, FuzzConfig(seed=77))
    v2 = check_multiplicative(adj_t, Q2, 2, FuzzConfig(seed=77))
    assert v1 == v2


def test_verdict_doc():
    v = Verdict(False, (int_matrix(RATIONAL, [[1, 0], [0, 0]]), None), 3, 9)
    doc = v.to_doc()
    assert doc["pass"] is False
    assert doc["counterexample"]["B"] is None
    assert doc["samples"] == 3 and doc["seed"] == 9
    assert Verdict(True, None, 50, 0).to_doc()["counterexample"] is None


@pytest.mark.parametrize("n", [3, 4])
def test_lcs_depths(n):
    for depth in range(n + 1):
        verdict = lcs_depth_check(RATIONAL, n, depth, FuzzConfig(seed=4, pair_count=25))
        assert verdict.passed, (n, depth)


def test_lcs_depth_validation():
    with pytest.raises(DimensionMismatch):
        lcs_depth_check(RATIONAL, 3, -1)


@pytest.mark.parametrize("depth", [1.5, True, "2", None])
def test_lcs_depth_check_refuses_a_depth_that_is_no_int(depth):
    # 1.5 ended in a TypeError from range, and True ran as depth 1
    with pytest.raises(DimensionMismatch, match="^nesting depth must be an int of at least 0"):
        lcs_depth_check(RATIONAL, 3, depth)


@pytest.mark.parametrize("seed", [[1], 1.5, True, None, "1"])
def test_fuzz_config_refuses_a_seed_that_is_no_int(seed):
    # [1] ended in a bare TypeError from random.Random inside the fuzz run,
    # and None would seed it from the clock
    with pytest.raises(ParseError, match="^fuzz seed must be an int"):
        FuzzConfig(seed=seed)


@pytest.mark.parametrize("n", [2.5, 0, True, "2"])
def test_every_fuzz_run_refuses_a_bad_size(n):
    # 2.5 ended in a ValueError from randrange
    ident = lambda a: a
    for run in (
        lambda: check_multiplicative(ident, RATIONAL, n, FuzzConfig(seed=1)),
        lambda: check_equal(ident, ident, RATIONAL, n, FuzzConfig(seed=1)),
        lambda: lcs_depth_check(RATIONAL, n, 1),
    ):
        with pytest.raises(DimensionMismatch, match="^fuzz runs need n >= 1$"):
            run()


def test_every_fuzz_run_refuses_a_field_that_is_no_descriptor():
    ident = lambda a: a
    for run in (
        lambda: check_multiplicative(ident, "Q", 2),
        lambda: check_equal(ident, ident, None, 2),
        lambda: lcs_depth_check(2, 3, 1),
    ):
        with pytest.raises(FieldMismatch, match="^fuzz runs need a FieldDescriptor field$"):
            run()


def test_fuzz_config_refuses_a_sample_count_below_one_or_of_the_wrong_type():
    # zero samples would pass A -> A + I, which is not multiplicative
    for bad in (0, -3, 2.5, "3", True, None):
        with pytest.raises(DimensionMismatch, match="^pair_count must be an int of at least 1"):
            FuzzConfig(pair_count=bad)
    def plus_identity(a):
        return a + identity(RATIONAL, 3)

    verdict = check_multiplicative(plus_identity, RATIONAL, 3, FuzzConfig(pair_count=1))
    assert not verdict.passed and verdict.samples == 1


def test_lcs_depth_check_fails_a_nest_that_does_not_collapse(monkeypatch):
    # a bracket that returns its first operand leaves a fresh random
    # unitriangular matrix where the nest should have collapsed
    monkeypatch.setattr(verify, "commutator", lambda a, b: a)
    verdict = lcs_depth_check(RATIONAL, 3, 2, FuzzConfig(seed=4, pair_count=25))
    assert not verdict.passed
    c, none = verdict.counterexample
    assert none is None and not c.is_identity
    assert verdict.samples >= 1 and verdict.seed == 4
