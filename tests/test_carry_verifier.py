"""Every value the matrix layer carries, recomputed the moment it is stored.

A Matrix keeps derived values on itself: its determinant (_det), its
cofactor (_cof), its inverse (_inv) and the generator word it was built
from (_word). The matrix module stores each of them through matrix._set,
which this test patches for its own duration. Each time one of the four is
stored with a value, the value is recomputed on a fresh copy of the matrix
that carries nothing, by the references of helpers.py rather than by the
sweep or the elimination of the package:

  - _det against ref_det;
  - _cof against ref_cofactor;
  - _inv by A A^-1 = I, multiplied out by ref_product;
  - _word = (e, triples) by rebuilding diag(e) P_1 ... P_m with
    ref_diagonal_word: ref_apply_word multiplies out the transvections, and
    e, whose entries may be zero, scales the rows one entry at a time.

Each distinct matrix has its reference determinant and cofactor computed
once, since classify stores the same values on many equal matrices.

A re-entrancy guard lets the stores that the recomputation itself makes go
through unchecked.

The sample: classify, seed 0, of the identity, cofactor and
det-cube-to-2x2 builtins at n = 2 to 5 over Q, Q(sqrt 2) and Q(i), and of
six random_mapexpr oracles at n = 3, three over Q and three over Q(sqrt 2),
drawn from random.Random(31) with max_depth 4.
"""

import random
from fractions import Fraction

import pytest

import multmap.matrix as matrix_module
from multmap.classify import classify
from multmap.cli import BUILTINS
from multmap.field import RATIONAL, quadratic
from multmap.matrix import Matrix

from helpers import (
    RefElem,
    random_mapexpr,
    ref_cofactor,
    ref_det,
    ref_diagonal_word,
    ref_of,
    ref_product,
)

FIELDS = (RATIONAL, quadratic(2), quadratic(-1))


def _ref_rows(m: Matrix) -> list:
    return [[ref_of(x) for x in r] for r in m.rows]


def _fresh(m: Matrix) -> Matrix:
    return Matrix(m.field, m.rows)


def _wrong(m: Matrix, name: str, value, refs: dict) -> bool:
    """Whether value, stored as m.name, differs from its recomputation;
    refs keeps the reference determinant and cofactor of each matrix once."""
    fd, n = m.field, m.n_rows
    if name == "_inv":
        o, z = RefElem(fd, Fraction(1)), RefElem(fd, Fraction(0))
        unit = [[o if i == j else z for j in range(n)] for i in range(n)]
        return ref_product(_ref_rows(m), _ref_rows(value)) != unit
    fresh = _fresh(m)
    if name == "_word":
        return ref_diagonal_word(*value, fd, n) != fresh
    key = (name, fresh)
    if key not in refs:
        refs[key] = ref_det(_ref_rows(fresh)) if name == "_det" else ref_cofactor(fresh)
    return (ref_of(value) if name == "_det" else value) != refs[key]


@pytest.fixture
def wrong_carries(monkeypatch) -> list:
    """Patch matrix._set to check every carried value it stores; the list
    collects (name, n, field) of each value that differs."""
    store = matrix_module._set
    found, busy, refs = [], [], {}

    def checked(obj, name, value):
        store(obj, name, value)
        if busy or value is None or name not in ("_det", "_cof", "_inv", "_word"):
            return
        busy.append(1)
        try:
            if _wrong(obj, name, value, refs):
                found.append((name, obj.n_rows, obj.field.to_doc()))
        finally:
            busy.pop()

    monkeypatch.setattr(matrix_module, "_set", checked)
    return found


@pytest.mark.parametrize("fd", FIELDS, ids=("Q", "Q(sqrt 2)", "Q(i)"))
@pytest.mark.parametrize("name", ["identity", "cofactor", "det-cube-to-2x2"])
def test_builtin_classify_carries_only_true_values(name, fd, wrong_carries):
    for n in range(2, 6):
        classify(BUILTINS[name](fd, n), fd, n)
    assert wrong_carries == []


def test_cofactor_classify_at_six_carries_only_true_values(wrong_carries):
    # the size and field of the classify-large cofactor op: among the
    # singular samples of seed 0 is one of rank n - 1, whose cofactor is
    # read off the words of its two factors
    fd = quadratic(2)
    classify(BUILTINS["cofactor"](fd, 6), fd, 6)
    assert wrong_carries == []


def test_random_expression_classify_carries_only_true_values(wrong_carries):
    rng = random.Random(31)
    for fd in (RATIONAL, quadratic(2)):
        for _ in range(3):
            expr = random_mapexpr(rng, fd, 3, max_depth=4)
            classify(expr.as_oracle(), fd, 3)
    assert wrong_carries == []
