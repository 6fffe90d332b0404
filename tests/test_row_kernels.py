"""Differential tests of the row kernels and of the identity shortcut.

Elimination, determinant, rank, inverse, cofactor, linear solves, scaling
and word evaluation are compared with the per-entry references of
helpers.py on seeded inputs over five fields at sizes 1 to 8: square,
rectangular, singular at every rank, and the augmented [A | I]. All values
are exact, so every comparison is equality of normal-form triples.
"""

import random

import pytest

from multmap.errors import DimensionMismatch, FieldMismatch, SingularMatrix
from multmap.field import RATIONAL, _scale_row, _sub_mul_row, one, quadratic, sqrt_gen, zero
from multmap.matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _eliminate,
    gen_matrix,
    identity,
    solve_exact,
    zeros,
)
from multmap.slword import evaluate_word

from helpers import (
    rand_elem,
    rand_matrix,
    rand_singular,
    ref_apply_word,
    ref_augment,
    ref_cofactor,
    ref_eliminate,
    ref_of,
    ref_product,
    ref_scale,
)

FIELDS = [RATIONAL, quadratic(2), quadratic(-1), quadratic(-3), quadratic(5)]
FIELD_IDS = ["Q", "Q(sqrt 2)", "Q(i)", "Q(sqrt -3)", "Q(sqrt 5)"]
SIZES = range(1, 9)

by_field = pytest.mark.parametrize("fd", FIELDS, ids=FIELD_IDS)
by_size = pytest.mark.parametrize("n", SIZES)


def _seed(fd, n: int) -> int:
    return 1000 * n + (fd.d or 0)


def _rect(rng, fd, n_rows: int, n_cols: int) -> Matrix:
    return Matrix(fd, [[rand_elem(rng, fd) for _ in range(n_cols)] for _ in range(n_rows)])


def _square_inputs(rng, fd, n: int):
    """A random square matrix and one singular matrix at every rank below n."""
    yield rand_matrix(rng, fd, n)
    for rank in range(n):
        yield rand_singular(rng, fd, n, rank)


def _elimination_inputs(rng, fd, n: int):
    """(rows, n_pivot_cols): the square inputs, a wide and a tall matrix,
    and [A | I] for a random and a rank n - 1 matrix A."""
    for m in _square_inputs(rng, fd, n):
        yield m.rows, n
    yield _rect(rng, fd, n, n + 2).rows, n + 2
    yield _rect(rng, fd, n + 2, n).rows, n
    yield ref_augment(rand_matrix(rng, fd, n)), n
    yield ref_augment(rand_singular(rng, fd, n, n - 1)), n


@by_field
@by_size
def test_eliminate_matches_the_per_entry_reference(fd, n):
    rng = random.Random(_seed(fd, n))
    for rows, cols in _elimination_inputs(rng, fd, n):
        # rows, pivots and the signed pivot product, at every rank and shape
        got = _eliminate(fd, [list(r) for r in rows], cols)
        assert got == ref_eliminate(fd, rows, cols)


@by_field
@by_size
def test_public_routines_match_the_references(fd, n):
    rng = random.Random(_seed(fd, n) + 1)
    for m in _square_inputs(rng, fd, n):
        rows, pivots, det = ref_eliminate(fd, ref_augment(m), n)
        assert m.rank == len(pivots)
        assert m.det == (det if len(pivots) == n else zero(fd))
        if len(pivots) == n:
            assert m.inverse() == Matrix(fd, [r[n:] for r in rows])
        else:
            with pytest.raises(SingularMatrix):
                m.inverse()
        if n >= 2:
            assert m.cofactor() == ref_cofactor(m)
        for f in (zero(fd), one(fd), -one(fd), rand_elem(rng, fd)):
            assert m.scale(f) == ref_scale(m, f)
        # a X = b for the square matrix and a tall one over it, consistent
        # and, for the tall one, inconsistent
        x = _rect(rng, fd, n, 2)
        tall = Matrix(fd, m.rows + _rect(rng, fd, 2, n).rows)
        for a, b in ((m, m * x), (tall, tall * x), (tall, _rect(rng, fd, n + 2, 2))):
            aug = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
            ref_rows, ref_pivots, _ = ref_eliminate(fd, aug, n + 2)
            if ref_pivots == tuple(range(n)):
                assert solve_exact(a, b) == Matrix(fd, [r[n:] for r in ref_rows[:n]])
            else:
                with pytest.raises(SingularMatrix):
                    solve_exact(a, b)


@by_field
@by_size
def test_evaluate_word_matches_the_per_entry_reference(fd, n):
    rng = random.Random(_seed(fd, n) + 2)
    for _ in range(4):
        word = []
        for _ in range(3 * n):
            kind = rng.choice(("P", "D", "S") if n >= 2 else ("D",))
            i = rng.randint(1, n)
            j = rng.choice([k for k in range(1, n + 1) if k != i] or [i])
            if kind == "P":
                # zero multipliers included: the update keeps the row as it is
                word.append(Transvection(i, j, rand_elem(rng, fd)))
            elif kind == "D":
                k = rand_elem(rng, fd)
                word.append(DiagUnit(i, k if not k.is_zero else one(fd)))
            else:
                word.append(Swap(i, j))
        assert evaluate_word(word, fd, n) == ref_apply_word(word, fd, n)


@by_field
def test_kernels_match_per_entry_arithmetic_and_pass_zeros_through(fd):
    rng = random.Random(_seed(fd, 0))
    for _ in range(30):
        xs = [rand_elem(rng, fd) for _ in range(6)]
        ys = [rand_elem(rng, fd) for _ in range(6)]
        f = rand_elem(rng, fd)
        scaled = _scale_row(f, xs)
        assert scaled == [f * x for x in xs]
        assert all(s is x for s, x in zip(scaled, xs) if x.is_zero)
        updated = _sub_mul_row(xs, f, ys)
        assert updated == [x - f * y for x, y in zip(xs, ys)]
        assert all(u is x for u, x, y in zip(updated, xs, ys) if y.is_zero)


# -- the identity shortcut ------------------------------------------------------


def _as_ref(m: Matrix):
    return [[ref_of(x) for x in r] for r in m.rows]


def _plain_product(a: Matrix, b: Matrix):
    return ref_product(_as_ref(a), _as_ref(b))


@by_field
@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (2, 3), (3, 2), (1, 4)])
def test_products_by_the_identity_equal_the_plain_product(fd, shape):
    rng = random.Random(_seed(fd, shape[0] * 10 + shape[1]))
    r, c = shape
    a = _rect(rng, fd, r, c)
    left, right = identity(fd, r), identity(fd, c)
    assert left * a is a and a * right is a
    assert _as_ref(left * a) == _plain_product(left, a)
    assert _as_ref(a * right) == _plain_product(a, right)
    # one nonzero entry off the diagonal makes a transvection, not the identity
    if r >= 2:
        t = gen_matrix(Transvection(2, 1, rand_elem(rng, fd) + one(fd)), fd, r)
        assert _as_ref(t * a) == _plain_product(t, a)


@by_field
def test_is_identity_rejects_every_other_pattern(fd):
    o = one(fd)
    odd_values = [o + o, -o, o / (o + o), zero(fd)]
    if fd.is_quadratic:
        odd_values.append(o + sqrt_gen(fd))
    for n in range(1, 6):
        assert identity(fd, n).is_identity
        for i in range(n):
            for j in range(n):
                values = odd_values if i == j else [o, sqrt_gen(fd) if fd.is_quadratic else -o]
                for v in values:
                    rows = [list(r) for r in identity(fd, n).rows]
                    rows[i][j] = v
                    assert not Matrix(fd, rows).is_identity, (n, i, j, v)
    assert not Matrix(fd, [[o, zero(fd), zero(fd)], [zero(fd), o, zero(fd)]]).is_identity
    assert not zeros(fd, 3).is_identity


def test_identity_shortcut_keeps_the_field_and_shape_checks():
    q2 = quadratic(2)
    a = identity(q2, 2)
    for left, right in ((identity(RATIONAL, 2), a), (a, identity(RATIONAL, 2))):
        with pytest.raises(FieldMismatch):
            left * right
    rect = Matrix(q2, [[one(q2)] * 3] * 2)
    with pytest.raises(DimensionMismatch):
        identity(q2, 3) * rect
    with pytest.raises(DimensionMismatch):
        rect * identity(q2, 2)
    with pytest.raises(DimensionMismatch):
        identity(q2, 3) * a


@by_field
def test_scaling_by_one_returns_an_equal_matrix(fd):
    m = rand_matrix(random.Random(_seed(fd, 9)), fd, 3)
    assert m.scale(one(fd)) == m == ref_scale(m, one(fd))
    assert one(fd) * m == m
