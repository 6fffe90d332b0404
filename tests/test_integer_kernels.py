"""Differential tests of the integer product and the fraction-free determinant.

Matrix.__mul__ works on rows and columns held as integers over a common
denominator, and hands the product its rows in that form; Matrix.det is one
fraction-free sweep over the integer rows in Z[sqrt d], d = 0 over Q. Both are
compared with the per-entry references of helpers.py (ref_product,
ref_det_inverse and, up to size 5, laplace_det) over Q, Q(sqrt 2), Q(i) and
Q(sqrt -3) at sizes 1 to 8, on dense, sparse, singular and rank-deficient
matrices, rational-valued matrices over Q(sqrt d), rows with mixed
denominators and entries past 2^64, and on chains (A B) C in which a
product's integer rows feed the next product and its determinant.

A product keeps only its integer rows until its entries are read. The lazy
products are compared with the same matrices built eagerly from
ref_product rows, read by read, each read on a product not yet read; a
regression guard pins which reads build the entries and that products,
chains of products and equality between them build none.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from multmap.errors import DimensionMismatch, SingularMatrix
from multmap.field import RATIONAL, FieldElem, _integer_vector, quadratic, zero
from multmap.matrix import Matrix, zeros

from helpers import laplace_det, ref_det_inverse, ref_of, ref_product

FIELDS = (RATIONAL, quadratic(2), quadratic(-1), quadratic(-3))
KINDS = ("dense", "sparse", "rational-valued", "huge", "deficient", "permuted-triangular")
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 12)


def _scalar(rng, fd, kind: str) -> FieldElem:
    span = 2**70 if kind == "huge" else 9
    if kind == "sparse" and rng.random() < 0.6:
        return zero(fd)
    a = Fraction(rng.randint(-span, span), rng.choice(DENOMINATORS))
    b = 0
    if fd.is_quadratic and kind != "rational-valued" and rng.random() < 0.6:
        b = Fraction(rng.randint(-span, span), rng.choice(DENOMINATORS))
    return FieldElem(fd, a, b)


def _matrix(rng, fd, n_rows: int, n_cols: int, kind: str) -> Matrix:
    """A matrix of the given kind. A deficient one has its rows from a
    random rank on built as combinations of the rows before it, and a
    permuted triangular one is upper triangular with a nonzero diagonal; the
    rows of both are shuffled, so a pivot search reaches any distance."""
    rows = [[_scalar(rng, fd, kind) for _ in range(n_cols)] for _ in range(n_rows)]
    if kind == "permuted-triangular":
        for i, row in enumerate(rows):
            row[: min(i, n_cols)] = [zero(fd)] * min(i, n_cols)
            if i < n_cols and row[i].is_zero:
                row[i] = FieldElem(fd, 1)
        rng.shuffle(rows)
    if kind == "deficient":
        rank = rng.randrange(n_rows)
        for i in range(rank, n_rows):
            ks = [_scalar(rng, fd, "sparse") for _ in range(rank)]
            row = [zero(fd)] * n_cols
            for k, src in zip(ks, rows):
                row = [x + k * y for x, y in zip(row, src)]
            rows[i] = row
        rng.shuffle(rows)
    return Matrix(fd, rows)


def _refs(m: Matrix):
    return [[ref_of(x) for x in row] for row in m.rows]


def _assert_rows_are_its_integer_vectors(m: Matrix) -> None:
    # the rows a product hands on are the ones a fresh matrix would compute
    assert m._irows == [_integer_vector(row) for row in m.rows]


fields = st.sampled_from(FIELDS)
kinds = st.sampled_from(KINDS)
seeds = st.integers(0, 2**32)


@settings(max_examples=120, deadline=None)
@given(fd=fields, shape=st.tuples(*[st.integers(1, 8)] * 3), kinds=st.tuples(kinds, kinds), seed=seeds)
def test_product_matches_the_per_entry_reference(fd, shape, kinds, seed):
    rng = random.Random(seed)
    r, m, c = shape
    a = _matrix(rng, fd, r, m, kinds[0])
    b = _matrix(rng, fd, m, c, kinds[1])
    ab = a * b
    assert _refs(ab) == ref_product(_refs(a), _refs(b))
    if not (a.is_identity or b.is_identity):
        _assert_rows_are_its_integer_vectors(ab)


@settings(max_examples=120, deadline=None)
@given(fd=fields, n=st.integers(1, 8), kind=kinds, seed=seeds)
def test_det_matches_elimination_and_expansion(fd, n, kind, seed):
    m = _matrix(random.Random(seed), fd, n, n, kind)
    det, _ = ref_det_inverse(_refs(m))
    assert ref_of(m.det) == det
    if n <= 5:
        assert m.det == laplace_det(m)


@settings(max_examples=80, deadline=None)
@given(fd=fields, n=st.integers(1, 8), kinds=st.tuples(kinds, kinds, kinds), seed=seeds)
def test_chained_products_and_their_determinants(fd, n, kinds, seed):
    rng = random.Random(seed)
    a, b, c = (_matrix(rng, fd, n, n, kind) for kind in kinds)
    ab = a * b
    abc = ab * c
    ref = ref_product(ref_product(_refs(a), _refs(b)), _refs(c))
    assert _refs(abc) == ref
    assert abc == a * (b * c) == Matrix(fd, ab.rows) * c
    if not (ab.is_identity or c.is_identity):
        _assert_rows_are_its_integer_vectors(abc)
    # the determinant of a product sweeps the integer rows it was handed
    assert ref_of(abc.det) == ref_det_inverse(ref)[0]
    assert abc.det == a.det * b.det * c.det


def _eager(fd, refs) -> Matrix:
    return Matrix(fd, [[FieldElem(fd, x.a, x.b) for x in row] for row in refs])


def _outcome(f, m):
    """f(m), or the class of the exception it raised."""
    try:
        return f(m)
    except SingularMatrix as e:
        return type(e)


def _neighbours(fd, refs):
    """refs with its last entry plus one, with it plus sqrt d over Q(sqrt d),
    and with every entry halved, which may change only the denominators."""
    bumps = [FieldElem(fd, 1), FieldElem(fd, 0, 1)] if fd.is_quadratic else [FieldElem(fd, 1)]
    for bump in bumps:
        other = [list(row) for row in refs]
        other[-1][-1] = other[-1][-1] + ref_of(bump)
        yield other
    half = ref_of(FieldElem(fd, Fraction(1, 2)))
    yield [[x * half for x in row] for row in refs]


READS = {
    "rows": lambda m: m.rows,
    "is_identity": lambda m: m.is_identity,
    "is_zero": lambda m: m.is_zero,
    "hash": hash,
    "to_doc": lambda m: m.to_doc(),
    "transpose": lambda m: m.transpose(),
    "det": lambda m: m.det,
    "inverse": lambda m: m.inverse(),
    "cofactor": lambda m: m.cofactor() if m.n_rows > 1 else None,
}


@settings(max_examples=100, deadline=None)
@given(
    fd=fields,
    n=st.integers(1, 6),
    kinds=st.tuples(kinds, st.sampled_from(KINDS + ("inverse", "zero")), kinds),
    seed=seeds,
)
def test_lazy_products_read_like_eager_matrices(fd, n, kinds, seed):
    rng = random.Random(seed)
    a = _matrix(rng, fd, n, n, kinds[0])
    if kinds[1] == "inverse" and not a.det.is_zero:
        b = a.inverse()
    elif kinds[1] == "zero":
        b = zeros(fd, n)
    else:
        b = _matrix(rng, fd, n, n, kinds[1] if kinds[1] in KINDS else "dense")
    c = _matrix(rng, fd, n, n, kinds[2])
    ref_ab = ref_product(_refs(a), _refs(b))
    for lazy, refs in (
        (lambda: a * b, ref_ab),
        (lambda: (a * b) * c, ref_product(ref_ab, _refs(c))),
        (lambda: a * (b * c), ref_product(_refs(a), ref_product(_refs(b), _refs(c)))),
    ):
        eager = _eager(fd, refs)
        if lazy()._rows is not None:
            continue  # an identity factor returns the other one
        assert lazy() == eager and eager == lazy() and lazy() == lazy()
        assert not (lazy() != eager or eager != lazy() or lazy() != lazy())
        for name, read in READS.items():
            assert _outcome(read, lazy()) == _outcome(read, eager), name
        # as the right operand, and against its neighbours
        assert c * lazy() == c * eager
        for other_refs in _neighbours(fd, refs):
            other = _eager(fd, other_refs)
            same = other_refs == refs
            assert (lazy() == other) == (other == lazy()) == same
            assert (lazy() != other) == (other != lazy()) == (not same)
        if not c.is_identity:
            assert (lazy() != c * lazy()) == (eager != c * eager)
        # the same integers over another field make another matrix
        elsewhere = _eager(quadratic(5), refs)
        assert lazy() != elsewhere and elsewhere != lazy()


@settings(max_examples=80, deadline=None)
@given(fd=fields, n=st.integers(1, 8), kind=kinds, seed=seeds)
def test_is_invertible_agrees_with_the_rank(fd, n, kind, seed):
    # the fraction-free determinant is zero exactly below full rank, and a
    # matrix that is not square has none
    rng = random.Random(seed)
    m = _matrix(rng, fd, n, n, kind)
    assert m.det.is_zero == (m.rank < n)
    with pytest.raises(DimensionMismatch):
        _matrix(rng, fd, n, n + 1, kind).det


@pytest.mark.parametrize("fd", FIELDS)
def test_products_build_no_entries_until_they_are_read(fd):
    rng = random.Random(7)
    r, a, b = (_matrix(rng, fd, 4, 4, "permuted-triangular") for _ in range(3))
    r_inv = r.inverse()
    ra, rb = r_inv * a, r_inv * b
    x, y = ra * r, rb * r
    ab = a * b
    r_ab = r_inv * ab
    xy, conj_ab = x * y, r_ab * r
    assert xy == conj_ab
    assert all(m._rows is None for m in (ra, rb, x, y, ab, r_ab, xy, conj_ab))
    # the reads that build the entries, once
    for read in (lambda m: m.rows, lambda m: m[0, 0], hash, lambda m: m.to_doc()):
        m = r_inv * a * r
        read(m)
        assert m._rows is not None and m.rows is m.rows
