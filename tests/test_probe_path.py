"""Tests of the probe path: the Session memo, _read and Matrix.conjugate.

Session.call hashes a probe's rows once and keeps, per hash, the (rows,
image) pairs of the probes that share it. Probes whose rows collide in hash
must each reach the oracle once, and a repeat, an equal fresh copy and an
equal product that holds only integer rows must be answered from the memo;
a counting FieldElem.__hash__ pins that one call hashes each entry at most
once.

classify._read and Matrix.conjugate work on integer rows. They are compared
with ref_read and ref_conjugate of helpers.py, the entrywise versions they
replace, over Q, Q(sqrt 2) and Q(i), on entries with denominators and surd
parts: _read on images that match the background, on images with a stray
entry at every fixed position, and on free sets of one entry, two entries,
the diagonal and an l x l block; conjugate on eager and lazy matrices, with
and without a known determinant.
"""

import random
from fractions import Fraction

import pytest

from multmap.classify import Session, _read
from multmap.errors import NotMultiplicative
from multmap.field import RATIONAL, FieldElem, one, quadratic, sqrt_gen, zero
from multmap.matrix import (
    Matrix,
    Swap,
    Transvection,
    _zero_matrix,
    diag,
    gen_matrix,
    identity,
)
from multmap.slword import random_gl

from helpers import int_matrix, rand_invertible, rand_matrix, ref_conjugate, ref_read

Q2 = quadratic(2)
QI = quadratic(-1)
FIELDS = (RATIONAL, Q2, QI)
LAW = "image breaks the probed law"


# -- the memo -------------------------------------------------------------------


def _recording_session(fd, n):
    calls = []

    def oracle(a):
        calls.append(a)
        return a + a

    return Session(oracle, fd, n), calls


def test_probes_whose_rows_share_a_hash_each_reach_the_oracle_once():
    a = int_matrix(RATIONAL, [[1, -1], [0, 1]])
    b = int_matrix(RATIONAL, [[1, -2], [0, 1]])
    # hash(-1) == hash(-2) in CPython, so both probes land in one bucket
    assert hash(a.rows) == hash(b.rows) and a != b
    session, calls = _recording_session(RATIONAL, 2)
    outs = [session.call(m) for m in (a, b, a, b)]
    assert calls == [a, b]
    assert [p for p, _ in session.log] == [a, b]
    assert outs[0] == a + a and outs[1] == b + b
    assert outs[2] is outs[0] and outs[3] is outs[1]


@pytest.mark.parametrize("fd", FIELDS)
def test_repeats_equal_copies_and_equal_lazy_products_hit_the_memo(fd):
    n = 3
    x = sqrt_gen(fd) if fd.is_quadratic else FieldElem(fd, Fraction(3, 2))
    half = x * FieldElem(fd, Fraction(1, 2))
    probe = gen_matrix(Transvection(1, 3, x), fd, n)
    copy = Matrix(fd, [[FieldElem(fd, y.a, y.b) for y in r] for r in probe.rows])
    t = gen_matrix(Transvection(1, 3, half), fd, n)
    lazy = t * t
    assert lazy._rows is None and lazy == probe
    session, calls = _recording_session(fd, n)
    first = session.call(probe)
    assert all(session.call(m) is first for m in (probe, copy, lazy, probe))
    assert calls == [probe] and len(session.log) == 1


@pytest.mark.parametrize("fd, n", [(RATIONAL, 5), (Q2, 6)])
def test_a_session_call_hashes_each_entry_at_most_once(monkeypatch, fd, n):
    rng = random.Random(5)
    x = FieldElem(fd, 2)
    probes = [
        _zero_matrix(fd, n),
        identity(fd, n),
        gen_matrix(Transvection(1, 2, x), fd, n),
        gen_matrix(Swap(2, 3), fd, n),
        x * gen_matrix(Transvection(2, 1, x), fd, n),
        random_gl(rng, fd, n),
    ]
    session, calls = _recording_session(fd, n)
    hashes = []
    field_hash = FieldElem.__hash__

    def counted(self):
        hashes.append(self)
        return field_hash(self)

    monkeypatch.setattr(FieldElem, "__hash__", counted)
    # every probe misses once and then hits
    for a in probes + probes:
        before = len(hashes)
        session.call(a)
        assert len(hashes) - before <= n * n
    assert len(calls) == len(probes)


# -- _read ---------------------------------------------------------------------------


def _scalar(rng, fd) -> FieldElem:
    a = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 6)))
    b = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 4))) if fd.is_quadratic else 0
    return FieldElem(fd, a, b)


def _backgrounds(fd, n: int) -> list:
    z, o = zero(fd), one(fd)
    return [
        identity(fd, n),
        _zero_matrix(fd, n),
        diag(fd, [z] * (n - 1) + [o]),
        gen_matrix(Swap(1, 2), fd, n),
        diag(fd, [FieldElem(fd, Fraction(1, 3), int(fd.is_quadratic))] * n),
    ]


def _free_sets(n: int) -> list:
    l = n - 1
    return [
        [(n - 1, 0)],
        [(1, 0), (0, 1)],
        [(i, i) for i in range(n)],
        [(i, j) for i in range(l) for j in range(l)],
    ]


def _with(m: Matrix, entries: dict, r) -> Matrix:
    """m with the given (i, j) -> entry replaced; unless r is None, as the
    product (m r) r^-1, which holds only integer rows."""
    rows = [list(row) for row in m.rows]
    for (i, j), x in entries.items():
        rows[i][j] = x
    out = Matrix(m.field, rows)
    if r is None:
        return out
    out = (out * r) * r.inverse()
    assert out._rows is None
    return out


@pytest.mark.parametrize("fd", FIELDS)
@pytest.mark.parametrize("n", [3, 4])
def test_read_on_integer_rows_matches_the_entry_scan(fd, n):
    rng = random.Random(n)
    for background in _backgrounds(fd, n):
        for free in _free_sets(n):
            for r in (None, rand_invertible(rng, fd, n)):
                fill = {pos: _scalar(rng, fd) for pos in free}
                image = _with(background, fill, r)
                read = _read(image, background, free, LAW)
                assert read == ref_read(image, background, free, LAW) == [fill[p] for p in free]
                assert all(x.field is image.field for x in read)
                # a stray entry at each fixed position, in either part and
                # with or without a denominator, breaks the law
                for i in range(n):
                    for j in range(n):
                        if (i, j) in fill:
                            continue
                        stray = background[i, j] + _nonzero(rng, fd)
                        bad = _with(background, {**fill, (i, j): stray}, r)
                        for reader in (_read, ref_read):
                            with pytest.raises(NotMultiplicative, match=f"^{LAW}$"):
                                reader(bad, background, free, LAW)


def _nonzero(rng, fd) -> FieldElem:
    while True:
        x = _scalar(rng, fd)
        if not x.is_zero:
            return x


@pytest.mark.parametrize("fd", [Q2, QI])
def test_read_sees_a_stray_surd_part_alone(fd):
    s = sqrt_gen(fd)
    ident = identity(fd, 3)
    half = FieldElem(fd, Fraction(1, 2))
    # the rational parts match the identity everywhere; the surd part of an
    # entry in a row with a free position, and of one in a row without, is off
    for i, j in ((0, 2), (2, 1)):
        rows = [list(r) for r in ident.rows]
        rows[0][1] = half
        rows[i][j] = rows[i][j] + half * s
        image = Matrix(fd, rows)
        with pytest.raises(NotMultiplicative):
            _read(image, ident, [(0, 1)], LAW)


# -- conjugate -----------------------------------------------------------------------


def _conjugate_inputs(fd, n: int, rng) -> list:
    a = rand_matrix(rng, fd, n)
    known = rand_invertible(rng, fd, n)
    return [
        a,
        known,
        a * rand_matrix(rng, fd, n),
        known * rand_invertible(rng, fd, n),
        random_gl(rng, fd, n),
        _zero_matrix(fd, n),
        Matrix(fd, [[_scalar(rng, fd) for _ in range(n + 1)] for _ in range(n)]),
    ]


@pytest.mark.parametrize("fd", FIELDS)
def test_the_conjugate_of_the_integer_rows_matches_the_entrywise_one(fd):
    rng = random.Random(11)
    for n in range(2, 6):
        for a in _conjugate_inputs(fd, n, rng):
            b = a.conjugate()
            want = ref_conjugate(a)
            assert b._rows is None
            assert b == want and want == b
            assert b.rows == want.rows
            assert b.conjugate() == a and b.conjugate().rows == a.rows
            assert (b._det is None) == (a._det is None)
            if b._det is not None:
                assert b._det == a._det.conjugate() == Matrix(fd, want.rows).det
