"""Exact matrix layer: elimination, cofactor identities, structural splits."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmap.errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    MultmapError,
    NotCommutingIdempotents,
    NotMatrixUnits,
    ParseError,
    SingularMatrix,
)
from multmap.field import RATIONAL, FieldElem, as_elem, one, quadratic, zero
from multmap.matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _word_matrix,
    coidempotent,
    conjugator_from_units,
    diag,
    from_columns,
    gen_matrix,
    identity,
    normalize_scale,
    rank_idempotent,
    solve_exact,
    split_idempotent_pair,
    unit_matrix,
    zeros,
)

from helpers import (
    int_matrix,
    RefElem,
    laplace_cofactor,
    laplace_det,
    minor_cofactor,
    rand_elem,
    rand_invertible,
    rand_matrix,
    rand_singular,
    ref_conjugator_from_units,
    ref_det_inverse,
    ref_product,
)

Q2 = quadratic(2)


def test_frozen_two_by_two():
    a = int_matrix(RATIONAL, [[1, 2], [3, 4]])
    assert a.det == as_elem(RATIONAL, -2)
    c = a.cofactor()
    assert c == int_matrix(RATIONAL, [[4, -3], [-2, 1]])
    # A C(A)^T = det(A) I
    assert a * c.transpose() == a.det * identity(RATIONAL, 2)


def test_product_and_inverse_frozen():
    a = int_matrix(RATIONAL, [[2, 1, 0], [0, 1, -1], [1, 0, 3]])
    assert a.det == as_elem(RATIONAL, 5)
    assert a * a.inverse() == identity(RATIONAL, 3)
    assert a.inverse() * a == identity(RATIONAL, 3)


def test_singular_inverse_raises():
    a = int_matrix(RATIONAL, [[1, 2], [2, 4]])
    assert a.rank == 1
    assert a.det == zero(RATIONAL)
    with pytest.raises(SingularMatrix):
        a.inverse()


def test_kernel_and_image_frozen():
    a = int_matrix(RATIONAL, [[1, 2, 3], [2, 4, 6], [1, 2, 3]])
    assert a.rank == 1
    ker = a.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert (a * from_columns(RATIONAL, [v])).is_zero
    img = a.image_basis()
    assert img == [a.column(0)]


def test_image_basis_of_identity_is_standard_order():
    i3 = identity(RATIONAL, 3)
    assert i3.image_basis() == [i3.column(0), i3.column(1), i3.column(2)]
    assert i3.kernel_basis() == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cofactor_multiplicative_and_dual_route(n):
    rng = random.Random(100 + n)
    for _ in range(8):
        a = rand_matrix(rng, RATIONAL, n, span=3)
        b = rand_matrix(rng, RATIONAL, n, span=3)
        ca, cb = a.cofactor(), b.cofactor()
        assert (a * b).cofactor() == ca * cb
        assert ca == laplace_cofactor(a)
        assert a.det == laplace_det(a)
        assert a * ca.transpose() == a.det * identity(RATIONAL, n)


def test_cofactor_of_cofactor_law():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(4):
            a = rand_matrix(rng, RATIONAL, n, span=3)
            cc = a.cofactor().cofactor()
            assert cc == (a.det ** (n - 2)) * a


def test_cofactor_on_singular_quadratic():
    rng = random.Random(11)
    for _ in range(5):
        a = rand_singular(rng, Q2, 3)
        b = rand_matrix(rng, Q2, 3, span=2)
        assert (a * b).cofactor() == a.cofactor() * b.cofactor()


@pytest.mark.parametrize(
    "n, rank", [(n, rank) for n in (2, 3, 4, 5) for rank in range(n + 1)]
)
@settings(max_examples=10, deadline=None)
@given(
    fd=st.sampled_from((RATIONAL, Q2, quadratic(-1))),
    seed=st.integers(0, 2**32),
    primed=st.booleans(),
)
def test_cofactor_matches_both_references_at_every_rank(n, rank, fd, seed, primed):
    rng = random.Random(seed)
    if rank == n:
        a = rand_invertible(rng, fd, n)
    else:
        a = rand_singular(rng, fd, n, rank)
    assert a.rank == rank
    a = Matrix(fd, a.rows)
    # the same case on a matrix that holds only integer rows: a scaling
    # whose entries were never built
    lazy = FieldElem(fd, Fraction(-2, 3), int(fd.is_quadratic)) * a
    if primed:
        a.rank
    for m in (a, lazy):
        assert m._det is None
        reduced, entries = m._reduced, m._rows
        c = m.cofactor()
        # the cofactor leaves no elimination data behind on its argument,
        # only its determinant, and knows its own, det(A)^(n-1); at n <= 3
        # it builds no entries, neither its argument's nor its own
        assert m._inv is None
        assert m._reduced is reduced
        if n <= 3:
            assert m._rows is entries and c._rows is None
        det = laplace_det(m)
        assert m._det == det
        assert c._det is not None and c.det == det ** (n - 1)
        assert c.det == Matrix(fd, c.rows).det
        assert c == laplace_cofactor(m)
        assert c == minor_cofactor(m)


def _coordinate_rows(rng, fd, n_rows, n_cols, rank=None):
    """Fraction pairs (a, b) for an n_rows x n_cols matrix, with small
    denominators that share factors. With a rank, every row from that index
    on is an integer combination of the rows before it."""

    def pair():
        den = rng.choice((1, 2, 3, 4, 6, 12))
        b = rng.randint(-9, 9) if fd.is_quadratic and rng.random() < 0.6 else 0
        return Fraction(rng.randint(-9, 9), den), Fraction(b, den)

    rows = [[pair() for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(rank if rank is not None else n_rows, n_rows):
        ks = [rng.randint(-2, 2) for _ in range(rank)]
        combine = lambda col, t: sum((k * rows[j][col][t] for j, k in enumerate(ks)), Fraction(0))
        rows[i] = [(combine(col, 0), combine(col, 1)) for col in range(n_cols)]
    return rows


@settings(max_examples=60, deadline=None)
@given(
    fd=st.sampled_from((RATIONAL, Q2, quadratic(-1), quadratic(-3), quadratic(5))),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32),
)
def test_matrix_kernels_match_fraction_reference(fd, shape, seed):
    rng = random.Random(seed)
    r, m, c = shape

    def both(rows):
        return (
            Matrix(fd, [[FieldElem(fd, a, b) for a, b in row] for row in rows]),
            [[RefElem(fd, a, b) for a, b in row] for row in rows],
        )

    def coords(rows):
        return [[(x.a, x.b) for x in row] for row in rows]

    a, ra = both(_coordinate_rows(rng, fd, r, m))
    b, rb = both(_coordinate_rows(rng, fd, m, c))
    assert coords((a * b).rows) == coords(ref_product(ra, rb))
    rank = rng.choice((None, rng.randrange(m)))
    sq, rsq = both(_coordinate_rows(rng, fd, m, m, rank))
    det, inv = ref_det_inverse(rsq)
    assert (sq.det.a, sq.det.b) == (det.a, det.b)
    if inv is None:
        with pytest.raises(SingularMatrix):
            sq.inverse()
    else:
        assert coords(sq.inverse().rows) == coords(inv)


def test_cofactor_size_guard():
    with pytest.raises(DimensionMismatch):
        int_matrix(RATIONAL, [[5]]).cofactor()


def _cofactor_inputs(fd, n):
    """One matrix of each cofactor route at size n: invertible and singular
    inputs with entries, a product with integer rows only, and a word
    carrier, whose cofactor is read off its word from n = 4 on."""
    rng = random.Random(n)
    built = [
        Matrix(fd, rand_invertible(rng, fd, n).rows),
        Matrix(fd, rand_singular(rng, fd, n, n - 1).rows),
        Matrix(fd, rand_singular(rng, fd, n, 0).rows),
        rand_invertible(rng, fd, n) * rand_singular(rng, fd, n, n - 1),
    ]
    word = ((1, 2, one(fd)), (n, 1, as_elem(fd, -1)))
    return built + [_word_matrix(fd, n, as_elem(fd, 2), word)]


@pytest.mark.parametrize("fd", [RATIONAL, Q2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_matrix_keeps_its_cofactor_and_nothing_else_sees_it(fd, n):
    for a in _cofactor_inputs(fd, n):
        plain = Matrix(fd, a.rows)
        before = (hash(a), repr(a), pickle.dumps(a))
        c = a.cofactor()
        # a second call, from any caller, returns the same object
        assert a.cofactor() is c
        assert c == laplace_cofactor(plain)
        # the kept cofactor takes no part in equality, hashing, repr or pickling
        assert a == plain and plain == a
        assert (hash(a), repr(a), pickle.dumps(a)) == before
        back = pickle.loads(pickle.dumps(a))
        assert back == a and back._cof is None
        # nothing built from a inherits it
        derived = [a * a, a * gen_matrix(Swap(1, 2), fd, n), a.transpose(), -a]
        derived.append(as_elem(fd, 3) * a)
        derived.append(rand_invertible(random.Random(0), fd, n).inverse() * a)
        if fd.is_quadratic:
            derived.append(a.conjugate())
        assert all(m._cof is None for m in derived)
        # and a fresh copy computes its own, equal one
        assert plain.cofactor() == c and plain.cofactor() is not c


def test_scalar_multiplication_dispatch():
    a = int_matrix(RATIONAL, [[1, 2], [3, 4]])
    c = as_elem(RATIONAL, Fraction(1, 2))
    assert c * a == int_matrix(RATIONAL, [[Fraction(1, 2), 1], [Fraction(3, 2), 2]])


def test_elementary_generators():
    k = as_elem(RATIONAL, 5)
    p = gen_matrix(Transvection(1, 2, k), RATIONAL, 3)
    assert p == int_matrix(RATIONAL, [[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    assert p.det == one(RATIONAL)
    d = gen_matrix(DiagUnit(2, k), RATIONAL, 3)
    assert d == int_matrix(RATIONAL, [[1, 0, 0], [0, 5, 0], [0, 0, 1]])
    s = gen_matrix(Swap(1, 3), RATIONAL, 3)
    assert s == int_matrix(RATIONAL, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert s.det == as_elem(RATIONAL, -1)
    assert gen_matrix(Transvection(1, 2, k).inv(), RATIONAL, 3) == p.inverse()
    assert gen_matrix(DiagUnit(2, k).inv(), RATIONAL, 3) == d.inverse()
    assert Swap(1, 3).inv() == Swap(1, 3)


def test_generator_validation():
    k = one(RATIONAL)
    with pytest.raises(IndexOutOfRange, match="^transvection needs distinct one-based indices$"):
        Transvection(2, 2, k)
    with pytest.raises(IndexOutOfRange, match="^transvection needs distinct one-based indices$"):
        Transvection(0, 1, k=k)
    with pytest.raises(SingularMatrix, match="^diagonal unit with zero scale$"):
        DiagUnit(1, zero(RATIONAL))
    with pytest.raises(IndexOutOfRange, match="^diagonal unit needs a one-based index$"):
        DiagUnit(i=0, k=k)
    with pytest.raises(IndexOutOfRange, match="^swap needs distinct one-based indices$"):
        Swap(1, 1)
    with pytest.raises(IndexOutOfRange):
        gen_matrix(Transvection(1, 4, one(RATIONAL)), RATIONAL, 3)


def test_generators_refuse_scalars_and_objects_they_cannot_represent():
    with pytest.raises(FieldMismatch, match="^transvection scalar must be a field element$"):
        Transvection(1, 2, 3)
    with pytest.raises(FieldMismatch, match="^diagonal scalar must be a field element$"):
        DiagUnit(1, 3)
    with pytest.raises(ParseError, match="^not a word generator: 'x'$"):
        gen_matrix("x", RATIONAL, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda k: Transvection("1", 2, k), "transvection index must be an int, got '1'"),
        (lambda k: Transvection(1, 2.0, k), "transvection index must be an int, got 2.0"),
        (lambda k: DiagUnit(True, k), "diagonal unit index must be an int, got True"),
        (lambda k: Swap(1.0, 2), "swap index must be an int, got 1.0"),
        (lambda k: Swap(1, False), "swap index must be an int, got False"),
    ],
)
def test_generators_refuse_indices_that_are_no_ints(build, message):
    with pytest.raises(IndexOutOfRange) as info:
        build(one(RATIONAL))
    assert str(info.value) == message


def test_unit_and_idempotent_constructors():
    e12 = unit_matrix(RATIONAL, 3, 1, 2)
    assert e12 == int_matrix(RATIONAL, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert rank_idempotent(RATIONAL, 3, 2) == int_matrix(
        RATIONAL, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    )
    assert coidempotent(RATIONAL, 3, 2) == int_matrix(
        RATIONAL, [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    )
    assert coidempotent(RATIONAL, 3, 2).cofactor() == unit_matrix(RATIONAL, 3, 2, 2)
    assert rank_idempotent(RATIONAL, 2, 0) == zeros(RATIONAL, 2)
    assert rank_idempotent(RATIONAL, 2, 2) == identity(RATIONAL, 2)


NOT_A_FIELD = "matrices need a FieldDescriptor field"
NOT_A_SIZE = "matrices need n >= 1"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: identity("Q", 2), FieldMismatch, NOT_A_FIELD),
        (lambda: zeros(None, 2), FieldMismatch, NOT_A_FIELD),
        (lambda: unit_matrix("Q", 2, 1, 1), FieldMismatch, NOT_A_FIELD),
        (lambda: rank_idempotent(None, 2, 1), FieldMismatch, NOT_A_FIELD),
        (lambda: coidempotent("Q", 2, 1), FieldMismatch, NOT_A_FIELD),
        (lambda: identity(RATIONAL, 2.0), DimensionMismatch, NOT_A_SIZE),
        (lambda: identity(RATIONAL, True), DimensionMismatch, NOT_A_SIZE),
        (lambda: zeros(RATIONAL, 2.0), DimensionMismatch, NOT_A_SIZE),
        (lambda: zeros(RATIONAL, 0), DimensionMismatch, NOT_A_SIZE),
        (lambda: unit_matrix(RATIONAL, "3", 1, 1), DimensionMismatch, NOT_A_SIZE),
        (lambda: rank_idempotent(RATIONAL, -1, 0), DimensionMismatch, NOT_A_SIZE),
        (lambda: coidempotent(RATIONAL, False, 1), DimensionMismatch, NOT_A_SIZE),
        (
            lambda: unit_matrix(RATIONAL, 3, 1.0, 2),
            IndexOutOfRange,
            "unit matrix index must be an int, got 1.0",
        ),
        (
            lambda: unit_matrix(RATIONAL, 3, True, 2),
            IndexOutOfRange,
            "unit matrix index must be an int, got True",
        ),
        (lambda: unit_matrix(RATIONAL, 3, 1, 4), IndexOutOfRange, "index 4 outside 1..3"),
        (
            lambda: rank_idempotent(RATIONAL, 3, 1.5),
            IndexOutOfRange,
            "rank idempotent index must be an int, got 1.5",
        ),
        (
            lambda: rank_idempotent(RATIONAL, 3, True),
            IndexOutOfRange,
            "rank idempotent index must be an int, got True",
        ),
        (lambda: rank_idempotent(RATIONAL, 3, 4), IndexOutOfRange, "rank 4 outside 0..3"),
        (
            lambda: coidempotent(RATIONAL, 3, True),
            IndexOutOfRange,
            "unit matrix index must be an int, got True",
        ),
        (lambda: coidempotent(RATIONAL, 3, 0), IndexOutOfRange, "index 0 outside 1..3"),
    ],
    ids=[
        "identity-field",
        "zeros-field",
        "unit-field",
        "rank-field",
        "coidempotent-field",
        "identity-float-size",
        "identity-bool-size",
        "zeros-float-size",
        "zeros-zero-size",
        "unit-str-size",
        "rank-negative-size",
        "coidempotent-bool-size",
        "unit-float-index",
        "unit-bool-index",
        "unit-index-past-n",
        "rank-float",
        "rank-bool",
        "rank-past-n",
        "coidempotent-bool-index",
        "coidempotent-index-zero",
    ],
)
def test_constructors_refuse_a_field_size_or_index_they_cannot_represent(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_diag_constructor():
    entries = [as_elem(RATIONAL, v) for v in (2, 0, -1)]
    assert diag(RATIONAL, entries) == int_matrix(RATIONAL, [[2, 0, 0], [0, 0, 0], [0, 0, -1]])
    assert diag(RATIONAL, [one(RATIONAL)] * 3) == identity(RATIONAL, 3)
    assert diag(RATIONAL, [one(RATIONAL), zero(RATIONAL)]) == rank_idempotent(RATIONAL, 2, 1)


def test_split_identity_pair_is_trivial_basis():
    k = 4
    s_mat, s, l = split_idempotent_pair(zeros(RATIONAL, k), identity(RATIONAL, k))
    assert (s, l) == (0, k)
    assert s_mat == identity(RATIONAL, k)


def test_split_conjugated_pair():
    rng = random.Random(3)
    fd = RATIONAL
    k = 4
    for _ in range(6):
        t = rand_invertible(rng, fd, k)
        l, s = 2, 1
        p1_model = int_matrix(
            fd, [[1 if i == j and (i < l or i >= k - s) else 0 for j in range(k)] for i in range(k)]
        )
        p0_model = int_matrix(
            fd, [[1 if i == j and i >= k - s else 0 for j in range(k)] for i in range(k)]
        )
        p0 = t * p0_model * t.inverse()
        p1 = t * p1_model * t.inverse()
        s_mat, got_s, got_l = split_idempotent_pair(p0, p1)
        assert (got_s, got_l) == (s, l)
        assert s_mat.inverse() * p0 * s_mat == p0_model
        assert s_mat.inverse() * p1 * s_mat == p1_model


def test_split_rejects_non_nested_pair():
    p0 = unit_matrix(RATIONAL, 2, 1, 1)
    p1 = unit_matrix(RATIONAL, 2, 2, 2)
    # both idempotent, but p0 p1 = 0 != p0
    with pytest.raises(NotCommutingIdempotents):
        split_idempotent_pair(p0, p1)


def test_split_rejects_non_idempotent():
    with pytest.raises(NotCommutingIdempotents):
        split_idempotent_pair(int_matrix(RATIONAL, [[0, 1], [0, 0]]), identity(RATIONAL, 2))


def test_conjugator_from_units_roundtrip():
    rng = random.Random(5)
    n = 3
    for _ in range(10):
        s = rand_invertible(rng, RATIONAL, n)
        s_inv = s.inverse()
        units = [
            [s_inv * unit_matrix(RATIONAL, n, i + 1, j + 1) * s for j in range(n)]
            for i in range(n)
        ]
        r = conjugator_from_units(units)
        for i in range(n):
            for j in range(n):
                assert r * units[i][j] * r.inverse() == unit_matrix(RATIONAL, n, i + 1, j + 1)
        # r must agree with s up to a scalar
        ratio = r * s.inverse()
        base = next(x for row in ratio.rows for x in row if not x.is_zero)
        assert ratio == base * identity(RATIONAL, n)


def test_conjugator_rejects_corrupted_units():
    n = 2
    units = [[unit_matrix(RATIONAL, n, i + 1, j + 1) for j in range(n)] for i in range(n)]
    units[0][1] = int_matrix(RATIONAL, [[0, 1], [1, 0]])
    with pytest.raises(NotMatrixUnits):
        conjugator_from_units(units)
    # the zero family satisfies every relation but holds no unit structure
    z2 = zeros(RATIONAL, 2)
    with pytest.raises(NotMatrixUnits, match="^F_11 is zero, no unit structure to recover$"):
        conjugator_from_units([[z2, z2], [z2, z2]])
    # a zero F_11 in a family that is not all zero breaks the relations
    units = [[unit_matrix(RATIONAL, n, i + 1, j + 1) for j in range(n)] for i in range(n)]
    units[0][0] = z2
    with pytest.raises(NotMatrixUnits, match="^matrix unit relations"):
        conjugator_from_units(units)


def _dense_invertible(rng, fd, n):
    """An invertible n x n matrix with no zero entry."""
    while True:
        rows = [[rand_elem(rng, fd) for _ in range(n)] for _ in range(n)]
        for row in rows:
            for c in range(n):
                while row[c].is_zero:
                    row[c] = rand_elem(rng, fd)
        m = Matrix(fd, rows)
        if not m.det.is_zero:
            return m


def _conjugated_units(s, n):
    """The family F_ij = S^-1 E_ij S, zero-based lists."""
    fd, s_inv = s.field, s.inverse()
    return [[s_inv * unit_matrix(fd, n, i + 1, j + 1) * s for j in range(n)] for i in range(n)]


def _recovery_outcome(recover, units):
    try:
        return recover(units)
    except MultmapError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(
    fd=st.sampled_from((RATIONAL, Q2)),
    n=st.integers(1, 6),
    change=st.sampled_from(("none", "shift", "scale", "swap", "zero", "all-zero")),
    seed=st.integers(0, 2**32),
)
def test_conjugator_from_units_matches_the_full_relation_check(fd, n, change, seed):
    rng = random.Random(seed)
    units = _conjugated_units(_dense_invertible(rng, fd, n), n)
    i, j, p, q = (rng.randrange(n) for _ in range(4))
    if change == "shift":
        units[i][j] = units[i][j] + unit_matrix(fd, n, p + 1, q + 1)
    elif change == "scale":
        units[i][j] = units[i][j].scale(as_elem(fd, rng.choice((2, -1, Fraction(1, 3)))))
    elif change == "swap":
        units[i][j], units[p][q] = units[p][q], units[i][j]
    elif change == "zero":
        units[i][j] = zeros(fd, n)
    elif change == "all-zero":
        units = [[zeros(fd, n)] * n for _ in range(n)]
    got = _recovery_outcome(conjugator_from_units, units)
    assert got == _recovery_outcome(ref_conjugator_from_units, units)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_conjugator_from_units_makes_at_most_n_products(n, monkeypatch):
    units = _conjugated_units(_dense_invertible(random.Random(n), RATIONAL, n), n)
    calls = []
    mul = Matrix.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    r = conjugator_from_units(units)
    monkeypatch.undo()
    assert len(calls) <= n
    assert r * units[0][1] * r.inverse() == unit_matrix(RATIONAL, n, 1, 2)


def test_structural_recoveries_refuse_mismatched_shapes():
    i2 = identity(RATIONAL, 2)
    with pytest.raises(DimensionMismatch, match="^idempotent pair must be square of equal size$"):
        split_idempotent_pair(zeros(RATIONAL, 2), identity(RATIONAL, 3))
    with pytest.raises(DimensionMismatch, match="^unit family must be square$"):
        conjugator_from_units([[i2, i2]])
    with pytest.raises(DimensionMismatch, match="^full unit recovery needs n x n units in M_n$"):
        conjugator_from_units([[i2]])
    # one unit of another size or field, anywhere in a true family
    for odd in (identity(RATIONAL, 3), Matrix(RATIONAL, [[one(RATIONAL)] * 3] * 2), identity(Q2, 2)):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            units = [[unit_matrix(RATIONAL, 2, a + 1, b + 1) for b in range(2)] for a in range(2)]
            units[i][j] = odd
            with pytest.raises(MultmapError):
                conjugator_from_units(units)


def test_normalize_scale():
    m = int_matrix(RATIONAL, [[0, 0], [3, 6]])
    assert normalize_scale(m) == int_matrix(RATIONAL, [[0, 0], [1, 2]])
    assert normalize_scale(zeros(RATIONAL, 2)) == zeros(RATIONAL, 2)


def test_doc_round_trip():
    a = int_matrix(Q2, [[Fraction(1, 2), 2], [0, 1]])
    doc = a.to_doc()
    assert doc["n"] == 2
    assert doc["entries"][0][0] == "1/2"
    assert Matrix.from_doc(doc) == a


@pytest.mark.parametrize(
    "doc",
    [
        {"field": {"kind": "rational"}, "n": 2, "entries": [["1", "0"]]},
        {"field": {"kind": "rational"}, "n": 0, "entries": []},
        {"field": {"kind": "rational"}, "n": 1, "entries": [["1/0"]]},
        {"field": {"kind": "nope"}, "n": 1, "entries": [["1"]]},
        "not an object",
        {"field": {"kind": "rational"}, "n": 2, "entries": [["1", "0"], ["1"]]},
    ],
)
def test_doc_rejects_malformed(doc):
    with pytest.raises(ParseError):
        Matrix.from_doc(doc)


def test_shape_guards():
    with pytest.raises(DimensionMismatch):
        int_matrix(RATIONAL, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        int_matrix(RATIONAL, [[1, 2]]) * int_matrix(RATIONAL, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        int_matrix(RATIONAL, [[1, 2]]).det
    for rows in ([], [[]]):
        with pytest.raises(DimensionMismatch, match="^matrices must have at least one row and column$"):
            Matrix(RATIONAL, rows)
    with pytest.raises(DimensionMismatch, match="^shape mismatch in addition$"):
        identity(RATIONAL, 2) + int_matrix(RATIONAL, [[1, 2]])
    with pytest.raises(DimensionMismatch, match="^need at least one column$"):
        from_columns(RATIONAL, [])
    # a non-square matrix has a rank but no determinant
    assert int_matrix(RATIONAL, [[1, 2], [2, 4], [0, 1]]).rank == 2


def test_matrices_are_immutable_and_refuse_operands_they_cannot_take():
    a = identity(RATIONAL, 2)
    with pytest.raises(AttributeError, match="^Matrix is immutable$"):
        a.rows = ()
    with pytest.raises(FieldMismatch, match="^entry outside the matrix field$"):
        Matrix(RATIONAL, [[one(Q2)]])
    with pytest.raises(FieldMismatch, match="^scalar outside the matrix field$"):
        a.scale(one(Q2))
    with pytest.raises(FieldMismatch, match="^mixed-field linear solve$"):
        solve_exact(a, identity(Q2, 2))
    assert (a == 1) is False
    for op in (lambda: a + 1, lambda: a - 1, lambda: a * 1, lambda: 1 * a):
        with pytest.raises(TypeError):
            op()


def test_solve_exact_square_and_tall():
    a = int_matrix(RATIONAL, [[2, 1], [1, 1]])
    b = int_matrix(RATIONAL, [[1, 0], [0, 1]])
    x = solve_exact(a, b)
    assert a * x == b
    # tall system: columns of a are independent, b lies in their span
    tall = int_matrix(RATIONAL, [[1, 0], [0, 1], [1, 1]])
    rhs = tall * int_matrix(RATIONAL, [[3], [4]])
    assert solve_exact(tall, rhs) == int_matrix(RATIONAL, [[3], [4]])


def test_solve_exact_rejects_bad_systems():
    tall = int_matrix(RATIONAL, [[1, 0], [0, 1], [1, 1]])
    off_span = int_matrix(RATIONAL, [[1], [0], [0]])
    with pytest.raises(SingularMatrix):
        solve_exact(tall, off_span)
    dependent = int_matrix(RATIONAL, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        solve_exact(dependent, int_matrix(RATIONAL, [[1], [2]]))
    with pytest.raises(DimensionMismatch):
        solve_exact(tall, int_matrix(RATIONAL, [[1], [2]]))
