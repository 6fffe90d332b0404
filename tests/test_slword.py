"""Transvection word decomposition and generator word plumbing."""

import random
from fractions import Fraction

import pytest

from multmap.errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotSpecialLinear,
    ParseError,
    SingularMatrix,
)
from multmap.field import RATIONAL, as_elem, one, quadratic, sqrt_gen, zero
from multmap.matrix import DiagUnit, Matrix, Swap, Transvection, diag, gen_matrix, identity
from multmap.slword import (
    GlFactorization,
    decompose_gl,
    decompose_sl,
    default_pool,
    evaluate_word,
    random_gl,
    random_sl,
    random_transvection_word,
    random_unitriangular,
    word_to_doc,
)

from helpers import (
    int_matrix,
    rand_elem,
    rand_invertible,
    rand_singular,
    ref_decompose_gl,
    ref_decompose_sl,
    ref_gl_evaluate,
)

Q2 = quadratic(2)


def r(v):
    return as_elem(RATIONAL, v)


def test_evaluate_word_order_frozen():
    # [P_12(1), D_1(2)] means P_12(1) * D_1(2)
    word = [Transvection(1, 2, r(1)), DiagUnit(1, r(2))]
    assert evaluate_word(word, RATIONAL, 2) == int_matrix(RATIONAL, [[2, 1], [0, 1]])


@pytest.mark.parametrize(
    "gen, error",
    [
        (Transvection(1, 4, one(RATIONAL)), IndexOutOfRange),
        (DiagUnit(4, as_elem(RATIONAL, 2)), IndexOutOfRange),
        (Swap(4, 1), IndexOutOfRange),
        (Transvection(1, 2, one(Q2)), FieldMismatch),
        (DiagUnit(1, one(Q2)), FieldMismatch),
        ("x", ParseError),
    ],
)
def test_evaluate_word_rejects_bad_generators(gen, error):
    with pytest.raises(error):
        evaluate_word([Transvection(1, 2, one(RATIONAL)), gen], RATIONAL, 3)


def test_decompose_rotation_is_three_transvections():
    a = int_matrix(RATIONAL, [[0, 1], [-1, 0]])
    word = decompose_sl(a)
    assert len(word) == 3
    assert evaluate_word(word, RATIONAL, 2) == a


def test_decompose_single_transvection_is_itself():
    a = int_matrix(RATIONAL, [[1, 7], [0, 1]])
    assert decompose_sl(a) == [Transvection(1, 2, r(7))]


def test_decompose_identity_is_empty():
    assert decompose_sl(identity(RATIONAL, 3)) == []


def test_decompose_diagonal_needs_pivot_seeding():
    a = int_matrix(RATIONAL, [[2, 0], [0, Fraction(1, 2)]])
    word = decompose_sl(a)
    assert evaluate_word(word, RATIONAL, 2) == a
    assert len(word) <= 2 * 2 + 2 - 2


@pytest.mark.parametrize("fd", [RATIONAL, Q2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_reproduces_random_words(fd, n):
    rng = random.Random(1000 + n)
    for _ in range(10):
        word = random_transvection_word(rng, fd, n, length=12)
        a = evaluate_word(word, fd, n)
        back = decompose_sl(a)
        assert all(isinstance(g, Transvection) for g in back)
        assert len(back) <= n * n + n - 2
        assert evaluate_word(back, fd, n) == a


def test_decompose_rejects_non_unimodular():
    with pytest.raises(NotSpecialLinear):
        decompose_sl(int_matrix(RATIONAL, [[2, 0], [0, 1]]))
    with pytest.raises(NotSpecialLinear):
        decompose_sl(int_matrix(RATIONAL, [[1, 2, 3]]))


def test_decompose_gl_factorization():
    rng = random.Random(21)
    for n in (2, 3):
        for _ in range(6):
            a = random_gl(rng, RATIONAL, n)
            fac = decompose_gl(a)
            assert fac.det_scalar == a.det
            assert fac.evaluate(RATIONAL, n) == a


def test_decompose_gl_rejects_singular():
    with pytest.raises(SingularMatrix):
        decompose_gl(int_matrix(RATIONAL, [[1, 1], [1, 1]]))


def test_random_samplers_are_seeded_and_typed():
    a1 = random_sl(random.Random(9), Q2, 3)
    a2 = random_sl(random.Random(9), Q2, 3)
    assert a1 == a2
    assert a1.det == one(Q2)
    g = random_gl(random.Random(9), RATIONAL, 3)
    assert not g.det.is_zero
    u = random_unitriangular(random.Random(9), RATIONAL, 4)
    assert all(u.rows[i][j].is_zero for i in range(4) for j in range(i))
    assert all(u.rows[i][i].is_one for i in range(4))


def test_default_pool_contents():
    pool = default_pool(Q2)
    assert as_elem(Q2, 1) in pool and as_elem(Q2, Fraction(-1, 2)) in pool
    assert any(not x.b == 0 for x in pool)
    assert all(not x.is_zero for x in pool)
    # exact values and order: seeded samplers draw from the pool by index
    values = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3)
    assert default_pool(RATIONAL) == tuple(as_elem(RATIONAL, v) for v in values)
    s = sqrt_gen(Q2)
    assert pool == tuple(as_elem(Q2, v) for v in values) + (s, one(Q2) + s)


def test_word_doc_round_trip():
    word = [
        Transvection(1, 2, as_elem(Q2, Fraction(1, 2))),
        DiagUnit(2, as_elem(Q2, 3)),
        Swap(1, 3),
    ]
    doc = word_to_doc(word)
    assert doc == {
        "gens": [
            {"type": "P", "i": 1, "j": 2, "k": "1/2"},
            {"type": "D", "i": 2, "k": "3"},
            {"type": "S", "i": 1, "j": 3},
        ]
    }
    with pytest.raises(ParseError, match="^not a word generator: 'x'$"):
        word_to_doc([*word, "x"])


def test_swap_coset_identity():
    # S_12 = P_12(1) P_21(-1) P_12(1) D_1(-1)
    lhs = gen_matrix(Swap(1, 2), RATIONAL, 2)
    word = [
        Transvection(1, 2, r(1)),
        Transvection(2, 1, r(-1)),
        Transvection(1, 2, r(1)),
        DiagUnit(1, r(-1)),
    ]
    assert evaluate_word(word, RATIONAL, 2) == lhs


# -- differential tests of the row-operation word path ----------------------


def _gen_product(word, fd, n):
    """The word multiplied out as plain products of generator matrices."""
    out = identity(fd, n)
    for g in word:
        out = out * gen_matrix(g, fd, n)
    return out


@pytest.mark.parametrize("fd", [RATIONAL, Q2, quadratic(-1)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_samplers_match_generator_products(fd, n):
    for seed, length in ((1, None), (2, 0), (3, 1), (4, 8), (5, 17)):
        rng, replay = random.Random(seed), random.Random(seed)
        a = random_sl(rng, fd, n, length=length)
        word = random_transvection_word(replay, fd, n, 4 * n if length is None else length)
        assert a == _gen_product(word, fd, n)
        assert rng.getstate() == replay.getstate()

        g = random_gl(rng, fd, n, length=length)
        d = replay.choice(default_pool(fd))
        word = random_transvection_word(replay, fd, n, 4 * n if length is None else length)
        assert g == _gen_product([DiagUnit(1, d)] + word, fd, n)
        assert rng.getstate() == replay.getstate()


@pytest.mark.parametrize("fd", [RATIONAL, Q2, quadratic(-1)])
def test_evaluate_word_matches_generator_products_on_mixed_words(fd):
    rng = random.Random(77)
    pool = default_pool(fd)
    for n in (2, 3, 5):
        for _ in range(8):
            word = []
            for _ in range(rng.randrange(0, 15)):
                i, j = rng.sample(range(1, n + 1), 2)
                kind = rng.randrange(3)
                if kind == 0:
                    word.append(Transvection(i, j, rng.choice(pool)))
                elif kind == 1:
                    word.append(DiagUnit(i, rng.choice(pool)))
                else:
                    word.append(Swap(i, j))
            assert evaluate_word(word, fd, n) == _gen_product(word, fd, n)


def test_evaluate_word_reports_the_last_bad_generator_first():
    # generators are checked last first, the order they act in
    o = one(RATIONAL)
    word = [Transvection(1, 4, o), Transvection(1, 2, o), DiagUnit(1, one(Q2))]
    with pytest.raises(FieldMismatch, match=r"^diagonal scalar outside the field$"):
        evaluate_word(word, RATIONAL, 3)
    with pytest.raises(IndexOutOfRange, match=r"^index 4 outside 1\.\.3$"):
        evaluate_word(word[:2], RATIONAL, 3)


def test_random_words_need_two_indices():
    for sample in (
        lambda rng: random_transvection_word(rng, RATIONAL, 1, 3),
        lambda rng: random_sl(rng, RATIONAL, 1),
        lambda rng: random_gl(rng, RATIONAL, 1, length=2),
    ):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(DimensionMismatch, match=r"^transvection words need n >= 2$"):
            sample(rng)
        assert rng.getstate() == state
    # an empty word needs no index
    assert random_transvection_word(random.Random(5), RATIONAL, 1, 0) == []
    assert random_sl(random.Random(5), RATIONAL, 1, length=0) == identity(RATIONAL, 1)
    g = random_gl(random.Random(5), RATIONAL, 1, length=0)
    assert g == Matrix(RATIONAL, [[random.Random(5).choice(default_pool(RATIONAL))]])


# -- differential tests of the factorization path ------------------------------

DIFF_FIELDS = [RATIONAL, Q2, quadratic(-1), quadratic(-3), quadratic(5)]


def _outcome(f, *args):
    """("ok", f(*args)), or the type and message of what f raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _nonzero(rng, fd):
    while True:
        x = rand_elem(rng, fd)
        if not x.is_zero:
            return x


def _det_one(a: Matrix) -> Matrix:
    return gen_matrix(DiagUnit(1, a.det.inv()), a.field, a.n_rows) * a


def _factorization_inputs(rng, fd, n):
    """Inputs that between them reach every branch of the sweep: pivots
    already one, found below, or seeded from above; determinant one or not;
    singular at a pivot column or only at the last entry; not square."""
    z = zero(fd)
    out = []
    for _ in range(3):
        a = rand_invertible(rng, fd, n)
        out += [a, _det_one(a)]
    if n >= 2:
        out.append(random_sl(rng, fd, n))
    # a scaled permutation: zero pivots with a nonzero entry below, or none
    perm = list(range(n))
    rng.shuffle(perm)
    mono = Matrix(fd, [[_nonzero(rng, fd) if j == perm[i] else z for j in range(n)] for i in range(n)])
    # a diagonal: every pivot that is not one is seeded from above
    d = diag(fd, [_nonzero(rng, fd) for _ in range(n)])
    out += [mono, _det_one(mono), d, _det_one(d)]
    # singular: every rank below n, rank 0 being the zero matrix
    out += [rand_singular(rng, fd, n, rank) for rank in range(n)]
    # column p a combination of the columns before it, so it vanishes from
    # row p down once those are reduced (p = 0: a zero first column)
    for p in range(n):
        rows = [list(r) for r in rand_invertible(rng, fd, n).rows]
        coeffs = [rand_elem(rng, fd) for _ in range(p)]
        for row in rows:
            row[p] = sum((c * row[j] for j, c in enumerate(coeffs)), z)
        out.append(Matrix(fd, rows))
    # a diagonal with one zero: seeded pivots up to the zero
    entries = [_nonzero(rng, fd) for _ in range(n)]
    entries[rng.randrange(n)] = z
    out.append(diag(fd, entries))
    # not square
    for shape in ((n, n + 1), (n + 1, n)):
        out.append(Matrix(fd, [[rand_elem(rng, fd) for _ in range(shape[1])] for _ in range(shape[0])]))
    return out


@pytest.mark.parametrize("seed, fd", list(enumerate(DIFF_FIELDS)))
def test_factorization_matches_the_reference(seed, fd):
    rng = random.Random(7100 + seed)
    seen = set()
    for n in range(1, 9):
        for m in _factorization_inputs(rng, fd, n):
            sl = _outcome(decompose_sl, m)
            assert sl == _outcome(ref_decompose_sl, m)
            gl = _outcome(decompose_gl, m)
            want = _outcome(ref_decompose_gl, m)
            seen.update((sl[0], gl[0]))
            if gl[0] != "ok":
                assert gl == want
                continue
            fac = gl[1]
            assert ("ok", (fac.det_scalar, fac.word)) == want
            assert fac.evaluate(fd, n) == ref_gl_evaluate(fac.det_scalar, fac.word, fd, n) == m
    assert seen == {"ok", NotSpecialLinear, SingularMatrix, DimensionMismatch}


@pytest.mark.parametrize("fd", DIFF_FIELDS)
def test_gl_evaluate_matches_the_reference_on_hand_built_factorizations(fd):
    rng = random.Random(7200)
    other = Q2 if fd is RATIONAL else RATIONAL
    k = _nonzero(rng, fd)
    dets = [k, zero(fd), one(other), 2]
    words = [
        [],
        random_transvection_word(rng, fd, 3, 6),
        [Transvection(1, 2, k), DiagUnit(2, k), Swap(1, 3)],
        [Transvection(1, 4, k), Transvection(2, 1, k)],
        [Transvection(1, 2, one(other)), DiagUnit(3, k)],
        [DiagUnit(4, k), Transvection(1, 2, one(other))],
        [Transvection(1, 2, k), "P"],
    ]
    kinds = set()
    for det_scalar in dets:
        for word in words:
            for n in (0, 2, 3):
                got = _outcome(GlFactorization(det_scalar, word).evaluate, fd, n)
                assert got == _outcome(ref_gl_evaluate, det_scalar, word, fd, n)
                kinds.add(got[0])
    assert kinds == {"ok", SingularMatrix, FieldMismatch, IndexOutOfRange, ParseError}
