"""Determinants that matrices receive when they are built.

An elimination for the inverse, or for the cofactor from size 4 on, stores
the signed product of its pivots on its input; the cofactor at sizes 2 and 3
eliminates nothing and stores on an input that has none the expansion of
its first row in minors. The inverse gets 1 / det, the cofactor det^(n-1),
a product of two matrices with known determinants their product, a scaling
by f the value f^n det, the entrywise conjugation the conjugate, the
generator matrices 1, k or -1, identity 1, zeros 0 and diag the product
of its diagonal. Every carried determinant is compared with the
fraction-free sweep on a fresh copy of the matrix and, up to size 5, with
the Laplace expansion, over Q, Q(sqrt 2) and Q(i), at sizes 2 to 6, on
invertible inputs and singular ones of every rank, along random chains of
these steps.

The sweep counts pin the point of the carry: the cofactor at sizes 2 and 3
neither eliminates nor sweeps, and from size 4 on eliminates once; one
MapExpr.evaluate of any ordering of conj, cof, hom and detscale sweeps at
most once on a fresh input and never on a generator matrix. A Conj atom
checks its R by the determinant R carries or else by inverting it, so
building and evaluating it eliminates once and never sweeps. Every
final-verification sample of classify carries its determinant from the
draw, so final verification of a detscale or a trivialdet oracle never
sweeps.

Matrices built from a generator word by _word_matrix, the one builder of
word carriers (the invertible final-verification samples, transvection and
D_1 generator matrices, identity), carry it; an entrywise conjugate carries
none. From size 4 on the cofactor of a word carrier is read
off the word: it neither eliminates nor sweeps, so the cofactor oracle, and
the detscale o cof o conj oracle, whose Cof atom acts on the input first,
run no elimination on an invertible final-verification sample. A builder
that knows the cofactor gives it: zeros for rank n - 2 or less (zeros,
E_ij from size 3 on, rank idempotents, singular samples), E_jj for
I - E_jj, diag(k, ..., 1 at i, ..., k) for D_i(k) and -S for a swap S, and
a singular sample of rank n - 1 from size 4 on the product of column n of
C(G_1) and row n of C(G_2), read off the words of its factors. So no
singular sample eliminates, nor a singular-pattern, D_i(-1) or swap probe
of classify at size 5. The detscale o cof o
conj oracle takes no cofactor of a singular sample at all: the sample
carries its zero determinant, which sends the value to zero at once. Every carried word
evaluates back to its matrix; the samplers carry no word, and pickling
drops it.
"""

import importlib
import pickle
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multmap.matrix as matrix_module
from multmap.classify import classify
from multmap.errors import SingularConjugator, SingularMatrix
from multmap.field import CONJUGATION_HOM, RATIONAL, one, quadratic, zero
from multmap.mapexpr import (
    Cof,
    Conj,
    DetScale,
    Hom,
    MapExpr,
    ScalarCharacter,
    TrivialDet,
    _apply_hom,
)
from multmap.matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _singular_sample,
    _word_matrix,
    coidempotent,
    diag,
    gen_matrix,
    identity,
    rank_idempotent,
    unit_matrix,
    zeros,
)
from multmap.slword import (
    _transvection_triples,
    default_pool,
    evaluate_word,
    random_gl,
    random_sl,
)

from helpers import (
    laplace_det,
    rand_elem,
    rand_invertible,
    rand_singular,
    ref_cofactor,
    ref_scale,
)

classify_module = importlib.import_module("multmap.classify")

FIELDS = (RATIONAL, quadratic(2), quadratic(-1))
STEPS = ("mul", "scale", "hom", "cofactor", "inverse", "gen")


def _fresh(m: Matrix) -> Matrix:
    """The same entries with no cache: no determinant, echelon form or inverse."""
    return Matrix(m.field, m.rows)


def _assert_carried(m: Matrix) -> None:
    """A determinant m holds equals the sweep on a fresh copy and, up to
    size 5, the Laplace expansion."""
    if m._det is None:
        return
    fresh = _fresh(m)
    assert m._det == fresh.det
    if m.n_rows <= 5:
        assert m._det == laplace_det(fresh)


def _unit(rng, fd):
    """A random nonzero scalar."""
    while True:
        k = rand_elem(rng, fd)
        if not k.is_zero:
            return k


def _generator(rng, fd, n):
    i, j = rng.sample(range(1, n + 1), 2)
    kind = rng.randrange(3)
    if kind == 0:
        return Transvection(i, j, rand_elem(rng, fd))
    if kind == 1:
        return DiagUnit(i, _unit(rng, fd))
    return Swap(i, j)


def _step(rng, fd, n, pool: list, step: str) -> None:
    """Apply one step to matrices of the pool, check the carry rule it
    obeys, and add what it builds to the pool."""
    m = rng.choice(pool)
    if step == "mul":
        other = rng.choice(pool)
        out = m * other
        if m._det is not None and other._det is not None:
            assert out._det is not None
    elif step == "scale":
        f = rng.choice((zero(fd), -one(fd), rand_elem(rng, fd)))
        out = f * m
        assert out == ref_scale(m, f)
        if m._det is not None:
            assert out._det is not None
    elif step == "hom":
        if not fd.is_quadratic:
            return
        out = _apply_hom(CONJUGATION_HOM, m)
        assert (out._det is None) == (m._det is None)
    elif step == "cofactor":
        out = m.cofactor()
        assert m._det is not None and out._det is not None
    elif step == "inverse":
        try:
            out = m.inverse()
        except SingularMatrix:
            assert m._det is not None and m._det.is_zero
            return
        assert m._det is not None and out._det is not None
    else:
        out = gen_matrix(_generator(rng, fd, n), fd, n)
        assert out._det is not None
    pool.append(out)


@settings(max_examples=40, deadline=None)
@given(
    fd=st.sampled_from(FIELDS),
    n=st.integers(2, 6),
    rank=st.integers(0, 6),
    steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32),
)
def test_carried_determinants_match_a_fresh_sweep(fd, n, rank, steps, seed):
    rng = random.Random(seed)
    rank = min(rank, n)
    start = rand_invertible(rng, fd, n) if rank == n else rand_singular(rng, fd, n, rank)
    # a product keeps no entries: start from both forms, neither knowing det
    pool = [_fresh(start), start * gen_matrix(Swap(1, 2), fd, n) * _fresh(start)]
    assert pool[0]._det is None and pool[1]._det is None
    for step in steps:
        _step(rng, fd, n, pool, step)
    for m in pool:
        _assert_carried(m)


@pytest.mark.parametrize("fd", FIELDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_carry_rule(fd, n):
    rng = random.Random(n)
    a = _fresh(rand_invertible(rng, fd, n))
    b = _fresh(rand_invertible(rng, fd, n))
    # each generator kind
    gens = [
        gen_matrix(Transvection(1, 2, rand_elem(rng, fd)), fd, n),
        gen_matrix(DiagUnit(2, _unit(rng, fd)), fd, n),
        gen_matrix(Swap(1, n), fd, n),
    ]
    assert [g._det for g in gens] == [one(fd), gens[1][1, 1], -one(fd)]
    # the inverse: its input keeps det, the inverse gets 1 / det
    a_inv = a.inverse()
    assert a._det is not None and a_inv._det == a._det.inv()
    # a product of two known determinants, and of one known and one unknown
    assert (a * a_inv * gens[1])._det == gens[1]._det
    assert (gens[0] * b)._det is None
    # the cofactor of a matrix that already knows det, and of one that does not
    c = a.cofactor()
    assert c._det == a._det ** (n - 1)
    b_cof = b.cofactor()
    assert b._det is not None and b_cof._det == b._det ** (n - 1)
    # scaling a matrix with entries and a product with none
    f = _unit(rng, fd)
    lazy = a * gens[2]
    scalings = [(m, g, g * m) for m in (a, lazy) for g in (f, -one(fd))]
    for m, g, scaled in scalings:
        assert scaled._det == g**n * m._det
        assert scaled == ref_scale(m, g)
    # the entrywise conjugation
    if fd.is_quadratic:
        assert _apply_hom(CONJUGATION_HOM, a)._det == a._det.conjugate()
    # identity, zeros and diag, invertible or not
    entries = [rand_elem(rng, fd) for _ in range(n)]
    built = [identity(fd, n), zeros(fd, n), diag(fd, entries), diag(fd, [zero(fd), *entries[1:]])]
    assert [m._det for m in built[:2]] == [one(fd), zero(fd)]
    assert all(m._det is not None for m in built)
    for m in (*gens, a, a_inv, c, b, b_cof, lazy, f * lazy, *built):
        _assert_carried(m)


def _counter(monkeypatch, *names) -> list:
    """Count the calls of the named functions of the matrix module."""
    calls = []
    for name in names:
        function = getattr(matrix_module, name)

        def counted(*args, _function=function):
            calls.append(1)
            return _function(*args)

        monkeypatch.setattr(matrix_module, name, counted)
    return calls


def _sweep_counter(monkeypatch) -> list:
    """Count the calls of the fraction-free sweep."""
    return _counter(monkeypatch, "_bareiss")


@pytest.mark.parametrize("fd", FIELDS)
def test_cofactor_eliminates_only_from_size_four(fd, monkeypatch):
    rng = random.Random(9)
    sweeps = _sweep_counter(monkeypatch)
    eliminations = _counter(monkeypatch, "_eliminate")
    for n in (2, 3, 4):
        for rank in range(n + 1):
            start = rand_invertible(rng, fd, n) if rank == n else rand_singular(rng, fd, n, rank)
            # one input with entries and one, a product, with integer rows only
            for a in (_fresh(start), _fresh(start) * _fresh(start)):
                assert a._det is None
                sweeps.clear()
                eliminations.clear()
                a.cofactor()
                assert len(eliminations) == (n == 4) and not sweeps
                assert a._det is not None
                _assert_carried(a)


@pytest.mark.parametrize("fd", [quadratic(2), quadratic(-1)])
def test_one_evaluation_sweeps_at_most_once(fd, monkeypatch):
    n = 4
    rng = random.Random(3)
    inputs = [rand_invertible(rng, fd, n)] + [rand_singular(rng, fd, n, r) for r in range(n)]
    gens = [
        gen_matrix(Transvection(1, 3, rand_elem(rng, fd)), fd, n),
        gen_matrix(DiagUnit(2, _unit(rng, fd)), fd, n),
        gen_matrix(Swap(2, 4), fd, n),
    ]
    atoms = (
        Conj(rand_invertible(rng, fd, n)),
        Cof(),
        Hom(CONJUGATION_HOM),
        DetScale(ScalarCharacter((("id", 1), ("conj", -1)))),
    )
    calls = _sweep_counter(monkeypatch)
    for order in permutations(atoms):
        expr = MapExpr(n, fd, order)
        for a in inputs:
            calls.clear()
            expr.evaluate(_fresh(a))
            assert len(calls) <= 1, order
        for g in gens:
            calls.clear()
            expr.evaluate(g)
            assert not calls, order


@pytest.mark.parametrize("fd", FIELDS)
def test_a_conj_atom_eliminates_once_and_never_sweeps(fd, monkeypatch):
    n = 3
    rng = random.Random(5)
    r = _fresh(rand_invertible(rng, fd, n))
    a = _fresh(rand_invertible(rng, fd, n))
    singular = _fresh(rand_singular(rng, fd, n, n - 1))
    sweeps = _sweep_counter(monkeypatch)
    eliminations = _counter(monkeypatch, "_eliminate")
    expr = MapExpr(n, fd, (Conj(r),))
    assert expr.evaluate(a) == r.inverse() * a * r
    assert len(eliminations) == 1 and not sweeps
    # a singular R is refused with the message of the determinant check
    with pytest.raises(SingularConjugator, match="^conjugator must be invertible$"):
        MapExpr(n, fd, (Conj(singular),))
    # an R that carries its determinant is checked by it, with no elimination:
    # a product of generators, and the singular R, which now carries zero
    carried = gen_matrix(Transvection(1, 2, rand_elem(rng, fd)), fd, n) * gen_matrix(
        DiagUnit(3, _unit(rng, fd)), fd, n
    )
    eliminations.clear()
    expr = MapExpr(n, fd, (Conj(carried),))
    with pytest.raises(SingularConjugator, match="^conjugator must be invertible$"):
        MapExpr(n, fd, (Conj(singular),))
    assert not eliminations and not sweeps
    assert expr.evaluate(a) == carried.inverse() * a * carried
    assert len(eliminations) == 1 and not sweeps


def _oracles(fd):
    """A detscale and a trivialdet oracle at n = 3, with conj exponents over
    Q(sqrt d)."""
    b = 1 if fd.is_quadratic else 0
    lam = ScalarCharacter((("id", 2), ("conj", -b)))
    chars = (ScalarCharacter((("id", 1),)), ScalarCharacter((("id", -1), ("conj", 2 * b))))
    return (
        MapExpr(3, fd, (DetScale(lam),)).as_oracle(),
        MapExpr(3, fd, (TrivialDet(chars, 0, 1),)).as_oracle(),
    )


@pytest.mark.parametrize("fd", [RATIONAL, quadratic(2)])
def test_final_verification_samples_carry_their_determinant(fd, monkeypatch):
    sweeps = _sweep_counter(monkeypatch)
    samples = []
    in_verification = []
    check_sample = classify_module._check_sample
    final_verification = classify_module._final_verification

    def recorded(session, expected, a):
        samples.append(a)
        return check_sample(session, expected, a)

    def counted(*args):
        before = len(sweeps)
        final_verification(*args)
        in_verification.append(len(sweeps) - before)

    monkeypatch.setattr(classify_module, "_check_sample", recorded)
    monkeypatch.setattr(classify_module, "_final_verification", counted)
    for oracle in _oracles(fd):
        samples.clear()
        in_verification.clear()
        classify(oracle, fd, 3, seed=4)
        assert in_verification == [0]
        assert len(samples) == classify_module.VERIFY_INVERTIBLE + classify_module.VERIFY_SINGULAR
        for a in samples:
            assert a._det is not None
            _assert_carried(a)
    # the samplers carry none: the fuzz reads no determinant, and no word
    rng = random.Random(1)
    for sampled in (random_gl(rng, fd, n) for n in (3, 5)), (random_sl(rng, fd, n) for n in (3, 5)):
        for a in sampled:
            assert a._det is None and a._word is None


def _word_carriers(rng, fd, n):
    """Every kind of matrix that carries a word."""
    pool = classify_module._lam_pool(fd)
    return [
        _word_matrix(fd, n, pool[1], _transvection_triples(rng, fd, n, 8)),
        gen_matrix(Transvection(2, 1, _unit(rng, fd)), fd, n),
        gen_matrix(DiagUnit(1, _unit(rng, fd)), fd, n),
        identity(fd, n),
    ]


@pytest.mark.parametrize("fd", FIELDS)
def test_the_word_cofactor_neither_eliminates_nor_sweeps(fd, monkeypatch):
    rng = random.Random(11)
    sweeps = _sweep_counter(monkeypatch)
    eliminations = _counter(monkeypatch, "_eliminate")
    for n in (4, 5, 6):
        for a in _word_carriers(rng, fd, n):
            assert a._word is not None
            c = a.cofactor()
            assert not eliminations and not sweeps
            assert c._det == a._det ** (n - 1) and c._word is None
            _assert_carried(a)
            _assert_carried(c)
            sweeps.clear()


def _known_cofactors(rng, fd, n) -> list:
    """Every kind of matrix whose builder gives it its cofactor: zeros, the
    rank idempotents of rank at most n - 2, E_ij from size 3 on, I - E_jj,
    D_i(k) for i >= 2, swaps, and the singular final-verification samples,
    drawn as classify draws them, of every rank at most n - 2 and, from
    size 4 on, of rank n - 1."""
    o = one(fd)
    built = [zeros(fd, n), coidempotent(fd, n, 1), coidempotent(fd, n, n)]
    built += [rank_idempotent(fd, n, r) for r in range(n - 1)]
    if n >= 3:
        built += [unit_matrix(fd, n, 1, 1), unit_matrix(fd, n, n, 1)]
    built += [gen_matrix(DiagUnit(n, _unit(rng, fd)), fd, n), gen_matrix(DiagUnit(2, -o), fd, n)]
    built += [gen_matrix(Swap(1, 2), fd, n), gen_matrix(Swap(n, 1), fd, n)]
    pool = default_pool(fd)
    for r in range(n if n >= 4 else n - 1):
        x, word = rng.choice(pool), _transvection_triples(rng, fd, n, 4 * n)
        g = _word_matrix(fd, n, rng.choice(pool), _transvection_triples(rng, fd, n, 4 * n))
        built.append(_singular_sample(x, word, g, r))
    return built


@pytest.mark.parametrize("fd", FIELDS)
def test_a_builder_that_knows_the_cofactor_carries_it(fd, monkeypatch):
    # a builder that knows rank <= n - 2 gives zeros, I - E_jj gives E_jj,
    # D_i(k) and swaps give theirs, and a singular sample of rank n - 1
    # gives column n of C(G_1) times row n of C(G_2), read off the words:
    # none of them eliminates or sweeps, and each equals the reference
    rng = random.Random(12)
    sweeps = _sweep_counter(monkeypatch)
    eliminations = _counter(monkeypatch, "_eliminate")
    built = {n: _known_cofactors(rng, fd, n) for n in (2, 3, 4, 5, 6)}
    cofactors = {n: [a.cofactor() for a in mats] for n, mats in built.items()}
    assert not eliminations and not sweeps
    for n, mats in built.items():
        for a, c in zip(mats, cofactors[n]):
            assert a._cof is c and a._det is not None
            assert c == ref_cofactor(_fresh(a))
            assert c._det == a._det ** (n - 1)
            _assert_carried(a)
            _assert_carried(c)
    # the sample of rank n - 1 at size 4 and up: both words are read
    rank_n_1 = built[6][-1]
    assert _fresh(rank_n_1).rank == 5 and not rank_n_1._cof.is_zero


def test_the_singular_and_generator_probes_of_classify_eliminate_nothing(monkeypatch):
    # at n = 5 the cofactor oracle takes the cofactor of every probe; those
    # of the singular-pattern test (I - E_jj, E_11, E_12 and the rank
    # idempotents) and of GL recovery's D_i(-1) and adjacent swaps carry it
    n, fd = 5, RATIONAL
    o = one(fd)
    probes = [coidempotent(fd, n, j) for j in range(1, n + 1)]
    probes += [unit_matrix(fd, n, 1, 1), unit_matrix(fd, n, 1, 2)]
    probes += [rank_idempotent(fd, n, r) for r in range(2, n - 1)]
    probes += [gen_matrix(DiagUnit(i, -o), fd, n) for i in range(1, n + 1)]
    probes += [gen_matrix(Swap(i, i + 1), fd, n) for i in range(1, n)]
    evaluate = MapExpr(n, fd, (Cof(),)).evaluate
    eliminations = _counter(monkeypatch, "_eliminate")
    per_probe = {}

    def oracle(a):
        before = len(eliminations)
        out = evaluate(a)
        if a in probes:
            per_probe[probes.index(a)] = len(eliminations) - before
        return out

    classify(oracle, fd, n)
    assert per_probe == {i: 0 for i in range(len(probes))}


def _eliminations_per_sample(monkeypatch, oracle, fd, n) -> list:
    """(reported, checked, probed before) for each final-verification
    sample of classify(oracle), in sample order: the eliminations the
    reported map runs on it, those its oracle call and comparison run, and
    whether the session already held its image."""
    eliminations = _counter(monkeypatch, "_eliminate")
    per_sample = []
    reported = {}
    check_sample = classify_module._check_sample
    reported_map = classify_module._reported_map

    def counted_map(form, s):
        f = reported_map(form, s)

        def counted(a):
            before = len(eliminations)
            out = f(a)
            reported[id(a)] = len(eliminations) - before
            return out

        return counted

    def counted(session, expected, a):
        before = len(eliminations)
        seen = a.rows in session._memo
        check_sample(session, expected, a)
        per_sample.append((reported.pop(id(a)), len(eliminations) - before, seen))

    monkeypatch.setattr(classify_module, "_reported_map", counted_map)
    monkeypatch.setattr(classify_module, "_check_sample", counted)
    classify(oracle, fd, n)
    return per_sample


def test_the_cofactor_oracle_eliminates_on_no_invertible_sample(monkeypatch):
    n = 5
    oracle = MapExpr(n, RATIONAL, (Cof(),)).as_oracle()
    per_sample = _eliminations_per_sample(monkeypatch, oracle, RATIONAL, n)
    invertible = classify_module.VERIFY_INVERTIBLE
    assert len(per_sample) == invertible + classify_module.VERIFY_SINGULAR
    assert [(r, c) for r, c, _ in per_sample[:invertible]] == [(0, 0)] * invertible
    # each singular sample carries its cofactor from the draw: zero at rank
    # n - 2 or less, and at rank n - 1 column n of C(G_1) times row n of
    # C(G_2), read off the words; the reported form and the oracle both
    # read it, so neither eliminates
    singular = per_sample[invertible:]
    assert [(r, c) for r, c, _ in singular] == [(0, 0)] * classify_module.VERIFY_SINGULAR
    assert not all(seen for _, _, seen in singular)


def test_the_detscale_cof_conj_oracle_eliminates_on_no_invertible_sample(monkeypatch):
    # the Cof atom acts on the sample first, so it reads the sample's word,
    # and the Conj atom conjugates by the cofactor that R keeps
    n = 5
    r = _fresh(rand_invertible(random.Random(8), RATIONAL, n))
    atoms = (DetScale(ScalarCharacter((("id", 1),))), Cof(), Conj(r))
    oracle = MapExpr(n, RATIONAL, atoms).as_oracle()
    per_sample = _eliminations_per_sample(monkeypatch, oracle, RATIONAL, n)
    invertible = classify_module.VERIFY_INVERTIBLE
    # the reported form inverts R once, at the first sample it evaluates
    expected = [(1, 0)] + [(0, 0)] * (invertible - 1)
    assert [(r, c) for r, c, _ in per_sample[:invertible]] == expected
    # each singular sample carries its zero determinant, so the DetScale
    # atom sends it to zero before any cofactor is taken, and the form
    # gives zero with no elimination either
    singular = per_sample[invertible:]
    assert [(r, c) for r, c, _ in singular] == [(0, 0)] * classify_module.VERIFY_SINGULAR


@pytest.mark.parametrize("fd", FIELDS)
def test_a_carried_zero_determinant_meets_a_detscale_atom_before_any_cofactor(fd, monkeypatch):
    # DetScale sends a singular matrix to zero, and every other atom keeps
    # it singular, so an input that carries a zero determinant takes no
    # cofactor; one that carries none is evaluated atom by atom as before
    n = 5
    rng = random.Random(3)
    atoms = (DetScale(ScalarCharacter((("id", 1),))), Cof(), Conj(rand_invertible(rng, fd, n)))
    expr = MapExpr(n, fd, atoms)
    a = _fresh(rand_singular(rng, fd, n, n - 1))
    b = _fresh(a)
    assert a.det.is_zero
    eliminations = _counter(monkeypatch, "_eliminate")
    assert expr.evaluate(a) == zeros(fd, n)
    assert not eliminations and a._cof is None
    assert expr.evaluate(b) == zeros(fd, n)
    assert eliminations and b._cof is not None


@pytest.mark.parametrize(
    "fd, kind",
    [(RATIONAL, "cof"), (quadratic(2), "conj-cof-hom"), (RATIONAL, "detscale-cof-conj")],
)
def test_every_carried_word_evaluates_back_to_its_matrix(fd, kind, monkeypatch):
    n = 4
    r = _fresh(rand_invertible(random.Random(2), fd, n))
    atoms = {
        "cof": (Cof(),),
        "conj-cof-hom": (Conj(r), Cof(), Hom(CONJUGATION_HOM)),
        "detscale-cof-conj": (DetScale(ScalarCharacter((("id", 1),))), Cof(), Conj(r)),
    }[kind]
    carriers = []
    cofactor = Matrix.cofactor

    def recorded(self):
        if self._word is not None:
            carriers.append(self)
        return cofactor(self)

    monkeypatch.setattr(Matrix, "cofactor", recorded)
    evaluate = MapExpr(n, fd, atoms).evaluate

    def oracle(a):
        if a._word is not None:
            carriers.append(a)
        return evaluate(a)

    classify(oracle, fd, n)
    assert carriers
    for a in carriers:
        x, word = a._word
        gens = [DiagUnit(1, x), *(Transvection(i, j, k) for i, j, k in word)]
        assert evaluate_word(gens, fd, n) == a
        assert a._det == x


@pytest.mark.parametrize("fd", FIELDS)
def test_a_pickled_word_carrier_comes_back_equal_with_no_word(fd):
    rng = random.Random(4)
    for a in _word_carriers(rng, fd, 4):
        back = pickle.loads(pickle.dumps(a))
        assert back == a and hash(back) == hash(a) and repr(back) == repr(a)
        assert back._word is None
