import copy
import hashlib
import importlib
import json
import pickle
import random
import re
from fractions import Fraction

import pytest

from multmap.classify import (
    VERIFY_INVERTIBLE,
    VERIFY_SINGULAR,
    ClassifyReport,
    Session,
    _character_values,
    _enumerate_characters,
    _final_verification,
    _lam_pool,
    _read,
    _reported_map,
    _resolve_hom,
    classify,
    normalize_idempotents,
)
from multmap.errors import (
    CharacterOutOfBound,
    DimensionMismatch,
    FieldMismatch,
    NonDiagonalizableTrivial,
    NotMultiplicative,
    OracleBudgetExceeded,
    ParseError,
    RankLadderViolation,
    UnregisteredHom,
    UnsupportedDimension,
    VerificationFailed,
)
from multmap.field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    RATIONAL,
    FieldElem,
    as_elem,
    one,
    quadratic,
    sampled_hom,
    sqrt_gen,
    zero,
)
from multmap.matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _word_matrix,
    coidempotent,
    diag,
    gen_matrix,
    identity,
    unit_matrix,
    zeros,
)
from multmap.mapexpr import (
    Cof,
    Conj,
    DetScale,
    DegenerateForm,
    Hom,
    MapExpr,
    NonDegenerateForm,
    ScalarCharacter,
    TrivialDet,
    TrivialForm,
    canonical_eq,
    simplify,
)
from multmap.slword import _transvection_triples, random_gl

from helpers import (
    assert_report_matches_its_log,
    corruption_cases,
    int_matrix,
    rand_invertible,
    random_mapexpr,
    rand_singular,
    scaled_unit_lie,
    sweep_outcome,
)

# the module, not the function the package exports under the same name
classify_module = importlib.import_module("multmap.classify")

Q2 = quadratic(2)
QI = quadratic(-1)


def _x(power):
    return ScalarCharacter((("id", power),))


def semantically_equal(report, reference_oracle, fd, n, seed=99, samples=25):
    rec = report.reconstructed_oracle()
    rng = random.Random(seed)
    for _ in range(samples):
        a = random_gl(rng, fd, n)
        if rec(a) != reference_oracle(a):
            return False
    for _ in range(5):
        a = rand_singular(rng, fd, n)
        if rec(a) != reference_oracle(a):
            return False
    return True


# -- named oracles, exact recoveries -------------------------------------------------


def test_identity_map():
    expr = MapExpr(3, RATIONAL, ())
    rep = classify(expr.as_oracle(), RATIONAL, 3)
    assert rep.form.kind == "nondegenerate"
    assert rep.form.phi.kind == "id"
    assert rep.form.eps == 0
    assert rep.form.R == identity(RATIONAL, 3)
    assert (rep.s, rep.l, rep.k) == (0, 3, 3)
    assert rep.pre_conjugator == identity(RATIONAL, 3)


def test_cofactor_map_n3_goes_through_rank_ladder():
    # E_11 dies under the cofactor at n = 3, so recovery must take the
    # corank-one branch and come back with eps = 1
    expr = MapExpr(3, RATIONAL, (Cof(),))
    rep = classify(expr.as_oracle(), RATIONAL, 3)
    assert rep.form.kind == "nondegenerate"
    assert rep.form.eps == 1
    assert rep.form.phi.kind == "id"
    assert rep.form.R == identity(RATIONAL, 3)
    assert canonical_eq(rep.form, simplify(expr))


def test_cofactor_map_n2_is_a_conjugation():
    # at n = 2 the cofactor map fixes no rank: it is conjugation by the
    # symplectic unit, and the unit branch finds exactly that presentation
    expr = MapExpr(2, RATIONAL, (Cof(),))
    rep = classify(expr.as_oracle(), RATIONAL, 2)
    assert rep.form.kind == "nondegenerate"
    assert rep.form.eps == 0
    assert rep.form.phi.kind == "id"
    assert rep.form.R == int_matrix(RATIONAL, [[0, 1], [-1, 0]])
    assert semantically_equal(rep, expr.as_oracle(), RATIONAL, 2)


def test_conjugation_map():
    r = int_matrix(Q2, [[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    expr = MapExpr(3, Q2, (Conj(r),))
    rep = classify(expr.as_oracle(), Q2, 3)
    assert rep.form.kind == "nondegenerate"
    assert canonical_eq(rep.form, simplify(expr))


def test_quadratic_composite_recovery():
    r = int_matrix(Q2, [[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    expr = MapExpr(
        3,
        Q2,
        (
            Conj(r),
            DetScale(ScalarCharacter((("id", 3),))),
            Cof(),
            Hom(CONJUGATION_HOM),
        ),
    )
    rep = classify(expr.as_oracle(), Q2, 3)
    want = simplify(expr)
    assert rep.form.kind == "degenerate"
    assert canonical_eq(rep.form, want)
    # frozen: the determinant scale folds to conj^6 through the hom and the
    # cofactor degree shift
    assert rep.form.lam == ScalarCharacter((("conj", 6),))
    assert rep.form.eps == 1
    assert rep.form.phi.kind == "conj"


def test_a_report_pickles_and_deep_copies():
    r = int_matrix(Q2, [[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    expr = MapExpr(3, Q2, (Conj(r), Cof(), Hom(CONJUGATION_HOM)))
    rep = classify(expr.as_oracle(), Q2, 3)
    for twin in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
        assert twin is not rep and twin == rep
        assert twin.form.R is not rep.form.R
        assert twin.to_doc() == rep.to_doc()


def test_degenerate_det_scale():
    expr = MapExpr(3, RATIONAL, (DetScale(ScalarCharacter((("id", 1),))),))
    rep = classify(expr.as_oracle(), RATIONAL, 3)
    assert rep.form.kind == "degenerate"
    assert rep.form.lam == ScalarCharacter((("id", 1),))
    assert rep.form.eps == 0
    assert rep.form.R == identity(RATIONAL, 3)
    assert canonical_eq(rep.form, simplify(expr))
    # vanishing on singulars is part of the contract
    rec = rep.reconstructed_oracle()
    assert rec(int_matrix(RATIONAL, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])) == zeros(
        RATIONAL, 3
    )


def test_n2_det_scale_lands_on_equivalent_presentation():
    # at n = 2 the recovered conjugator may absorb a cofactor flip; the
    # returned presentation differs from the folded one but is the same map
    expr = MapExpr(2, RATIONAL, (DetScale(ScalarCharacter((("id", 1),))),))
    rep = classify(expr.as_oracle(), RATIONAL, 2)
    assert rep.form.kind == "degenerate"
    assert rep.form.lam == ScalarCharacter((("id", 1),))
    assert rep.form.eps == 1
    assert rep.form.R == int_matrix(RATIONAL, [[0, 1], [-1, 0]])
    assert semantically_equal(rep, expr.as_oracle(), RATIONAL, 2)


def test_negative_discriminant_field():
    expr = MapExpr(
        2, QI, (DetScale(ScalarCharacter((("conj", 1),))), Hom(CONJUGATION_HOM))
    )
    rep = classify(expr.as_oracle(), QI, 2)
    assert rep.form.kind == "degenerate"
    assert rep.form.phi.kind == "conj"
    assert semantically_equal(rep, expr.as_oracle(), QI, 2)


# -- trivial class -------------------------------------------------


def test_det_cube_into_smaller_algebra():
    char = ScalarCharacter((("id", 3),))
    expr = MapExpr(3, RATIONAL, (TrivialDet((char, char), 0, 0),))
    rep = classify(expr.as_oracle(), RATIONAL, 3)
    assert rep.form.kind == "trivial"
    assert rep.form.chars == (char, char)
    assert (rep.form.zero_pad, rep.form.one_pad) == (0, 0)
    assert (rep.s, rep.l, rep.k) == (0, 2, 2)
    assert canonical_eq(rep.form, simplify(expr))


def test_padded_trivial_conjugated():
    char = ScalarCharacter((("id", -2),))
    inner = MapExpr(3, RATIONAL, (TrivialDet((char,), 1, 1),))
    s0 = int_matrix(RATIONAL, [[1, 1, 0], [0, 1, 2], [1, 0, 1]])
    s0_inv = s0.inverse()

    def oracle(a):
        return s0_inv * inner.evaluate(a) * s0

    rep = classify(oracle, RATIONAL, 3)
    assert rep.form.kind == "trivial"
    assert rep.form.chars == (char,)
    assert (rep.form.zero_pad, rep.form.one_pad) == (1, 1)
    assert (rep.s, rep.l) == (1, 1)
    rec = rep.reconstructed_oracle()
    rng = random.Random(5)
    assert all(rec(a) == oracle(a) for a in (random_gl(rng, RATIONAL, 3) for _ in range(10)))
    assert rec(zeros(RATIONAL, 3)) == oracle(zeros(RATIONAL, 3))


def test_constant_identity_and_zero_maps():
    rep = classify(lambda a: identity(RATIONAL, 2), RATIONAL, 3)
    assert rep.form.kind == "trivial"
    assert (rep.form.chars, rep.form.zero_pad, rep.form.one_pad) == ((), 0, 2)
    rep = classify(lambda a: zeros(RATIONAL, 2), RATIONAL, 3)
    assert rep.form.kind == "trivial"
    assert (rep.form.chars, rep.form.zero_pad, rep.form.one_pad) == ((), 2, 0)


def test_quadratic_trivial_character_with_conjugation():
    char = ScalarCharacter((("id", 1), ("conj", -1)))
    expr = MapExpr(2, Q2, (TrivialDet((char,), 0, 1),))
    rep = classify(expr.as_oracle(), Q2, 2)
    assert rep.form.kind == "trivial"
    assert rep.form.chars == (char,)
    assert canonical_eq(rep.form, simplify(expr))


def test_honest_jordan_block_is_flagged_not_diagonalizable():
    # multiplicative but not semisimple: the 2-adic valuation is additive on
    # products, so this really is a multiplicative map with no eigenbasis
    def v2(fr):
        num, den, k = fr.numerator, fr.denominator, 0
        while num % 2 == 0:
            num //= 2
            k += 1
        while den % 2 == 0:
            den //= 2
            k -= 1
        return k

    def oracle(a):
        d = a.det
        if d.is_zero:
            return zeros(RATIONAL, 2)
        val = FieldElem(RATIONAL, Fraction(v2(d.a)))
        z = FieldElem(RATIONAL, Fraction(0))
        return Matrix(RATIONAL, [[d, d * val], [z, d]])

    with pytest.raises(NonDiagonalizableTrivial):
        classify(oracle, RATIONAL, 3)


def _three_adic_twist(x: FieldElem) -> FieldElem:
    """x * 3^v3(x), a character of Q* that is no power of x: it takes the
    bounded values 2, 9 and 5 at 2, 3 and 5 but fits no single exponent."""
    num, den, k = x.a.numerator, x.a.denominator, 0
    while num % 3 == 0:
        num //= 3
        k += 1
    while den % 3 == 0:
        den //= 3
        k -= 1
    return x * FieldElem(RATIONAL, Fraction(3) ** k)


def test_determinant_scales_past_the_bound_are_refused():
    x7 = MapExpr(3, RATIONAL, (DetScale(ScalarCharacter((("id", 7),))),))
    with pytest.raises(CharacterOutOfBound, match=r"\[-6, 6\]"):
        classify(x7.as_oracle(), RATIONAL, 3)

    def scaled(a):
        d = a.det
        return zeros(RATIONAL, 3) if d.is_zero else _three_adic_twist(d) * a

    def trivial(a):
        d = a.det
        return Matrix(RATIONAL, [[zero(RATIONAL) if d.is_zero else _three_adic_twist(d)]])

    for oracle in (scaled, trivial):
        with pytest.raises(CharacterOutOfBound, match="CHAR_POWER_BOUND"):
            classify(oracle, RATIONAL, 3)


def _squarefree_radicands(bound):
    return [
        d
        for d in range(-bound, bound + 1)
        if d not in (0, 1) and all(d % (p * p) for p in range(2, abs(d) + 1))
    ]


def test_character_values_match_evaluation():
    for fd in (RATIONAL, Q2, QI, quadratic(-3)):
        for x in (*_lam_pool(fd), FieldElem(fd, Fraction(-7, 3))):
            assert _character_values(fd, x) == [
                c.evaluate(x) for c in _enumerate_characters(fd)
            ]


def test_bounded_characters_are_separated_by_the_lam_pool():
    for fd in [RATIONAL] + [quadratic(d) for d in _squarefree_radicands(50)]:
        vectors = set(zip(*(_character_values(fd, x) for x in _lam_pool(fd))))
        assert len(vectors) == len(_enumerate_characters(fd)), fd


@pytest.mark.parametrize("d, a, b", [(-1, 5, -4), (-3, 4, -3)])
def test_in_bound_scales_over_fields_with_roots_of_unity(d, a, b):
    fd = quadratic(d)
    expr = MapExpr(3, fd, (DetScale(ScalarCharacter((("id", a), ("conj", b)))),))
    rep = classify(expr.as_oracle(), fd, 3)
    probe = diag(fd, [FieldElem(fd, 2, 1), one(fd), one(fd)])
    assert rep.reconstructed_oracle()(probe) == expr.evaluate(probe)


def test_scale_past_the_bound_over_q_i_is_refused():
    x7 = MapExpr(3, QI, (DetScale(ScalarCharacter((("id", -7),))),))
    with pytest.raises(CharacterOutOfBound):
        classify(x7.as_oracle(), QI, 3)


# -- random expressions -------------------------------------------------


def test_random_expressions_round_trip_n3():
    rng = random.Random(2024)
    for t in range(15):
        expr = random_mapexpr(rng, Q2, 3)
        want = simplify(expr)
        rep = classify(expr.as_oracle(), Q2, 3, seed=t)
        assert canonical_eq(rep.form, want), expr.to_doc()


def test_random_expressions_semantic_n2():
    rng = random.Random(77)
    for t in range(8):
        expr = random_mapexpr(rng, RATIONAL, 2)
        rep = classify(expr.as_oracle(), RATIONAL, 2, seed=t)
        assert semantically_equal(rep, expr.as_oracle(), RATIONAL, 2, seed=t), expr.to_doc()


# -- adversaries -------------------------------------------------


def test_rank_ladder_adversary():
    def adversary(a):
        return a if a.rank >= 2 else zeros(RATIONAL, 4)

    with pytest.raises(RankLadderViolation):
        classify(adversary, RATIONAL, 4)
    # the violation is a flavor of failed multiplicativity
    assert issubclass(RankLadderViolation, NotMultiplicative)


E11 = unit_matrix(RATIONAL, 3, 1, 1)
CO1 = coidempotent(RATIONAL, 3, 1)  # I - E_11
Z3 = zeros(RATIONAL, 3)


@pytest.mark.parametrize(
    "oracle, error, message, calls",
    [
        (
            lambda a: Matrix(RATIONAL, [r[:2] for r in a.rows[:2]]),
            NotMultiplicative,
            "a live block smaller than n must kill every transvection",
            3,
        ),
        (
            lambda a: Z3 if a == E11 else a,
            RankLadderViolation,
            "rank one images are inconsistent",
            8,
        ),
        (
            lambda a: Z3 if a == CO1 else a.cofactor(),
            RankLadderViolation,
            "corank one images are inconsistent",
            8,
        ),
        (
            lambda a: a if a.rank >= 2 else Z3,
            NotMultiplicative,
            "vanishing pattern does not match a cofactor form",
            32,
        ),
        (
            lambda a: E11 + E11 if a == CO1 else a.cofactor(),
            VerificationFailed,
            "corank one image disagrees with the recovered cofactor form",
            33,
        ),
    ],
    ids=["top-left-block", "dead-e11", "dead-corank-one", "rank-two-or-zero", "wrong-corank-one"],
)
def test_each_dispatcher_rejection_keeps_its_type_message_and_probe_count(
    oracle, error, message, calls
):
    seen = set()

    def counted(a):
        seen.add(a.rows)
        return oracle(a)

    with pytest.raises(error) as info:
        classify(counted, RATIONAL, 3)
    assert type(info.value) is error
    assert str(info.value) == message
    assert len(seen) == calls


def _gen(n, g):
    return gen_matrix(g, RATIONAL, n)


def _dil(n, x):
    """D_1(x) at size n."""
    return _gen(n, DiagUnit(1, as_elem(RATIONAL, x)))


def _plus(i, j):
    """The image plus E_ij, at the image's own size."""
    return lambda y: y + unit_matrix(y.field, y.n_rows, i, j)


def _const(m):
    return lambda y: m


_Q1, _QM1, _Q2 = (as_elem(RATIONAL, v) for v in (1, -1, 2))
_DET2_N2 = MapExpr(2, RATIONAL, (DetScale(_x(2)),))
_DET_N3 = MapExpr(3, RATIONAL, (DetScale(_x(1)),))
_DET2_COF_N3 = MapExpr(3, RATIONAL, (DetScale(_x(1)), Cof()))
_COF_N2 = MapExpr(2, RATIONAL, (Cof(),))
_DET_CUBE = MapExpr(3, RATIONAL, (TrivialDet((_x(3), _x(3)), 0, 0),))
_ONE_ON_INVERTIBLES = MapExpr(2, RATIONAL, (TrivialDet((_x(0), _x(0)), 0, 0),))
_UP = int_matrix(RATIONAL, [[1, 1], [0, 1]])
_FLIP = int_matrix(RATIONAL, [[1, 0], [0, -1]])


# (valid oracle, {probe input: how its image changes}, error, message)
_REJECTIONS = [
    # GL recovery checks one law on the involution images, so a broken
    # square, commutation or balance is caught by the twist read off v_1 or
    # by the law itself; these ids name the property the change breaks
    pytest.param(_DET2_N2, {_dil(2, -1): _plus(1, 1)}, NotMultiplicative,
                 "involution eigenvalue multiplicities match no canonical form",
                 id="image of a determinant involution must square to I"),
    pytest.param(_DET2_N2, {_dil(2, -1): _plus(1, 2)}, NotMultiplicative,
                 "involution images are not D_i(-1) in one eigenbasis",
                 id="determinant involution images do not commute"),
    pytest.param(_DET2_N2, {_dil(2, -1): _const(identity(RATIONAL, 2))}, NotMultiplicative,
                 "involution eigenvalue multiplicities match no canonical form",
                 id="involution eigenspace sizes are unbalanced"),
    (_DET_N3, {_gen(3, DiagUnit(2, _QM1)): _const(-identity(RATIONAL, 3))}, NotMultiplicative,
     "twisted involution image has no -1 eigenvector"),
    (_DET2_N2, {_dil(2, -1): lambda y: -y}, NotMultiplicative,
     "involution eigenvectors are dependent"),
    (
        _DET2_N2,
        {
            _dil(2, -1): _const(identity(RATIONAL, 2)),
            _gen(2, DiagUnit(2, _QM1)): _const(identity(RATIONAL, 2)),
        },
        NotMultiplicative,
        "involution eigenvalue multiplicities match no canonical form",
    ),
    (_DET2_N2, {_gen(2, Swap(1, 2)): _plus(1, 2)}, NotMultiplicative,
     "swap block is not an exchange of weight one"),
    (_DET2_N2, {_gen(2, Transvection(1, 2, _Q1)): _plus(1, 1)}, NotMultiplicative,
     "unit transvection image matches neither orientation"),
    pytest.param(_DET2_N2, {_gen(2, Transvection(1, 2, _Q2)): _plus(1, 2)}, NotMultiplicative,
                 "entry map is neither the identity nor the conjugation",
                 id="entry map is not additive"),
    (_DET2_N2, {_dil(2, 2): _const(zeros(RATIONAL, 2))}, NotMultiplicative,
     "dilation image is singular"),
    (_DET2_N2, {_dil(2, 2): _plus(1, 1)}, NotMultiplicative,
     "dilation image disagrees with the entry map"),
    (_DET2_N2, {diag(RATIONAL, [_Q2, _Q2.inv()]): _plus(1, 1)}, NotMultiplicative,
     "unimodular dilation image is off"),
    (_DET_N3, {_dil(3, 2): _plus(3, 3)}, NotMultiplicative,
     "dilation image tail is not scalar"),
    (_DET_N3, {_gen(3, Transvection(2, 3, _Q1)): _const(identity(RATIONAL, 3))},
     NotMultiplicative, "transvection images disagree across positions"),
    pytest.param(_DET2_COF_N3, {_gen(3, Transvection(2, 1, _QM1)): _plus(1, 2)},
                 NotMultiplicative, "entry map is neither the identity nor the conjugation",
                 id="entry map does not fix 1"),
    (_COF_N2, {_Q2 * unit_matrix(RATIONAL, 2, 1, 1): _plus(2, 2)}, NotMultiplicative,
     "entry map is not multiplicative"),
    # at n = 2 GL recovery reads its products xy only from transvections;
    # 6 = 2 * 3 is in no pool that phi is resolved from
    pytest.param(_DET2_N2, {_gen(2, Transvection(1, 2, as_elem(RATIONAL, 6))): _plus(1, 2)},
                 NotMultiplicative, "entry map is not multiplicative",
                 id="entry map is not multiplicative at a product"),
    (_COF_N2, {_gen(2, Transvection(1, 2, _Q1)): _plus(2, 1)}, NotMultiplicative,
     "unit and transvection probes disagree"),
    (_DET_CUBE, {_dil(3, 2): _plus(1, 1)}, NotMultiplicative,
     "determinant block fails multiplicativity"),
    (_DET_CUBE, {_gen(3, Swap(1, 2)): _plus(1, 1)}, NotMultiplicative,
     "swap image leaves its determinant coset"),
    (
        _ONE_ON_INVERTIBLES,
        {
            _dil(2, 2): _const(_UP),
            _dil(2, 3): _const(_FLIP),
            _dil(2, 6): _const(_UP * _FLIP),
            _dil(2, 15): _const(_FLIP),
        },
        NotMultiplicative,
        "determinant block images do not commute",
    ),
    (_DET_N3, {Z3: _const(int_matrix(RATIONAL, [[0, 0, 0], [0, 0, 0]]))},
     NotMultiplicative, "oracle output is not a square matrix"),
    (_DET_N3, {Z3: _const(zeros(Q2, 3))}, FieldMismatch,
     "oracle output lies outside the declared field"),
]


@pytest.mark.parametrize(
    "expr, overrides, error, message", _REJECTIONS, ids=[m for *_, m in _REJECTIONS]
)
def test_every_reachable_rejection_is_pinned(expr, overrides, error, message):
    # a valid oracle with one or two probe images changed; each change is
    # read off the image the oracle gives at that probe
    def oracle(a):
        out = expr.evaluate(a)
        change = overrides.get(a)
        return out if change is None else change(out)

    with pytest.raises(error) as info:
        classify(oracle, RATIONAL, expr.n, seed=0)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("d", [7, -3])
def test_unit_recovery_checks_every_scaled_unit_against_phi(d):
    # sqrt(d) E_11 -> 2 sqrt(d) E_11 and d E_12 -> 2d E_12 keep the product
    # of the two probes; d lies in no probe pool, so only comparing each
    # scaled unit with phi at its own scalar sees the lie
    fd = quadratic(d)
    with pytest.raises(NotMultiplicative) as info:
        classify(scaled_unit_lie(fd), fd, 3)
    assert str(info.value) == "entry map is not multiplicative"


def test_gl_recovery_resolves_phi_before_inverting_its_values():
    # the entry map read here sends sqrt(2) and 2 sqrt(2) to 0 and 1 + sqrt(2)
    # to 1, so it is additive on the sums of pool scalars; the dilation stage
    # inverts phi(sqrt(2)), which only a resolved phi keeps nonzero
    fd = Q2
    s, o = sqrt_gen(fd), one(fd)
    expr = MapExpr(2, fd, (DetScale(ScalarCharacter()),))
    overrides = {
        gen_matrix(Transvection(1, 2, s), fd, 2): identity(fd, 2),
        gen_matrix(Transvection(1, 2, s + s), fd, 2): identity(fd, 2),
        gen_matrix(Transvection(1, 2, o + s), fd, 2): gen_matrix(Transvection(1, 2, o), fd, 2),
        gen_matrix(DiagUnit(1, s), fd, 2): diag(fd, [zero(fd), o]),
    }
    with pytest.raises(NotMultiplicative) as info:
        classify(lambda a: overrides.get(a, expr.evaluate(a)), fd, 2)
    assert str(info.value) == "entry map is neither the identity nor the conjugation"


_OFF_POOL_MAPS = {
    "identity": ((), "nondegenerate"),
    "cofactor": ((Cof(),), "nondegenerate"),
    "detscale-id": ((DetScale(_x(1)),), "degenerate"),
    "det-cube-to-2x2": ((TrivialDet((_x(3), _x(3)), 0, 0),), "trivial"),
}


@pytest.mark.parametrize("d", [-7, -3, -2, -1, 2, 3, 5, 6, 7, 10])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", list(_OFF_POOL_MAPS))
def test_true_maps_classify_over_radicands_off_the_pools(name, n, d):
    # phi is resolved from the pool reads alone, so a true map must pass for
    # every radicand, in the pools (d = -1, 2, 3, 5) or not; all 80 cases
    # take about 2.5 s on a 2-vCPU host
    atoms, kind = _OFF_POOL_MAPS[name]
    fd = quadratic(d)
    rep = classify(MapExpr(n, fd, atoms).as_oracle(), fd, n)
    assert rep.form.kind == kind
    assert_report_matches_its_log(rep)


def test_corrupted_oracles_get_a_refusal_or_a_report_true_to_their_log():
    # the soundness sweep, one seeded replacement per logged input: 381
    # classifications in 2 to 3.5 s on a 2-vCPU host, of 2294 in the full
    # sweep (corruption_cases() with no rng, about 17 s)
    outcomes = [
        (label, sweep_outcome(oracle, fd, n))
        for label, oracle, fd, n in corruption_cases(random.Random(1912))
    ]
    assert len(outcomes) > 300


def test_unit_recovery_checks_the_corank_one_images():
    # the unit path reads phi and R off E_ij probes only; an oracle that lies
    # at I - E_11 alone would otherwise get a report contradicting its own log
    i3 = identity(RATIONAL, 3)
    with pytest.raises(VerificationFailed) as info:
        classify(lambda a: i3 if a == CO1 else a, RATIONAL, 3)
    assert str(info.value) == "corank one image disagrees with the recovered plain form"


def test_transpose_adversary():
    with pytest.raises(NotMultiplicative):
        classify(lambda a: a.transpose(), RATIONAL, 3)


def test_shift_adversary():
    ident = identity(RATIONAL, 3)
    with pytest.raises(NotMultiplicative):
        classify(lambda a: a + ident, RATIONAL, 3)


def _verification_sample(fd, n, seed, index):
    """The invertible final-verification sample number index, drawn as
    _final_verification draws it."""
    rng = random.Random(seed)
    pool = _lam_pool(fd)
    for _ in range(index + 1):
        word = _transvection_triples(rng, fd, n, 8)
    return _word_matrix(fd, n, ((0, pool[index % len(pool)]),), word)


def test_liar_caught_by_final_verification():
    calls = {"n": 0}

    def liar(a):
        calls["n"] += 1
        return a + a if calls["n"] > 40 else a

    with pytest.raises(VerificationFailed):
        classify(liar, RATIONAL, 3)

    # a liar that differs from a true map on one invertible sample only, in
    # every class and on both sides of eps and the hom
    r = int_matrix(RATIONAL, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    r2 = int_matrix(Q2, [[1, 0, 0], [0, 1, 1], [1, 0, 1]]) + sqrt_gen(Q2) * unit_matrix(Q2, 3, 1, 2)
    cases = (
        ("trivial", MapExpr(3, RATIONAL, (TrivialDet((_x(1), _x(-2)), 1, 0),))),
        ("degenerate", MapExpr(3, RATIONAL, (Conj(r), DetScale(_x(2))))),
        ("nondegenerate", MapExpr(3, RATIONAL, (Conj(r),))),
        ("nondegenerate", MapExpr(3, RATIONAL, (Conj(r), Cof()))),
        ("degenerate", MapExpr(3, Q2, (Conj(r2), Cof(), Hom(CONJUGATION_HOM), DetScale(_x(1))))),
    )
    for kind, expr in cases:
        fd, true_map = expr.field, expr.as_oracle()
        report = classify(true_map, fd, 3, seed=5)
        assert report.form.kind == kind
        target = _verification_sample(fd, 3, 5, 23)
        assert any(a == target for a, _ in report.probe_log)

        def one_lie(a):
            out = true_map(a)
            return out + identity(fd, out.n_rows) if a == target else out

        with pytest.raises(VerificationFailed, match="^oracle and recovered form disagree"):
            classify(one_lie, fd, 3, seed=5)


def test_a_form_over_a_hom_table_is_refused_at_construction():
    # an entry map known only at 0 and 1 is no ring homomorphism, so no form
    # is built on it and no verification can ever run one
    table = sampled_hom([(zero(RATIONAL), zero(RATIONAL)), (one(RATIONAL), one(RATIONAL))])
    with pytest.raises(UnregisteredHom, match="^a HomTable is no ring homomorphism$"):
        NonDegenerateForm(RATIONAL, 3, table, identity(RATIONAL, 3), 0)


def test_final_verification_evaluates_the_form_before_asking_the_oracle(monkeypatch):
    r = int_matrix(RATIONAL, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    s3 = int_matrix(RATIONAL, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    cases = (
        (NonDegenerateForm(RATIONAL, 3, IDENTITY_HOM, r, 1), s3),
        (DegenerateForm(RATIONAL, 3, _x(2), IDENTITY_HOM, r, 0), identity(RATIONAL, 3)),
        (TrivialForm(RATIONAL, 3, (_x(1),), 1, 0), int_matrix(RATIONAL, [[1, 1], [0, 2]])),
    )

    def unevaluable(*args):
        raise UnregisteredHom("no form to evaluate")

    # every sample's expectation comes first, so the oracle is never asked
    monkeypatch.setattr(classify_module, "_reported_map", lambda form, s: unevaluable)
    for form, s_total in cases:
        session = Session(lambda a: a + a, RATIONAL, 3)
        with pytest.raises(UnregisteredHom, match="^no form to evaluate$"):
            _final_verification(session, s_total, form, RATIONAL, 3, seed=7)
        assert session.log == []


class _RecordingSession:
    """Answers every probe with the probe itself, and keeps every probe,
    repeats included."""

    def __init__(self):
        self.inputs = []

    def call(self, a):
        self.inputs.append(a)
        return a


@pytest.mark.parametrize("fd", [RATIONAL, Q2], ids=["rational", "d=2"])
def test_singular_samples_are_products_of_two_gl_draws(fd):
    # built by row operations on G2, each singular sample is still
    # G1 diag(I_r, 0) G2 for G1 and G2 drawn by random_gl, in that order
    # seed 1 draws every rank 0..n-1 over both fields
    n, seed = 4, 1
    ident = identity(fd, n)
    session = _RecordingSession()
    _final_verification(session, ident, NonDegenerateForm(fd, n, IDENTITY_HOM, ident, 0), fd, n, seed)
    rng = random.Random(seed)
    for _ in range(VERIFY_INVERTIBLE):
        _transvection_triples(rng, fd, n, 8)
    z = zero(fd)
    expected = []
    for _ in range(VERIFY_SINGULAR):
        r = rng.randrange(0, n)
        g1, g2 = random_gl(rng, fd, n), random_gl(rng, fd, n)
        expected.append(Matrix(fd, [row[:r] + (z,) * (n - r) for row in g1.rows]) * g2)
    assert session.inputs[VERIFY_INVERTIBLE:] == expected
    assert {a.rank for a in expected} == set(range(n))


def test_entry_map_tables_fit_the_identity_or_the_conjugation_only():
    s, o = sqrt_gen(Q2), one(Q2)
    two, three = as_elem(Q2, 2), as_elem(Q2, 3)
    assert _resolve_hom(Q2, {o: o, s: s}).kind == "id"
    assert _resolve_hom(Q2, {o: o, s: -s}).kind == "conj"
    for table in ({o: o, two: three}, {s: s, o + s: o - s}):
        with pytest.raises(NotMultiplicative):
            _resolve_hom(Q2, table)
    with pytest.raises(NotMultiplicative):
        _resolve_hom(RATIONAL, {one(RATIONAL): -one(RATIONAL)})


def test_pattern_reader_returns_free_entries_and_names_the_law():
    image = int_matrix(RATIONAL, [[1, 7, 0], [0, 1, 0], [5, 0, 1]])
    ident = identity(RATIONAL, 3)
    assert _read(image, ident, [(2, 0), (0, 1)], "law") == [
        as_elem(RATIONAL, 5),
        as_elem(RATIONAL, 7),
    ]
    with pytest.raises(NotMultiplicative, match="transvection law"):
        _read(image, ident, [(0, 1)], "transvection law")


def test_inconsistent_output_size():
    flip = {"v": False}

    def oracle(a):
        flip["v"] = not flip["v"]
        return identity(RATIONAL, 2) if flip["v"] else identity(RATIONAL, 1)

    with pytest.raises(NotMultiplicative):
        classify(oracle, RATIONAL, 3)


# -- guards, budget, determinism -------------------------------------------------


def test_dimension_guards():
    with pytest.raises(UnsupportedDimension):
        classify(lambda a: a, RATIONAL, 1)
    with pytest.raises(UnsupportedDimension):
        normalize_idempotents(lambda a: a, RATIONAL, 1)
    with pytest.raises(UnsupportedDimension):
        classify(lambda a: identity(RATIONAL, 4), RATIONAL, 3)
    for n in (0, -3):
        with pytest.raises(UnsupportedDimension):
            classify(lambda a: a, RATIONAL, n)
    # an n of another type is refused by name before the budget reads it
    for n in ("2", 2.0, True):
        with pytest.raises(DimensionMismatch, match=f"^classification needs an int n, got {n!r}$"):
            classify(lambda a: a, RATIONAL, n)
    with pytest.raises(FieldMismatch, match="^classification needs a FieldDescriptor field$"):
        normalize_idempotents(lambda a: a, "rational", 2)


@pytest.mark.parametrize("seed", [None, "x", 1.5, True, [1]])
def test_a_seed_that_is_no_int_is_refused_before_any_probe(seed):
    probes = []

    def oracle(a):
        probes.append(a)
        return a

    with pytest.raises(ParseError, match=f"^classify seed must be an int, got {re.escape(repr(seed))}$"):
        classify(oracle, RATIONAL, 2, seed=seed)
    assert probes == []


def test_session_budget_and_memo():
    count = {"n": 0}

    def oracle(a):
        count["n"] += 1
        return a

    sess = Session(oracle, RATIONAL, 2)
    probe = int_matrix(RATIONAL, [[1, 5], [0, 1]])
    sess.call(probe)
    sess.call(probe)
    assert count["n"] == 1  # memo hit does not reach the oracle
    with pytest.raises(OracleBudgetExceeded):
        for t in range(300):
            sess.call(int_matrix(RATIONAL, [[1, t], [0, 1]]))
    assert len(sess.log) == 10 * 4 + 200


def test_seed_independence_and_probe_determinism():
    expr = MapExpr(3, RATIONAL, (DetScale(ScalarCharacter((("id", 2),))),))
    reports = [classify(expr.as_oracle(), RATIONAL, 3, seed=s) for s in (0, 1, 2)]
    assert canonical_eq(reports[0].form, reports[1].form)
    assert canonical_eq(reports[1].form, reports[2].form)
    again = classify(expr.as_oracle(), RATIONAL, 3, seed=0)
    assert [(a.rows, b.rows) for a, b in again.probe_log] == [
        (a.rows, b.rows) for a, b in reports[0].probe_log
    ]


def test_report_doc_shape():
    expr = MapExpr(3, RATIONAL, ())
    doc = classify(expr.as_oracle(), RATIONAL, 3).to_doc()
    assert set(doc) == {
        "class",
        "n",
        "k",
        "field",
        "s",
        "l",
        "preConjugator",
        "chars",
        "zeroPad",
        "onePad",
        "phi",
        "lambda",
        "eps",
        "R",
        "homTable",
        "lambdaTable",
        "probeLog",
    }
    assert doc["class"] == "nondegenerate"
    assert doc["chars"] is None and doc["zeroPad"] is None and doc["onePad"] is None
    assert doc["lambda"] is None
    assert doc["eps"] == "plain"
    # the identity map goes through the matrix-unit branch: entry probes are
    # recorded, determinant probes never happen
    assert ["1", "1"] in doc["homTable"]
    assert doc["lambdaTable"] is None
    assert isinstance(doc["probeLog"], list)
    for pair in doc["probeLog"]:
        assert len(pair) == 2
        assert all(isinstance(row[0], str) for row in pair[0])
        assert all(isinstance(row[0], str) for row in pair[1])

    char = ScalarCharacter((("id", 3),))
    expr = MapExpr(3, RATIONAL, (TrivialDet((char, char), 0, 0),))
    doc = classify(expr.as_oracle(), RATIONAL, 3).to_doc()
    assert doc["class"] == "trivial"
    assert doc["phi"] is None and doc["lambda"] is None and doc["R"] is None
    assert doc["homTable"] is None and doc["lambdaTable"] is None
    assert doc["chars"] == [[{"phi": "id", "pow": 3}], [{"phi": "id", "pow": 3}]]

    expr = MapExpr(3, RATIONAL, (DetScale(ScalarCharacter((("id", 1),))),))
    doc = classify(expr.as_oracle(), RATIONAL, 3).to_doc()
    assert doc["class"] == "degenerate"
    assert ["2", "2"] in doc["lambdaTable"]


def test_normalize_idempotents_public():
    char = ScalarCharacter((("id", 1),))
    inner = MapExpr(3, RATIONAL, (TrivialDet((char,), 1, 1),))
    s0 = int_matrix(RATIONAL, [[1, 0, 1], [2, 1, 0], [0, 0, 1]])
    s0_inv = s0.inverse()
    s_mat, s, l = normalize_idempotents(
        lambda a: s0_inv * inner.evaluate(a) * s0, RATIONAL, 3
    )
    assert (s, l) == (1, 1)
    # S splits the images of 0 and I into the canonical projector pair
    p_zero = s0_inv * inner.evaluate(zeros(RATIONAL, 3)) * s0
    assert s_mat.inverse() * p_zero * s_mat == int_matrix(
        RATIONAL, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    )


# -- pinned reports -------------------------------------------------


def report_corpus():
    """(name, oracle, field, n, seed) for oracles that together reach every
    branch of classify: l = 0, both trivial branches, the matrix unit
    branch, the cofactor rank ladder and the degenerate branch."""
    yield "zero-map", lambda a: zeros(RATIONAL, 3), RATIONAL, 3, 7
    yield "constant-identity", lambda a: identity(RATIONAL, 3), RATIONAL, 3, 7
    for name, n, fd, atoms in (
        ("det-cube-pair", 3, RATIONAL, (TrivialDet((_x(3), _x(3)), 0, 0),)),
        ("det-full-block", 3, RATIONAL, (TrivialDet((_x(3), _x(2), _x(3)), 0, 0),)),
        ("identity-q2", 3, Q2, ()),
        ("conj-hom-q2", 3, Q2, (Hom(CONJUGATION_HOM),)),
        ("cofactor-n2", 2, RATIONAL, (Cof(),)),
        ("cofactor-n3", 3, RATIONAL, (Cof(),)),
        ("det-square-n2", 2, RATIONAL, (DetScale(_x(2)),)),
        ("det-square-n3", 3, RATIONAL, (DetScale(_x(2)),)),
        ("det-square-cof-q2", 3, Q2, (DetScale(_x(2)), Cof())),
    ):
        yield name, MapExpr(n, fd, atoms).as_oracle(), fd, n, 7
    rng = random.Random(606)
    for t in range(20):
        expr = random_mapexpr(rng, Q2, 3, max_depth=5)
        yield f"random-{t}", expr.as_oracle(), Q2, 3, t
    # padded determinant maps seen through a dense basis change B, so that
    # the split basis S is not the identity
    c21 = ScalarCharacter((("id", 2), ("conj", 1)))
    for name, fd, chars, z_pad, s_pad, b in (
        ("basis-det-q", RATIONAL, (_x(3), _x(2)), 1, 0, [[1, 2, 0], [1, 3, 1], [0, 1, 2]]),
        ("basis-det-q-short", RATIONAL, (_x(1),), 0, 1, [[2, 1], [1, 1]]),
        ("basis-det-q2", Q2, (c21,), 1, 1, [[1, 1, 0], [0, 1, 1], [1, 0, 2]]),
        ("basis-det-q2-short", Q2, (_x(2), c21), 0, 0, [[1, -1], [2, 1]]),
    ):
        yield name, _conjugated(MapExpr(3, fd, (TrivialDet(chars, z_pad, s_pad),)), b), fd, 3, 7


def _conjugated(expr, b_rows):
    """A -> B expr(A) B^-1 for the integer matrix B."""
    b = int_matrix(expr.field, b_rows)
    b_inv = b.inverse()
    return lambda a: b * expr.evaluate(a) * b_inv


# sha256 of json.dumps(report.to_doc(), sort_keys=True), probe log included,
# recorded before the classifier's pattern readers and law checks were folded
REPORT_SHA256 = {
    "zero-map": "8bfd97bb40db6522e908b4d73a9b589d291dbdcd9f90072802c6d57e1ea677a6",
    "constant-identity": "62886832a6c980c8962cf3feff3ed6978ee9555b72f67d2953d14be0173e09d4",
    "det-cube-pair": "9d69baab008cc54796df78c667aa29042b43f25ac7d7a63288faf26e877d3285",
    "det-full-block": "e1d0e447e2206ddf20f780c10ad4e8f291b365f74d9cfa681ac3f3e0f0b4de6a",
    "identity-q2": "299c8e18371bd9e967283478d05504e05d755a6c10e9a5c8386ec25eacc18f0b",
    "conj-hom-q2": "300fdf138c3857f585aedd5c0c4937deac9b7355428b76da7ce05e20b4d72521",
    "cofactor-n2": "7b61a007367afa93893f92cbd6174ce0f49c52ea06d40b74dcde6cd1e50db8d3",
    "cofactor-n3": "2afe5d6fa0d21e1a4f6afc4b997d964f85003d419cf423144577f01169729d04",
    "det-square-n2": "c479666f9fb898c6c4aecbdb482628809d783f24a6c9c5ba4d75c0ab9848a627",
    "det-square-n3": "60efe967b75ee519e268de01feaa67c059b097b83c959a9933e46476f688ecf6",
    "det-square-cof-q2": "a41175d99ee00d209f13c164f26881bda75b8af1d8a00b62b7a408b657a6c0f7",
    "random-0": "ec191d0e3dcda08a8f1be2c4fc91bdbe3e49a6a86fc2ecefd434a56ecb113bb2",
    "random-1": "c344a0ea000fcce7f7ad7f96e4dc3a8da888c455e09946d80af88016a49b8ad3",
    "random-2": "84048e7da75616368b5b78bbda07e7aabd86a00a8e0e393104b95471c39b88c9",
    "random-3": "5a3c4207ace516ed7031d4df15a30d1172d842111874a436322dbe6f1290379a",
    "random-4": "69d17da21c3ebdc4a35ee11bbc5f1daea7ab6908f488d839328a9de9880a0e67",
    "random-5": "ac2b96256562c418424e6490ab576f0794cc3a1ced9b72e5a514d5158b32ec09",
    "random-6": "4e69be0f49f535ba7b82fc04963d7793b8cc414df0c7d8ffb51f0d3901ac7b7e",
    "random-7": "b4d9136718144cf9fb84894f8118fc96594c99348740d2ede671c31f6f24e720",
    "random-8": "4607bc8d85cdd385f939b105673472101cdebbf4a3dcb1c66dc096f667a51a78",
    "random-9": "e75b5f8d94a5dfef2560f9b3e0a0881296fe445d1739cc7123d23a9e1b9222f0",
    "random-10": "e41b79dee5dc11697e8b048bda4f7aba79de64e2c2143713b0e442301e982e11",
    "random-11": "fb898cc2606cb6a6eaef4123e47183d6541015d1e15aa922794c6894f74a7df7",
    "random-12": "6bfaafc8fdc177c97d47171922295ac1cbef92c252c7cd697a499a5a76ab1129",
    "random-13": "4321cd863ab103529e03516b1a69bfd91c0f24fe08fe48e250c8e8963913a9ef",
    "random-14": "2ab6a35aa91652ff376f92d135fecb42cb069eea5e0c8f11dfea7afc32503e4f",
    "random-15": "f6b794f800143ddf7086a9b2a80501b111fcfbdb15ebf589defc46ae960a9865",
    "random-16": "f28d9e20546d5b36ef4d2abe9b5e4dcacf3dff937e7afe95e5273191727c4ede",
    "random-17": "dc3fa6e35a35d8e434a9b34e9327a1520a54b90e4e79c33e52f044e4d4cd67a2",
    "random-18": "ec80933c9775a1194b60b994f2c7c026d75f64205c4158cee5b8abcde756469e",
    "random-19": "e856f0b183b785a34fadcf7071d3547db6118757d47ffd8cf178f477c74a2f00",
    # recorded before identity conjugations were skipped; S != I in each
    "basis-det-q": "68fea6691b1da7b6615ba1d64f3ebc209528683966c18625fe3e8faff414e630",
    "basis-det-q-short": "f473b83a2773df181ac18f6542219e1b7f481dd7fe30f50ad42e08efa4a11eef",
    "basis-det-q2": "a4d288d96d32a019fcf2b9e021ee31b3a3d1ebd492b37e2a43f1ca550c99aa83",
    "basis-det-q2-short": "71b8e0390c49f1d115fbd19f99036cc8d80d69f7f34b4615a7cb9ba29036b962",
}


def test_whole_reports_are_pinned():
    digests = {}
    for name, oracle, fd, n, seed in report_corpus():
        report = classify(oracle, fd, n, seed=seed)
        assert_report_matches_its_log(report)
        doc = report.to_doc()
        digests[name] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digests == REPORT_SHA256


def test_every_nontrivial_pinned_report_has_no_pre_conjugator():
    # a degenerate or nondegenerate report has l = n, which forces k = n,
    # Phi(0) = 0 and Phi(I) = I, and split_idempotent_pair returns S = I for
    # the pair (0, I): the S-sandwich of the reported map is two identity
    # short-circuits around the form
    kinds = set()
    for name, oracle, fd, n, seed in report_corpus():
        report = classify(oracle, fd, n, seed=seed)
        if report.form.kind != "trivial":
            assert report.pre_conjugator.is_identity, name
            kinds.add(report.form.kind)
    assert kinds == {"degenerate", "nondegenerate"}


def _acceptance_reports(criterion: str):
    """The reports that acceptance criterion c06, c08 or c11 classifies,
    rebuilt from the same seeds in the same draw order as
    tests/test_acceptance.py, which this test leaves as it is."""
    if criterion in ("c06", "c08"):
        rng, fd, count = (
            (random.Random(606), Q2, 100) if criterion == "c06" else (random.Random(808), RATIONAL, 50)
        )
        for trial in range(count):
            expr = random_mapexpr(rng, fd, 3, max_depth=5)
            yield classify(expr.as_oracle(), fd, 3, seed=trial)
        return
    rng, n = random.Random(1111), 3
    for trial in range(50):
        k = rng.randint(1, n)
        l = rng.randint(0, k)
        z = rng.randint(0, k - l)
        chars = tuple(ScalarCharacter((("id", rng.randint(-4, 4)),)) for _ in range(l))
        inner = MapExpr(n, RATIONAL, (TrivialDet(chars, z, k - l - z),))
        s0 = rand_invertible(rng, RATIONAL, k, span=2)
        s0_inv = s0.inverse()
        yield classify(lambda a: s0_inv * inner.evaluate(a) * s0, RATIONAL, n, seed=trial)


@pytest.mark.parametrize("criterion, count", [("c06", 100), ("c08", 50), ("c11", 50)])
def test_acceptance_reports_match_their_logs(criterion, count):
    reports = list(_acceptance_reports(criterion))
    assert len(reports) == count
    for report in reports:
        assert_report_matches_its_log(report)


def test_probe_budget_headroom():
    # every named branch finishes with room to spare
    for expr in (
        MapExpr(3, RATIONAL, ()),
        MapExpr(3, RATIONAL, (Cof(),)),
        MapExpr(3, RATIONAL, (DetScale(ScalarCharacter((("id", 1),))),)),
        MapExpr(3, RATIONAL, (TrivialDet((ScalarCharacter((("id", 3),)),), 1, 1),)),
    ):
        rep = classify(expr.as_oracle(), RATIONAL, 3)
        assert len(rep.probe_log) < 10 * 9 + 200
