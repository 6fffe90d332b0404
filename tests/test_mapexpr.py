"""Map expressions: atom semantics, exact simplification, canonical forms."""

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
    ParseError,
    SingularConjugator,
    UnregisteredHom,
)
from multmap.field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    RATIONAL,
    FieldElem,
    RingHom,
    as_elem,
    hom_apply,
    quadratic,
    sampled_hom,
    sqrt_gen,
)
from multmap.mapexpr import (
    Cof,
    Conj,
    DegenerateForm,
    DetScale,
    Hom,
    MapExpr,
    NonDegenerateForm,
    ScalarCharacter,
    TrivialDet,
    TrivialForm,
    canonical_eq,
    char_of_hom,
    identity_expr,
    simplify,
)
from multmap.matrix import MAX_SIZE, Matrix, _word_matrix, identity, unit_matrix, zeros
from multmap.slword import _transvection_triples

from helpers import (
    int_matrix,
    rand_elem,
    rand_invertible,
    rand_matrix,
    rand_singular,
    random_mapexpr,
    ref_cofactor,
    ref_evaluate,
)

Q2 = quadratic(2)
X = ScalarCharacter((("id", 1),))


def test_character_normalization_and_ops():
    c = ScalarCharacter((("id", 2), ("id", -2), ("conj", 3)))
    assert c.factors == (("conj", 3),)
    assert c.power(0).is_empty
    assert c.multiply(ScalarCharacter((("conj", -3),))).is_empty
    two = as_elem(Q2, 2)
    assert X.evaluate(two) == two
    assert ScalarCharacter((("id", -2),)).evaluate(two) == as_elem(Q2, 2) ** -2


def test_character_composition():
    # (id^2 conj) o (conj^3) = conj^6 id^3
    outer = ScalarCharacter((("id", 2), ("conj", 1)))
    inner = ScalarCharacter((("conj", 3),))
    composed = outer.compose_char(inner)
    assert composed == ScalarCharacter((("conj", 6), ("id", 3)))
    x = as_elem(Q2, 1) + as_elem(Q2, 2) * sqrt_gen(Q2)
    assert composed.evaluate(x) == outer.evaluate(inner.evaluate(x))


def test_conj_atom_evaluation():
    r = int_matrix(RATIONAL, [[1, 1], [0, 1]])
    expr = MapExpr(2, RATIONAL, (Conj(r),))
    e12 = unit_matrix(RATIONAL, 2, 1, 2)
    assert expr.evaluate(e12) == r.inverse() * e12 * r


def test_detscale_zero_on_singular():
    expr = MapExpr(2, RATIONAL, (DetScale(X),))
    a = int_matrix(RATIONAL, [[1, 2], [3, 4]])
    assert expr.evaluate(a) == a.det * a
    assert expr.evaluate(int_matrix(RATIONAL, [[1, 1], [1, 1]])) == zeros(RATIONAL, 2)


def test_trivialdet_evaluation():
    t = TrivialDet((X, X.power(2)), 1, 1)
    expr = MapExpr(2, RATIONAL, (t,))
    a = int_matrix(RATIONAL, [[2, 0], [0, 3]])
    assert expr.evaluate(a) == int_matrix(
        RATIONAL,
        [[6, 0, 0, 0], [0, 36, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
    )
    singular = int_matrix(RATIONAL, [[1, 1], [1, 1]])
    assert expr.evaluate(singular) == int_matrix(
        RATIONAL,
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
    )


def test_hom_atom_entrywise():
    s = sqrt_gen(Q2)
    expr = MapExpr(2, Q2, (Hom(CONJUGATION_HOM),))
    a = identity(Q2, 2).scale(as_elem(Q2, 1) + s)
    assert expr.evaluate(a) == identity(Q2, 2).scale(as_elem(Q2, 1) - s)


def test_expressions_are_multiplicative():
    rng = random.Random(42)
    r = rand_invertible(rng, Q2, 3)
    expr = MapExpr(3, Q2, (DetScale(X), Conj(r), Cof(), Hom(CONJUGATION_HOM)))
    for _ in range(6):
        a = rand_matrix(rng, Q2, 3, span=2)
        b = rand_matrix(rng, Q2, 3, span=2)
        assert expr.evaluate(a * b) == expr.evaluate(a) * expr.evaluate(b)


def test_validation_rules():
    with pytest.raises(DimensionMismatch, match="^a padded determinant map cannot be composed"):
        MapExpr(2, RATIONAL, (TrivialDet((X,), 0, 0), Cof()))
    with pytest.raises(SingularConjugator, match="^conjugator must be invertible$"):
        MapExpr(2, RATIONAL, (Conj(int_matrix(RATIONAL, [[1, 1], [1, 1]])),))
    with pytest.raises(FieldMismatch, match="^conjugation hom over a rational field$"):
        MapExpr(2, RATIONAL, (Hom(CONJUGATION_HOM),))
    with pytest.raises(DimensionMismatch, match="^cofactor atom needs n >= 2$"):
        MapExpr(1, RATIONAL, (Cof(),))
    with pytest.raises(FieldMismatch, match="^conjugation character over a rational field$"):
        MapExpr(2, RATIONAL, (DetScale(ScalarCharacter((("conj", 1),))),))
    with pytest.raises(DimensionMismatch, match="^conjugator must be n x n$"):
        MapExpr(3, RATIONAL, (Conj(identity(RATIONAL, 2)),))
    with pytest.raises(DimensionMismatch, match="^maps need n >= 1$"):
        MapExpr(0, RATIONAL, ())
    with pytest.raises(DimensionMismatch, match="^padding sizes must be nonnegative$"):
        MapExpr(2, RATIONAL, (TrivialDet((), -1, 2),))
    with pytest.raises(DimensionMismatch, match="^padded determinant map needs k >= 1$"):
        MapExpr(2, RATIONAL, (TrivialDet((), 0, 0),))
    with pytest.raises(ParseError, match="^unknown atom 'cof'$"):
        MapExpr(2, RATIONAL, ["cof"])
    with pytest.raises(UnregisteredHom, match="^character over unknown hom 'frob'$"):
        ScalarCharacter((("frob", 1),))
    # a list of atoms is kept as a tuple, and a character is kept canonical
    assert MapExpr(2, RATIONAL, [Cof()]).atoms == (Cof(),)
    assert ScalarCharacter((("conj", 1), ("id", 2), ("conj", -1))).factors == (("id", 2),)


def test_simplify_identity():
    form = simplify(identity_expr(RATIONAL, 3))
    assert isinstance(form, NonDegenerateForm)
    assert form.phi == IDENTITY_HOM
    assert form.eps == 0
    assert form.R == identity(RATIONAL, 3)


def test_simplify_cof_cof_n2_is_identity():
    form = simplify(MapExpr(2, RATIONAL, (Cof(), Cof())))
    assert isinstance(form, NonDegenerateForm)
    assert form.eps == 0
    assert form.phi == IDENTITY_HOM
    assert form.R == identity(RATIONAL, 2)


def test_simplify_cof_cof_n3_is_det_scale():
    form = simplify(MapExpr(3, RATIONAL, (Cof(), Cof())))
    assert isinstance(form, DegenerateForm)
    assert form.lam == X
    assert form.eps == 0
    assert form.phi == IDENTITY_HOM
    # and the fold is honest about singulars: C(C(A)) = det(A) A everywhere
    a = int_matrix(RATIONAL, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.rank == 2
    assert a.cofactor().cofactor() == zeros(RATIONAL, 3)
    assert form.evaluate(a) == zeros(RATIONAL, 3)


def test_simplify_conj_sandwich_cancels_homs():
    form = simplify(MapExpr(2, Q2, (Hom(CONJUGATION_HOM), Cof(), Hom(CONJUGATION_HOM))))
    assert isinstance(form, NonDegenerateForm)
    assert form.phi == IDENTITY_HOM
    assert form.eps == 1
    assert form.R == identity(Q2, 2)


def test_simplify_double_detscale_frozen():
    form = simplify(MapExpr(2, RATIONAL, (DetScale(X), DetScale(X))))
    assert isinstance(form, DegenerateForm)
    assert form.lam == X.power(4)


def test_simplify_empty_detscale_is_degenerate_identity():
    form = simplify(MapExpr(2, RATIONAL, (DetScale(ScalarCharacter()),)))
    assert isinstance(form, DegenerateForm)
    assert form.lam.is_empty
    a = int_matrix(RATIONAL, [[1, 2], [3, 4]])
    assert form.evaluate(a) == a
    assert form.evaluate(int_matrix(RATIONAL, [[1, 1], [1, 1]])) == zeros(RATIONAL, 2)


def test_simplify_trivialdet_passthrough():
    t = TrivialDet((X,), 2, 0)
    form = simplify(MapExpr(3, RATIONAL, (t,)))
    assert isinstance(form, TrivialForm)
    assert form.chars == (X,)
    assert (form.zero_pad, form.one_pad) == (2, 0)


@pytest.mark.parametrize("fd", [RATIONAL, Q2])
@pytest.mark.parametrize("n", [2, 3])
def test_simplify_preserves_evaluation(fd, n):
    rng = random.Random(900 + n + (0 if fd is RATIONAL else 1))
    for _ in range(12):
        expr = random_mapexpr(rng, fd, n, max_depth=4)
        form = simplify(expr)
        for _ in range(4):
            a = rand_invertible(rng, fd, n, span=2)
            assert form.evaluate(a) == expr.evaluate(a)
        for _ in range(2):
            a = rand_singular(rng, fd, n)
            assert form.evaluate(a) == expr.evaluate(a)


def _drawn_atom(rng, fd, n, kind):
    if kind == "conj":
        return Conj(rand_invertible(rng, fd, n, span=2))
    if kind == "cof":
        return Cof()
    if kind == "hom":
        return Hom(CONJUGATION_HOM if fd.is_quadratic and rng.random() < 0.5 else IDENTITY_HOM)
    factors = [("id", rng.randint(-1, 1))]
    if fd.is_quadratic:
        factors.append(("conj", rng.randint(-1, 1)))
    if kind == "detscale":
        return DetScale(ScalarCharacter(tuple(factors)))
    return TrivialDet((ScalarCharacter(tuple(factors)),), rng.randint(0, 1), rng.randint(0, 1))


def _drawn_input(rng, fd, n, rank, word):
    """A fresh input of this rank; at full rank, optionally one that
    carries a generator word, as the final-verification samples do."""
    if rank < n:
        return Matrix(fd, rand_singular(rng, fd, n, rank).rows)
    if not word:
        return Matrix(fd, rand_invertible(rng, fd, n, span=2).rows)
    x = rand_elem(rng, fd, 2)
    while x.is_zero:
        x = rand_elem(rng, fd, 2)
    return _word_matrix(fd, n, x, _transvection_triples(rng, fd, n, 6))


@settings(max_examples=300, deadline=None)
@given(
    fd=st.sampled_from((RATIONAL, Q2, quadratic(-1))),
    n=st.integers(2, 6),
    kinds=st.one_of(
        st.lists(st.sampled_from(("conj", "cof", "hom", "detscale")), min_size=1, max_size=5),
        st.just(["trivialdet"]),
    ),
    rank=st.integers(0, 6),
    word=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_evaluate_and_forms_match_the_atom_by_atom_fold(fd, n, kinds, rank, word, seed):
    # evaluate applies the Cof atoms to the input first and conjugates by
    # C^k(R); the fold applies every atom in its order to the value before
    rng = random.Random(seed)
    expr = MapExpr(n, fd, tuple(_drawn_atom(rng, fd, n, kind) for kind in kinds))
    a = _drawn_input(rng, fd, n, min(rank, n), word)
    expected = ref_evaluate(expr, Matrix(fd, a.rows))
    assert expr.evaluate(a) == expected
    # a second evaluation reads the cofactor the input kept, or under a
    # DetScale atom the zero determinant it now carries
    assert expr.evaluate(a) == expected
    form = simplify(expr)
    assert form.evaluate(a) == expected
    if isinstance(form, TrivialForm):
        return
    # the form takes phi(C^eps(A)), of the input itself; its definition is
    # R^-1 C^eps(phi(A)) R, scaled by lam(det A) and zero on singulars when
    # degenerate
    b = Matrix(fd, a.rows)
    core = b.conjugate() if form.phi.kind == "conj" else b
    if form.eps:
        core = ref_cofactor(core)
    core = form.R.inverse() * core * form.R
    if isinstance(form, DegenerateForm):
        d = b.det
        core = zeros(fd, n) if d.is_zero else form.lam.evaluate(d) * core
    assert form.evaluate(a) == core == expected


def test_compose_matches_pointwise():
    rng = random.Random(77)
    f = MapExpr(3, RATIONAL, (Cof(),))
    g = MapExpr(3, RATIONAL, (Conj(rand_invertible(rng, RATIONAL, 3)), DetScale(X)))
    h = MapExpr(3, RATIONAL, f.atoms + g.atoms)
    for _ in range(5):
        a = rand_matrix(rng, RATIONAL, 3, span=2)
        assert h.evaluate(a) == f.evaluate(g.evaluate(a))
    assert simplify(h).kind == "degenerate"


def test_compose_rejects_shape_mismatch():
    # a padded map lands in another size than it reads, so composing any
    # atom onto it fails at construction, whatever the outer size
    t = TrivialDet((X,), 1, 1)
    for n in (2, 3):
        with pytest.raises(DimensionMismatch, match="^a padded determinant map cannot be composed"):
            MapExpr(n, RATIONAL, (Cof(), t))


def test_evaluate_and_compose_refuse_operands_off_the_domain():
    f = MapExpr(2, RATIONAL, (Cof(),))
    with pytest.raises(FieldMismatch, match="^input over the wrong field$"):
        f.evaluate(identity(Q2, 2))
    for a in (identity(RATIONAL, 3), int_matrix(RATIONAL, [[1, 2]])):
        with pytest.raises(DimensionMismatch, match="^input must be 2 x 2$"):
            f.evaluate(a)
    with pytest.raises(FieldMismatch, match="^conjugator over the wrong field$"):
        MapExpr(2, Q2, (Cof(), Conj(identity(RATIONAL, 2))))


def test_r_forms_refuse_a_hom_or_an_eps_they_cannot_represent():
    i2 = identity(RATIONAL, 2)
    x = ScalarCharacter((("id", 1),))
    table = sampled_hom([(as_elem(RATIONAL, 2), as_elem(RATIONAL, 2))])
    builds = (
        lambda phi, eps: NonDegenerateForm(RATIONAL, 2, phi, i2, eps),
        lambda phi, eps: DegenerateForm(RATIONAL, 2, x, phi, i2, eps),
    )
    assert issubclass(IndexOutOfRange, MultmapError)
    for build in builds:
        with pytest.raises(UnregisteredHom, match="^a HomTable is no ring homomorphism$"):
            build(table, 0)
        with pytest.raises(FieldMismatch, match="^conjugation hom applies to quadratic fields only$"):
            build(CONJUGATION_HOM, 0)
        for eps in (7, -1, 2, "1", None):
            with pytest.raises(IndexOutOfRange, match="^cofactor exponent eps must be 0 or 1, got "):
                build(IDENTITY_HOM, eps)
        assert build(IDENTITY_HOM, 1).eps == 1


def test_expressions_and_forms_refuse_the_same_bad_arguments():
    i2 = identity(RATIONAL, 2)
    conjugator_builds = (
        lambda r: MapExpr(2, RATIONAL, (Conj(r),)),
        lambda r: NonDegenerateForm(RATIONAL, 2, IDENTITY_HOM, r, 0),
        lambda r: DegenerateForm(RATIONAL, 2, X, IDENTITY_HOM, r, 1),
    )
    bad_conjugators = (
        ("x", DimensionMismatch, "conjugator must be a matrix"),
        (identity(Q2, 2), FieldMismatch, "conjugator over the wrong field"),
        (identity(RATIONAL, 3), DimensionMismatch, "conjugator must be n x n"),
        (int_matrix(RATIONAL, [[1, 1], [1, 1]]), SingularConjugator, "conjugator must be invertible"),
    )
    character_builds = (
        lambda c: MapExpr(2, RATIONAL, (DetScale(c),)),
        lambda c: MapExpr(2, RATIONAL, (TrivialDet((c,), 0, 0),)),
        lambda c: DegenerateForm(RATIONAL, 2, c, IDENTITY_HOM, i2, 0),
        lambda c: TrivialForm(RATIONAL, 2, (c,), 0, 0),
    )
    bad_characters = (
        ("x", UnregisteredHom, "determinant characters must be ScalarCharacters"),
        (char_of_hom(CONJUGATION_HOM), FieldMismatch, "conjugation character over a rational field"),
    )
    pad_builds = (
        lambda pads: MapExpr(2, RATIONAL, (TrivialDet((X,), *pads),)),
        lambda pads: TrivialForm(RATIONAL, 2, (X,), *pads),
    )
    bad_pads = (
        (("1", 0), DimensionMismatch, "padding sizes must be integers"),
        ((0, 1.0), DimensionMismatch, "padding sizes must be integers"),
        ((True, 0), DimensionMismatch, "padding sizes must be integers"),
        ((-1, 2), DimensionMismatch, "padding sizes must be nonnegative"),
        ((0, -1), DimensionMismatch, "padding sizes must be nonnegative"),
    )
    domain_builds = (
        lambda fn: MapExpr(fn[1], fn[0], ()),
        lambda fn: TrivialForm(*fn, (X,), 0, 0),
        lambda fn: DegenerateForm(*fn, X, IDENTITY_HOM, i2, 0),
        lambda fn: NonDegenerateForm(*fn, IDENTITY_HOM, i2, 0),
    )
    bad_domains = (
        (("rational", 2), FieldMismatch, "maps need a FieldDescriptor field"),
        ((None, 2), FieldMismatch, "maps need a FieldDescriptor field"),
        ((RATIONAL, 0), DimensionMismatch, "maps need n >= 1"),
        ((RATIONAL, "2"), DimensionMismatch, "maps need n >= 1"),
        ((RATIONAL, 2.0), DimensionMismatch, "maps need n >= 1"),
        ((RATIONAL, True), DimensionMismatch, "maps need n >= 1"),
    )
    # one check per invariant: an expression and a form refuse alike
    for builds, cases in (
        (conjugator_builds, bad_conjugators),
        (character_builds, bad_characters),
        (pad_builds, bad_pads),
        (domain_builds, bad_domains),
    ):
        for build in builds:
            for arg, error, message in cases:
                with pytest.raises(error) as info:
                    build(arg)
                assert type(info.value) is error and str(info.value) == message
    with pytest.raises(DimensionMismatch, match="^padded determinant map needs k >= 1$"):
        TrivialForm(RATIONAL, 2, (), 0, 0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: MapExpr(2, "Q", (Cof(),)), FieldMismatch, "maps need a FieldDescriptor field"),
        (lambda: MapExpr("2", RATIONAL, ()), DimensionMismatch, "maps need n >= 1"),
        (
            lambda: TrivialForm("Q", 2, (ScalarCharacter((("conj", 1),)),), 0, 0),
            FieldMismatch,
            "maps need a FieldDescriptor field",
        ),
        (lambda: TrivialForm(RATIONAL, "x", (), 1, 0), DimensionMismatch, "maps need n >= 1"),
        (
            lambda: DegenerateForm(None, 2, X, IDENTITY_HOM, identity(RATIONAL, 2), 0),
            FieldMismatch,
            "maps need a FieldDescriptor field",
        ),
        (
            lambda: NonDegenerateForm(RATIONAL, True, IDENTITY_HOM, identity(RATIONAL, 1), 0),
            DimensionMismatch,
            "maps need n >= 1",
        ),
        (lambda: ScalarCharacter((("id", "2"),)), ParseError, "character power must be an integer"),
        (lambda: ScalarCharacter((("id", True),)), ParseError, "character power must be an integer"),
    ],
    ids=[
        "expr-field",
        "expr-n",
        "trivial-field",
        "trivial-n",
        "degenerate-field",
        "nondegenerate-bool-n",
        "character-str-power",
        "character-bool-power",
    ],
)
def test_records_refuse_a_field_n_or_power_they_cannot_represent(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: MapExpr(2, RATIONAL, Cof()),
            "map atoms must be a tuple or list of atoms, got Cof()",
        ),
        (
            lambda: ScalarCharacter((("id", 1, 2),)),
            "character factor must be a (hom, power) pair, got ('id', 1, 2)",
        ),
        (
            lambda: ScalarCharacter(("id",)),
            "character factor must be a (hom, power) pair, got 'id'",
        ),
        (
            lambda: ScalarCharacter("id"),
            "character factors must be a tuple or list of (hom, power) pairs, got 'id'",
        ),
        (
            lambda: TrivialForm(RATIONAL, 2, 5, 0, 0),
            "padded determinant characters must be a tuple or list, got 5",
        ),
        (
            lambda: MapExpr(2, RATIONAL, (TrivialDet(5, 0, 0),)),
            "padded determinant characters must be a tuple or list, got 5",
        ),
    ],
    ids=[
        "expr-atoms-not-a-sequence",
        "character-triple",
        "character-bare-hom",
        "character-str",
        "trivial-chars-int",
        "trivialdet-chars-int",
    ],
)
def test_records_refuse_atoms_and_factors_of_the_wrong_shape(build, message):
    with pytest.raises(ParseError) as info:
        build()
    assert str(info.value) == message


def test_padded_records_store_a_chars_list_as_a_tuple():
    chars = [ScalarCharacter(), X]
    form = TrivialForm(RATIONAL, 2, chars, 0, 0)
    expr = MapExpr(2, RATIONAL, [TrivialDet(chars, 0, 0)])
    chars.append(X)  # the records keep what they were given
    assert form == TrivialForm(RATIONAL, 2, (ScalarCharacter(), X), 0, 0)
    assert expr.atoms[0] == TrivialDet(chars=(ScalarCharacter(), X), zero_pad=0, one_pad=0)
    assert hash(form) == hash(TrivialForm(RATIONAL, 2, (ScalarCharacter(), X), 0, 0))
    assert hash(expr) == hash(MapExpr(2, RATIONAL, (TrivialDet((ScalarCharacter(), X), 0, 0),)))
    assert hash(TrivialDet([X], 1, 0)) == hash(TrivialDet((X,), 1, 0))


def test_canonical_eq_up_to_presentation():
    r1 = int_matrix(RATIONAL, [[2, 0], [0, 2]])
    a = NonDegenerateForm(RATIONAL, 2, IDENTITY_HOM, identity(RATIONAL, 2), 0)
    b = NonDegenerateForm(RATIONAL, 2, IDENTITY_HOM, r1, 0)
    assert canonical_eq(a, b)  # conjugators equal up to scale
    c = NonDegenerateForm(RATIONAL, 2, IDENTITY_HOM, identity(RATIONAL, 2), 1)
    assert not canonical_eq(a, c)
    t1 = TrivialForm(RATIONAL, 2, (X, X.power(2)), 1, 0)
    t2 = TrivialForm(RATIONAL, 2, (X.power(2), X), 1, 0)
    assert canonical_eq(t1, t2)  # character order is immaterial
    assert not canonical_eq(t1, TrivialForm(RATIONAL, 2, (X, X), 1, 0))
    assert not canonical_eq(a, t1)
    shear = int_matrix(RATIONAL, [[1, 1], [0, 1]])
    assert not canonical_eq(a, NonDegenerateForm(RATIONAL, 2, IDENTITY_HOM, shear, 0))
    d1 = DegenerateForm(RATIONAL, 2, X, IDENTITY_HOM, identity(RATIONAL, 2), 0)
    d2 = DegenerateForm(RATIONAL, 2, X.power(2), IDENTITY_HOM, identity(RATIONAL, 2), 0)
    assert not canonical_eq(d1, d2)
    assert canonical_eq(d1, DegenerateForm(RATIONAL, 2, X, IDENTITY_HOM, r1, 0))


def test_expr_doc_round_trip():
    rng = random.Random(31)
    expr = MapExpr(
        2,
        Q2,
        (
            DetScale(ScalarCharacter((("id", 3), ("conj", -1)))),
            Conj(rand_invertible(rng, Q2, 2)),
            Cof(),
            Hom(CONJUGATION_HOM),
        ),
    )
    doc = expr.to_doc()
    assert doc["order"] == "apply-last-first"
    assert MapExpr.from_doc(doc) == expr
    t = MapExpr(3, RATIONAL, (TrivialDet((X,), 1, 2),))
    assert MapExpr.from_doc(t.to_doc()) == t
    h = MapExpr(2, RATIONAL, (Hom(IDENTITY_HOM),))
    assert MapExpr.from_doc(h.to_doc()) == h


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "what"}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "hom", "phi": "sq"}]},
        {"n": 0, "field": {"kind": "rational"}, "atoms": []},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [], "order": "apply-first"},
        {"n": 2, "field": {"kind": "rational"}, "atoms": "cof"},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "detscale", "lambda": [{"phi": "id", "pow": "3"}]}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "detscale", "lambda": {"phi": "id"}}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "detscale", "lambda": ["id"]}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "detscale", "lambda": [{"phi": "frob", "pow": 1}]}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": ["cof"]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "conj", "R": identity(Q2, 2).to_doc()}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "conj", "R": identity(RATIONAL, 3).to_doc()}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "trivialdet", "chars": "id"}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "trivialdet", "chars": [], "zeroPad": -1}]},
    ],
)
def test_expr_doc_rejects_malformed(doc):
    with pytest.raises(ParseError):
        MapExpr.from_doc(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"n": MAX_SIZE + 1, "field": {"kind": "rational"}, "atoms": []},
        {"n": 10**100, "field": {"kind": "rational"}, "atoms": []},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "trivialdet", "chars": [], "zeroPad": MAX_SIZE + 1}]},
        {"n": 2, "field": {"kind": "rational"}, "atoms": [{"atom": "trivialdet", "chars": [], "onePad": 10**100}]},
    ],
    ids=["n", "huge-n", "zeroPad", "huge-onePad"],
)
def test_expr_doc_sizes_past_the_bound_are_refused(doc):
    with pytest.raises(ParseError, match="MAX_SIZE"):
        MapExpr.from_doc(doc)


def test_expr_doc_sizes_at_the_bound_are_read():
    pads = {"atom": "trivialdet", "chars": [], "zeroPad": MAX_SIZE, "onePad": MAX_SIZE}
    expr = MapExpr.from_doc({"n": MAX_SIZE, "field": {"kind": "rational"}, "atoms": [pads]})
    assert expr.n == MAX_SIZE and expr.atoms == (TrivialDet((), MAX_SIZE, MAX_SIZE),)


def test_only_the_two_homs_exist_and_each_lifts_to_its_character():
    with pytest.raises(UnregisteredHom, match="^unknown hom kind 'sampled'$"):
        RingHom("sampled")
    xs = [FieldElem(Q2, a, b) for a, b in ((3, 0), (0, 1), (1, 1), (Fraction(-2, 7), 5))]
    for h in (IDENTITY_HOM, CONJUGATION_HOM):
        for x in xs:
            assert char_of_hom(h).evaluate(x) == hom_apply(h, x)


def test_an_expression_refuses_a_hom_table():
    table = sampled_hom([(as_elem(RATIONAL, 2), as_elem(RATIONAL, 2))])
    with pytest.raises(UnregisteredHom, match="^expression homs must be ring homomorphisms$"):
        MapExpr(2, RATIONAL, (Hom(table),))
