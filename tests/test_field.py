"""Scalar layer: exact arithmetic in Q and Q(sqrt d), homs, and the grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmap.errors import DivisionByZero, FieldMismatch, ParseError, ProbeMiss
from multmap.field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    RATIONAL,
    FieldDescriptor,
    FieldElem,
    as_elem,
    compose_homs,
    format_scalar,
    hom_apply,
    hom_check,
    one,
    parse_scalar,
    quadratic,
    sampled_hom,
    sqrt_gen,
    zero,
)

Q2 = quadratic(2)
QM1 = quadratic(-1)

fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def q2(a, b=0):
    return FieldElem(Q2, Fraction(a), Fraction(b))


@st.composite
def q2_elems(draw):
    return FieldElem(Q2, draw(fractions), draw(fractions))


def test_descriptor_validation():
    with pytest.raises(FieldMismatch):
        quadratic(12)  # 12 = 4 * 3 not squarefree
    with pytest.raises(FieldMismatch):
        quadratic(1)
    with pytest.raises(FieldMismatch):
        quadratic(0)
    assert quadratic(-1).d == -1
    assert quadratic(10).d == 10


def test_rational_add_frozen():
    x = as_elem(RATIONAL, Fraction(1, 2))
    y = as_elem(RATIONAL, Fraction(1, 3))
    assert (x + y).a == Fraction(5, 6)


def test_quadratic_inverse_frozen():
    # (2 + sqrt 2)^-1 = 1 - (1/2) sqrt 2, since (2 + s)(2 - s) = 2
    x = q2(2, 1)
    assert x.inv() == q2(1, Fraction(-1, 2))
    assert x * x.inv() == one(Q2)


def test_negative_radicand_arithmetic():
    i = sqrt_gen(QM1)
    assert i * i == FieldElem(QM1, Fraction(-1))
    assert i.inv() == -i


def test_zero_inverse_raises():
    with pytest.raises(DivisionByZero):
        zero(Q2).inv()


def test_field_mismatch_guard():
    with pytest.raises(FieldMismatch):
        one(RATIONAL) + one(Q2)
    with pytest.raises(FieldMismatch):
        FieldElem(RATIONAL, Fraction(1), Fraction(1))


def test_pow_negative_exponent():
    x = q2(1, 1)
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inv()
    assert x**0 == one(Q2)


@given(q2_elems(), q2_elems(), q2_elems())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(q2_elems())
def test_inverse_law(x):
    if not x.is_zero:
        assert x * x.inv() == one(Q2)


@given(q2_elems(), q2_elems())
def test_conjugation_is_a_hom(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@settings(max_examples=200)
@given(q2_elems())
def test_parse_format_round_trip(x):
    assert parse_scalar(format_scalar(x), Q2) == x


@given(fractions)
def test_rational_round_trip(a):
    x = FieldElem(RATIONAL, a)
    assert parse_scalar(format_scalar(x), RATIONAL) == x


def test_parse_frozen_examples():
    assert parse_scalar("1/2-5/3*s", Q2) == q2(Fraction(1, 2), Fraction(-5, 3))
    assert parse_scalar("-7", RATIONAL) == as_elem(RATIONAL, -7)
    assert parse_scalar("0", Q2) == zero(Q2)
    assert format_scalar(q2(0, 1)) == "0+1*s"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "1/0",
        "1+2",
        "1+2*t",
        "1 + 2*s",
        "2*s",
        "--3",
        "1/2/3",
        "3x",
        "\u00b2",
        "\uff13",
        "\u0663",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad, Q2)


def test_parse_rejects_surd_in_rational_field():
    with pytest.raises(ParseError):
        parse_scalar("1+2*s", RATIONAL)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("1/0", Q2)
    assert err.value.pos == 2
    assert "position 2" in str(err.value)


def test_parse_rejects_numbers_past_the_int_digit_limit():
    # 5000 digits is past the interpreter's default limit of 4300
    big = "9" * 5000
    for text, pos in ((big, 0), ("1/" + big, 2), ("1-" + big + "*s", 2)):
        with pytest.raises(ParseError) as err:
            parse_scalar(text, Q2)
        assert err.value.pos == pos


def test_hom_apply_registered():
    x = q2(3, 5)
    assert hom_apply(IDENTITY_HOM, x) == x
    assert hom_apply(CONJUGATION_HOM, x) == q2(3, -5)
    with pytest.raises(FieldMismatch):
        hom_apply(CONJUGATION_HOM, one(RATIONAL))


def test_sampled_hom_lookup_and_miss():
    two, three = as_elem(RATIONAL, 2), as_elem(RATIONAL, 3)
    h = sampled_hom([(two, three)])
    assert hom_apply(h, two) == three
    with pytest.raises(ProbeMiss):
        hom_apply(h, three)


def test_hom_check_catches_corrupted_table():
    # h(2) = 3 and h(4) = 9 is multiplicative on the pair (2, 2) but not
    # additive: h(2 + 2) = 9 while h(2) + h(2) = 6.
    r = lambda v: as_elem(RATIONAL, v)
    h = sampled_hom([(r(2), r(3)), (r(4), r(9))])
    assert hom_check(h, [(r(2), r(2))]) is False
    assert hom_check(IDENTITY_HOM, [(r(2), r(2)), (r(3), r(5))]) is True


def test_hom_check_conjugation():
    xs = [q2(1, 1), q2(2, -1), q2(Fraction(1, 2), 3)]
    pairs = [(x, y) for x in xs for y in xs]
    assert hom_check(CONJUGATION_HOM, pairs) is True


def test_compose_homs_closed_family():
    assert compose_homs(CONJUGATION_HOM, CONJUGATION_HOM) == IDENTITY_HOM
    assert compose_homs(IDENTITY_HOM, CONJUGATION_HOM) == CONJUGATION_HOM
    assert compose_homs(CONJUGATION_HOM, IDENTITY_HOM) == CONJUGATION_HOM
    assert compose_homs(IDENTITY_HOM, IDENTITY_HOM) == IDENTITY_HOM


def test_descriptor_docs():
    assert FieldDescriptor.from_doc({"kind": "rational"}) == RATIONAL
    assert FieldDescriptor.from_doc({"kind": "quadratic", "d": 2}) == Q2
    assert Q2.to_doc() == {"kind": "quadratic", "d": 2}
    with pytest.raises(ParseError):
        FieldDescriptor.from_doc({"kind": "quadratic"})
