"""Scalar layer: exact arithmetic in Q and Q(sqrt d), homs, and the grammar."""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmap.errors import (
    DivisionByZero,
    FieldMismatch,
    ParseError,
    ScalarTooLarge,
    UnregisteredHom,
)
from multmap.field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    MAX_RADICAND,
    RATIONAL,
    FieldDescriptor,
    FieldElem,
    RingHom,
    as_elem,
    compose_homs,
    format_scalar,
    hom_apply,
    hom_check,
    one,
    parse_scalar,
    quadratic,
    sampled_hom,
    scalars,
    sqrt_gen,
    zero,
)

from helpers import RefElem

Q2 = quadratic(2)
QM1 = quadratic(-1)

fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def q2(a, b=0):
    return FieldElem(Q2, Fraction(a), Fraction(b))


@st.composite
def q2_elems(draw):
    return FieldElem(Q2, draw(fractions), draw(fractions))


def test_descriptor_validation():
    with pytest.raises(FieldMismatch, match="^quadratic radicand must be squarefree and not 0 or 1, got 12$"):
        quadratic(12)  # 12 = 4 * 3 not squarefree
    with pytest.raises(FieldMismatch):
        quadratic(1)
    with pytest.raises(FieldMismatch):
        quadratic(0)
    with pytest.raises(FieldMismatch, match="^quadratic radicand must be squarefree and not 0 or 1, got None$"):
        FieldDescriptor("quadratic")
    with pytest.raises(FieldMismatch, match="^rational field takes no radicand$"):
        FieldDescriptor("rational", 2)
    with pytest.raises(FieldMismatch, match="^unknown field kind 'real'$"):
        FieldDescriptor(kind="real")
    # a float, a string or a bool would build a field whose arithmetic fails
    for d in (2.0, "2", True, Fraction(2)):
        with pytest.raises(FieldMismatch, match="^quadratic radicand must be an int, got "):
            quadratic(d)
    assert quadratic(-1).d == -1
    assert quadratic(10).d == 10


def test_hom_validation():
    x = as_elem(RATIONAL, 2)
    for kind in ("frobenius", "sampled"):
        with pytest.raises(UnregisteredHom, match=f"^unknown hom kind '{kind}'$"):
            RingHom(kind)
    with pytest.raises(TypeError):
        RingHom("id", ((x, x),))
    assert RingHom.__slots__ == ("kind",)
    assert sampled_hom([(x, x)]).table == ((x, x),)


def test_radicand_past_the_bound_fails_fast():
    # trial division of 10**18 + 3 would take minutes; the bound answers at once
    for d in (10**18 + 3, -(10**18 + 3), MAX_RADICAND + 1, 7 * 10**5000):
        start = time.perf_counter()
        with pytest.raises(FieldMismatch, match="at most"):
            quadratic(d)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(FieldMismatch):
        FieldDescriptor.from_doc({"kind": "quadratic", "d": 10**18 + 3})


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
    with pytest.raises(FieldMismatch, match="^sqrt generator exists only in quadratic fields$"):
        sqrt_gen(RATIONAL)
    x = q2(1, 1)
    assert as_elem(Q2, x) is x
    with pytest.raises(FieldMismatch, match="^element of "):
        as_elem(RATIONAL, x)


def test_elements_refuse_a_field_or_coordinate_of_the_wrong_type():
    # a string field, a float, a string or a bool coordinate is no scalar:
    # each ends in FieldMismatch, not an AttributeError or a silent element
    with pytest.raises(FieldMismatch, match="^not a field descriptor: 'rational'$"):
        FieldElem("rational", 1)
    for bad in (1.5, "1", True):
        with pytest.raises(FieldMismatch, match="^a coordinate must be an int or a Fraction"):
            FieldElem(Q2, bad)
        with pytest.raises(FieldMismatch, match="^a coordinate must be an int or a Fraction"):
            FieldElem(Q2, 1, bad)
        with pytest.raises(FieldMismatch, match="^a coordinate must be an int or a Fraction"):
            as_elem(RATIONAL, bad)
    assert FieldElem(Q2, Fraction(1, 2), -3) == q2(Fraction(1, 2), -3)


def test_arithmetic_with_an_operand_that_is_no_element_is_a_type_error():
    x = one(RATIONAL)
    for op in (lambda: x + 1, lambda: x - 1, lambda: x * 1, lambda: x / 1):
        with pytest.raises(TypeError):
            op()


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
    assert str(q2(Fraction(1, 2), -1)) == "1/2-1*s"


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
        2,
        ["1"],
        "1+2*sx",
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


def test_scalars_add_surd_values_over_quadratic_fields_only():
    q2 = quadratic(2)
    half = Fraction(1, 2)
    assert scalars(RATIONAL, (1, half), ((0, 1),)) == (
        as_elem(RATIONAL, 1),
        as_elem(RATIONAL, half),
    )
    s = sqrt_gen(q2)
    assert scalars(q2, (1, half), ((0, 1), (1, 1), 3)) == (
        one(q2),
        as_elem(q2, half),
        s,
        one(q2) + s,
        as_elem(q2, 3),
    )


def test_a_hom_table_is_never_applied():
    # a table is tested by hom_check only; applying it, even at one of its
    # own probes, is refused
    two, three = as_elem(RATIONAL, 2), as_elem(RATIONAL, 3)
    h = sampled_hom([(two, three)])
    for x in (two, three):
        with pytest.raises(UnregisteredHom, match="^a HomTable is no ring homomorphism$"):
            hom_apply(h, x)


def test_hom_check_catches_corrupted_table():
    # h(2) = 3 and h(4) = 9 is multiplicative on the pair (2, 2) but not
    # additive: h(2 + 2) = 9 while h(2) + h(2) = 6.
    r = lambda v: as_elem(RATIONAL, v)
    h = sampled_hom([(r(2), r(3)), (r(4), r(9))])
    assert hom_check(h, [(r(2), r(2))]) is False
    assert hom_check(IDENTITY_HOM, [(r(2), r(2)), (r(3), r(5))]) is True


def test_hom_check_fails_on_operands_off_the_table():
    # a table the pairs miss is untested, not passed
    r = lambda v: as_elem(RATIONAL, v)
    assert hom_check(sampled_hom([]), [(r(2), r(2))]) is False
    assert hom_check(sampled_hom([(r(2), r(5))]), [(r(3), r(2))]) is False
    # a table holding every operand, 1 + 1 and 1 * 1 included, is tested
    whole = sampled_hom([(r(1), r(1)), (r(2), r(2))])
    assert hom_check(whole, [(r(1), r(1))]) is True


def test_hom_check_fails_a_table_that_is_no_function():
    # (2, 2) and (2, 5) give the probe 2 two images, though the sample never
    # reads 2
    r = lambda v: as_elem(RATIONAL, v)
    pairs = [(r(1), r(1)), (r(2), r(2))]
    assert hom_check(sampled_hom(pairs + [(r(2), r(5))]), [(r(1), r(1))]) is False
    # a pair listed twice still maps each probe to one value
    assert hom_check(sampled_hom(pairs + [(r(2), r(2))]), [(r(1), r(1))]) is True


def test_hom_check_fails_on_an_empty_sample():
    r = lambda v: as_elem(RATIONAL, v)
    assert hom_check(sampled_hom([(r(1), r(1)), (r(2), r(2))]), []) is False
    assert hom_check(IDENTITY_HOM, []) is False
    assert hom_check(CONJUGATION_HOM, iter([])) is False


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


def test_hash_agrees_with_equality_and_fields_stay_apart():
    # the hash reads the triple only; equality still needs the same field
    assert hash(q2(Fraction(3, 4), -2)) == hash(parse_scalar("3/4-2*s", quadratic(2)))
    over_q, over_q2 = as_elem(RATIONAL, Fraction(5, 3)), as_elem(Q2, Fraction(5, 3))
    assert (over_q.p, over_q.q, over_q.den) == (over_q2.p, over_q2.q, over_q2.den)
    assert hash(over_q) == hash(over_q2)
    assert over_q != over_q2
    table = {over_q: "Q", over_q2: "Q2"}
    assert len(table) == 2
    assert table[as_elem(RATIONAL, Fraction(10, 6))] == "Q"
    assert table[as_elem(quadratic(2), Fraction(5, 3))] == "Q2"


def test_elements_are_immutable():
    x = q2(1, 2)
    for attr in ("field", "a", "b", "p", "q", "den", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 0)


@pytest.mark.parametrize(
    "fd, a, b, text",
    [
        (Q2, Fraction(1), Fraction(1, 2), "1+1/2*s"),
        (Q2, Fraction(0), Fraction(-1, 3), "0-1/3*s"),
        (Q2, Fraction(-7, 4), Fraction(0), "-7/4"),
        (RATIONAL, Fraction(-7, 4), Fraction(0), "-7/4"),
        (Q2, Fraction(0), Fraction(0), "0"),
        (RATIONAL, Fraction(12), Fraction(0), "12"),
        (QM1, Fraction(5, 6), Fraction(-3, 2), "5/6-3/2*s"),
        (Q2, Fraction(-3, 4), Fraction(1, 4), "-3/4+1/4*s"),
    ],
)
def test_format_reduces_each_coordinate_of_the_triple(fd, a, b, text):
    # (2 + s)/2 is the triple (2, 1, 2): its rational part prints as 1
    x = FieldElem(fd, a, b)
    assert format_scalar(x) == text
    assert parse_scalar(text, fd) == x


def test_format_past_the_digit_limit_raises_a_domain_error():
    # 10**5000 has 5001 digits, past the interpreter's default limit of 4300
    for x in (as_elem(RATIONAL, 10**5000), q2(1, Fraction(1, 10**5000))):
        with pytest.raises(ScalarTooLarge, match="4300 digits"):
            format_scalar(x)


# --- differential test against the Fraction-pair arithmetic -------------------

FIELDS = [RATIONAL, quadratic(2), quadratic(-1), quadratic(-3), quadratic(5)]

coords = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=60)


@st.composite
def coordinate_pairs(draw, fd: FieldDescriptor):
    """(a, b) with b = 0 over Q. Half the draws are (p + q*s)/den with a
    common factor of p, q and den, such as 2/4 + 6/4*s."""
    if draw(st.booleans()):
        g = draw(st.integers(2, 12))
        den = g * draw(st.integers(1, 20))
        p = g * draw(st.integers(-50, 50))
        q = g * draw(st.integers(-50, 50)) if fd.is_quadratic else 0
        return Fraction(p, den), Fraction(q, den)
    b = draw(coords) if fd.is_quadratic else Fraction(0)
    return draw(coords), b


def assert_same(x: FieldElem, ref: RefElem) -> None:
    """x holds ref's value as a normalized triple and prints like it."""
    assert (x.a, x.b) == (ref.a, ref.b)
    assert x.den > 0 and gcd(x.p, x.q, x.den) == 1
    assert Fraction(x.p, x.den) == ref.a and Fraction(x.q, x.den) == ref.b
    text = format_scalar(x)
    assert text == ref.format()
    assert parse_scalar(text, x.field) == x


@settings(max_examples=300)
@given(st.data())
def test_scalar_core_matches_fraction_reference(data):
    fd = data.draw(st.sampled_from(FIELDS))
    (xa, xb), (ya, yb) = data.draw(coordinate_pairs(fd)), data.draw(coordinate_pairs(fd))
    x, y = FieldElem(fd, xa, xb), FieldElem(fd, ya, yb)
    rx, ry = RefElem(fd, xa, xb), RefElem(fd, ya, yb)
    assert_same(x, rx)
    assert_same(y, ry)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, rx * ry)
    assert_same(-x, -rx)
    assert_same(x.conjugate(), rx.conjugate())
    e = data.draw(st.integers(-4, 4))
    if not ry.is_zero:
        assert_same(y.inv(), ry.inv())
        assert_same(x / y, rx / ry)
        assert_same(y**e, ry**e)
        # the same value by another route: equal triples, equal hashes
        back = x * y / y
        assert back == x and hash(back) == hash(x)
    else:
        with pytest.raises(DivisionByZero):
            y.inv()
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)


def test_shared_factors_are_divided_out():
    s = sqrt_gen(Q2)
    x = FieldElem(Q2, Fraction(2, 4), Fraction(6, 4))
    assert (x.p, x.q, x.den) == (1, 3, 2)
    # (1 + s)(1 - s) = -1 and (2 + 2s)/4 = (1 + s)/2
    y = (one(Q2) + s) * (one(Q2) - s)
    assert (y.p, y.q, y.den) == (-1, 0, 1)
    h = FieldElem(Q2, Fraction(1, 4), Fraction(1, 4))
    assert ((h + h).p, (h + h).q, (h + h).den) == (1, 1, 2)
    assert FieldElem(Q2, Fraction(1, 2), Fraction(3, 2)) == x
    assert hash(FieldElem(Q2, Fraction(1, 2), Fraction(3, 2))) == hash(x)
    assert zero(Q2) == FieldElem(Q2, 0, 0) and one(Q2) == FieldElem(Q2, 1)
