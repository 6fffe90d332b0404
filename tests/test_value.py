"""Value semantics of the package's immutable records.

Every record class (field descriptors, homomorphism tags, generators, map
atoms and expressions, canonical forms, factorizations, fuzz settings,
verdicts, classification reports) is built from the shared Value base. Each
test below runs over all of them: construction by position and by keyword,
equality and hashing by value with an exact class match, immutability, the
Name(field=value, ...) repr, and copying. The records that take the
constructor Value derives from their slots are also checked to refuse, with
a TypeError, an extra argument, a missing field, an unknown keyword and a
field given twice.
"""

import copy
import pickle

import pytest

from multmap.classify import ClassifyReport
from multmap.field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    RATIONAL,
    FieldDescriptor,
    FieldElem,
    HomTable,
    RingHom,
    one,
    quadratic,
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
)
from multmap.matrix import DiagUnit, Swap, Transvection, identity
from multmap.slword import GlFactorization
from multmap.value import Value
from multmap.verify import FuzzConfig, Verdict

from helpers import int_matrix

Q2 = quadratic(2)
K = FieldElem(Q2, 1, 2)
R = int_matrix(Q2, [[1, 1], [0, 1]])
X = ScalarCharacter((("id", 3),))
FORM = NonDegenerateForm(RATIONAL, 2, IDENTITY_HOM, identity(RATIONAL, 2), 1)

# each record class with its fields in constructor order, as (name, value)
# pairs, and one field to change for an unequal record
RECORDS = [
    (FieldDescriptor, [("kind", "quadratic"), ("d", 2)], ("d", 3)),
    (RingHom, [("kind", "conj")], ("kind", "id")),
    (HomTable, [("table", ((K, K),))], ("table", ())),
    (Transvection, [("i", 1), ("j", 2), ("k", K)], ("j", 3)),
    (DiagUnit, [("i", 2), ("k", K)], ("k", one(Q2))),
    (Swap, [("i", 1), ("j", 3)], ("i", 2)),
    (ScalarCharacter, [("factors", (("id", 2), ("conj", -1)))], ("factors", ())),
    (Conj, [("R", R)], ("R", identity(Q2, 2))),
    (Cof, [], None),
    (Hom, [("phi", CONJUGATION_HOM)], ("phi", IDENTITY_HOM)),
    (DetScale, [("character", X)], ("character", ScalarCharacter())),
    (TrivialDet, [("chars", (X,)), ("zero_pad", 1), ("one_pad", 0)], ("one_pad", 2)),
    (MapExpr, [("n", 2), ("field", Q2), ("atoms", (Cof(), Conj(R)))], ("atoms", (Cof(),))),
    (
        TrivialForm,
        [("field", Q2), ("n", 2), ("chars", (X,)), ("zero_pad", 0), ("one_pad", 1)],
        ("zero_pad", 1),
    ),
    (
        DegenerateForm,
        [("field", Q2), ("n", 2), ("lam", X), ("phi", CONJUGATION_HOM), ("R", R), ("eps", 1)],
        ("eps", 0),
    ),
    (
        NonDegenerateForm,
        [("field", Q2), ("n", 2), ("phi", IDENTITY_HOM), ("R", R), ("eps", 0)],
        ("phi", CONJUGATION_HOM),
    ),
    (GlFactorization, [("det_scalar", K), ("word", (Transvection(1, 2, K),))], ("word", ())),
    (FuzzConfig, [("seed", 3), ("pair_count", 7)], ("pair_count", 8)),
    (
        Verdict,
        [("passed", False), ("counterexample", (R, None)), ("samples", 3), ("seed", 4)],
        ("samples", 5),
    ),
    (
        ClassifyReport,
        [
            ("n", 2),
            ("k", 2),
            ("field", RATIONAL),
            ("s", 0),
            ("l", 2),
            ("pre_conjugator", identity(RATIONAL, 2)),
            ("form", FORM),
            ("hom_table", None),
            ("lambda_table", None),
            ("probe_log", ()),
        ],
        ("l", 1),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
records = pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)


def build(cls, fields):
    return cls(*[value for _, value in fields])


@records
def test_position_and_keyword_construction_agree(cls, fields, change):
    by_position = build(cls, fields)
    by_keyword = cls(**dict(fields))
    assert isinstance(by_position, Value)
    assert by_position == by_keyword
    for name, value in fields:
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert cls.__match_args__ == tuple(name for name, _ in fields)


def test_defaults():
    assert FieldDescriptor("rational") == FieldDescriptor("rational", None) == RATIONAL
    assert FieldDescriptor("rational").d is None
    assert RingHom("id") == RingHom(kind="id") == IDENTITY_HOM
    assert FuzzConfig() == FuzzConfig(0, 50) == FuzzConfig(pair_count=50)
    assert (FuzzConfig().seed, FuzzConfig().pair_count) == (0, 50)
    assert ScalarCharacter().factors == ()


@records
def test_equal_records_hash_equal_and_a_changed_field_breaks_equality(cls, fields, change):
    a, b = build(cls, fields), build(cls, fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if change is not None:
        other = cls(**{**dict(fields), change[0]: change[1]})
        assert a != other and not a == other


@records
def test_only_the_exact_class_is_equal(cls, fields, change):
    sub = type(cls.__name__ + "Sub", (cls,), {"__slots__": ()})
    a, s = build(cls, fields), build(sub, fields)
    assert s.__match_args__ == cls.__match_args__
    assert a != s and s != a
    assert repr(s) == sub.__name__ + repr(a)[len(cls.__name__):]


def test_equal_field_values_in_different_classes_are_unequal():
    assert Swap(1, 2) != FuzzConfig(1, 2) and FuzzConfig(1, 2) != Swap(1, 2)
    assert len({Swap(1, 2), FuzzConfig(1, 2)}) == 2
    assert Hom(X) != DetScale(X) and Conj(R) != Hom(R)
    assert FieldDescriptor("rational") != ("rational", None)


@records
def test_records_are_immutable(cls, fields, change):
    a = build(cls, fields)
    for name in [n for n, _ in fields] + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == build(cls, fields)


@records
def test_repr_names_every_field_in_order(cls, fields, change):
    body = ", ".join(f"{name}={value!r}" for name, value in fields)
    assert repr(build(cls, fields)) == f"{cls.__name__}({body})"


def test_repr_examples():
    assert repr(Q2) == "FieldDescriptor(kind='quadratic', d=2)"
    assert repr(Transvection(1, 2, one(RATIONAL))) == "Transvection(i=1, j=2, k=FieldElem('1'))"
    assert repr(Hom(IDENTITY_HOM)) == "Hom(phi=RingHom(kind='id'))"
    assert repr(Cof()) == "Cof()"
    assert repr(FuzzConfig()) == "FuzzConfig(seed=0, pair_count=50)"


@records
def test_copies_are_equal_records(cls, fields, change):
    a = build(cls, fields)
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


# the records whose constructor is the one Value derives from their slots;
# TrivialDet's own __init__ runs that one, then stores a chars list as a tuple
DERIVED = {HomTable, Conj, Cof, Hom, DetScale, TrivialDet, GlFactorization, Verdict, ClassifyReport}
NORMALISING = {TrivialDet}
DERIVED_RECORDS = [record for record in RECORDS if record[0] in DERIVED]


def over(records):
    return pytest.mark.parametrize(
        "cls, fields, change", records, ids=[cls.__name__ for cls, _, _ in records]
    )


derived = over(DERIVED_RECORDS)
# Cof has no field to leave out or to give twice
derived_with_fields = over([record for record in DERIVED_RECORDS if record[1]])


def refuses(cls, *args, **kwargs):
    """The TypeError message of cls(*args, **kwargs), which must name the
    class and its fields in slot order."""
    with pytest.raises(TypeError) as info:
        cls(*args, **kwargs)
    message = str(info.value)
    assert message.startswith(f"{cls.__name__} takes ({', '.join(cls.__match_args__)}), ")
    return message


@over([record for record in DERIVED_RECORDS if record[0] not in NORMALISING])
def test_derived_constructor_is_the_only_one(cls, fields, change):
    assert len(DERIVED_RECORDS) == len(DERIVED) == 9
    assert "__init__" not in cls.__dict__
    assert cls.__init__ is Value.__init__


@derived
def test_derived_constructor_refuses_an_extra_positional_argument(cls, fields, change):
    refuses(cls, *[value for _, value in fields], None)


@derived
def test_derived_constructor_refuses_an_unknown_keyword(cls, fields, change):
    assert "'extra'" in refuses(cls, **dict(fields), extra=1)


@derived_with_fields
def test_derived_constructor_refuses_a_missing_field(cls, fields, change):
    for i, (name, _) in enumerate(fields):
        keywords = dict(fields)
        del keywords[name]
        refuses(cls, **keywords)
        refuses(cls, *[value for _, value in fields[:i]])


@derived_with_fields
def test_derived_constructor_refuses_a_field_given_twice(cls, fields, change):
    for i, (name, value) in enumerate(fields):
        positional = [v for _, v in fields[: i + 1]]
        rest = dict(fields[i + 1 :])
        assert f"'{name}'" in refuses(cls, *positional, **rest, **{name: value})


def test_a_record_without_fields_takes_no_arguments():
    assert Cof() == Cof(*[]) == Cof(**{})
    assert refuses(Cof, 1) == "Cof takes (), each once; got 1 positional and keywords []"
    assert refuses(Cof, R=R) == "Cof takes (), each once; got 0 positional and keywords ['R']"
