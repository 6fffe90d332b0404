"""Exact scalar arithmetic over Q and over quadratic extensions Q(sqrt d).

An element (p + q*sqrt(d))/den is stored as three integers p, q and den,
normalized so that den > 0 and gcd(p, q, den) = 1; rational fields keep
q = 0. Equal values therefore have equal triples, and equality and hashing
compare triples (the hash leaves the field out: equal elements share one
anyway). The rational coordinates a = p/den and b = q/den are
Fraction properties. All arithmetic is exact, no floats anywhere. The
private helpers _integer_vector, _reduce_integer_vector and
_from_integer_vector let the matrix layer hold a row as integers over one
common denominator, bring an integer result to that form, and build its
elements when they are read, and _scale_row and _sub_mul_row make a row
scaling or row update one loop over the triples with one gcd per entry.

The module also carries the two ring homomorphisms of these fields
(identity and Galois conjugation), the finite probe tables that hom_check
tests against the ring laws, and the canonical string grammar for scalars:

    rational  := '-'? digits ('/' nonzero-digits)?
    quadratic := rational (('+'|'-') rational '*s')?      # s = sqrt(d)

with no whitespace permitted inside a scalar.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    FieldMismatch,
    ParseError,
    ScalarTooLarge,
    UnregisteredHom,
)
from .value import Value, _set

# Largest |d| accepted as a radicand. The squarefree test is trial division
# up to sqrt|d|, so this keeps it under a million steps.
MAX_RADICAND = 10**12


def _is_squarefree(d: int) -> bool:
    m = abs(d)
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        if m % p == 0:
            m //= p
        p += 1
    return True


class FieldDescriptor(Value):
    """Identifies the coefficient field: Q, or Q(sqrt d) for squarefree d.
    A radicand that is no int (bools included) raises FieldMismatch."""

    __slots__ = ("kind", "d")

    def __init__(self, kind: str, d: int | None = None) -> None:
        if kind == "rational":
            if d is not None:
                raise FieldMismatch("rational field takes no radicand")
        elif kind == "quadratic":
            if d is not None and (not isinstance(d, int) or isinstance(d, bool)):
                raise FieldMismatch(f"quadratic radicand must be an int, got {d!r}")
            if d is not None and abs(d) > MAX_RADICAND:
                raise FieldMismatch(
                    f"quadratic radicand must be at most {MAX_RADICAND} in absolute value"
                )
            if d is None or d in (0, 1) or not _is_squarefree(d):
                raise FieldMismatch(
                    f"quadratic radicand must be squarefree and not 0 or 1, got {d}"
                )
        else:
            raise FieldMismatch(f"unknown field kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "d", d)

    @property
    def is_quadratic(self) -> bool:
        return self.kind == "quadratic"

    def to_doc(self) -> dict:
        if self.is_quadratic:
            return {"kind": "quadratic", "d": self.d}
        return {"kind": "rational"}

    @classmethod
    def from_doc(cls, doc: object) -> "FieldDescriptor":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ParseError("field descriptor must be an object with a 'kind'")
        kind = doc["kind"]
        if kind == "rational":
            return RATIONAL
        if kind == "quadratic":
            d = doc.get("d")
            if not isinstance(d, int) or isinstance(d, bool):
                raise ParseError("quadratic field descriptor needs integer 'd'")
            return cls("quadratic", d)
        raise ParseError(f"unknown field kind {kind!r}")


RATIONAL = FieldDescriptor("rational")


def quadratic(d: int) -> FieldDescriptor:
    return FieldDescriptor("quadratic", d)


class FieldElem:
    """One scalar a + b*sqrt(d) = (p + q*sqrt(d))/den; immutable, hashable,
    equal exactly when the values are equal.

    FieldElem(field, a, b=0) takes ints or Fractions for a and b; a field
    that is no FieldDescriptor, or a coordinate of any other type (bools
    included), raises FieldMismatch. The triple is held in private slots
    and read through the properties p, q and den; a and b are Fractions
    computed on demand."""

    __slots__ = ("_field", "_p", "_q", "_den")

    def __init__(self, field: FieldDescriptor, a: int | Fraction, b: int | Fraction = 0) -> None:
        if not isinstance(field, FieldDescriptor):
            raise FieldMismatch(f"not a field descriptor: {field!r}")
        for x in (a, b):
            if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
                raise FieldMismatch(f"a coordinate must be an int or a Fraction, got {x!r}")
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        if bn and not field.is_quadratic:
            raise FieldMismatch("rational scalar with a surd component")
        # over den = lcm(ad, bd) the triple is already in lowest terms
        den = ad // gcd(ad, bd) * bd
        self._field = field
        self._p = an * (den // ad)
        self._q = bn * (den // bd)
        self._den = den

    @property
    def field(self) -> FieldDescriptor:
        return self._field

    @property
    def p(self) -> int:
        return self._p

    @property
    def q(self) -> int:
        return self._q

    @property
    def den(self) -> int:
        return self._den

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._den)

    def _check(self, other: "FieldElem") -> None:
        if self._field is not other._field and self._field != other._field:
            raise FieldMismatch(f"fields differ: {self._field} vs {other._field}")

    @property
    def is_zero(self) -> bool:
        return not self._p and not self._q

    @property
    def is_one(self) -> bool:
        return self._p == 1 and self._den == 1 and not self._q

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._den == other._den
            and (self._field is other._field or self._field == other._field)
        )

    def __hash__(self) -> int:
        # equal elements share a field, so the triple alone hashes consistently
        return hash((self._p, self._q, self._den))

    def __add__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _norm(self._field, self._p + other._p, self._q + other._q, d1)
        return _norm(
            self._field,
            self._p * d2 + other._p * d1,
            self._q * d2 + other._q * d1,
            d1 * d2,
        )

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "FieldElem":
        return _raw(self._field, -self._p, -self._q, self._den)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        if q1 or q2:
            return _norm(
                self._field,
                p1 * p2 + self._field.d * q1 * q2,
                p1 * q2 + q1 * p2,
                self._den * other._den,
            )
        return _norm(self._field, p1 * p2, 0, self._den * other._den)

    def inv(self) -> "FieldElem":
        """Multiplicative inverse via the Galois norm p^2 - d*q^2:
        den/(p + q*s) = den*(p - q*s)/(p^2 - d*q^2)."""
        p, q, den = self._p, self._q, self._den
        if not q:
            if not p:
                raise DivisionByZero("cannot invert zero")
            # gcd(p, den) = 1, so den/p needs only its sign fixed
            return _raw(self._field, den, 0, p) if p > 0 else _raw(self._field, -den, 0, -p)
        # norm = 0 with (p, q) != 0 would make sqrt(d) rational; d squarefree
        # and != 0, 1 rules that out.
        norm = p * p - self._field.d * q * q
        if norm < 0:
            den, norm = -den, -norm
        return _norm(self._field, den * p, -den * q, norm)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, exponent: int) -> "FieldElem":
        if exponent < 0:
            return self.inv() ** (-exponent)
        return _power(one(self._field), self, exponent)

    def conjugate(self) -> "FieldElem":
        """Galois conjugate a - b*sqrt(d); identity on rational fields."""
        return _raw(self._field, self._p, -self._q, self._den)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"FieldElem({format_scalar(self)!r})"


_new = object.__new__


def _raw(fd: FieldDescriptor, p: int, q: int, den: int) -> FieldElem:
    """The element (p + q*s)/den from a triple already in normal form."""
    x = _new(FieldElem)
    x._field = fd
    x._p = p
    x._q = q
    x._den = den
    return x


def _norm(fd: FieldDescriptor, p: int, q: int, den: int) -> FieldElem:
    """The element (p + q*s)/den for den > 0, divided through by gcd(p, q, den)."""
    g = gcd(p, q, den)
    if g != 1:
        p //= g
        q //= g
        den //= g
    return _raw(fd, p, q, den)


def _power(result, base, e: int):
    """result * base^e for scalars and e >= 0 by repeated squaring, with no
    square past the top bit of e."""
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _integer_vector(xs) -> tuple[list[int], list[int] | None, int]:
    """(ps, qs, den) with xs[k] = (ps[k] + qs[k]*s)/den for every k, den the
    least common denominator of the entries; qs is None when no entry has a
    surd part."""
    den = lcm(*{x._den for x in xs})
    if den == 1:
        # integer entries, the usual case for probes, need no scaling
        ps = [x._p for x in xs]
        qs = [x._q for x in xs]
    else:
        ps = [x._p * (den // x._den) for x in xs]
        qs = [x._q * (den // x._den) for x in xs]
    return ps, qs if any(qs) else None, den


def _reduce_integer_vector(ps, qs, den: int) -> tuple[list[int], list[int] | None, int]:
    """(ps, qs, den), den > 0 and qs None or zeros standing for no surd part,
    divided through by gcd(den, ps, qs): the same vector over the least
    common denominator of its elements, as _integer_vector gives it. One
    gcd reduces the whole vector."""
    if qs is not None and not any(qs):
        qs = None
    if den != 1:
        g = gcd(den, *ps, *qs) if qs else gcd(den, *ps)
        if g != 1:
            den //= g
            ps = [p // g for p in ps]
            qs = qs and [q // g for q in qs]
    return ps, qs, den


def _scale_integer_vector(f: FieldElem, ps, qs, den: int) -> tuple[list[int], list[int] | None, int]:
    """f times the vector (ps, qs, den) as _reduce_integer_vector gives it:
    the integers times the numerators of f, over den times the denominator
    of f, reduced by one gcd."""
    fp, fq = f._p, f._q
    if fq and qs:
        dq = f._field.d * fq
        p = [fp * x + dq * y for x, y in zip(ps, qs)]
        q = [fp * y + fq * x for x, y in zip(ps, qs)]
    else:
        p = [fp * x for x in ps]
        q = [fq * x for x in ps] if fq else qs and [fp * y for y in qs]
    return _reduce_integer_vector(p, q, den * f._den)


def _from_integer_vector(fd: FieldDescriptor, ps, qs, den: int) -> tuple[FieldElem, ...]:
    """The elements (ps[k] + qs[k]*s)/den in normal form, for a vector as
    _reduce_integer_vector gives it: one gcd per entry when den is not one."""
    if den == 1:
        return tuple([_raw(fd, p, q, 1) for p, q in zip(ps, qs or repeat(0))])
    xs = []
    append = xs.append
    for p, q in zip(ps, qs or repeat(0)):
        g = gcd(p, q, den)
        append(_raw(fd, p, q, den) if g == 1 else _raw(fd, p // g, q // g, den // g))
    return tuple(xs)


def _scale_row(f: FieldElem, xs) -> list[FieldElem]:
    """[f*x for x in xs] over the field of f, one gcd per nonzero entry;
    zero entries pass through unchanged. The caller guarantees that f and
    the entries share one field."""
    fd = f._field
    d = fd.d
    fp, fq, fden = f._p, f._q, f._den
    out = []
    append = out.append
    for x in xs:
        xp, xq = x._p, x._q
        if not xp and not xq:
            append(x)
            continue
        if fq or xq:
            p = fp * xp + d * fq * xq
            q = fp * xq + fq * xp
        else:
            p = fp * xp
            q = 0
        den = fden * x._den
        g = gcd(p, q, den)
        if g != 1:
            p //= g
            q //= g
            den //= g
        append(_raw(fd, p, q, den))
    return out


def _sub_mul_row(xs, f: FieldElem, ys) -> list[FieldElem]:
    """[x - f*y for x, y in zip(xs, ys)] over the field of f, one gcd per
    entry; x passes through unchanged where y is zero. The caller
    guarantees that f and the entries share one field."""
    fd = f._field
    d = fd.d
    fp, fq, fden = f._p, f._q, f._den
    out = []
    append = out.append
    for x, y in zip(xs, ys):
        yp, yq = y._p, y._q
        if not yp and not yq:
            append(x)
            continue
        if fq or yq:
            mp = fp * yp + d * fq * yq
            mq = fp * yq + fq * yp
        else:
            mp = fp * yp
            mq = 0
        md = fden * y._den
        xd = x._den
        p = x._p * md - mp * xd
        q = x._q * md - mq * xd
        den = xd * md
        g = gcd(p, q, den)
        if g != 1:
            p //= g
            q //= g
            den //= g
        append(_raw(fd, p, q, den))
    return out


def zero(fd: FieldDescriptor) -> FieldElem:
    return _raw(fd, 0, 0, 1)


def one(fd: FieldDescriptor) -> FieldElem:
    return _raw(fd, 1, 0, 1)


def sqrt_gen(fd: FieldDescriptor) -> FieldElem:
    """The generator sqrt(d) of a quadratic field; any other fd, one that is
    no FieldDescriptor included, raises FieldMismatch."""
    if not isinstance(fd, FieldDescriptor) or not fd.is_quadratic:
        raise FieldMismatch("sqrt generator exists only in quadratic fields")
    return _raw(fd, 0, 1, 1)


def scalars(fd: FieldDescriptor, values, surd_values=()) -> tuple[FieldElem, ...]:
    """The elements of values, followed over Q(sqrt d) only by those of
    surd_values, in order. An entry is an int, a Fraction, or a pair (a, b)
    standing for a + b*sqrt(d)."""
    if fd.is_quadratic:
        values = (*values, *surd_values)
    return tuple(FieldElem(fd, *v) if isinstance(v, tuple) else FieldElem(fd, v) for v in values)


def as_elem(fd: FieldDescriptor, value: "FieldElem | Fraction | int") -> FieldElem:
    """Coerce an int, Fraction, or FieldElem into the field fd; an element
    of another field or a value of any other type raises FieldMismatch."""
    if isinstance(value, FieldElem):
        if value.field != fd:
            raise FieldMismatch(f"element of {value.field} used in {fd}")
        return value
    return FieldElem(fd, value)


# --- ring homomorphisms ----------------------------------------------------


class RingHom(Value):
    """A ring homomorphism of Q or Q(sqrt d): the identity or the conjugation."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in ("id", "conj"):
            raise UnregisteredHom(f"unknown hom kind {kind!r}")
        _set(self, "kind", kind)


IDENTITY_HOM = RingHom("id")
CONJUGATION_HOM = RingHom("conj")


class HomTable(Value):
    """A finite table of (probe, image) pairs. It is no RingHom: hom_check
    tests it against the ring laws, and nothing applies it."""

    __slots__ = ("table",)


def sampled_hom(pairs) -> HomTable:
    return HomTable(tuple((x, y) for x, y in pairs))


def _check_hom(h: RingHom, fd: FieldDescriptor) -> None:
    """Refuse h unless it is a RingHom of fd: no table, no conjugation over Q."""
    if not isinstance(h, RingHom):
        raise UnregisteredHom(f"a {type(h).__name__} is no ring homomorphism")
    if h.kind == "conj" and not fd.is_quadratic:
        raise FieldMismatch("conjugation hom applies to quadratic fields only")


def hom_apply(h: RingHom, x: FieldElem) -> FieldElem:
    _check_hom(h, x.field)
    return x if h.kind == "id" else x.conjugate()


def hom_check(h: RingHom | HomTable, samples) -> bool:
    """Check h(x+y) = h(x)+h(y), h(xy) = h(x)h(y), and h(1) = 1 on the given
    (x, y) pairs. Nothing passes vacuously: an empty sample list fails, a
    table that maps one probe to two values is no function and fails, and a
    table that misses any operand fails, since a law it cannot be tested on
    is not passed. Ring homomorphisms never miss. Samples that are not an
    iterable of pairs of field elements raise ParseError."""
    try:
        pairs = iter(samples)
    except TypeError:
        raise ParseError("hom_check needs an iterable of (x, y) pairs") from None
    samples = tuple(pairs)
    if not all(
        isinstance(s, tuple) and len(s) == 2 and all(isinstance(v, FieldElem) for v in s)
        for s in samples
    ):
        raise ParseError("hom_check needs (x, y) pairs of field elements")
    if not samples:
        return False
    if isinstance(h, HomTable):
        table = dict(h.table)
        if len(table) != len(set(h.table)):
            return False
        apply = table.get
    else:
        apply = partial(hom_apply, h)
    for x, y in samples:
        images = [apply(v) for v in (x, y, x + y, x * y, one(x.field))]
        if None in images:
            return False
        hx, hy, h_sum, h_prod, h_one = images
        if h_sum != hx + hy or h_prod != hx * hy or not h_one.is_one:
            return False
    return True


def compose_homs(outer: RingHom, inner: RingHom) -> RingHom:
    """outer o inner; conj o conj = id."""
    return IDENTITY_HOM if outer.kind == inner.kind else CONJUGATION_HOM


# --- scalar grammar ---------------------------------------------------------


def _scan_digits(text: str, i: int, context: str) -> int:
    """End of the digit run starting at i. The run must be nonempty, hold
    only the ASCII digits 0-9, and stay within the interpreter's
    limit on converting strings to int (none before Python 3.10.7)."""
    start = i
    while i < len(text) and "0" <= text[i] <= "9":
        i += 1
    if i == start:
        raise ParseError(f"expected digits{context}", i)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and i - start > limit:
        raise ParseError(f"more than {limit} digits in one number", start)
    return i


def _parse_fraction(text: str, i: int) -> tuple[Fraction, int]:
    start = i
    if i < len(text) and text[i] == "-":
        i += 1
    i = _scan_digits(text, i, "")
    num = int(text[start:i])
    if i < len(text) and text[i] == "/":
        den_start = i + 1
        i = _scan_digits(text, den_start, " after '/'")
        den = int(text[den_start:i])
        if den == 0:
            raise ParseError("zero denominator", den_start)
        return Fraction(num, den), i
    return Fraction(num), i


def parse_scalar(text: str, fd: FieldDescriptor) -> FieldElem:
    """Parse the canonical scalar grammar; raises ParseError with position."""
    if not isinstance(text, str):
        raise ParseError(f"a scalar must be a string, got {type(text).__name__}")
    if not text:
        raise ParseError("empty scalar", 0)
    a, i = _parse_fraction(text, 0)
    if i == len(text):
        return FieldElem(fd, a)
    sign_pos = i
    if text[i] not in "+-":
        raise ParseError(f"unexpected character {text[i]!r}", i)
    if not fd.is_quadratic:
        raise ParseError("surd part in a rational scalar", sign_pos)
    sign = 1 if text[i] == "+" else -1
    b, i = _parse_fraction(text, i + 1)
    if not text.startswith("*s", i):
        raise ParseError("expected '*s' after surd coefficient", i)
    i += 2
    if i != len(text):
        raise ParseError(f"trailing characters {text[i:]!r}", i)
    return FieldElem(fd, a, sign * b)


def _ratio(p: int, den: int) -> str:
    """p/den in lowest terms, as Fraction prints it."""
    g = gcd(p, den)
    if g != 1:
        p //= g
        den //= g
    return str(p) if den == 1 else f"{p}/{den}"


def format_scalar(x: FieldElem) -> str:
    """Canonical rendering; parse_scalar(format_scalar(x)) == x. Raises
    ScalarTooLarge when a number has more digits than the interpreter
    converts to a string. Written from the triple: with no surd part
    gcd(p, den) is already one, and otherwise each coordinate is reduced by
    its own gcd with den."""
    p, q, den = x._p, x._q, x._den
    try:
        if not q:
            return str(p) if den == 1 else f"{p}/{den}"
        sign = "+" if q > 0 else "-"
        return f"{_ratio(p, den)}{sign}{_ratio(abs(q), den)}*s"
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        raise ScalarTooLarge(
            f"scalar has a number with more than {limit} digits, "
            "the interpreter's limit for printing one"
        ) from None
