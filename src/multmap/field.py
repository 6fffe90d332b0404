"""Exact scalar arithmetic over Q and over quadratic extensions Q(sqrt d).

Elements are stored as a + b*sqrt(d) with Fraction coefficients; rational
fields keep b = 0. All arithmetic is exact, no floats anywhere. The module
also carries the small registered family of ring homomorphisms (identity and
Galois conjugation) plus finite sampled tables used by the classifier, and the
canonical string grammar for scalars:

    rational  := '-'? digits ('/' nonzero-digits)?
    quadratic := rational (('+'|'-') rational '*s')?      # s = sqrt(d)

with no whitespace permitted inside a scalar.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import isqrt

from .errors import (
    DivisionByZero,
    FieldMismatch,
    ParseError,
    ProbeMiss,
    UnregisteredHom,
)


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


@dataclass(frozen=True)
class FieldDescriptor:
    """Identifies the coefficient field: Q, or Q(sqrt d) for squarefree d."""

    kind: str
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.d is not None:
                raise FieldMismatch("rational field takes no radicand")
        elif self.kind == "quadratic":
            if self.d is None or self.d in (0, 1) or not _is_squarefree(self.d):
                raise FieldMismatch(
                    f"quadratic radicand must be squarefree and not 0 or 1, got {self.d}"
                )
        else:
            raise FieldMismatch(f"unknown field kind {self.kind!r}")

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


@dataclass(frozen=True)
class FieldElem:
    """One scalar a + b*sqrt(d); immutable, hashable, componentwise equality."""

    field: FieldDescriptor
    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not self.field.is_quadratic and self.b != 0:
            raise FieldMismatch("rational scalar with a surd component")

    def _check(self, other: "FieldElem") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"fields differ: {self.field} vs {other.field}")

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    @property
    def is_rational_value(self) -> bool:
        return self.b == 0

    def __add__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return FieldElem(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return FieldElem(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.field, -self.a, -self.b)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        d = self.field.d if self.field.is_quadratic else 0
        return FieldElem(
            self.field,
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
        )

    def inv(self) -> "FieldElem":
        """Multiplicative inverse via the Galois norm a^2 - d*b^2."""
        if self.is_zero:
            raise DivisionByZero("cannot invert zero")
        d = self.field.d if self.field.is_quadratic else 0
        norm = self.a * self.a - d * self.b * self.b
        # norm = 0 with (a, b) != 0 would make sqrt(d) rational; d squarefree
        # and != 0, 1 rules that out.
        return FieldElem(self.field, self.a / norm, -self.b / norm)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, exponent: int) -> "FieldElem":
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = one(self.field)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "FieldElem":
        """Galois conjugate a - b*sqrt(d); identity on rational fields."""
        return FieldElem(self.field, self.a, -self.b)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"FieldElem({format_scalar(self)!r})"


def zero(fd: FieldDescriptor) -> FieldElem:
    return FieldElem(fd, Fraction(0))


def one(fd: FieldDescriptor) -> FieldElem:
    return FieldElem(fd, Fraction(1))


def sqrt_gen(fd: FieldDescriptor) -> FieldElem:
    """The generator sqrt(d) of a quadratic field."""
    if not fd.is_quadratic:
        raise FieldMismatch("sqrt generator exists only in quadratic fields")
    return FieldElem(fd, Fraction(0), Fraction(1))


def as_elem(fd: FieldDescriptor, value: "FieldElem | Fraction | int") -> FieldElem:
    """Coerce an int, Fraction, or FieldElem into the field fd."""
    if isinstance(value, FieldElem):
        if value.field != fd:
            raise FieldMismatch(f"element of {value.field} used in {fd}")
        return value
    return FieldElem(fd, Fraction(value))


# --- ring homomorphisms ----------------------------------------------------


@dataclass(frozen=True)
class RingHom:
    """A ring homomorphism tag: identity, Galois conjugation, or a finite
    sampled table (probe, image) recorded by the classifier."""

    kind: str
    table: tuple[tuple[FieldElem, FieldElem], ...] = dc_field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ("id", "conj", "sampled"):
            raise UnregisteredHom(f"unknown hom kind {self.kind!r}")
        if self.kind != "sampled" and self.table:
            raise UnregisteredHom("only sampled homs carry a table")

    @property
    def is_registered(self) -> bool:
        return self.kind in ("id", "conj")


IDENTITY_HOM = RingHom("id")
CONJUGATION_HOM = RingHom("conj")


def sampled_hom(pairs) -> RingHom:
    return RingHom("sampled", tuple((x, y) for x, y in pairs))


def hom_apply(h: RingHom, x: FieldElem) -> FieldElem:
    if h.kind == "id":
        return x
    if h.kind == "conj":
        if not x.field.is_quadratic:
            raise FieldMismatch("conjugation hom applies to quadratic fields only")
        return x.conjugate()
    for probe, image in h.table:
        if probe == x:
            return image
    raise ProbeMiss(f"sampled hom has no entry for {format_scalar(x)}")


def hom_check(h: RingHom, samples) -> bool:
    """Check h(x+y) = h(x)+h(y), h(xy) = h(x)h(y), and h(1) = 1 on the given
    (x, y) pairs. Sub-checks whose operands fall off a sampled table are
    skipped; registered homs never miss."""
    checked_one = False
    for x, y in samples:
        try:
            hx, hy = hom_apply(h, x), hom_apply(h, y)
        except ProbeMiss:
            continue
        try:
            if hom_apply(h, x + y) != hx + hy:
                return False
        except ProbeMiss:
            pass
        try:
            if hom_apply(h, x * y) != hx * hy:
                return False
        except ProbeMiss:
            pass
        if not checked_one:
            try:
                if not hom_apply(h, one(x.field)).is_one:
                    return False
                checked_one = True
            except ProbeMiss:
                pass
    return True


def compose_homs(outer: RingHom, inner: RingHom) -> RingHom:
    """outer o inner within the registered family (closed: conj o conj = id)."""
    if not (outer.is_registered and inner.is_registered):
        raise UnregisteredHom("cannot compose sampled homomorphisms symbolically")
    if outer.kind == "id":
        return inner
    if inner.kind == "id":
        return outer
    return IDENTITY_HOM


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


def format_scalar(x: FieldElem) -> str:
    """Canonical rendering; parse_scalar(format_scalar(x)) == x."""
    if x.b == 0:
        return str(x.a)
    sign = "+" if x.b > 0 else "-"
    return f"{x.a}{sign}{abs(x.b)}*s"
