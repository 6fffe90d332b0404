"""Multiplicative map expressions and their canonical forms.

A MapExpr composes four multiplicative building blocks on n x n matrices:

    Conj(R)        A -> R^-1 A R
    Cof            A -> C(A), the signed-minor matrix
    Hom(phi)       A -> phi applied entrywise, phi a field homomorphism
    DetScale(lam)  A -> lam(det A) A on invertibles, 0 on singulars

plus the standalone padded determinant map

    TrivialDet     A -> blockdiag(diag(chi_i(det A)), 0, I) on invertibles,
                   with the character block zeroed on singulars,

which, because its output shape differs from its input, must be the only
atom in its expression. Atoms are listed outermost first: atoms[-1] is
applied to the input first. Every such composite is multiplicative, and
simplify folds one exactly into a canonical form

    A -> lam(det A) * R^-1 C^eps(phi(A)) R        (eps in {0, 1})

tracking whether a determinant factor makes the map vanish on singular
matrices. The fold is pointwise exact on all of M_n, including singular
inputs, not just a formal rewrite on invertibles.

MapExpr.evaluate applies the m Cof atoms of an expression to its input
first, and the other atoms after them in their order. C commutes with
every Hom and every DetScale (lam(det C(X)) = lam(det X)^(n-1), since
det C(X) = det(X)^(n-1)), and C(R^-1 X R) = C(R)^-1 C(X) C(R), so a Conj(R)
atom with k Cof atoms applied after it conjugates by C^k(R), read off R's
kept cofactors. The value is that of applying the atoms one by one, on
singular inputs too, but every cofactor is taken of the matrix the caller
passed in: one that carries a generator word has it read off the word, and
one whose cofactor was already taken returns it (Matrix.cofactor). An
expression with a DetScale atom sends an input that carries a zero
determinant to zero before it takes any cofactor. The forms likewise
compute phi(C(A)) in place of C(phi(A)), so a form and an expression
evaluated on one sample share its cofactor.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    ParseError,
    SingularConjugator,
    SingularMatrix,
    UnregisteredHom,
)
from .field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    FieldDescriptor,
    FieldElem,
    RingHom,
    _check_hom,
    compose_homs,
    one,
    zero,
)
from .matrix import MAX_SIZE, Matrix, _check_domain, diag, identity, normalize_scale, zeros
from .value import Value, _set


# -- determinant characters ---------------------------------------------------


class ScalarCharacter(Value):
    """A formal product prod h^(p_h) over the registered homomorphisms,
    evaluated at nonzero scalars. The empty product is the constant 1.
    Factors that are no tuple or list of (hom, power) pairs, and a power that
    is no int (bools included), raise ParseError; an unknown hom raises
    UnregisteredHom."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int], ...] = ()) -> None:
        if not isinstance(factors, (tuple, list)):
            raise ParseError(
                f"character factors must be a tuple or list of (hom, power) pairs, got {factors!r}"
            )
        merged: dict[str, int] = {}
        for factor in factors:
            if not isinstance(factor, (tuple, list)) or len(factor) != 2:
                raise ParseError(f"character factor must be a (hom, power) pair, got {factor!r}")
            kind, p = factor
            if kind not in ("id", "conj"):
                raise UnregisteredHom(f"character over unknown hom {kind!r}")
            if not isinstance(p, int) or isinstance(p, bool):
                raise ParseError("character power must be an integer")
            merged[kind] = merged.get(kind, 0) + p
        canon = tuple(
            (kind, merged[kind]) for kind in ("id", "conj") if merged.get(kind, 0) != 0
        )
        _set(self, "factors", canon)

    @property
    def is_empty(self) -> bool:
        return not self.factors

    def evaluate(self, x: FieldElem) -> FieldElem:
        out = one(x.field)
        for kind, p in self.factors:
            if kind == "conj":
                _check_hom(CONJUGATION_HOM, x.field)
                out = out * x.conjugate() ** p
            else:
                out = out * x**p
        return out

    def multiply(self, other: "ScalarCharacter") -> "ScalarCharacter":
        return ScalarCharacter(self.factors + other.factors)

    def power(self, e: int) -> "ScalarCharacter":
        return ScalarCharacter(tuple((kind, p * e) for kind, p in self.factors))

    def postcompose(self, h: RingHom) -> "ScalarCharacter":
        """h o self, pushing h through each factor."""
        return ScalarCharacter(
            tuple((_compose_kinds(h.kind, kind), p) for kind, p in self.factors)
        )

    def compose_char(self, inner: "ScalarCharacter") -> "ScalarCharacter":
        """self o inner as characters: substitute inner for the argument."""
        out = []
        for kind, p in self.factors:
            for ik, q in inner.factors:
                out.append((_compose_kinds(kind, ik), p * q))
        return ScalarCharacter(tuple(out))

    def requires_quadratic(self) -> bool:
        return any(kind == "conj" for kind, _ in self.factors)

    def to_doc(self) -> list:
        return [{"phi": kind, "pow": p} for kind, p in self.factors]

    @classmethod
    def from_doc(cls, doc: object) -> "ScalarCharacter":
        if not isinstance(doc, list):
            raise ParseError("character must be a list of factors")
        factors = []
        for entry in doc:
            if not isinstance(entry, dict):
                raise ParseError("character factor must be an object")
            kind, p = entry.get("phi"), entry.get("pow")
            if kind not in ("id", "conj"):
                raise ParseError(f"unknown character hom {kind!r}")
            factors.append((kind, p))
        return cls(tuple(factors))


def _compose_kinds(outer: str, inner: str) -> str:
    """The kind of outer o inner; conj o conj = id."""
    return "id" if outer == inner else "conj"


IDENTITY_CHAR = ScalarCharacter()


def char_of_hom(h: RingHom, power: int = 1) -> ScalarCharacter:
    return ScalarCharacter(((h.kind, power),))


# -- atoms ---------------------------------------------------------------------


class Conj(Value):
    __slots__ = ("R",)


class Cof(Value):
    __slots__ = ()


class Hom(Value):
    __slots__ = ("phi",)


class DetScale(Value):
    __slots__ = ("character",)


class TrivialDet(Value):
    __slots__ = ("chars", "zero_pad", "one_pad")

    def __init__(self, *args, **kwargs) -> None:
        # a list of characters is stored as a tuple, so the atom hashes and
        # equals its tuple form; MapExpr refuses chars of any other type
        super().__init__(*args, **kwargs)
        if isinstance(self.chars, list):
            _set(self, "chars", tuple(self.chars))


Atom = Conj | Cof | Hom | DetScale | TrivialDet


# -- expressions -----------------------------------------------------------------


def _check_character(char, fd: FieldDescriptor) -> None:
    """Refuse a determinant character that is no ScalarCharacter
    (UnregisteredHom) or that needs the conjugation over Q (FieldMismatch)."""
    if not isinstance(char, ScalarCharacter):
        raise UnregisteredHom("determinant characters must be ScalarCharacters")
    if char.requires_quadratic() and not fd.is_quadratic:
        raise FieldMismatch("conjugation character over a rational field")


def _check_conjugator(r, fd: FieldDescriptor, n: int) -> None:
    """Refuse an R that is no invertible n x n matrix over fd, with
    DimensionMismatch, FieldMismatch or SingularConjugator. A determinant
    that R carries answers at once; otherwise R is inverted, so evaluation
    reuses that one elimination."""
    if not isinstance(r, Matrix):
        raise DimensionMismatch("conjugator must be a matrix")
    if r.field != fd:
        raise FieldMismatch("conjugator over the wrong field")
    if r.n_rows != n or not r.is_square:
        raise DimensionMismatch("conjugator must be n x n")
    if r._det is None:
        try:
            r.inverse()
        except SingularMatrix:
            pass
    if r._det.is_zero:
        raise SingularConjugator("conjugator must be invertible")


def _check_padded(chars, zero_pad, one_pad, fd: FieldDescriptor) -> None:
    """Refuse chars that are no tuple or list, with ParseError, pads that are
    no nonnegative ints (bools included) or an empty block, with
    DimensionMismatch, and check each character."""
    if not isinstance(chars, (tuple, list)):
        raise ParseError(f"padded determinant characters must be a tuple or list, got {chars!r}")
    for pad in (zero_pad, one_pad):
        if not isinstance(pad, int) or isinstance(pad, bool):
            raise DimensionMismatch("padding sizes must be integers")
    if zero_pad < 0 or one_pad < 0:
        raise DimensionMismatch("padding sizes must be nonnegative")
    if len(chars) + zero_pad + one_pad < 1:
        raise DimensionMismatch("padded determinant map needs k >= 1")
    for c in chars:
        _check_character(c, fd)


class MapExpr(Value):
    """A composite of atoms acting on M_n over a fixed field; atoms[-1] is
    applied first, so the list reads like function composition. A field
    that is no FieldDescriptor raises FieldMismatch, and an n that is no int
    of at least 1 DimensionMismatch, here and in the three forms; atoms that
    are no tuple or list raise ParseError. evaluate takes every cofactor of
    its input, before any Hom atom conjugates it: only a matrix built by
    matrix._word_matrix carries a word to read its cofactor off, and a
    conjugate carries none."""

    __slots__ = ("n", "field", "atoms")

    def __init__(self, n: int, field: FieldDescriptor, atoms: tuple[Atom, ...]) -> None:
        if not isinstance(atoms, (tuple, list)):
            raise ParseError(f"map atoms must be a tuple or list of atoms, got {atoms!r}")
        atoms = tuple(atoms)
        _check_domain(field, n, "maps")
        for atom in atoms:
            if isinstance(atom, TrivialDet):
                if len(atoms) != 1:
                    raise DimensionMismatch(
                        "a padded determinant map cannot be composed with other atoms"
                    )
                _check_padded(atom.chars, atom.zero_pad, atom.one_pad, field)
            elif isinstance(atom, Conj):
                _check_conjugator(atom.R, field, n)
            elif isinstance(atom, Cof):
                if n < 2:
                    raise DimensionMismatch("cofactor atom needs n >= 2")
            elif isinstance(atom, Hom):
                if not isinstance(atom.phi, RingHom):
                    raise UnregisteredHom("expression homs must be ring homomorphisms")
                if atom.phi.kind == "conj" and not field.is_quadratic:
                    raise FieldMismatch("conjugation hom over a rational field")
            elif isinstance(atom, DetScale):
                _check_character(atom.character, field)
            else:
                raise ParseError(f"unknown atom {atom!r}")
        _set(self, "n", n)
        _set(self, "field", field)
        _set(self, "atoms", atoms)

    def evaluate(self, a: Matrix) -> Matrix:
        """The value at a, with the Cof atoms applied to a first and counted
        as they are (see the module docstring); then each other atom runs
        with cofs, the number of Cof atoms applied after it. An a that
        carries a zero determinant, read only when carried, goes to zero at
        once under an expression with a DetScale atom, before any cofactor
        is taken."""
        if a.field != self.field:
            raise FieldMismatch("input over the wrong field")
        if not a.is_square or a.n_rows != self.n:
            raise DimensionMismatch(f"input must be {self.n} x {self.n}")
        d = a._det
        if d is not None and d.is_zero and any(atom.__class__ is DetScale for atom in self.atoms):
            # every atom keeps a singular matrix singular and sends zero to
            # zero, and the DetScale atom sends a singular matrix to zero
            return zeros(self.field, self.n)
        out = a
        cofs = 0
        for atom in self.atoms:
            if atom.__class__ is Cof:
                out = out.cofactor()
                cofs += 1
        for atom in reversed(self.atoms):
            if atom.__class__ is Cof:
                cofs -= 1
            else:
                out = _apply_atom(atom, out, self.field, cofs)
        return out

    def as_oracle(self):
        return self.evaluate

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.to_doc(),
            "atoms": [_atom_to_doc(a) for a in self.atoms],
            "order": "apply-last-first",
        }

    @classmethod
    def from_doc(cls, doc: object) -> "MapExpr":
        if not isinstance(doc, dict):
            raise ParseError("map expression must be an object")
        n = doc.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParseError("map expression needs a positive integer 'n'")
        if n > MAX_SIZE:
            raise ParseError(f"map expression size {n} is past MAX_SIZE = {MAX_SIZE}")
        fd = FieldDescriptor.from_doc(doc.get("field"))
        order = doc.get("order", "apply-last-first")
        if order != "apply-last-first":
            raise ParseError(f"unsupported atom order {order!r}")
        atoms_doc = doc.get("atoms")
        if not isinstance(atoms_doc, list):
            raise ParseError("'atoms' must be a list")
        atoms = tuple(_atom_from_doc(a, fd, n) for a in atoms_doc)
        return cls(n, fd, atoms)


def identity_expr(fd: FieldDescriptor, n: int) -> MapExpr:
    return MapExpr(n, fd, ())


def _apply_atom(atom: Atom, a: Matrix, fd: FieldDescriptor, cofs: int = 0) -> Matrix:
    """One atom other than Cof applied to a; a Conj(R) atom conjugates by
    C^cofs(R), for the cofs Cof atoms moved ahead of it."""
    if isinstance(atom, Conj):
        r = atom.R
        for _ in range(cofs):
            r = r.cofactor()
        return r.inverse() * a * r
    if isinstance(atom, Hom):
        return _apply_hom(atom.phi, a)
    if isinstance(atom, DetScale):
        d = a.det
        if d.is_zero:
            return zeros(fd, a.n_rows)
        return atom.character.evaluate(d) * a
    d = a.det
    z = zero(fd)
    chars = [z] * len(atom.chars) if d.is_zero else [c.evaluate(d) for c in atom.chars]
    return diag(fd, chars + [z] * atom.zero_pad + [one(fd)] * atom.one_pad)


def _atom_to_doc(atom: Atom) -> dict:
    if isinstance(atom, Conj):
        return {"atom": "conj", "R": atom.R.to_doc()}
    if isinstance(atom, Cof):
        return {"atom": "cof"}
    if isinstance(atom, Hom):
        return {"atom": "hom", "phi": atom.phi.kind}
    if isinstance(atom, DetScale):
        return {"atom": "detscale", "lambda": atom.character.to_doc()}
    return {
        "atom": "trivialdet",
        "chars": [c.to_doc() for c in atom.chars],
        "zeroPad": atom.zero_pad,
        "onePad": atom.one_pad,
    }


def _atom_from_doc(doc: object, fd: FieldDescriptor, n: int) -> Atom:
    if not isinstance(doc, dict):
        raise ParseError("atom must be an object")
    kind = doc.get("atom")
    if kind == "conj":
        r = Matrix.from_doc(doc.get("R"))
        if r.field != fd or r.n_rows != n:
            raise ParseError("conjugator field or size disagrees with the expression")
        return Conj(r)
    if kind == "cof":
        return Cof()
    if kind == "hom":
        phi = doc.get("phi")
        if phi == "id":
            return Hom(IDENTITY_HOM)
        if phi == "conj":
            return Hom(CONJUGATION_HOM)
        raise ParseError(f"unknown hom {phi!r}")
    if kind == "detscale":
        return DetScale(ScalarCharacter.from_doc(doc.get("lambda")))
    if kind == "trivialdet":
        chars_doc = doc.get("chars")
        if not isinstance(chars_doc, list):
            raise ParseError("'chars' must be a list of characters")
        chars = tuple(ScalarCharacter.from_doc(c) for c in chars_doc)
        zp, op = doc.get("zeroPad", 0), doc.get("onePad", 0)
        for v in (zp, op):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ParseError("pad sizes must be nonnegative integers")
            if v > MAX_SIZE:
                raise ParseError(f"pad size {v} is past MAX_SIZE = {MAX_SIZE}")
        return TrivialDet(chars, zp, op)
    raise ParseError(f"unknown atom kind {kind!r}")


# -- canonical forms ---------------------------------------------------------------


class TrivialForm(Value):
    """A -> blockdiag(diag(chi_i(det A)), 0, I), zero character block on
    singular input. The kernel of the map contains all of SL_n. chars that
    are no tuple or list raise ParseError, a character of the wrong type
    UnregisteredHom, the conjugation over Q FieldMismatch, and bad pads or an
    empty block DimensionMismatch."""

    __slots__ = ("field", "n", "chars", "zero_pad", "one_pad")
    kind = "trivial"

    def __init__(
        self,
        field: FieldDescriptor,
        n: int,
        chars: tuple[ScalarCharacter, ...],
        zero_pad: int,
        one_pad: int,
    ) -> None:
        _check_domain(field, n, "maps")
        _check_padded(chars, zero_pad, one_pad, field)
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "chars", tuple(chars))
        _set(self, "zero_pad", zero_pad)
        _set(self, "one_pad", one_pad)

    def evaluate(self, a: Matrix) -> Matrix:
        return _apply_atom(
            TrivialDet(self.chars, self.zero_pad, self.one_pad), a, self.field
        )

    def describe(self) -> dict:
        return {
            "class": "trivial",
            "chars": [c.to_doc() for c in self.chars],
            "zeroPad": self.zero_pad,
            "onePad": self.one_pad,
        }


class DegenerateForm(Value):
    """A -> lam(det A) R^-1 C^eps(phi(A)) R on invertibles, 0 on singulars.
    lam may be the empty character; vanishing on singulars is what separates
    this class from NonDegenerateForm. A lam or phi of the wrong type raises
    UnregisteredHom, the conjugation over Q FieldMismatch, an eps other than
    0 or 1 IndexOutOfRange, and an R that is no invertible n x n matrix over
    the field DimensionMismatch, FieldMismatch or SingularConjugator."""

    __slots__ = ("field", "n", "lam", "phi", "R", "eps")
    kind = "degenerate"

    def __init__(
        self,
        field: FieldDescriptor,
        n: int,
        lam: ScalarCharacter,
        phi: RingHom,
        R: Matrix,
        eps: int,
    ) -> None:
        _check_domain(field, n, "maps")
        _check_character(lam, field)
        _check_core(field, n, phi, R, eps)
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "lam", lam)
        _set(self, "phi", phi)
        _set(self, "R", R)
        _set(self, "eps", eps)

    def evaluate(self, a: Matrix) -> Matrix:
        d = a.det
        if d.is_zero:
            return zeros(self.field, self.n)
        scale = self.lam.evaluate(d)
        return scale * _core_evaluate(self, a)

    def describe(self) -> dict:
        return {**_core_doc(self), "lambda": self.lam.to_doc()}


class NonDegenerateForm(Value):
    """A -> R^-1 C^eps(phi(A)) R, exact on every matrix, singular or not. A
    phi that is no RingHom raises UnregisteredHom, the conjugation over Q
    FieldMismatch, an eps other than 0 or 1 IndexOutOfRange, and an R that is
    no invertible n x n matrix DimensionMismatch, FieldMismatch or
    SingularConjugator."""

    __slots__ = ("field", "n", "phi", "R", "eps")
    kind = "nondegenerate"

    def __init__(self, field: FieldDescriptor, n: int, phi: RingHom, R: Matrix, eps: int) -> None:
        _check_domain(field, n, "maps")
        _check_core(field, n, phi, R, eps)
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "phi", phi)
        _set(self, "R", R)
        _set(self, "eps", eps)

    def evaluate(self, a: Matrix) -> Matrix:
        return _core_evaluate(self, a)

    def describe(self) -> dict:
        return _core_doc(self)


CanonicalForm = TrivialForm | DegenerateForm | NonDegenerateForm


def _apply_hom(h: RingHom, a: Matrix) -> Matrix:
    """h applied to every entry of a, checked and dispatched once for the
    whole matrix rather than per entry."""
    _check_hom(h, a.field)
    if h.kind == "id":
        return a
    return a.conjugate()


def _check_core(field: FieldDescriptor, n: int, phi: RingHom, R: Matrix, eps: int) -> None:
    """Refuse a phi, an R or an eps that R^-1 C^eps(phi(A)) R cannot represent."""
    _check_hom(phi, field)
    _check_conjugator(R, field, n)
    if eps not in (0, 1):
        raise IndexOutOfRange(f"cofactor exponent eps must be 0 or 1, got {eps!r}")


def _core_evaluate(form, a: Matrix) -> Matrix:
    """R^-1 phi(C^eps(A)) R, which is R^-1 C^eps(phi(A)) R: the cofactor is
    taken of a itself, so it is computed once per input however many maps
    evaluate it."""
    out = a.cofactor() if form.eps else a
    return form.R.inverse() * _apply_hom(form.phi, out) * form.R


def _core_doc(form) -> dict:
    """The description shared by the two R^-1 C^eps(phi(A)) R classes."""
    return {
        "class": form.kind,
        "phi": form.phi.kind,
        "eps": "cofactor" if form.eps else "plain",
        "R": form.R.to_doc(),
    }


def canonical_eq(a: CanonicalForm, b: CanonicalForm) -> bool:
    """Syntactic equality of canonical data: class, characters as multisets
    where order is arbitrary, homs by kind, conjugators up to the
    scale normalization."""
    if not isinstance(a, CanonicalForm) or not isinstance(b, CanonicalForm):
        raise ParseError("canonical_eq compares two canonical forms")
    if a.kind != b.kind or a.field != b.field or a.n != b.n:
        return False
    if isinstance(a, TrivialForm):
        return (
            sorted(c.factors for c in a.chars) == sorted(c.factors for c in b.chars)
            and a.zero_pad == b.zero_pad
            and a.one_pad == b.one_pad
        )
    if a.phi != b.phi or a.eps != b.eps:
        return False
    if normalize_scale(a.R) != normalize_scale(b.R):
        return False
    return not isinstance(a, DegenerateForm) or a.lam == b.lam


# -- exact simplification ------------------------------------------------------------


def simplify(expr: MapExpr) -> CanonicalForm:
    """Fold an expression into its canonical form.

    The state (lam, phi, eps, R, saw_degenerate) denotes the map
    A -> lam(det A) R^-1 C^eps(phi(A)) R with the degenerate zero-on-singular
    convention active once lam is nonempty or a DetScale was folded. Each
    atom updates the state exactly; the identities used are

        C(X Y) = C(X) C(Y)                  C(c X) = c^(n-1) C(X)
        C(C(X)) = det(X)^(n-2) X            psi(C(X)) = C(psi(X))
        det C(X) = det(X)^(n-1)             det psi(X) = psi(det X)

    all of which hold on singular matrices too, which is what makes the
    resulting form pointwise equal to the expression everywhere.
    """
    if not isinstance(expr, MapExpr):
        raise ParseError("simplify needs a MapExpr")
    if expr.atoms and isinstance(expr.atoms[0], TrivialDet):
        t = expr.atoms[0]
        return TrivialForm(expr.field, expr.n, t.chars, t.zero_pad, t.one_pad)
    n, fd = expr.n, expr.field
    lam = IDENTITY_CHAR
    phi = IDENTITY_HOM
    eps = 0
    r = identity(fd, n)
    saw_degenerate = False
    for atom in reversed(expr.atoms):
        if isinstance(atom, Conj):
            r = r * atom.R
        elif isinstance(atom, Hom):
            lam = lam.postcompose(atom.phi)
            phi = compose_homs(atom.phi, phi)
            r = _apply_hom(atom.phi, r)
        elif isinstance(atom, Cof):
            new_lam = lam.power(n - 1)
            if eps:
                new_lam = new_lam.multiply(char_of_hom(phi, n - 2))
            lam = new_lam
            eps = 1 - eps
            r = r.cofactor()
        else:
            # a DetScale: MapExpr admits no other atom, and a TrivialDet only alone
            det_char = lam.power(n).multiply(char_of_hom(phi, (n - 1) if eps else 1))
            lam = lam.multiply(atom.character.compose_char(det_char))
            saw_degenerate = True
    r = normalize_scale(r)
    if lam.is_empty and not saw_degenerate:
        return NonDegenerateForm(fd, n, phi, r, eps)
    return DegenerateForm(fd, n, lam, phi, r, eps)
