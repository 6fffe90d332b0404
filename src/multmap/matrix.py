"""Exact dense matrices over the scalar layer.

Matrices are immutable value objects with two forms of their entries:
rows, tuples of FieldElem, and integer rows, every row as integers over
the row's least common denominator. Each matrix computes at most once, and
caches, the form it lacks, its columns over the least common denominator
of the whole matrix, its determinant, its reduced row echelon rows with
their pivots, its inverse and its cofactor. A product reads the integer rows of its left
operand and the integer columns of its right one, so every entry is one
integer sum. A product, and a scalar multiple of any matrix, keeps only
its integer rows, each reduced by one gcd: its FieldElem entries are built
on the first read of rows (directly or through indexing, hash, repr,
to_doc or elimination). The next product, the determinant, is_identity,
and equality with a matrix that has no entries yet read the integer rows
alone. Rank, kernels, inverses, solves and the cofactor at n >= 4 of a
matrix with no word run exact Gauss-Jordan elimination, one loop, which
also gives the signed product of its pivots: the inverse and that cofactor
keep it on their input as its determinant. The cofactor takes one of three
routes. At n <= 3 it runs no elimination: it reads the signed minors off
the integer rows, exact at every rank, keeps only its integer rows like a
product, and gives its input the determinant of its first row's expansion.
At n >= 4 on a matrix that carries a generator word D_1(x) P_1 ... P_m
it runs none either: C(A) is read off the word: m row updates on the rows
of I_n, then rows 2 to n scaled by x. _word_matrix is the one builder of
word carriers (transvection and D_1 generator matrices, identity and the
word samples of classify); an entrywise conjugate carries no word.
Otherwise it eliminates once.
Whatever the route, a matrix keeps its cofactor, so a second call, from
another caller, reads it. Neither the word nor the kept cofactor takes part
in equality, hashing, repr or pickling, and no product, conjugate,
transpose or scaling inherits the cofactor. The
inverse, the cofactor, products of matrices with known determinants,
scalings, entrywise conjugates, generator matrices, identity, zeros and
diag receive their determinants when built, so a matrix sweeps for its
determinant only when nothing gave it one: one fraction-free (Bareiss)
sweep over the integer rows, in Z or in Z[sqrt d]. Everything is exact
and no pivot is chosen for numerical reasons, so results are reproducible
bit for bit.

Matrix(fd, rows) checks its input: nonempty, rectangular, every entry a
FieldElem of fd. The private Matrix._of(fd, rows) runs none of these checks.
It is only for matrices whose every entry the package built itself from
operands of one already-checked field: sums, negations, conjugates,
transposes, inverses, cofactors, generator matrices, the entrywise hom
and word evaluations of mapexpr and slword, and the rows decompose_gl scales
by the inverse determinant. identity, zeros, unit_matrix and rank_idempotent
check their field, size and indices and then build through it too, since
their every entry is zero(fd) or one(fd). Everything read from outside goes
through the checked constructor.

Row scalings and row updates (elimination, words and the scale factors of
the cofactor) run through the row kernels of the field layer. A product with
an identity operand returns the other operand itself, after the field and
shape checks, and scaling by one returns self: matrices are immutable, so
sharing them is safe.

Besides the Matrix class the module holds the elementary generator records
(transvections, diagonal units, swaps), the small constructors the rest of
the package leans on (matrix units, rank idempotents), and two structural
routines used by the classifier: splitting a commuting idempotent pair into
its canonical block form, and recovering a conjugator from a system of
matrix unit images.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import lcm, prod
from operator import add, mul

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotCommutingIdempotents,
    NotMatrixUnits,
    ParseError,
    SingularMatrix,
)
from .field import (
    FieldDescriptor,
    FieldElem,
    _from_integer_vector,
    _integer_vector,
    _norm,
    _reduce_integer_vector,
    _scale_integer_vector,
    _scale_row,
    _sub_mul_row,
    format_scalar,
    one,
    parse_scalar,
    zero,
)
from .value import Value, _set


# Largest matrix size a request may name without listing the entries: an
# expression document's n, its zeroPad and onePad, a builtin's name:<n> and
# gen --n. Each is refused past it before anything is allocated, since the
# exact arithmetic at such sizes would run for hours.
MAX_SIZE = 32


class Matrix:
    """Immutable r x c matrix with exact entries over a fixed field."""

    __slots__ = (
        "field", "n_rows", "n_cols", "_rows", "_reduced", "_inv", "_det", "_irows", "_icols",
        "_word", "_cof",
    )

    def __init__(self, fd: FieldDescriptor, rows) -> None:
        tup = tuple(tuple(r) for r in rows)
        if not tup or not tup[0]:
            raise DimensionMismatch("matrices must have at least one row and column")
        width = len(tup[0])
        for r in tup:
            if len(r) != width:
                raise DimensionMismatch("ragged rows")
            for x in r:
                if not isinstance(x, FieldElem) or (x._field is not fd and x._field != fd):
                    raise FieldMismatch("entry outside the matrix field")
        _fill(self, fd, len(tup), width, tup, None)

    @classmethod
    def _of(cls, fd: FieldDescriptor, rows) -> "Matrix":
        """The matrix with these rows, unchecked: for entries the package
        built over fd itself from operands of one already-checked field, in
        at least one nonempty row of equal widths."""
        m = _new(cls)
        tup = tuple(map(tuple, rows))
        _fill(m, fd, len(tup), len(tup[0]), tup, None)
        return m

    @property
    def rows(self) -> tuple:
        """The entries, row by row, as tuples of FieldElem. A product holds
        only its integer rows, and the first read builds these from them."""
        rows = self._rows
        if rows is None:
            fd = self.field
            rows = tuple([_from_integer_vector(fd, *v) for v in self._irows])
            _set(self, "_rows", rows)
        return rows

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix, (self.field, self.rows)

    # -- basic protocol ------------------------------------------------------

    def __getitem__(self, key) -> FieldElem:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            return False
        if self._rows is None or other._rows is None:
            # _int_rows is canonical: the reduced vector of each row
            return self._int_rows() == other._int_rows()
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_scalar(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for row in self.rows for x in row)

    @property
    def is_identity(self) -> bool:
        """Square with ones on the diagonal and zeros elsewhere, read off the
        integer rows; the scan stops at the first row that breaks it."""
        if self.n_rows != self.n_cols:
            return False
        for i, (ps, qs, den) in enumerate(self._int_rows()):
            if den != 1 or qs or ps[i] != 1 or any(ps[:i]) or any(ps[i + 1 :]):
                return False
        return True

    def _require_square(self, what: str) -> int:
        if not self.is_square:
            raise DimensionMismatch(f"{what} needs a square matrix")
        return self.n_rows

    def _check_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch("mixed-field matrix arithmetic")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix._of(
            self.field,
            [
                [x + y for x, y in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.field, [[-x for x in r] for r in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.n_cols != other.n_rows:
            raise DimensionMismatch("inner dimensions disagree in product")
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        # every entry is one integer dot product of a row of self over its
        # denominator and a column of other over its one denominator; the
        # product keeps its rows in that form for the next product or det
        fd = self.field
        d = fd.d
        cols, surd_cols, cden = other._int_cols()
        # with surd parts on both sides, three sums per entry: p = a + d b
        # and q = e - a - b for a = ps.c, b = qs.t, e = (ps + qs).(c + t)
        both = surd_cols and [(c, t, list(map(add, c, t))) for c, t in zip(cols, surd_cols)]
        vectors = []
        for ps, qs, den in self._int_rows():
            if both and qs:
                pq = list(map(add, ps, qs))
                p, q = [], []
                for c, t, ct in both:
                    a = sum(map(mul, ps, c))
                    b = sum(map(mul, qs, t))
                    p.append(a + d * b)
                    q.append(sum(map(mul, pq, ct)) - a - b)
            else:
                p = [sum(map(mul, ps, c)) for c in cols]
                q = [sum(map(mul, ps, t)) for t in surd_cols] if both else qs and [
                    sum(map(mul, qs, c)) for c in cols
                ]
            vectors.append(_reduce_integer_vector(p, q, den * cden))
        m = _new(Matrix)
        _fill(m, fd, self.n_rows, other.n_cols, None, vectors)
        if self._det is not None and other._det is not None:
            _set(m, "_det", self._det * other._det)
        return m

    def _int_rows(self) -> list:
        """Every row as _integer_vector gives it, (ps, qs, den) over the
        row's least common denominator; computed once."""
        if self._irows is None:
            _set(self, "_irows", [_integer_vector(r) for r in self._rows])
        return self._irows

    def _int_cols(self):
        """(cols, surd_cols, den): the columns over den, the least common
        denominator of every entry, as tuples of integer numerators of the
        rational parts and of the surd parts, surd_cols None when no entry
        has a surd part; built from the integer rows, computed once."""
        if self._icols is None:
            rows = self._int_rows()
            den = lcm(*{v[2] for v in rows})
            zero_row = [0] * self.n_cols
            ps_rows, qs_rows = [], []
            for ps, qs, row_den in rows:
                f = den // row_den
                ps_rows.append(ps if f == 1 else [p * f for p in ps])
                qs_rows.append(zero_row if not qs else qs if f == 1 else [q * f for q in qs])
            surd_cols = any(qs for _, qs, _ in rows) and list(zip(*qs_rows)) or None
            _set(self, "_icols", (list(zip(*ps_rows)), surd_cols, den))
        return self._icols

    def __rmul__(self, scalar) -> "Matrix":
        if not isinstance(scalar, FieldElem):
            return NotImplemented
        return self.scale(scalar)

    def scale(self, scalar: FieldElem) -> "Matrix":
        """scalar * self from the integer rows, one gcd per row; like a
        product, the result keeps only its integer rows. A known
        determinant d gives scalar^n d."""
        if scalar.field != self.field:
            raise FieldMismatch("scalar outside the matrix field")
        if scalar.is_one:
            return self
        m = _new(Matrix)
        vectors = [_scale_integer_vector(scalar, *v) for v in self._int_rows()]
        _fill(m, self.field, self.n_rows, self.n_cols, None, vectors)
        if self._det is not None:
            _set(m, "_det", scalar**self.n_rows * self._det)
        return m

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, zip(*self.rows))

    def conjugate(self) -> "Matrix":
        """The entrywise conjugate, sqrt d -> -sqrt d; a known determinant
        gives its conjugate. The conjugate carries no word, even when self
        does: every cofactor is taken of a map's input (see cofactor), never
        of a conjugate."""
        m = Matrix._of(self.field, [[x.conjugate() for x in r] for r in self.rows])
        if self._det is not None:
            _set(m, "_det", self._det.conjugate())
        return m

    # -- elimination ---------------------------------------------------------

    def _reduce(self):
        """Reduced row echelon rows and pivot columns; computed once."""
        if self._reduced is None:
            rows, pivots, _ = _eliminate(self.field, [list(r) for r in self.rows], self.n_cols)
            _set(self, "_reduced", (tuple(map(tuple, rows)), pivots))
        return self._reduced

    @property
    def rank(self) -> int:
        return len(self._reduce()[1])

    @property
    def det(self) -> FieldElem:
        """The determinant, computed at most once. A matrix often has it
        from the start: the elimination for its inverse or its cofactor
        stores the signed product of the pivots on it (at n <= 3 the
        cofactor stores its first row's expansion in minors), and the
        inverse, the cofactor, a product of two matrices with known
        determinants, a scaling, the entrywise conjugation, the generator
        matrices, identity, zeros, diag and the final-verification samples
        of classify receive theirs when built.
        Otherwise it is one fraction-free sweep over the integer rows,
        normalized once: det A = det(P) / (product of the row
        denominators), P the integer numerators, in Z or, when some entry
        has a surd part, in Z[sqrt d]."""
        if self._det is None:
            self._require_square("determinant")
            rows = self._int_rows()
            den = prod(v[2] for v in rows)
            if all(v[1] is None for v in rows):
                p, q = _bareiss([ps for ps, _, _ in rows]), 0
            else:
                p, q = _bareiss_surd(
                    self.field.d, [list(zip(ps, qs or repeat(0))) for ps, qs, _ in rows]
                )
            _set(self, "_det", _norm(self.field, p, q, den))
        return self._det

    def inverse(self) -> "Matrix":
        """A^-1 from one elimination of [A | I], computed once. The pivots
        give det A, which A keeps, and A^-1 gets 1 / det A."""
        if self._inv is not None:
            return self._inv
        n = self._require_square("inverse")
        fd = self.field
        rows, pivots, det = _eliminate(fd, _augment_identity(self), n)
        if len(pivots) < n:
            _set(self, "_det", zero(fd))
            raise SingularMatrix("matrix is not invertible")
        _set(self, "_det", det)
        inv = Matrix._of(fd, [row[n:] for row in rows])
        _set(inv, "_det", det.inv())
        _set(self, "_inv", inv)
        return inv

    def kernel_basis(self) -> list[tuple[FieldElem, ...]]:
        """Basis of the right null space, one vector per free column, in
        column order; deterministic for reproducible conjugators."""
        reduced, pivots = self._reduce()
        return [
            tuple(_null_vector(self.field, reduced, pivots, free, self.n_cols))
            for free in range(self.n_cols)
            if free not in pivots
        ]

    def image_basis(self) -> list[tuple[FieldElem, ...]]:
        """Pivot columns of the original matrix, in column order."""
        return [self.column(c) for c in self._reduce()[1]]

    def column(self, j: int) -> tuple[FieldElem, ...]:
        return tuple(r[j] for r in self.rows)

    # -- multiplicative structure ---------------------------------------------

    def cofactor(self) -> "Matrix":
        """Signed-minor matrix C(A) with C(A)_ij = (-1)^(i+j) det(A without
        row i and column j). Satisfies C(AB) = C(A) C(B) on every square
        matrix and A C(A)^T = det(A) I; defined for size two and up.

        Computed once and kept on A, as the inverse is: every later call
        returns the same object, so map evaluations that take the cofactor
        of one input (an expression's Cof atoms and a form with eps = 1)
        share it. The kept cofactor takes no part in equality, hashing,
        repr or pickling, and no product, conjugate, transpose or scaling of
        A inherits it.

        At n <= 3 C(A) is read off the signed (n - 1)-minors of the integer
        rows, exact at every rank, with no elimination: for P the integer
        numerators and den_i the row denominators, row i of C(A) is row i
        of C(P) over the product of the den_k with k != i, reduced by one
        gcd. Like a product, C(A) keeps only its integer rows. A that
        knows no determinant gets det A = (row 0 of P).(row 0 of C(P)) /
        (product of the den_i).

        At n >= 4 a matrix the package built from a generator word carries
        it, as _word = (x, triples) with A = D_1(x) P_i1j1(k1) ... P_imjm(km);
        _word_matrix, through which gen_matrix and identity build, is its
        one setter, and a conjugate carries no word. Then C(A)
        is read off the word with no elimination and no sweep: C is
        multiplicative, C(D_1(x)) = diag(1, x, ..., x) and C(P_ij(k)) =
        P_ji(-k), so C(A) = diag(1, x, ..., x) P_j1i1(-k1) ... P_jmim(-km):
        m row updates on the rows of the identity, then rows 2 to n scaled
        by x. A has det x and C gets x^(n-1).

        At n >= 4 without a word one elimination of [A | I] gives the rank
        of A and the signed product P of its pivots, the reciprocal of det E
        for the elimination E, the right block, with E A the reduced echelon
        form:
          - rank n: P = det(A) and C = det(A) (A^-1)^T;
          - rank n - 1: C = C(E)^-1 C(E A) = P E^T C(E A), and C(E A) is
            nonzero only in its last row, whose entry at the free column is
            (-1)^(n-1+free) and which is proportional to x, A x = 0 from the
            reduced left block; so C = (-1)^(n-1+free) P y x^T with y^T the
            last row of E;
          - rank n - 2 or less: every minor vanishes, so C = 0.
        A keeps its determinant, P or zero, and C gets det(A)^(n-1). The
        elimination runs on a copy, so it leaves no echelon form or inverse
        cached on self."""
        c = self._cof
        if c is None:
            c = _cofactor(self)
            _set(self, "_cof", c)
        return c

    def is_idempotent(self) -> bool:
        return self.is_square and self * self == self

    # -- serialization ---------------------------------------------------------

    def to_doc(self) -> dict:
        n = self._require_square("serialization")
        return {
            "field": self.field.to_doc(),
            "n": n,
            "entries": [[format_scalar(x) for x in r] for r in self.rows],
        }

    @classmethod
    def from_doc(cls, doc: object) -> "Matrix":
        if not isinstance(doc, dict):
            raise ParseError("matrix document must be an object")
        fd = FieldDescriptor.from_doc(doc.get("field"))
        n = doc.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParseError("matrix document needs a positive integer 'n'")
        entries = doc.get("entries")
        if not isinstance(entries, list) or len(entries) != n:
            raise ParseError(f"'entries' must be a list of {n} rows")
        rows = []
        for r in entries:
            if not isinstance(r, list) or len(r) != n:
                raise ParseError(f"each row must list {n} scalars")
            rows.append([parse_scalar(x, fd) for x in r])
        return cls(fd, rows)


_new = object.__new__


def _fill(m: Matrix, fd: FieldDescriptor, n_rows: int, n_cols: int, rows, irows) -> None:
    """Set every slot of a new matrix from its entries or from its integer
    rows; the other caches start empty."""
    _set(m, "field", fd)
    _set(m, "n_rows", n_rows)
    _set(m, "n_cols", n_cols)
    _set(m, "_rows", rows)
    _set(m, "_reduced", None)
    _set(m, "_inv", None)
    _set(m, "_det", None)
    _set(m, "_irows", irows)
    _set(m, "_icols", None)
    _set(m, "_word", None)
    _set(m, "_cof", None)


def _cofactor(a: Matrix) -> Matrix:
    """C(a) by the route Matrix.cofactor describes, computed afresh."""
    n = a._require_square("cofactor")
    if n < 2:
        raise DimensionMismatch("cofactor needs size at least two")
    fd = a.field
    if n <= 3:
        rows = a._int_rows()
        minors = _minor_rows(fd.d, rows)
        den = prod(v[2] for v in rows)
        if a._det is None:
            p, q = _bilinear(fd.d, _dot, rows[0], minors[0])
            _set(a, "_det", _norm(fd, p[0], q[0] if q else 0, den))
        c = _new(Matrix)
        vectors = [_reduce_integer_vector(*m, den // v[2]) for m, v in zip(minors, rows)]
        _fill(c, fd, n, n, None, vectors)
        _set(c, "_det", a._det ** (n - 1))
        return c
    if a._word is not None:
        x, word = a._word
        _set(a, "_det", x)
        rows = _transvect(_identity_rows(fd, n), [(j, i, -k) for i, j, k in word])
        if not x.is_one:
            rows[1:] = [_scale_row(x, r) for r in rows[1:]]
        c = Matrix._of(fd, rows)
        _set(c, "_det", x ** (n - 1))
        return c
    rows, pivots, det = _eliminate(fd, _augment_identity(a), n)
    rank = len(pivots)
    _set(a, "_det", det if rank == n else zero(fd))
    if rank == n:
        # the transpose of det(A) A^-1, the right block of the rows
        c = Matrix._of(fd, zip(*(_scale_row(det, row[n:]) for row in rows)))
        _set(c, "_det", det ** (n - 1))
        return c
    if rank < n - 1:
        c = zeros(fd, n)
    else:
        free = next(col for col in range(n) if col not in pivots)
        x = _null_vector(fd, rows, pivots, free, n)
        scale = -det if (n - 1 + free) % 2 else det
        c = Matrix._of(fd, [_scale_row(scale * yi, x) for yi in rows[n - 1][n:]])
    _set(c, "_det", zero(fd))
    return c


# -- elimination ------------------------------------------------------------------


def _eliminate(fd: FieldDescriptor, rows: list[list[FieldElem]], n_pivot_cols: int):
    """Gauss-Jordan elimination of rows, in place, choosing pivots in the
    first n_pivot_cols columns only. Every pivot row is scaled to a leading
    one and its column is cleared in every other row; this is the one
    elimination loop of the package.

    Returns (rows, pivots, det): the pivot columns as a tuple and the signed
    product of the pivots, (-1)^(row swaps) times their product. For n rows
    whose first n columns are a square matrix that gets n pivots, det is its
    determinant; below full rank it is the reciprocal of the determinant of
    the row operations, which cofactor reads."""
    nr = len(rows)
    pivots = []
    det = one(fd)
    r = 0
    for c in range(n_pivot_cols):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if not rows[i][c].is_zero), None)
        if p is None:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
            det = -det
        pivot = rows[r][c]
        det = det * pivot
        pivot_row = rows[r] = _scale_row(pivot.inv(), rows[r])
        for i in range(nr):
            f = rows[i][c]
            if i != r and not f.is_zero:
                rows[i] = _sub_mul_row(rows[i], f, pivot_row)
        pivots.append(c)
        r += 1
    return rows, tuple(pivots), det


def _bareiss(a: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: after each step every entry is a minor of a, so dividing
    by the previous pivot is exact. a itself is not changed."""
    sign, prev = 1, 1
    while len(a) > 1:
        k = next((i for i, r in enumerate(a) if r[0]), None)
        if k is None:
            return 0
        if k:
            a = [a[k], *a[1:k], a[0], *a[k + 1 :]]
            sign = -sign
        (pivot, *top), *rest = a
        a = [[(x * pivot - r[0] * y) // prev for x, y in zip(r[1:], top)] for r in rest]
        prev = pivot
    return sign * a[0][0]


def _bareiss_surd(d: int, a: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """_bareiss over Z[sqrt d], entries (u, v) standing for u + v sqrt d:
    dividing by the previous pivot u + v sqrt d is multiplying by its
    conjugate and dividing both coordinates exactly by its norm."""
    sign, pu, pv, norm = 1, 1, 0, 1
    while len(a) > 1:
        k = next((i for i, r in enumerate(a) if r[0] != (0, 0)), None)
        if k is None:
            return 0, 0
        if k:
            a = [a[k], *a[1:k], a[0], *a[k + 1 :]]
            sign = -sign
        ((ku, kv), *top), *rest = a
        a = []
        for (ru, rv), *xs in rest:
            row = []
            for (xu, xv), (yu, yv) in zip(xs, top):
                u = xu * ku + d * xv * kv - ru * yu - d * rv * yv
                v = xu * kv + xv * ku - ru * yv - rv * yu
                row.append(((u * pu - d * v * pv) // norm, (v * pu - u * pv) // norm))
            a.append(row)
        pu, pv, norm = ku, kv, ku * ku - d * kv * kv
    u, v = a[0][0]
    return sign * u, sign * v


def _minor_rows(d: int, rows) -> list:
    """The rows of C(P), P the numerators in Z[sqrt d] of the integer rows
    (ps, qs, den) of a 2 x 2 or 3 x 3 matrix, each as (ps, qs): row i is the
    c with c.x = det(P with row i replaced by x), at n = 2 the other row
    turned a quarter, at n = 3 the cross product of the next two rows."""
    if len(rows) == 3:
        return [_bilinear(d, _cross, rows[i - 2], rows[i - 1]) for i in range(3)]
    (p0, q0, _), (p1, q1, _) = rows
    return [([p1[1], -p1[0]], q1 and [q1[1], -q1[0]]), ([-p0[1], p0[0]], q0 and [-q0[1], q0[0]])]


def _bilinear(d: int, f, u, v) -> tuple:
    """f(u, v) in Z[sqrt d] for an f from two integer vectors to a list that
    is linear in each: u, v and the result start with (ps, qs), qs None
    where there is no surd part."""
    up, uq, vp, vq = u[0], u[1], v[0], v[1]
    p = f(up, vp)
    if uq is None:
        return p, vq and f(up, vq)
    if vq is None:
        return p, f(uq, vp)
    return [x + d * y for x, y in zip(p, f(uq, vq))], list(map(add, f(up, vq), f(uq, vp)))


def _cross(u, v) -> list:
    u0, u1, u2 = u
    v0, v1, v2 = v
    return [u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0]


def _dot(u, v) -> list:
    return [sum(map(mul, u, v))]


def _transvect(rows, word) -> list:
    """The rows of P_1 ... P_m M, for the rows of M and a word of one-based
    (i, j, k) triples standing for P_ij(k): the transvections, last first,
    add k times row j to row i, one fused update per nonzero entry of row j."""
    rows = list(rows)
    for i, j, k in reversed(word):
        rows[i - 1] = _sub_mul_row(rows[i - 1], -k, rows[j - 1])
    return rows


def _null_vector(fd: FieldDescriptor, rows, pivots, free: int, width: int) -> list[FieldElem]:
    """The null vector of the reduced rows with a one at the free column
    and zeros at the other free columns."""
    v = [zero(fd)] * width
    v[free] = one(fd)
    for r, pc in enumerate(pivots):
        v[pc] = -rows[r][free]
    return v


def _augment_identity(m: Matrix) -> list[list[FieldElem]]:
    """The rows of [m | I] for square m."""
    return [[*r, *e] for r, e in zip(m.rows, _identity_rows(m.field, m.n_rows))]


# -- constructors --------------------------------------------------------------


def _check_domain(fd, n, what: str) -> None:
    """Refuse an fd that is no FieldDescriptor, with FieldMismatch, and an n
    that is no int of at least 1 (bools included), with DimensionMismatch;
    what names the objects in the message."""
    if not isinstance(fd, FieldDescriptor):
        raise FieldMismatch(f"{what} need a FieldDescriptor field")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DimensionMismatch(f"{what} need n >= 1")


def _diagonal_rows(fd: FieldDescriptor, entries: list) -> list:
    """The rows of the square matrix with this diagonal."""
    z = zero(fd)
    return [[x if i == j else z for j in range(len(entries))] for i, x in enumerate(entries)]


@cache
def _identity_rows(fd: FieldDescriptor, n: int) -> tuple:
    """The rows of I_n, as tuples, built once per field and size; the
    callers only read them."""
    return tuple(map(tuple, _diagonal_rows(fd, [one(fd)] * n)))


def diag(fd: FieldDescriptor, entries) -> Matrix:
    """The square matrix with the given diagonal and zeros elsewhere; it
    knows its determinant, the product of the diagonal."""
    entries = list(entries)
    m = Matrix(fd, _diagonal_rows(fd, entries))
    _set(m, "_det", prod(entries, start=one(fd)))
    return m


def identity(fd: FieldDescriptor, n: int) -> Matrix:
    """I_n, which knows its determinant, one, and carries the empty word."""
    _check_domain(fd, n, "matrices")
    return _word_matrix(fd, n, one(fd), ())


def _word_matrix(fd: FieldDescriptor, n: int, x: FieldElem, word) -> Matrix:
    """D_1(x) P_1 ... P_m, n x n, for a nonzero x of fd and a word of one-based
    (i, j, k) triples standing for P_ij(k), as _transvection_triples draws
    them: the transvections act on the rows of I_n, last first, and x
    scales the first row. The matrix carries det x and the word, from which
    its cofactor is read with no elimination."""
    m = _dilated_word(x, word, fd, _identity_rows(fd, n), x)
    _set(m, "_word", (x, tuple(word)))
    return m


def _dilated_word(
    x: FieldElem, word, fd: FieldDescriptor, rows, det: FieldElem | None = None
) -> Matrix:
    """D_1(x) P_1 ... P_m M for a word of (i, j, k) triples and the rows of
    M: the transvections act on the rows, and the dilation scales the first
    row last. A det given by the caller, x det M, is carried as the
    determinant of the result. The result carries no word, even on the rows
    of the identity: _word_matrix sets it on the matrices it builds."""
    rows = _transvect(rows, word)
    if not x.is_one:
        rows[0] = _scale_row(x, rows[0])
    m = Matrix._of(fd, rows)
    if det is not None:
        _set(m, "_det", det)
    return m


def zeros(fd: FieldDescriptor, n: int) -> Matrix:
    """The zero matrix, which knows its determinant, zero."""
    _check_domain(fd, n, "matrices")
    m = Matrix._of(fd, [[zero(fd)] * n] * n)
    _set(m, "_det", zero(fd))
    return m


def from_columns(fd: FieldDescriptor, columns) -> Matrix:
    cols = list(columns)
    if not cols:
        raise DimensionMismatch("need at least one column")
    return Matrix(fd, [list(row) for row in zip(*cols)])


def unit_matrix(fd: FieldDescriptor, n: int, i: int, j: int) -> Matrix:
    """E_ij, one-based: 1 in row i column j and 0 elsewhere."""
    _check_domain(fd, n, "matrices")
    _check_int_indices("unit matrix", i, j)
    _check_index(n, i, j)
    z = zero(fd)
    rows = [[z] * n for _ in range(n)]
    rows[i - 1][j - 1] = one(fd)
    return Matrix._of(fd, rows)


def rank_idempotent(fd: FieldDescriptor, n: int, r: int) -> Matrix:
    """diag(1 ... 1, 0 ... 0) with r ones."""
    _check_domain(fd, n, "matrices")
    _check_int_indices("rank idempotent", r)
    if not 0 <= r <= n:
        raise IndexOutOfRange(f"rank {r} outside 0..{n}")
    return Matrix._of(fd, _diagonal_rows(fd, [one(fd)] * r + [zero(fd)] * (n - r)))


def coidempotent(fd: FieldDescriptor, n: int, j: int) -> Matrix:
    """I - E_jj, one-based; the rank n-1 diagonal idempotent with hole j."""
    return identity(fd, n) - unit_matrix(fd, n, j, j)


# -- elementary generators -------------------------------------------------------


def _check_index(n: int, *indices: int) -> None:
    for i in indices:
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"index {i} outside 1..{n}")


def _check_int_indices(what: str, *indices) -> None:
    """Refuse indices that are no ints (bools included), with
    IndexOutOfRange. The generator constructors call it only when an index
    is not a plain int, since words build generators by the thousand."""
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool):
            raise IndexOutOfRange(f"{what} index must be an int, got {i!r}")


class Transvection(Value):
    """P_ij(k) = I + k E_ij with i != j; determinant one. An index that is no
    int of at least one, or i = j, raises IndexOutOfRange, and a k that is no
    FieldElem FieldMismatch."""

    __slots__ = ("i", "j", "k")

    def __init__(self, i: int, j: int, k: FieldElem) -> None:
        if i.__class__ is not int or j.__class__ is not int:
            _check_int_indices("transvection", i, j)
        if i < 1 or j < 1 or i == j:
            raise IndexOutOfRange("transvection needs distinct one-based indices")
        if not isinstance(k, FieldElem):
            raise FieldMismatch("transvection scalar must be a field element")
        _set(self, "i", i)
        _set(self, "j", j)
        _set(self, "k", k)

    def inv(self) -> "Transvection":
        return Transvection(self.i, self.j, -self.k)


class DiagUnit(Value):
    """D_i(k) = I + (k - 1) E_ii with k != 0; determinant k. An index that
    is no int of at least one raises IndexOutOfRange, and a k that is no
    FieldElem FieldMismatch."""

    __slots__ = ("i", "k")

    def __init__(self, i: int, k: FieldElem) -> None:
        if i.__class__ is not int:
            _check_int_indices("diagonal unit", i)
        if i < 1:
            raise IndexOutOfRange("diagonal unit needs a one-based index")
        if not isinstance(k, FieldElem):
            raise FieldMismatch("diagonal scalar must be a field element")
        if k.is_zero:
            raise SingularMatrix("diagonal unit with zero scale")
        _set(self, "i", i)
        _set(self, "k", k)

    def inv(self) -> "DiagUnit":
        return DiagUnit(self.i, self.k.inv())


class Swap(Value):
    """The transposition matrix exchanging coordinates i and j; det -1. An
    index that is no int of at least one, or i = j, raises IndexOutOfRange."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int) -> None:
        if i.__class__ is not int or j.__class__ is not int:
            _check_int_indices("swap", i, j)
        if i < 1 or j < 1 or i == j:
            raise IndexOutOfRange("swap needs distinct one-based indices")
        _set(self, "i", i)
        _set(self, "j", j)

    def inv(self) -> "Swap":
        return self


Generator = Transvection | DiagUnit | Swap


def _check_generator(gen: Generator, fd: FieldDescriptor, n: int) -> None:
    """Raise unless gen is an elementary generator of n x n matrices over fd."""
    if isinstance(gen, Transvection):
        _check_index(n, gen.i, gen.j)
        if gen.k.field != fd:
            raise FieldMismatch("transvection scalar outside the field")
    elif isinstance(gen, DiagUnit):
        _check_index(n, gen.i)
        if gen.k.field != fd:
            raise FieldMismatch("diagonal scalar outside the field")
    elif isinstance(gen, Swap):
        _check_index(n, gen.i, gen.j)
    else:
        raise ParseError(f"not a word generator: {gen!r}")


def gen_matrix(gen: Generator, fd: FieldDescriptor, n: int) -> Matrix:
    """Realize an elementary generator as an n x n matrix, which knows its
    determinant: 1, k or -1. A transvection P_ij(k) and a dilation D_1(k)
    are built by _word_matrix, so they carry the words (1, [(i, j, k)]) and
    (k, []); D_i(k) for i >= 2 and a swap carry none."""
    _check_generator(gen, fd, n)
    if isinstance(gen, Transvection):
        return _word_matrix(fd, n, one(fd), ((gen.i, gen.j, gen.k),))
    if isinstance(gen, DiagUnit) and gen.i == 1:
        return _word_matrix(fd, n, gen.k, ())
    m = [list(r) for r in _identity_rows(fd, n)]
    if isinstance(gen, DiagUnit):
        m[gen.i - 1][gen.i - 1] = gen.k
        det = gen.k
    else:
        a, b = gen.i - 1, gen.j - 1
        m[a], m[b] = m[b], m[a]
        det = -one(fd)
    g = Matrix._of(fd, m)
    _set(g, "_det", det)
    return g


def solve_exact(a: Matrix, b: Matrix) -> Matrix:
    """The unique X with a X = b, for a of full column rank; raises
    SingularMatrix when the columns are dependent or the system has no
    solution."""
    if a.field != b.field:
        raise FieldMismatch("mixed-field linear solve")
    if a.n_rows != b.n_rows:
        raise DimensionMismatch("row counts disagree in linear solve")
    m = a.n_cols
    aug = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    rows, pivots, _ = _eliminate(a.field, aug, m + b.n_cols)
    if pivots != tuple(range(m)):
        raise SingularMatrix("linear system is rank deficient or inconsistent")
    return Matrix(a.field, [row[m:] for row in rows[:m]])


# -- structural recoveries -------------------------------------------------------


def split_idempotent_pair(p_zero: Matrix, p_one: Matrix):
    """Simultaneously block-diagonalize a commuting idempotent pair with
    p_zero below p_one (both products equal p_zero).

    Returns (S, s, l) where s = rank p_zero, l = rank p_one - s, and
    S^-1 p_zero S = diag(0_l, 0, I_s), S^-1 p_one S = diag(I_l, 0, I_s).
    For the pair (0, I) the basis comes out in standard order, so S = I.
    """
    k = p_zero._require_square("idempotent splitting")
    if p_one.n_rows != k or not p_one.is_square or p_one.field != p_zero.field:
        raise DimensionMismatch("idempotent pair must be square of equal size")
    if not p_zero.is_idempotent() or not p_one.is_idempotent():
        raise NotCommutingIdempotents("images of 0 and I must be idempotent")
    if p_zero * p_one != p_zero or p_one * p_zero != p_zero:
        raise NotCommutingIdempotents(
            "images of 0 and I must commute with product the image of 0"
        )
    s = p_zero.rank
    l = p_one.rank - s
    # e = p_one - p_zero is idempotent with e p_zero = p_zero e = 0, so these
    # columns are a basis in which both projectors take the forms above
    columns = (
        (p_one - p_zero).image_basis() + p_one.kernel_basis() + p_zero.image_basis()
    )
    return from_columns(p_zero.field, columns), s, l


def conjugator_from_units(units: list[list[Matrix]]) -> Matrix:
    """Given F[i][j] (zero-based lists) claimed to behave like matrix units,
    find R with R F_ij R^-1 = E_ij; raises NotMatrixUnits when there is none.

    R^-1 = [F_11 v | F_21 v | ... | F_n1 v] for v the first nonzero column of
    F_11, and R is returned only if every F_ij equals (column i of R^-1)
    (row j of R), which is R F_ij R^-1 = E_ij itself. This accepts exactly
    the families with F_ij F_kl = delta_jk F_il and F_11 nonzero: the E_ij
    satisfy the relations, so their conjugates do; conversely the relations
    give F_ij F_m1 v = delta_jm F_i1 v, so R^-1 is invertible (F_1m picks out
    the m-th coefficient) and F_ij R^-1 = R^-1 E_ij. If F_11 = 0, the
    relations force every F_ij = F_i1 F_11 F_1j to vanish. The result is
    normalized so its first nonzero entry in row major order is one.
    """
    n = len(units)
    if n < 1 or any(len(row) != n for row in units):
        raise DimensionMismatch("unit family must be square")
    f11 = units[0][0]
    fd = f11.field
    if f11.n_rows != n:
        raise DimensionMismatch("full unit recovery needs n x n units in M_n")
    violated = "matrix unit relations F_ij F_kl = delta_jk F_il violated"
    v = next((c for c in zip(*f11.rows) if any(not x.is_zero for x in c)), None)
    if v is None:
        if all(f.is_zero for row in units for f in row):
            raise NotMatrixUnits("F_11 is zero, no unit structure to recover")
        raise NotMatrixUnits(violated)
    v_mat = from_columns(fd, [v])
    r_inv = from_columns(fd, [(units[j][0] * v_mat).column(0) for j in range(n)])
    try:
        r = r_inv.inverse()
    except SingularMatrix:
        raise NotMatrixUnits(violated) from None
    # F_ij = (column i of R^-1)(row j of R): n^2 rank-one checks, no product
    for i, family in enumerate(units):
        for f, r_row in zip(family, r.rows):
            if f.rows != tuple(tuple(_scale_row(row[i], r_row)) for row in r_inv.rows):
                raise NotMatrixUnits(violated)
    return normalize_scale(r)


def normalize_scale(m: Matrix) -> Matrix:
    """Scale so the first nonzero entry in row-major order equals one."""
    for row in m.rows:
        for x in row:
            if not x.is_zero:
                return m.scale(x.inv())
    return m
