"""Exact dense matrices over the scalar layer.

Matrices are immutable value objects with two forms of their entries:
rows, tuples of FieldElem, and integer rows, every row as integers over
the row's least common denominator. Each matrix computes at most once, and
caches, the form it lacks, its columns over the least common denominator
of the whole matrix, its determinant, its reduced row echelon rows with
their pivots, its inverse and its cofactor. A product reads the integer
rows of its left operand and the integer columns of its right one, so
every entry is one integer sum. A product, a scalar multiple of any
matrix and an entrywise conjugate keep only their integer rows, each
reduced by one gcd (the conjugate negates the surd numerators): their
FieldElem entries are built on the first read of rows (directly or
through indexing, hash, repr, to_doc or elimination). The next product,
the determinant, is_identity, and equality with a matrix that has no
entries yet read the integer rows alone.

Every structured matrix has one builder, _word_matrix, and is a diagonal
word diag(e) P_1 ... P_m: transvections P_ij(k) acting on the rows of I_n,
then the diagonal e scaling the rows. identity, zeros, diag, the rank
idempotents, I - E_jj, the matrix units (E_ij = diag(delta_i) P_ij(1)
P_ji(-1) for i != j), the three generators (D_i(k), P_ij(k) and the swap
S_ij = D_j(-1) P_ij(1) P_ji(-1) P_ij(1)), random_sl, random_gl and the
invertible final-verification samples of classify are all built so. Each
carries its word, with e kept as the pairs whose e_i != 1, and det = the
product of the e_i. Builders state what a matrix is, never a value derived
from it.

The cofactor has one rule for every such matrix. C is multiplicative, so
C(diag(e) P_1 ... P_m) = diag(c) P'_1 ... P'_m, with c_i the product of the
e_k for k != i and P' = P_ji(-k) for P = P_ij(k): m row updates on the rows
of I_n, then one scaling per row. It is zero once two e_i vanish. The
cofactor takes one of three routes. At n <= 3 it reads the signed minors
off the integer rows, exact at every rank, with no elimination, keeps only
its integer rows like a product, and gives an input that has no
determinant the expansion of its first row. At n >= 4 a matrix with a word
has its cofactor read off the word. Any other matrix at n >= 4 eliminates
once, which also gives the signed product of its pivots: the inverse and
that cofactor keep it on their input as its determinant. A conjugate,
product, scaling or transpose carries no word. Only the singular samples
of classify, G_1 diag(I_r, 0) G_2, which are no single word, are built
with a cofactor their builder computes (_singular_sample).
Whatever the route, a matrix keeps its cofactor, so a second call, from
another caller, reads it. Neither the word nor the kept cofactor takes part
in equality, hashing, repr or pickling, and no product, conjugate,
transpose or scaling inherits the cofactor. The inverse, the cofactor,
products of matrices with known determinants, scalings, entrywise
conjugates and every word receive their determinants when built, so a
matrix sweeps for its determinant only when nothing gave it one: one
fraction-free (Bareiss) sweep over the integer rows in Z[sqrt d], d = 0
over Q. Everything is exact and no pivot is chosen for numerical reasons,
so results are reproducible bit for bit.

Matrix(fd, rows) checks its input: nonempty, rectangular, every entry a
FieldElem of fd. The private Matrix._of(fd, rows) runs none of these checks.
It is only for matrices whose every entry the package built itself from
operands of one already-checked field: sums, negations, transposes,
inverses, cofactors, words, the word evaluations of slword, and the rows
decompose_gl scales by the inverse determinant. identity, zeros,
unit_matrix, rank_idempotent and coidempotent check their field, size and
indices before they build.
Everything read from outside goes through the checked constructor.

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
        if not isinstance(scalar, FieldElem) or scalar.field != self.field:
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
        """The entrywise conjugate, sqrt d -> -sqrt d, from the integer rows:
        (ps, qs, den) gives (ps, -qs, den), still reduced. Like a product,
        it keeps only its integer rows, and a known determinant gives its
        conjugate. The conjugate carries no word, even when self does: every
        cofactor is taken of a map's input (see cofactor), never of a
        conjugate."""
        m = _new(Matrix)
        vectors = [(ps, qs and [-q for q in qs], den) for ps, qs, den in self._int_rows()]
        _fill(m, self.field, self.n_rows, self.n_cols, None, vectors)
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
        determinants, a scaling, the entrywise conjugation, every word
        _word_matrix builds and the singular samples of classify receive
        theirs when built.
        Otherwise it is one fraction-free sweep over the integer rows in
        Z[sqrt d], d = 0 over Q, normalized once: det A = det(P) / (product
        of the row denominators), P the integer numerators."""
        if self._det is None:
            self._require_square("determinant")
            rows = self._int_rows()
            den = prod(v[2] for v in rows)
            p, q = _bareiss(
                self.field.d or 0, [list(zip(ps, qs or repeat(0))) for ps, qs, _ in rows]
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
        _set(self, "_det", det if len(pivots) == n else zero(fd))
        if len(pivots) < n:
            raise SingularMatrix("matrix is not invertible")
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

        Every route below leaves A with its determinant, and C(A) gets
        det(A)^(n-1) from _keep_cofactor, the one place that stores a
        cofactor and its determinant.

        Computed once and kept on A, as the inverse is: every later call
        returns the same object, so map evaluations that take the cofactor
        of one input (an expression's Cof atoms and a form with eps = 1)
        share it. The kept cofactor takes no part in equality, hashing,
        repr or pickling, and no product, conjugate, transpose or scaling of
        A inherits it. Only a singular final-verification sample of
        classify is built with its cofactor (_singular_sample), and then no
        route below runs.

        At n <= 3 C(A) is read off the signed (n - 1)-minors of the integer
        rows, exact at every rank, with no elimination: for P the integer
        numerators and den_i the row denominators, row i of C(A) is row i
        of C(P) over the product of the den_k with k != i, reduced by one
        gcd. Like a product, C(A) keeps only its integer rows. A that
        knows no determinant gets det A = (row 0 of P).(row 0 of C(P)) /
        (product of the den_i).

        At n >= 4 a matrix that _word_matrix built carries its word, as
        _word = (e, triples) with A = diag(e) P_i1j1(k1) ... P_imjm(km), e
        the zero-based (i, e_i) pairs whose e_i != 1, and has det A = the
        product of the e_i. C(A) is read off the word with no elimination
        and no sweep: C is multiplicative, C(diag(e)) = diag(c) with c_i
        the product of the e_k for k != i, and C(P_ij(k)) = P_ji(-k), so
        C(A) = diag(c) P_j1i1(-k1) ... P_jmim(-km): m row updates on the
        rows of the identity, then row i scaled by c_i. Two zeros in e make
        every c_i zero, and one zero at i leaves only row i.

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
        A keeps its determinant, P or zero. The elimination runs on a copy,
        so it leaves no echelon form or inverse cached on self."""
        c = self._cof
        if c is None:
            c = _cofactor(self)
            _keep_cofactor(self, c)
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


def _keep_cofactor(a: Matrix, c: Matrix) -> None:
    """Keep c as the cofactor of a, which knows its determinant, and give c
    det(a)^(n-1): the one place that stores a cofactor and its determinant,
    for Matrix.cofactor and for _singular_sample."""
    det = a.det
    _set(c, "_det", det if det.is_zero else det ** (a.n_rows - 1))
    _set(a, "_cof", c)


def _cofactor(a: Matrix) -> Matrix:
    """C(a) by the route Matrix.cofactor describes, computed afresh; every
    route leaves a with its determinant."""
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
        return c
    if a._word is not None:
        e, word = a._word
        if sum(x.is_zero for _, x in e) > 1:
            return _zero_matrix(fd, n)
        rows = _transvect(_identity_rows(fd, n), [(j, i, -k) for i, j, k in word])
        c = _cofactor_diagonal(fd, n, e)
        return Matrix._of(fd, [r if x.is_one else _scale_row(x, r) for x, r in zip(c, rows)])
    rows, pivots, det = _eliminate(fd, _augment_identity(a), n)
    rank = len(pivots)
    _set(a, "_det", det if rank == n else zero(fd))
    if rank == n:
        # the transpose of det(A) A^-1, the right block of the rows
        return Matrix._of(fd, zip(*(_scale_row(det, row[n:]) for row in rows)))
    if rank < n - 1:
        return zeros(fd, n)
    free = next(col for col in range(n) if col not in pivots)
    x = _null_vector(fd, rows, pivots, free, n)
    scale = -det if (n - 1 + free) % 2 else det
    return Matrix._of(fd, [_scale_row(scale * yi, x) for yi in rows[n - 1][n:]])


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


def _bareiss(d: int, a: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """The determinant of a square matrix over Z[sqrt d], entries (u, v)
    standing for u + v sqrt d, d = 0 over Q, by fraction-free (Bareiss)
    elimination: after each step every entry is a minor of a, so dividing
    by the previous pivot is exact. Dividing by u + v sqrt d is multiplying
    by its conjugate and dividing both coordinates exactly by its norm.
    a itself is not changed."""
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


def _cofactor_diagonal(fd: FieldDescriptor, n: int, e) -> list:
    """c with C(diag(e)) = diag(c), for the zero-based (i, e_i) pairs e of
    a diagonal whose other entries are one: c_i is the product of the e_k
    with k != i."""
    o = one(fd)
    c = [_product(e, o)] * n
    for t, (i, _) in enumerate(e):
        c[i] = _product(e[:t] + e[t + 1 :], o)
    return c


def _product(e, o: FieldElem) -> FieldElem:
    """The product of the e_i of the (i, e_i) pairs e, o when there are
    none, with no multiplication by o and none past a zero factor."""
    p = o
    for _, x in e:
        if x.is_zero:
            return x
        p = x if p is o else p * x
    return p


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


@cache
def _identity_rows(fd: FieldDescriptor, n: int) -> tuple:
    """The rows of I_n, as tuples, built once per field and size; the
    callers only read them."""
    o, z = one(fd), zero(fd)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def _word_matrix(fd: FieldDescriptor, n: int, e, word=()) -> Matrix:
    """diag(e) P_1 ... P_m, n x n, the one builder of every structured
    matrix, for e zero-based (i, e_i) pairs of distinct i, each e_i of fd
    (every index e does not name has entry one), and a word of one-based
    (i, j, k) triples standing for P_ij(k), as _transvection_triples draws
    them: the transvections act on the rows of I_n, last first, and then
    e_i scales row i; with no letters the rows are the diagonal itself.
    The matrix carries det = the product of the e_i and its word (e, word),
    e keeping only the pairs whose e_i != 1, from which its cofactor is
    read with no elimination (see Matrix.cofactor)."""
    rows = _transvect(_identity_rows(fd, n), word)
    kept = []
    for i, x in e:
        if not x.is_one:
            kept.append((i, x))
            rows[i] = _scale_row(x, rows[i]) if word else rows[i][:i] + (x,) + rows[i][i + 1 :]
    m = Matrix._of(fd, rows)
    _set(m, "_det", _product(kept, one(fd)))
    _set(m, "_word", (tuple(kept), tuple(word)))
    return m


def diag(fd: FieldDescriptor, entries) -> Matrix:
    """The square matrix with this diagonal, entries of fd the package
    built: a word with no letters."""
    entries = tuple(entries)
    return _word_matrix(fd, len(entries), enumerate(entries))


def identity(fd: FieldDescriptor, n: int) -> Matrix:
    """I_n, the empty word."""
    _check_domain(fd, n, "matrices")
    return _word_matrix(fd, n, ())


def zeros(fd: FieldDescriptor, n: int) -> Matrix:
    """The zero matrix, diag(0, ..., 0)."""
    _check_domain(fd, n, "matrices")
    return diag(fd, [zero(fd)] * n)


@cache
def _zero_matrix(fd: FieldDescriptor, n: int) -> Matrix:
    """zeros(fd, n), built once per field and size: the cofactor of every
    word with two zeros in e and of every singular sample of rank n - 2 or
    less, the value of a DetScale atom and of a degenerate form at a
    singular input, and the background classify reads images against. Its
    callers only read it, so they reuse its integer rows and columns in
    their products and comparisons."""
    return zeros(fd, n)


def _singular_sample(x: FieldElem, word, g: Matrix, r: int) -> Matrix:
    """G_1 diag(I_r, 0) G_2 of rank r < n, for G_1 = D_1(x) P_1 ... P_m
    given by x and its word and a word carrier G_2 = g: G_1 applied to the
    rows of G_2 with those from r on zero. No single word, it carries det
    zero and a cofactor computed here: zero at r <= n - 2, and at r = n - 1
    from n = 4 on C(G_1) E_nn C(G_2), column n of C(G_1) times row n of
    C(G_2), both read off the words (at n <= 3 the minors are as cheap)."""
    fd, n = g.field, g.n_rows
    z = zero(fd)
    rows = _transvect(g.rows[:r] + ((z,) * n,) * (n - r), word)
    rows[0] = _scale_row(x, rows[0])
    a = Matrix._of(fd, rows)
    _set(a, "_det", z)
    if r <= n - 2:
        _keep_cofactor(a, _zero_matrix(fd, n))
    elif n >= 4:
        col = _cofactor_line(((0, x),), word, fd, n, False)
        row = _cofactor_line(*g._word, fd, n, True)
        _keep_cofactor(a, Matrix._of(fd, [_scale_row(c, row) for c in col]))
    return a


def _cofactor_line(e, word, fd: FieldDescriptor, n: int, row: bool) -> list:
    """Column n of C(G), or row n when row is set, for G = diag(e) P_1 ...
    P_m, n >= 2: C(G) = diag(c) P'_1 ... P'_m with P' = P_ji(-k) for P =
    P_ij(k) and c from _cofactor_diagonal, so column n is diag(c) P'_1 ...
    P'_m e_n and row n is c_n (P'_m^T ... P'_1^T e_n)^T: m updates of
    e_n."""
    c = _cofactor_diagonal(fd, n, e)
    e_n = [(zero(fd),)] * (n - 1) + [(one(fd),)]
    if row:
        line = [v for v, in _transvect(e_n, [(i, j, -k) for i, j, k in reversed(word)])]
        return _scale_row(c[-1], line)
    return [x * v for x, (v,) in zip(c, _transvect(e_n, [(j, i, -k) for i, j, k in word]))]


def from_columns(fd: FieldDescriptor, columns) -> Matrix:
    """The matrix with these columns, each a list or tuple of entries of fd.
    No columns, columns that are no list or tuple of lists or tuples, and
    columns of unequal lengths raise DimensionMismatch."""
    if not isinstance(columns, (list, tuple)) or not all(
        isinstance(c, (list, tuple)) for c in columns
    ):
        raise DimensionMismatch("columns must be a list of lists or tuples")
    if not columns:
        raise DimensionMismatch("need at least one column")
    if len({len(c) for c in columns}) != 1:
        raise DimensionMismatch("columns of unequal lengths")
    return Matrix(fd, [list(row) for row in zip(*columns)])


def unit_matrix(fd: FieldDescriptor, n: int, i: int, j: int) -> Matrix:
    """E_ij, one-based: 1 in row i column j and 0 elsewhere; diag(delta_i)
    for i = j and diag(delta_i) P_ij(1) P_ji(-1) otherwise."""
    _check_domain(fd, n, "matrices")
    _check_int_indices("unit matrix", i, j)
    _check_index(n, i, j)
    z, o = zero(fd), one(fd)
    e = [(k, z) for k in range(n) if k != i - 1]
    return _word_matrix(fd, n, e, () if i == j else ((i, j, o), (j, i, -o)))


def rank_idempotent(fd: FieldDescriptor, n: int, r: int) -> Matrix:
    """diag(1 ... 1, 0 ... 0) with r ones."""
    _check_domain(fd, n, "matrices")
    _check_int_indices("rank idempotent", r)
    if not 0 <= r <= n:
        raise IndexOutOfRange(f"rank {r} outside 0..{n}")
    return _word_matrix(fd, n, [(k, zero(fd)) for k in range(r, n)])


def coidempotent(fd: FieldDescriptor, n: int, j: int) -> Matrix:
    """I - E_jj, one-based; the rank n-1 diagonal idempotent with hole j."""
    _check_domain(fd, n, "matrices")
    _check_int_indices("unit matrix", j)
    _check_index(n, j)
    return _word_matrix(fd, n, ((j - 1, zero(fd)),))


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
    """Realize an elementary generator as an n x n word: P_ij(k), D_i(k)
    = diag(..., k at i, ...) and the swap S_ij = D_j(-1) P_ij(1) P_ji(-1)
    P_ij(1), with determinants 1, k and -1."""
    _check_generator(gen, fd, n)
    if isinstance(gen, Transvection):
        return _word_matrix(fd, n, (), ((gen.i, gen.j, gen.k),))
    if isinstance(gen, DiagUnit):
        return _word_matrix(fd, n, ((gen.i - 1, gen.k),))
    i, j, o = gen.i, gen.j, one(fd)
    return _word_matrix(fd, n, ((j - 1, -o),), ((i, j, o), (j, i, -o), (i, j, o)))


def solve_exact(a: Matrix, b: Matrix) -> Matrix:
    """The unique X with a X = b, for a of full column rank; raises
    SingularMatrix when the columns are dependent or the system has no
    solution."""
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise DimensionMismatch("linear solve needs two matrices")
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
    if not isinstance(p_zero, Matrix) or not isinstance(p_one, Matrix):
        raise DimensionMismatch("idempotent pair must be matrices")
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
    if not all(isinstance(f, Matrix) for row in units for f in row):
        raise DimensionMismatch("unit family must hold matrices")
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
