"""Transvection words: factoring special linear matrices into elementary
generators, evaluating generator words, and seeded random sampling.

decompose_sl runs a Gauss-Jordan sweep that uses row transvections only.
Each pivot is first driven to exactly 1 by adding a multiple of another row
(at most two operations, never a diagonal scaling), after which the rest of
the column is cleared. A determinant-one n x n input therefore factors into
at most n^2 + n - 2 transvections, and simple inputs stay short: a single
transvection decomposes as itself. Transvections keep the determinant, so
the determinant-one check is read off the sweep: once columns 0..n-2 match
the identity, the last diagonal entry is det m.

decompose_gl computes det m once, divides it out of the first row (the
product D_1(1/det m) m as a row scaling) and factors the rest with
decompose_sl; GlFactorization.evaluate puts D_1(det m) back the same way, as
the first generator of the word it evaluates.

Word convention: a word [g1, g2, ..., gm] denotes the product g1 g2 ... gm
in that order, so evaluate_word folds from the right.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .errors import (
    DimensionMismatch,
    NotSpecialLinear,
    ParseError,
    SingularMatrix,
)
from .field import (
    FieldDescriptor,
    FieldElem,
    _scale_row,
    _sub_mul_row,
    format_scalar,
    one,
    scalars,
)
from .matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _check_domain,
    _check_generator,
    _dilated_word,
    _transvect,
    identity,
)
from .value import Value


@cache
def default_pool(fd: FieldDescriptor) -> tuple[FieldElem, ...]:
    """Small nonzero scalars, the one pool every sampler draws from."""
    half = Fraction(1, 2)
    return scalars(fd, (1, -1, 2, -2, half, -half, 3), ((0, 1), (1, 1)))


def evaluate_word(word, fd: FieldDescriptor, n: int) -> Matrix:
    """Product of the generators in list order, as an n x n matrix: once
    every generator is checked, they act, last first, on the rows of the
    identity from the left. A transvection adds k times row j to row i as
    one fused update per entry, skipping the zero entries of row j."""
    if not isinstance(word, (list, tuple)):
        raise ParseError("a word is a list of generators")
    for gen in reversed(word):
        _check_generator(gen, fd, n)
    rows = [list(r) for r in identity(fd, n).rows]
    for gen in reversed(word):
        if isinstance(gen, Transvection):
            i, j = gen.i - 1, gen.j - 1
            rows[i] = _sub_mul_row(rows[i], -gen.k, rows[j])
        elif isinstance(gen, DiagUnit):
            i = gen.i - 1
            rows[i] = _scale_row(gen.k, rows[i])
        else:
            a, b = gen.i - 1, gen.j - 1
            rows[a], rows[b] = rows[b], rows[a]
    return Matrix._of(fd, rows)


def decompose_sl(m: Matrix) -> list[Transvection]:
    """Factor a determinant-one matrix into transvections.

    Returns word with evaluate_word(word) == m and
    len(word) <= n^2 + n - 2. Raises NotSpecialLinear when m is not square
    or det m != 1, singular m included.
    """
    if not isinstance(m, Matrix):
        raise DimensionMismatch("decomposition needs a matrix")
    n = m.n_rows
    if not m.is_square:
        raise NotSpecialLinear("decomposition needs a square matrix")
    fd = m.field
    o = one(fd)
    rows = [list(r) for r in m.rows]
    word: list[Transvection] = []

    def sub_multiple(i: int, j: int, f: FieldElem) -> None:
        # row_i -= f row_j, one fused update per nonzero entry of row j; the
        # word records the inverse operation P_(i+1)(j+1)(f), so that it
        # multiplies back to m
        rows[i] = _sub_mul_row(rows[i], f, rows[j])
        word.append(Transvection(i + 1, j + 1, f))

    for p in range(n - 1):
        if rows[p][p] != o:
            r = next((i for i in range(p + 1, n) if not rows[i][p].is_zero), None)
            if r is None:
                if rows[p][p].is_zero:
                    # column p vanishes from row p down, so m is singular
                    raise NotSpecialLinear("determinant must be exactly one")
                # seed a row below with the nonzero pivot
                sub_multiple(p + 1, p, -o)
                r = p + 1
            sub_multiple(p, r, (rows[p][p] - o) / rows[r][p])
        for i in range(n):
            if i != p and not rows[i][p].is_zero:
                sub_multiple(i, p, rows[i][p])
    # columns 0..n-2 now match the identity, so the last diagonal entry is
    # det m; when it is one only the last column needs clearing above it
    if rows[n - 1][n - 1] != o:
        raise NotSpecialLinear("determinant must be exactly one")
    for i in range(n - 1):
        if not rows[i][n - 1].is_zero:
            sub_multiple(i, n - 1, rows[i][n - 1])
    return word


class GlFactorization(Value):
    """m = D_1(det_scalar) * product(word)."""

    __slots__ = ("det_scalar", "word")

    def evaluate(self, fd: FieldDescriptor, n: int) -> Matrix:
        dilation = DiagUnit(1, self.det_scalar)
        _check_generator(dilation, fd, n)
        return evaluate_word([dilation, *self.word], fd, n)


def decompose_gl(m: Matrix) -> GlFactorization:
    """Factor an invertible matrix as D_1(det m) times a transvection word."""
    if not isinstance(m, Matrix):
        raise DimensionMismatch("decomposition needs a matrix")
    d = m.det
    if d.is_zero:
        raise SingularMatrix("cannot decompose a singular matrix")
    rows = list(m.rows)
    rows[0] = _scale_row(d.inv(), rows[0])
    return GlFactorization(d, decompose_sl(Matrix._of(m.field, rows)))


# -- seeded sampling -------------------------------------------------------------


def _word_length(fd: FieldDescriptor, n: int, length: int | None) -> int:
    """length, or 4n when it is None, checked before any draw: an fd or n
    that identity refuses raises as there, and a length that is no int of
    at least 0 (bools included) DimensionMismatch. A nonempty word draws
    two distinct indices per generator, so it needs n >= 2."""
    _check_domain(fd, n, "transvection words")
    length = 4 * n if length is None else length
    if not isinstance(length, int) or isinstance(length, bool) or length < 0:
        raise DimensionMismatch(f"word length must be an int of at least 0, got {length!r}")
    if length > 0 and n < 2:
        raise DimensionMismatch("transvection words need n >= 2")
    return length


def _transvection_triples(
    rng: random.Random, fd: FieldDescriptor, n: int, length: int
) -> list[tuple[int, int, FieldElem]]:
    """The one draw of a random transvection word, as one-based (i, j, k)
    triples standing for P_ij(k): per generator a row i, a distinct column j
    and a scalar of the default pool, in that order."""
    _word_length(fd, n, length)
    pool = default_pool(fd)
    word = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n)
        if j >= i:
            j += 1
        word.append((i, j, rng.choice(pool)))
    return word


def random_transvection_word(
    rng: random.Random, fd: FieldDescriptor, n: int, length: int
) -> list[Transvection]:
    """The word of _transvection_triples as Transvection records."""
    return [Transvection(i, j, k) for i, j, k in _transvection_triples(rng, fd, n, length)]


def random_sl(rng: random.Random, fd: FieldDescriptor, n: int, length: int | None = None) -> Matrix:
    word = _transvection_triples(rng, fd, n, _word_length(fd, n, length))
    return Matrix._of(fd, _transvect(identity(fd, n).rows, word))


def random_gl(rng: random.Random, fd: FieldDescriptor, n: int, length: int | None = None) -> Matrix:
    """D_1(d) times random_sl's product, d drawn from the pool first."""
    length = _word_length(fd, n, length)
    d = rng.choice(default_pool(fd))
    return _dilated_word(d, _transvection_triples(rng, fd, n, length), fd, identity(fd, n).rows)


def random_unitriangular(rng: random.Random, fd: FieldDescriptor, n: int) -> Matrix:
    """Upper triangular, ones on the diagonal, random entries above."""
    pool = default_pool(fd)
    rows = [list(r) for r in identity(fd, n).rows]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.75:
                rows[i][j] = rng.choice(pool)
    return Matrix(fd, rows)


# -- serialization ----------------------------------------------------------------


def word_to_doc(word) -> dict:
    if not isinstance(word, (list, tuple)):
        raise ParseError("a word is a list of generators")
    gens = []
    for g in word:
        if isinstance(g, Transvection):
            gens.append({"type": "P", "i": g.i, "j": g.j, "k": format_scalar(g.k)})
        elif isinstance(g, DiagUnit):
            gens.append({"type": "D", "i": g.i, "k": format_scalar(g.k)})
        elif isinstance(g, Swap):
            gens.append({"type": "S", "i": g.i, "j": g.j})
        else:
            raise ParseError(f"not a word generator: {g!r}")
    return {"gens": gens}
