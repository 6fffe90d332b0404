"""The cofactor read off a generator word against the elimination.

A matrix the package builds from a word carries it, as _word = (x, triples)
with the matrix equal to D_1(x) P_i1j1(k1) ... P_imjm(km), and from size 4
on Matrix.cofactor reads C(A) = diag(1, x, ..., x) P_j1i1(-k1) ...
P_jmim(-km) off it. At sizes 4 to 6, over Q, Q(sqrt 2) and Q(i), with x
from the lambda and default pools and words of length 0 to 12, the cofactor
of a word-carrying matrix must equal that of a copy with no word, which
eliminates, and the determinant it carries must equal a fresh sweep. Both
hold for the generator matrices and the identity, which _word_matrix, the
one builder of word carriers, builds too. The entrywise conjugate carries
no word: its cofactor, eliminated, must equal the conjugate of the
cofactor read off the word (C commutes with the entrywise map) and that of
a plain copy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmap.classify import _lam_pool
from multmap.field import RATIONAL, one, quadratic
from multmap.matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _word_matrix,
    gen_matrix,
    identity,
)
from multmap.slword import default_pool, evaluate_word

FIELDS = (RATIONAL, quadratic(2), quadratic(-1))


def _pool(fd):
    return _lam_pool(fd) + default_pool(fd)


def _assert_word_cofactor(a: Matrix) -> None:
    """a carries a word that evaluates back to it, and its cofactor read off
    that word equals the eliminated one, with a carried determinant equal to
    a fresh sweep."""
    fd, n = a.field, a.n_rows
    x, word = a._word
    gens = [DiagUnit(1, x), *(Transvection(i, j, k) for i, j, k in word)]
    assert evaluate_word(gens, fd, n) == a
    c = a.cofactor()
    plain = Matrix._of(fd, a.rows)
    assert plain._word is None
    assert c == plain.cofactor()
    assert c._det == Matrix._of(fd, c.rows).det == x ** (n - 1)
    assert a._det == plain._det == x


def _assert_with_conjugate(a: Matrix) -> None:
    _assert_word_cofactor(a)
    if a.field.is_quadratic:
        b = a.conjugate()
        assert b._word is None
        assert b.cofactor() == a.cofactor().conjugate()
        assert b.cofactor() == Matrix._of(a.field, b.rows).cofactor()


@st.composite
def _words(draw, n: int, pool):
    triple = st.tuples(
        st.integers(1, n), st.integers(1, n - 1), st.sampled_from(pool)
    ).map(lambda t: (t[0], t[1] + (t[1] >= t[0]), t[2]))
    return draw(st.lists(triple, max_size=12))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), fd=st.sampled_from(FIELDS), n=st.integers(4, 6))
def test_word_cofactor_matches_the_elimination(data, fd, n):
    pool = _pool(fd)
    x = data.draw(st.sampled_from(pool))
    word = data.draw(_words(n, pool))
    _assert_with_conjugate(_word_matrix(fd, n, x, word))


@pytest.mark.parametrize("fd", FIELDS)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_generator_matrices_and_identity_carry_their_words(fd, n):
    pool = _pool(fd)
    built = [identity(fd, n)]
    built += [gen_matrix(DiagUnit(1, x), fd, n) for x in pool]
    built += [
        gen_matrix(Transvection(i, j, pool[(i + j) % len(pool)]), fd, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    for a in built:
        _assert_with_conjugate(a)
    # the other generators carry none and keep the elimination
    assert gen_matrix(DiagUnit(2, pool[0]), fd, n)._word is None
    assert gen_matrix(Swap(1, 2), fd, n)._word is None
    assert identity(fd, n)._word == (one(fd), ())
