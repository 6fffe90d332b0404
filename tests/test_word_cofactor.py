"""The cofactor read off a diagonal word against the elimination.

A matrix the package builds carries its word, as _word = (e, triples) with
the matrix equal to diag(e) P_i1j1(k1) ... P_imjm(km), e the zero-based
(i, e_i) pairs whose e_i != 1, and from size 4 on Matrix.cofactor reads
C(A) = diag(c) P_j1i1(-k1) ... P_jmim(-km) off it, c_i the product of the
e_k with k != i. At sizes 4 to 6, over Q, Q(sqrt 2) and Q(i), with e drawn
from the lambda and default pools and zero, at up to three indices, and
words of length 0 to 12, the cofactor of a word-carrying matrix must equal
that of a copy with no word, which eliminates, and the determinant it
carries must equal a fresh sweep. Both hold for the generator matrices,
identity and the samplers, which _word_matrix, the one builder of every
structured matrix, builds too. The entrywise conjugate carries no word: its
cofactor, eliminated, must equal the conjugate of the cofactor read off the
word (C commutes with the entrywise map) and that of a plain copy.
"""

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multmap.matrix as matrix_module
from multmap.classify import _lam_pool
from multmap.field import RATIONAL, one, quadratic, zero
from multmap.matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _word_matrix,
    coidempotent,
    diag,
    gen_matrix,
    identity,
    rank_idempotent,
    unit_matrix,
    zeros,
)
from multmap.slword import (
    _transvection_triples,
    default_pool,
    evaluate_word,
    random_gl,
    random_sl,
    random_transvection_word,
)

from helpers import ref_apply_word, ref_cofactor, ref_det, ref_of

FIELDS = (RATIONAL, quadratic(2), quadratic(-1))


def _pool(fd):
    return _lam_pool(fd) + default_pool(fd)


def _assert_word_cofactor(a: Matrix) -> None:
    """a carries a word that evaluates back to it, with no pair whose entry
    is one, and its cofactor read off that word equals the eliminated one,
    with a carried determinant equal to a fresh sweep."""
    fd, n = a.field, a.n_rows
    e, word = a._word
    assert not any(x.is_one for _, x in e)
    det = prod((x for _, x in e), start=one(fd))
    assert diag(fd, [dict(e).get(i, one(fd)) for i in range(n)]) * evaluate_word(
        [Transvection(i, j, k) for i, j, k in word], fd, n
    ) == a
    c = a.cofactor()
    plain = Matrix._of(fd, a.rows)
    assert plain._word is None
    assert c == plain.cofactor()
    assert c._det == Matrix._of(fd, c.rows).det == det ** (n - 1)
    assert a._det == plain._det == det


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
    pool = _pool(fd) + (zero(fd),)
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    e = [(i, data.draw(st.sampled_from(pool))) for i in indices]
    word = data.draw(_words(n, _pool(fd)))
    _assert_with_conjugate(_word_matrix(fd, n, e, word))


@pytest.mark.parametrize("fd", FIELDS)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_generator_matrices_and_identity_carry_their_words(fd, n):
    pool = _pool(fd)
    rng = random.Random(n)
    built = [identity(fd, n), random_sl(rng, fd, n), random_gl(rng, fd, n)]
    built += [gen_matrix(DiagUnit(i, x), fd, n) for x in pool for i in (1, n)]
    built += [
        gen_matrix(gen, fd, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for gen in (Transvection(i, j, pool[(i + j) % len(pool)]), Swap(i, j))
    ]
    for a in built:
        _assert_with_conjugate(a)
    assert identity(fd, n)._word == ((), ())
    assert gen_matrix(DiagUnit(2, one(fd)), fd, n)._word == ((), ())



def _builder_table(fd, n):
    """(name, matrix, reference rows) for every builder at size n. Each
    reference is built apart from _word_matrix: entry by entry, or by
    ref_apply_word on generator records, with the samplers' draws replayed
    from the same seed."""
    o, z = one(fd), zero(fd)
    pool = _pool(fd)

    def diagonal(entries):
        return [[x if i == j else z for j in range(n)] for i, x in enumerate(entries)]

    def unit(i, j):
        rows = diagonal([z] * n)
        rows[i - 1][j - 1] = o
        return rows

    def product(gens):
        return ref_apply_word(gens, fd, n).rows

    table = [("I", identity(fd, n), diagonal([o] * n)), ("0", zeros(fd, n), diagonal([z] * n))]
    for zeros_at in range(min(n, 2) + 1):
        # no, one or two zero entries, then a one and the pool
        entries = ([z] * zeros_at + [o, *pool])[:n]
        table.append((f"diag {entries}", diag(fd, entries), diagonal(entries)))
    for r in range(n + 1):
        table.append((f"rank {r}", rank_idempotent(fd, n, r), diagonal([o] * r + [z] * (n - r))))
    for j in range(1, n + 1):
        holed = diagonal([z if i == j else o for i in range(1, n + 1)])
        table.append((f"I - E_{j}{j}", coidempotent(fd, n, j), holed))
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    table += [(f"E_{i}{j}", unit_matrix(fd, n, i, j), unit(i, j)) for i, j in cells]
    gens = [DiagUnit(i, pool[i % len(pool)]) for i in range(1, n + 1)]
    for i, j in cells:
        if i != j:
            gens += [Transvection(i, j, pool[(i + j) % len(pool)]), Swap(i, j)]
    table += [(repr(g), gen_matrix(g, fd, n), product([g])) for g in gens]
    if n >= 2:
        drawn = random_transvection_word(random.Random(n), fd, n, 4 * n)
        table.append(("random_sl", random_sl(random.Random(n), fd, n), product(drawn)))
        rng = random.Random(n)
        d = rng.choice(default_pool(fd))
        drawn = [DiagUnit(1, d), *random_transvection_word(rng, fd, n, 4 * n)]
        table.append(("random_gl", random_gl(random.Random(n), fd, n), product(drawn)))
        # an invertible final-verification sample, built as classify builds it
        x, triples = pool[n], _transvection_triples(random.Random(n), fd, n, 8)
        sample = _word_matrix(fd, n, ((0, x),), triples)
        drawn = [DiagUnit(1, x), *(Transvection(*t) for t in triples)]
        table.append(("sample", sample, product(drawn)))
    return table


@pytest.mark.parametrize("fd", FIELDS, ids=("Q", "Q(sqrt 2)", "Q(i)"))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_builder_is_its_word(fd, n, monkeypatch):
    # every builder's rows, carried determinant and cofactor against
    # references computed apart from it; no cofactor eliminates or sweeps:
    # the minors at n <= 3, the word from n = 4 on
    calls = []
    for name in ("_eliminate", "_bareiss"):
        function = getattr(matrix_module, name)

        def counted(*args, _function=function, _name=name):
            calls.append(_name)
            return _function(*args)

        monkeypatch.setattr(matrix_module, name, counted)
    for name, a, ref_rows in _builder_table(fd, n):
        e, _ = a._word
        assert not any(x.is_one for _, x in e), name
        c = a.cofactor() if n >= 2 else None
        assert not calls, name
        ref = Matrix(fd, ref_rows)
        assert a == ref, name
        assert ref_of(a._det) == ref_det([[ref_of(x) for x in r] for r in ref_rows]), name
        if c is not None:
            assert c == ref_cofactor(ref), name
