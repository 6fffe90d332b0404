"""Trivial recovery against the candidate scan it replaced.

_joint_diagonalize stops a block's candidate scan once its eigenspaces cover
it, and subtracts v on the diagonal of t. ref_joint_diagonalize eliminates
t - v I, with v I built as a matrix, for every candidate v. On commuting
families P diag(e) P^-1 over Q, Q(sqrt 2) and Q(i), with repeated
eigenvalues, eigenvalues missing from the candidate lists and a Jordan
block, both must return the same (basis, eigenvalue tuple) list or raise the
same error with the same message.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmap.classify import _joint_diagonalize
from multmap.errors import MultmapError, NonDiagonalizableTrivial
from multmap.field import RATIONAL, one, quadratic
from multmap.matrix import Matrix, diag

from helpers import rand_elem, rand_invertible, ref_joint_diagonalize

FIELDS = (RATIONAL, quadratic(2), quadratic(-1))


def _outcome(run):
    """The returned blocks as (rows, eigenvalues) pairs, or the error's
    type and message."""
    try:
        blocks = run()
    except MultmapError as exc:
        return type(exc), str(exc)
    return [(basis.rows, eigs) for basis, eigs in blocks]


def _family(rng, fd, l: int, count: int, jordan: bool):
    """count commuting matrices P D_i P^-1 of size l, their eigenvalues drawn
    from a pool of four with repeats; with jordan, the first two coordinates
    share an eigenvalue in every D_i and the first D_i gets a one above its
    diagonal there. Returns the matrices and each one's eigenvalues."""
    pool = [rand_elem(rng, fd) for _ in range(4)]
    p = rand_invertible(rng, fd, l)
    p_inv = p.inverse()
    mats, eigs = [], []
    for index in range(count):
        e = [rng.choice(pool) for _ in range(l)]
        if jordan and l >= 2:
            e[1] = e[0]
        rows = [list(r) for r in diag(fd, e).rows]
        if jordan and l >= 2 and index == 0:
            rows[0][1] = one(fd)
        mats.append(p * Matrix(fd, rows) * p_inv)
        eigs.append(e)
    return mats, eigs


def _candidates(rng, fd, eigs):
    """Distinct candidates in a random order: the eigenvalues, each dropped
    now and then, and values that are no eigenvalue."""
    vals = [v for v in eigs if rng.random() < 0.85]
    vals += [rand_elem(rng, fd) for _ in range(rng.randrange(4))]
    rng.shuffle(vals)
    return list(dict.fromkeys(vals))


@settings(max_examples=150, deadline=None)
@given(
    fd=st.sampled_from(FIELDS),
    l=st.integers(1, 4),
    count=st.integers(1, 3),
    jordan=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_joint_diagonalize_matches_the_candidate_scan(fd, l, count, jordan, seed):
    rng = random.Random(seed)
    mats, eigs = _family(rng, fd, l, count, jordan)
    cand_vals = [_candidates(rng, fd, e) for e in eigs]
    got = _outcome(lambda: _joint_diagonalize(mats, cand_vals, fd, l))
    assert got == _outcome(lambda: ref_joint_diagonalize(mats, cand_vals, fd, l))


@pytest.mark.parametrize("fd", FIELDS)
def test_joint_diagonalize_meets_each_outcome(fd):
    # a split over two images, a missing eigenvalue, an empty candidate list
    # and a Jordan block, each the same as the candidate scan
    rng = random.Random(fd.d or 0)
    mats, eigs = _family(rng, fd, 3, 2, False)
    full = [list(dict.fromkeys(e)) for e in eigs]
    refused = (NonDiagonalizableTrivial, "block does not split over the bounded eigenvalue set")
    cases = [
        (mats, full, None),
        (mats, [full[0][1:], full[1]], refused),
        (mats, [full[0], []], refused),
    ]
    mats, eigs = _family(rng, fd, 3, 1, True)
    cases.append((mats, [list(dict.fromkeys(eigs[0]))], refused))
    for family, cands, error in cases:
        got = _outcome(lambda: _joint_diagonalize(family, cands, fd, 3))
        assert got == _outcome(lambda: ref_joint_diagonalize(family, cands, fd, 3))
        if error is None:
            assert sum(len(rows[0]) for rows, _ in got) == 3
        else:
            assert got == error

