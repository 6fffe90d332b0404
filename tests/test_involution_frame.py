"""The first step of GL recovery against the four checks it replaced.

_involution_frame reads the determinant twist off v_1 = w(D_1(-1)) alone
and checks one law, vh_i p = p D_i(-1), with vh_i = (-1)^twist v_i.
ref_involution_frame squares every v_i, multiplies every pair both ways and
reads every multiplicity. On true families +-q D_i(-1) q^-1 of both twists
over Q and Q(sqrt 2), and on families with one image changed, both must
accept the same families with the same (twist, p), and every refusal must
be NotMultiplicative.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmap import matrix as matrix_module
from multmap.classify import _involution_frame
from multmap.errors import NotMultiplicative
from multmap.field import RATIONAL, one, quadratic
from multmap.matrix import DiagUnit, Matrix, gen_matrix, identity, unit_matrix

from helpers import rand_invertible, ref_involution_frame

FIELDS = (RATIONAL, quadratic(2))

CHANGES = (
    "none", "shift", "negate", "swap", "identity", "minus-identity", "double", "transpose",
    "repeat",
)


def _family(rng, fd, n: int, twist: int) -> list[Matrix]:
    """The images (-1)^twist q D_i(-1) q^-1, i = 1..n, for a random q."""
    q = rand_invertible(rng, fd, n)
    q_inv = q.inverse()
    sign = -one(fd) if twist else one(fd)
    return [sign * (q * gen_matrix(DiagUnit(i, -one(fd)), fd, n) * q_inv) for i in range(1, n + 1)]


def _outcome(frame, invs, fd, n):
    """(twist, rows of p), or None for a NotMultiplicative refusal; any other
    error propagates."""
    try:
        twist, p = frame(invs, fd, n)
    except NotMultiplicative:
        return None
    return twist, p.rows


@settings(max_examples=200, deadline=None)
@given(
    fd=st.sampled_from(FIELDS),
    n=st.integers(2, 6),
    twist=st.integers(0, 1),
    change=st.sampled_from(CHANGES),
    seed=st.integers(0, 2**32),
)
def test_involution_frame_matches_the_four_checks(fd, n, twist, change, seed):
    rng = random.Random(seed)
    invs = _family(rng, fd, n, twist)
    i, j, p, q = (rng.randrange(n) for _ in range(4))
    v = invs[i]
    if change == "shift":
        invs[i] = v + unit_matrix(fd, n, p + 1, q + 1)
    elif change == "negate":
        invs[i] = -v
    elif change == "swap":
        invs[i], invs[j] = invs[j], invs[i]
    elif change == "identity":
        invs[i] = identity(fd, n)
    elif change == "minus-identity":
        invs[i] = -identity(fd, n)
    elif change == "double":
        invs[i] = v + v
    elif change == "transpose":
        invs[i] = v.transpose()
    elif change == "repeat":
        invs[i] = invs[j]
    got = _outcome(_involution_frame, invs, fd, n)
    assert got == _outcome(ref_involution_frame, invs, fd, n)
    if change == "none":
        # at n = 2, -q D_1(-1) q^-1 = q D_2(-1) q^-1: a family of twist 0
        assert got is not None and got[0] == (twist if n > 2 else 0)


@pytest.mark.parametrize("twist", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_involution_frame_makes_at_most_n_products(n, twist, monkeypatch):
    invs = _family(random.Random(n), RATIONAL, n, twist)
    counts = {}
    for frame in (_involution_frame, ref_involution_frame):
        products, eliminations = [], []
        mul, eliminate = Matrix.__mul__, matrix_module._eliminate

        def counted_mul(a, b, _mul=mul):
            products.append(1)
            return _mul(a, b)

        def counted_eliminate(*args, _eliminate=eliminate):
            eliminations.append(1)
            return _eliminate(*args)

        monkeypatch.setattr(Matrix, "__mul__", counted_mul)
        monkeypatch.setattr(matrix_module, "_eliminate", counted_eliminate)
        # fresh copies, so no elimination is cached from the other run
        twist_read, p = frame([Matrix(RATIONAL, v.rows) for v in invs], RATIONAL, n)
        monkeypatch.undo()
        assert twist_read == (twist if n > 2 else 0)
        counts[frame] = len(products), len(eliminations)
    assert counts[_involution_frame][0] <= n
    assert counts[_involution_frame][1] <= n + 2
    assert counts[ref_involution_frame] == (n * n, 2 * n + 1)
