"""Randomized checking of map properties with seeded, reproducible sampling.

check_multiplicative fuzzes Phi(AB) = Phi(A) Phi(B); check_equal fuzzes
pointwise agreement of two maps. Failures are reported through a Verdict
carrying a counterexample that has been greedily shrunk: entries are zeroed
one at a time while the failure persists, which tends to leave the small
sparse witnesses that are easy to reason about.

lcs_depth_check exercises the nested commutator filtration of the upper
unitriangular group: after depth nestings the first min(depth, n-1)
superdiagonals vanish, and depth >= n - 1 collapses the commutator to the
identity. This is the structural fact that forces maps into lower dimensions
to kill the whole special linear group.
"""

from __future__ import annotations

import random

from .errors import DimensionMismatch, ParseError
from .field import FieldDescriptor, zero
from .matrix import Matrix, _check_domain
from .slword import default_pool, random_gl, random_unitriangular
from .value import Value, _set


class FuzzConfig(Value):
    """The seed and the number of samples of one fuzz run. A seed that is no
    int (bools included) raises ParseError, so every run is reproducible
    from its seed, and a pair_count that is no int of at least 1 (bools
    included) DimensionMismatch, so no verdict rests on zero samples."""

    __slots__ = ("seed", "pair_count")

    def __init__(self, seed: int = 0, pair_count: int = 50) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ParseError(f"fuzz seed must be an int, got {seed!r}")
        if not isinstance(pair_count, int) or isinstance(pair_count, bool) or pair_count < 1:
            raise DimensionMismatch(f"pair_count must be an int of at least 1, got {pair_count!r}")
        _set(self, "seed", seed)
        _set(self, "pair_count", pair_count)


class Verdict(Value):
    __slots__ = ("passed", "counterexample", "samples", "seed")

    def to_doc(self) -> dict:
        ce = None
        if self.counterexample is not None:
            a, b = self.counterexample
            ce = {"A": a.to_doc(), "B": None if b is None else b.to_doc()}
        return {
            "pass": self.passed,
            "counterexample": ce,
            "samples": self.samples,
            "seed": self.seed,
        }


def _sample_matrix(rng, fd, n) -> Matrix:
    """A singular-prone entrywise draw three times in ten, else a length 8
    transvection word times a dilation; both draw from the default pool."""
    if rng.random() < 0.3:
        entries = default_pool(fd) + (zero(fd),)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        return Matrix(fd, rows)
    return random_gl(rng, fd, n, length=8)


def _zero_entry(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] = zero(m.field)
    return Matrix(m.field, rows)


def _shrink(still_fails, a: Matrix, b: Matrix | None):
    """Greedy zeroing of entries while the predicate keeps failing."""
    changed = True
    while changed:
        changed = False
        for which in (0, 1):
            m = a if which == 0 else b
            if m is None:
                continue
            for i in range(m.n_rows):
                for j in range(m.n_cols):
                    if m[i, j].is_zero:
                        continue
                    candidate = _zero_entry(m, i, j)
                    ca = candidate if which == 0 else a
                    cb = b if which == 0 else candidate
                    if still_fails(ca, cb):
                        a, b = ca, cb
                        m = candidate
                        changed = True
    return a, b


def _fuzz(fails, pairs: bool, fd: FieldDescriptor, n: int, config: FuzzConfig) -> Verdict:
    """Sample config.pair_count inputs, pairs (A, B) or single matrices A
    with B = None, and return the first on which fails(A, B) holds, shrunk.
    An fd that is no FieldDescriptor raises FieldMismatch, and an n that is
    no int of at least 1 DimensionMismatch."""
    _check_domain(fd, n, "fuzz runs")
    rng = random.Random(config.seed)
    for done in range(1, config.pair_count + 1):
        a = _sample_matrix(rng, fd, n)
        b = _sample_matrix(rng, fd, n) if pairs else None
        if fails(a, b):
            return Verdict(False, _shrink(fails, a, b), done, config.seed)
    return Verdict(True, None, config.pair_count, config.seed)


def check_multiplicative(
    phi, fd: FieldDescriptor, n: int, config: FuzzConfig = FuzzConfig()
) -> Verdict:
    """Sample pairs and test Phi(AB) = Phi(A) Phi(B) exactly."""
    return _fuzz(lambda a, b: phi(a * b) != phi(a) * phi(b), True, fd, n, config)


def check_equal(
    f, g, fd: FieldDescriptor, n: int, config: FuzzConfig = FuzzConfig()
) -> Verdict:
    """Sample matrices and test f(A) = g(A) exactly; the counterexample
    Verdict carries the offending A with the B slot empty."""
    return _fuzz(lambda a, _b: f(a) != g(a), False, fd, n, config)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a.inverse() * b.inverse() * a * b


def lcs_depth_check(
    fd: FieldDescriptor, n: int, depth: int, config: FuzzConfig = FuzzConfig()
) -> Verdict:
    """Nest commutators of random unitriangular matrices depth times and
    check the vanishing pattern of the superdiagonals. An fd or an n that
    _fuzz would refuse is refused alike, and a depth that is no int of at
    least 0 (bools included) raises DimensionMismatch."""
    _check_domain(fd, n, "fuzz runs")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise DimensionMismatch(f"nesting depth must be an int of at least 0, got {depth!r}")
    rng = random.Random(config.seed)
    bound = min(depth, n - 1)
    for done in range(1, config.pair_count + 1):
        c = random_unitriangular(rng, fd, n)
        for _ in range(depth):
            c = commutator(random_unitriangular(rng, fd, n), c)
        ok = all(
            c[i, j].is_zero for i in range(n) for j in range(i + 1, min(i + bound + 1, n))
        )
        if depth >= n - 1:
            ok = ok and c.is_identity
        if not ok:
            return Verdict(False, (c, None), done, config.seed)
    return Verdict(True, None, config.pair_count, config.seed)
