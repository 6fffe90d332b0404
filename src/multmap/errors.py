"""Exception taxonomy shared across the package.

Every error raised by the library derives from MultmapError so callers (and
the CLI exit-code mapping) can tell domain failures from genuine bugs.
"""

from __future__ import annotations


class MultmapError(Exception):
    """Base class for all library errors."""


class FieldMismatch(MultmapError):
    """Operands or homomorphisms belong to different scalar fields."""


class DivisionByZero(MultmapError):
    """Inversion of the zero scalar."""


class ParseError(MultmapError):
    """Malformed scalar string or document; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class ScalarTooLarge(MultmapError):
    """A scalar too long to print: one of its numbers has more digits than
    the interpreter converts to a string (4300 by default)."""


class UnregisteredHom(MultmapError):
    """An unknown hom kind, or a probe table where a ring homomorphism is required."""


class DimensionMismatch(MultmapError):
    """Incompatible matrix or map dimensions."""


class IndexOutOfRange(MultmapError):
    """A 1-based generator or block index, or a cofactor exponent eps, outside
    its legal range."""


class SingularMatrix(MultmapError):
    """An operation required an invertible matrix."""


class NotSpecialLinear(MultmapError):
    """decompose_sl input has determinant != 1."""


class SingularConjugator(MultmapError):
    """A conjugation atom or a canonical form was built from a singular R."""


class NotMatrixUnits(MultmapError):
    """A matrix family violates the unit relations F_ij F_kl = delta_jk F_il."""


class NotCommutingIdempotents(MultmapError):
    """split_idempotent_pair preconditions (idempotency/absorption) fail."""


class NotMultiplicative(MultmapError):
    """The probed oracle is inconsistent with any multiplicative map."""


class RankLadderViolation(NotMultiplicative):
    """Images of singular probes are inconsistent across ranks."""


class NonDiagonalizableTrivial(MultmapError):
    """Trivial-class probe images could not be simultaneously diagonalized."""


class CharacterOutOfBound(MultmapError):
    """Probed determinant values fit no character with exponents within the
    classifier's bound, so the map is refused rather than tabulated."""


class VerificationFailed(MultmapError):
    """A recovered form disagrees with its oracle on a fresh sample."""


class UnsupportedDimension(MultmapError):
    """Domain size n = 1 or codomain k > n is outside scope."""


class OracleBudgetExceeded(MultmapError):
    """Internal error: a classification exceeded its oracle-call budget."""
