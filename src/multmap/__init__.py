"""Exact multiplicative maps on matrix rings over Q and Q(sqrt d).

The package builds, evaluates, and simplifies compositions of the basic
multiplicative constructions (conjugation, entrywise homomorphisms, the
cofactor map, determinant scalings, and determinant-only maps into a
padded block), and classifies an arbitrary map given only black box
evaluation access, recovering the canonical form exactly.
"""

from .classify import ClassifyReport, Session, classify, normalize_idempotents
from .errors import (
    CharacterOutOfBound,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    IndexOutOfRange,
    MultmapError,
    NonDiagonalizableTrivial,
    NotCommutingIdempotents,
    NotMatrixUnits,
    NotMultiplicative,
    NotSpecialLinear,
    OracleBudgetExceeded,
    ParseError,
    RankLadderViolation,
    ScalarTooLarge,
    SingularConjugator,
    SingularMatrix,
    UnregisteredHom,
    UnsupportedDimension,
    VerificationFailed,
)
from .field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    RATIONAL,
    FieldDescriptor,
    FieldElem,
    HomTable,
    RingHom,
    as_elem,
    format_scalar,
    hom_apply,
    hom_check,
    one,
    parse_scalar,
    quadratic,
    sampled_hom,
    sqrt_gen,
    zero,
)
from .mapexpr import (
    Cof,
    Conj,
    DegenerateForm,
    DetScale,
    Hom,
    MapExpr,
    NonDegenerateForm,
    ScalarCharacter,
    TrivialDet,
    TrivialForm,
    canonical_eq,
    char_of_hom,
    identity_expr,
    simplify,
)
from .matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    conjugator_from_units,
    coidempotent,
    from_columns,
    gen_matrix,
    identity,
    rank_idempotent,
    solve_exact,
    split_idempotent_pair,
    unit_matrix,
    zeros,
)
from .slword import (
    GlFactorization,
    decompose_gl,
    decompose_sl,
    evaluate_word,
    random_gl,
    random_sl,
    random_transvection_word,
    random_unitriangular,
    word_to_doc,
)
from .verify import (
    FuzzConfig,
    Verdict,
    check_equal,
    check_multiplicative,
    commutator,
    lcs_depth_check,
)

__version__ = "0.1.0"
