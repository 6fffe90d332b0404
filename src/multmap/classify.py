"""Black box classification of multiplicative maps between matrix algebras.

classify() is handed a callable oracle Phi sending n x n matrices to k x k
matrices over the same exact field, assumed to satisfy Phi(AB) = Phi(A)Phi(B)
but nothing else (no linearity, no continuity). It decides which canonical
class the map belongs to and recovers the parameters:

  trivial        Phi(A) = S blockdiag(chi_1(det A), ..., chi_l(det A), 0, I) S^-1
  degenerate     Phi(A) = lam(det A) S R^-1 C^eps(phi(A)) R S^-1, zero on singulars
  nondegenerate  Phi(A) = S R^-1 C^eps(phi(A)) R S^-1 exactly everywhere

where C is the multiplicative cofactor map, phi a field homomorphism applied
entrywise (the identity or the conjugation: Q and Q(sqrt d) have no other),
and lam a scalar character of the determinant. classify alone decides which
stage runs next, and calls each stage from one place, in this order:

  idempotent split       Phi(0) and Phi(I) fix S and the live block size l
  transvection test      whether the live block kills every transvection
  trivial recovery       when it does, or l = 0: the characters chi_i
  singular-pattern test  otherwise, with l = n: which singular probes die
  unit recovery          when E_11 survives: phi and R from the matrix units,
                         and the corank one images match the form
  GL recovery            when every corank one idempotent dies (degenerate),
                         or E_11 dies but none of them do (cofactor)
  cofactor check         in the cofactor case: eps = 1, lam = id, and the
                         corank one images match the form
  final verification     fresh samples, invertible and singular, against
                         A -> S form(A) S^-1, the map the report returns
                         (_reported_map); on an invertible sample, a word
                         D_1(x) P_1 ... P_8, a form with eps = 1 reads the
                         cofactor off the word, and a singular sample
                         carries its cofactor: no elimination either way

Every probe goes through a Session that memoizes, logs and enforces a budget
of 10 n^2 + 200 oracle calls. Each probe image must match an exact pattern.
The entry map read off the images must be the identity or the conjugation at
every scalar it is read at, and every later probe must agree with it; a
broken law raises NotMultiplicative. A returned report is a checked claim:
its map matched the oracle on every probe and fresh sample. Characters (lam
and the chi_i) have exponents within CHAR_POWER_BOUND; determinant values
that fit none raise CharacterOutOfBound.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction
from itertools import combinations, product, repeat

from .errors import (
    CharacterOutOfBound,
    DimensionMismatch,
    FieldMismatch,
    NonDiagonalizableTrivial,
    NotCommutingIdempotents,
    NotMatrixUnits,
    NotMultiplicative,
    OracleBudgetExceeded,
    ParseError,
    RankLadderViolation,
    SingularMatrix,
    UnsupportedDimension,
    VerificationFailed,
)
from .field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    FieldDescriptor,
    FieldElem,
    RingHom,
    _norm,
    format_scalar,
    hom_apply,
    one,
    scalars,
    zero,
)
from .matrix import (
    DiagUnit,
    Matrix,
    Swap,
    Transvection,
    _singular_sample,
    _word_matrix,
    _zero_matrix,
    coidempotent,
    conjugator_from_units,
    diag,
    from_columns,
    gen_matrix,
    identity,
    normalize_scale,
    rank_idempotent,
    solve_exact,
    split_idempotent_pair,
    unit_matrix,
    zeros,
)
from .mapexpr import (
    IDENTITY_CHAR,
    CanonicalForm,
    DegenerateForm,
    NonDegenerateForm,
    ScalarCharacter,
    TrivialForm,
)
from .slword import (
    _gl_word,
    _transvection_triples,
    random_gl,
)
from .value import Value

MapOracle = Callable[[Matrix], Matrix]

CHAR_POWER_BOUND = 6
VERIFY_INVERTIBLE = 50
VERIFY_SINGULAR = 10

# Probe scalars and product pairs as data for field.scalars: each is
# (entries over every field, entries added over Q(sqrt d) only), and an entry
# (a, b) stands for a + b*sqrt(d).
HALF = Fraction(1, 2)
S, S1 = (0, 1), (1, 1)  # sqrt(d) and 1 + sqrt(d)
# phi is resolved from its reads at PHI_POOL, LAM_POOL and PHI_TAIL, in that
# order; sqrt(d) is among them, so at most one of id and conj fits
PHI_POOL = ((1, 2, 3, HALF, -1), (S, S1))
# chosen so that distinct bounded characters stay distinct on it
LAM_POOL = ((2, 3, 5, -1, HALF), (S, S1))
# Over Q(i) and Q(sqrt -3), x / conj(x) is a root of unity at every entry of
# LAM_POOL, so id^a conj^b and id^(a+e) conj^(b-e) agree on all of it when e
# is a multiple of the orders of those roots (4 over Q(i)); at 2 + sqrt(d)
# the ratio is no root of unity, which separates them.
LAM_POOL_EXTRA = {-1: ((2, 1),), -3: ((2, 1),)}
# two more table reads; 0 lands on the identity transvection, which the
# idempotent split probed
PHI_TAIL = ((0,), ((0, 2),))
# a few entries suffice: the follow-up verification re-tests on words
TRIVIAL_POOL = ((1, 2, HALF), (S,))
# after phi is resolved, each recovery reads the products xy of its pairs at
# probes of its own and compares them with phi(xy); unit recovery first
# compares its x E_11 probe with phi(x). Each list fixes its recovery's probes
GL_MULT_PAIRS = (((2, 3), (2, HALF), (3, 3)), ((S, S), (S, S1)))
UNIT_MULT_PAIRS = (((2, 3), (2, HALF)), ((S, S),))


class Session:
    """Memoizing, budgeted wrapper around a raw oracle.

    Repeat probes are free; distinct probes count against the budget. A
    probe's rows are hashed once per call: the memo maps that hash to the
    (rows, image) pairs of the probes that share it, and rows are compared
    whole only inside that short list. The image size k is pinned by the
    first call and every later output must match it. An fd that is no
    FieldDescriptor raises FieldMismatch, an n that is no int (bools
    included) DimensionMismatch, and an n below 2 UnsupportedDimension,
    before anything reads n.
    """

    def __init__(self, oracle: MapOracle, fd: FieldDescriptor, n: int) -> None:
        if not isinstance(fd, FieldDescriptor):
            raise FieldMismatch("classification needs a FieldDescriptor field")
        if not isinstance(n, int) or isinstance(n, bool):
            raise DimensionMismatch(f"classification needs an int n, got {n!r}")
        if n < 2:
            raise UnsupportedDimension("classification needs a source of size at least 2")
        self.oracle = oracle
        self.fd = fd
        self.n = n
        self.budget = 10 * n * n + 200
        self.k: int | None = None
        self.log: list[tuple[Matrix, Matrix]] = []
        self._memo: dict[int, list[tuple[tuple, Matrix]]] = {}

    def call(self, a: Matrix) -> Matrix:
        rows = a.rows
        bucket = self._memo.setdefault(hash(rows), [])
        for seen, out in bucket:
            if seen == rows:
                return out
        if len(self.log) >= self.budget:
            raise OracleBudgetExceeded(
                f"probe budget {self.budget} exhausted for n = {self.n}"
            )
        out = self.oracle(a)
        if not isinstance(out, Matrix) or not out.is_square:
            raise NotMultiplicative("oracle output is not a square matrix")
        if out.field != self.fd:
            raise FieldMismatch("oracle output lies outside the declared field")
        if self.k is None:
            self.k = out.n_rows
        elif out.n_rows != self.k:
            raise NotMultiplicative("oracle output size is inconsistent")
        self.log.append((a, out))
        bucket.append((rows, out))
        return out


class _Working:
    """The live l x l block of the oracle in the splitting basis.

    Every call re-checks that the image really is blockdiag(B, 0, I); any
    straying entry means the map was never multiplicative. When the live
    block is the whole image there is nothing around it to check, and the
    call returns the image itself.
    """

    def __init__(self, session: Session, s_mat: Matrix, l: int, z_pad: int, s_pad: int):
        fd = session.fd
        self.session = session
        self.s_mat = s_mat
        self.s_inv = s_mat.inverse()
        self.l = l
        self.z_pad = z_pad
        self.s_pad = s_pad
        self.frame = diag(fd, [zero(fd)] * (l + z_pad) + [one(fd)] * s_pad)
        self.block = [(i, j) for i in range(l) for j in range(l)]

    def __call__(self, a: Matrix) -> Matrix:
        x = self.s_inv * self.session.call(a) * self.s_mat
        if self.l == x.n_rows:
            return x
        entries = _read(
            x, self.frame, self.block, "image violates the fixed zero and identity blocks"
        )
        l = self.l
        return Matrix(self.session.fd, [entries[i : i + l] for i in range(0, l * l, l)])


def _read(image: Matrix, background: Matrix, free, law: str) -> list[FieldElem]:
    """The entries of image at the free positions (zero-based, in the order
    given), after checking that every other entry equals the background's;
    a stray entry breaks the named law. Both are read as integer rows
    (ps, qs, den), which are canonical: a row with no free position must
    equal the background's row whole, and a row that holds one is compared
    entry by entry over cross-multiplied denominators. Only the free
    entries are built as FieldElem."""
    cols = {}
    for i, j in free:
        cols.setdefault(i, set()).add(j)
    rows = image._int_rows()
    for i, (x, y) in enumerate(zip(rows, background._int_rows())):
        skip = cols.get(i)
        if skip is None:
            if x != y:
                raise NotMultiplicative(law)
            continue
        (xp, xq, xd), (yp, yq, yd) = x, y
        # the rational parts, then the surd parts when either row has them
        for us, vs in ((xp, yp), (xq, yq)) if xq or yq else ((xp, yp),):
            for j, (u, v) in enumerate(zip(us or repeat(0), vs or repeat(0))):
                if u * yd != v * xd and j not in skip:
                    raise NotMultiplicative(law)
    fd = image.field
    entries = []
    for i, j in free:
        ps, qs, den = rows[i]
        entries.append(_norm(fd, ps[j], qs[j] if qs else 0, den))
    return entries


class ClassifyReport(Value):
    """Everything recovered about one oracle: the splitting data (s, l, S),
    the canonical form on the live block, the probe tables backing phi and
    lam, and the raw (input, output) transcript."""

    __slots__ = (
        "n",
        "k",
        "field",
        "s",
        "l",
        "pre_conjugator",
        "form",
        "hom_table",
        "lambda_table",
        "probe_log",
    )

    def reconstructed_oracle(self) -> MapOracle:
        """The reported map, the one final verification checked."""
        return _reported_map(self.form, self.pre_conjugator)

    def to_doc(self) -> dict:
        desc = self.form.describe()
        return {
            "class": desc["class"],
            "n": self.n,
            "k": self.k,
            "field": self.field.to_doc(),
            "s": self.s,
            "l": self.l,
            "preConjugator": self.pre_conjugator.to_doc(),
            "chars": desc.get("chars"),
            "zeroPad": desc.get("zeroPad"),
            "onePad": desc.get("onePad"),
            "phi": desc.get("phi"),
            "lambda": desc.get("lambda"),
            "eps": desc.get("eps"),
            "R": desc.get("R"),
            "homTable": pairs_doc(self.hom_table),
            "lambdaTable": pairs_doc(self.lambda_table),
            "probeLog": [
                [a.to_doc()["entries"], b.to_doc()["entries"]]
                for a, b in self.probe_log
            ],
        }


def classify(oracle: MapOracle, fd: FieldDescriptor, n: int, seed: int = 0) -> ClassifyReport:
    """Classify a black box multiplicative map and verify the recovery.

    The report claims what was checked: the recovered form matched the
    oracle at every probe and every fresh sample. Its characters are
    checked only at the determinants those matrices had, scalars of the
    LAM_POOL span and zero; no finite sample proves a determinant scale at
    every determinant.

    Raises NotMultiplicative when a probe contradicts multiplicativity,
    VerificationFailed when the recovered form disagrees with the oracle on a
    fresh sample, UnsupportedDimension for n < 2 or image size above n,
    OracleBudgetExceeded when the probe allowance runs out, FieldMismatch
    or DimensionMismatch for an fd or an n of the wrong type, and
    ParseError, before any probe, for a seed that is no int (bools
    included), so that every report's samples can be drawn again.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParseError(f"classify seed must be an int, got {seed!r}")
    session = Session(oracle, fd, n)
    s_total, s_pad, l = _normalize_idempotents(session)
    k = session.k
    z_pad = k - l - s_pad
    hom_table = lam_table = None

    if l == 0:
        form: CanonicalForm = TrivialForm(fd, n, (), z_pad, s_pad)
    else:
        w = _Working(session, s_total, l, z_pad, s_pad)
        if _kills_transvections(w, fd, n):
            form, p = _classify_trivial(w, fd, n)
            s_total = s_total * _embed_top_left(p, k)
        elif l < n:
            # a shrunken live block leaves no room for any nontrivial image
            # of the special linear group
            raise NotMultiplicative("a live block smaller than n must kill every transvection")
        else:
            # the corank one idempotents I - E_jj, built once: the oracle
            # and the form evaluate the same objects, so each cofactor E_jj
            # is computed once
            cos = [coidempotent(fd, n, j) for j in range(1, n + 1)]
            if (pattern := _singular_pattern(w, fd, n, cos)) == "units":
                form, hom_table, lam_table = _recover_units(w, fd, n)
                _check_corank_one(w, cos, form)
            else:
                form, hom_table, lam_table = _classify_gl(w, fd, n)
                if pattern == "cofactor":
                    form = _check_cofactor(w, fd, n, form, cos)

    _final_verification(session, s_total, form, fd, n, seed)
    return ClassifyReport(
        n, k, fd, s_pad, l, s_total, form, hom_table, lam_table, tuple(session.log)
    )


def normalize_idempotents(oracle: MapOracle, fd: FieldDescriptor, n: int):
    """Probe the images of 0 and I and split the target space around them.

    Returns (S, s, l) with S^-1 Phi(0) S = diag(0_l, 0, I_s) and
    S^-1 Phi(I) S = diag(I_l, 0, I_s)."""
    return _normalize_idempotents(Session(oracle, fd, n))


def _normalize_idempotents(session: Session):
    fd, n = session.fd, session.n
    p_zero = session.call(zeros(fd, n))
    if session.k > n:
        raise UnsupportedDimension(
            f"image size {session.k} exceeds source size {n}"
        )
    p_one = session.call(identity(fd, n))
    try:
        return split_idempotent_pair(p_zero, p_one)
    except NotCommutingIdempotents as exc:
        raise NotMultiplicative(f"images of 0 and I are incompatible: {exc}") from exc


# -- trivial class -------------------------------------------------------


def _kills_transvections(w: _Working, fd: FieldDescriptor, n: int) -> bool:
    """Probe whether the live block kills every transvection, stopping at
    the first one that survives."""
    il = identity(fd, w.l)
    positions = [(i, i + 1) for i in range(1, n)] + [(i + 1, i) for i in range(1, n)]
    if n >= 3:
        positions.append((1, 3))
    for x in scalars(fd, *TRIVIAL_POOL):
        for i, j in positions:
            if w(gen_matrix(Transvection(i, j, x), fd, n)) != il:
                return False
    return True


def _classify_trivial(w: _Working, fd: FieldDescriptor, n: int):
    """Recover the determinant characters of a map that kills transvections.

    The images of the dilations D_1(x) form a finite commuting family; we
    split the block into their joint eigenspaces, restrict candidate
    eigenvalues to values of bounded characters, and fit one character per
    eigenspace. Returns (form, diagonalizer)."""
    o = one(fd)
    swap_img = w(gen_matrix(Swap(1, 2), fd, n))
    if swap_img != w(gen_matrix(DiagUnit(1, -o), fd, n)):
        raise NotMultiplicative("swap image leaves its determinant coset")

    def img(x: FieldElem) -> Matrix:
        return w(gen_matrix(DiagUnit(1, x), fd, n))

    base = list(_lam_pool(fd))
    mats = [img(x) for x in base]
    for x, y, a, b in zip(base, base[1:], mats, mats[1:]):
        if a * b != img(x * y):
            raise NotMultiplicative("determinant block fails multiplicativity")
    if any(a * b != b * a for a, b in combinations(mats, 2)):
        raise NotMultiplicative("determinant block images do not commute")

    # the values of the candidates at each probe, first occurrences only
    cand_vals = [list(dict.fromkeys(_character_values(fd, x))) for x in base]

    blocks = _joint_diagonalize(mats, cand_vals, fd, w.l)
    chars: list[ScalarCharacter] = []
    columns = []
    for basis, eigs in blocks:
        c = _fit_character(fd, list(zip(base, eigs)))
        chars.extend([c] * basis.n_cols)
        for j in range(basis.n_cols):
            columns.append(basis.column(j))
    # the eigenspaces cover the block, and each column fits its character
    p = from_columns(fd, columns)
    form = TrivialForm(fd, n, tuple(chars), w.z_pad, w.s_pad)
    return form, p


def _joint_diagonalize(mats, cand_vals, fd: FieldDescriptor, l: int):
    """Split the full space into joint eigenspaces of a commuting family,
    trying only the candidate eigenvalues supplied per matrix. Returns a list
    of (basis matrix, eigenvalue tuple) pairs in deterministic order.
    Eigenspaces of distinct values are independent, so once they cover a
    block no later candidate has one, and its scan stops."""
    blocks: list[tuple[Matrix, tuple[FieldElem, ...]]] = [(identity(fd, l), ())]
    for m_x, vals in zip(mats, cand_vals):
        refined = []
        for basis, eigs in blocks:
            # m_x commutes with the earlier images (checked above), so it keeps
            # their joint eigenspaces and this solve cannot fail
            t = solve_exact(basis, m_x * basis)
            m = basis.n_cols
            covered = 0
            for v in vals:
                if covered == m:
                    break
                # t - v I, with v subtracted on the diagonal alone
                shifted = [
                    [x - v if i == j else x for j, x in enumerate(r)] for i, r in enumerate(t.rows)
                ]
                kern = Matrix._of(fd, shifted).kernel_basis()
                if kern:
                    sub = basis * from_columns(fd, kern)
                    refined.append((sub, eigs + (v,)))
                    covered += len(kern)
            if covered < m:
                raise NonDiagonalizableTrivial(
                    "block does not split over the bounded eigenvalue set"
                )
        blocks = refined
    return blocks


def _exponents(fd: FieldDescriptor):
    """The (id, conj) exponent pairs within CHAR_POWER_BOUND, conj exponent
    0 over Q, small ones first so fitting is deterministic and minimal."""
    span = range(-CHAR_POWER_BOUND, CHAR_POWER_BOUND + 1)
    if fd.is_quadratic:
        return sorted(product(span, span), key=lambda ab: (abs(ab[0]) + abs(ab[1]), ab))
    return [(a, 0) for a in sorted(span, key=lambda a: (abs(a), a))]


def _enumerate_characters(fd: FieldDescriptor):
    """All determinant characters with exponents within CHAR_POWER_BOUND,
    in the order of _exponents."""
    return [ScalarCharacter((("id", a), ("conj", b))) for a, b in _exponents(fd)]


def _character_values(fd: FieldDescriptor, x: FieldElem) -> list[FieldElem]:
    """The value at x of every character of _enumerate_characters, in its
    order: one product per character of a power of x and a power of conj(x),
    since conj(x)^e = conj(x^e)."""
    powers = {e: x**e for e in range(-CHAR_POWER_BOUND, CHAR_POWER_BOUND + 1)}
    if not fd.is_quadratic:
        return [powers[a] for a, _ in _exponents(fd)]
    return [powers[a] * powers[b].conjugate() for a, b in _exponents(fd)]


def _fit_character(fd: FieldDescriptor, pairs) -> ScalarCharacter:
    """The first character that takes the value v at x for every (x, v) in
    pairs. A map whose probed values fit none is refused, not tabulated."""
    for c in _enumerate_characters(fd):
        if all(c.evaluate(x) == v for x, v in pairs):
            return c
    raise CharacterOutOfBound(
        "probed determinant values fit no character with exponents in "
        f"[-{CHAR_POWER_BOUND}, {CHAR_POWER_BOUND}], the bound CHAR_POWER_BOUND"
    )


# -- invertible-side recovery -------------------------------------------------------


def _involution_frame(invs: list[Matrix], fd: FieldDescriptor, n: int):
    """The determinant twist and the eigenbasis p read off the images
    v_i = w(D_i(-1)), returned as (twist, p) once they pass one law:
    vh_i p = p D_i(-1) for every i, with vh_i = (-1)^twist v_i. The law
    makes each vh_i = p D_i(-1) p^-1, so the v_i are involutions, commute
    and share the -1 multiplicity of v_1; every commuting family of
    involutions with one such multiplicity, 1 or n - 1, satisfies it.

    The twist is read off v_1 alone: a simple -1 eigenvalue gives twist 0,
    and for n > 2 a simple +1 eigenvalue gives twist 1. Column i of p is the
    first vector of ker(vh_i + I); for twist 0, v_1's kernel is that line."""
    ident = identity(fd, n)
    kern = (invs[0] + ident).kernel_basis()
    if len(kern) not in (1, n - 1):
        raise NotMultiplicative(
            "involution eigenvalue multiplicities match no canonical form"
        )
    # at n = 2 a simple -1 eigenvalue is also of multiplicity n - 1: twist 0
    twist = int(len(kern) != 1)
    twisted = [-v for v in invs] if twist else invs
    lines = [] if twist else [kern]
    lines += [(vh + ident).kernel_basis() for vh in twisted[len(lines):]]
    if not all(lines):
        raise NotMultiplicative("twisted involution image has no -1 eigenvector")
    p = from_columns(fd, [line[0] for line in lines])
    try:
        p.inverse()
    except SingularMatrix:
        raise NotMultiplicative("involution eigenvectors are dependent") from None
    for i, vh in enumerate(twisted):
        # p D_i(-1) is p with column i negated
        flipped = [[-x if j == i else x for j, x in enumerate(r)] for r in p.rows]
        if vh * p != Matrix._of(fd, flipped):
            raise NotMultiplicative("involution images are not D_i(-1) in one eigenbasis")
    return twist, p


def _classify_gl(w, fd: FieldDescriptor, n: int):
    """Recover lam, phi, eps, R from probes at invertible matrices only;
    returns (DegenerateForm, entry-map table, determinant-scale table).

    Stages: the involutions w(D_i(-1)) fix a determinant twist and a common
    eigenbasis P, checked by the one law vh_i P = P D_i(-1) of
    _involution_frame; swap images fix the diagonal scale T; the corrected
    conjugator turns the oracle into a pure lam(det) C^eps(phi) form, read
    off transvection and dilation images. Each stage checks exact equalities
    that hold for every multiplicative map and fails loudly otherwise."""
    o = one(fd)
    invs = [w(gen_matrix(DiagUnit(i, -o), fd, n)) for i in range(1, n + 1)]
    twist, p = _involution_frame(invs, fd, n)
    g = p.inverse()

    def what(a: Matrix) -> Matrix:
        img = w(a)
        return a.det * img if twist else img

    # swaps[i] exchanges the zero-based coordinates i and i + 1
    swaps = [gen_matrix(Swap(i, i + 1), fd, n) for i in range(1, n)]
    scale = []
    for i, swap in enumerate(swaps):
        b, c = _read(
            g * what(swap) * p,
            swap,
            [(i, i + 1), (i + 1, i)],
            "swap image is not an exchange of the same two coordinates",
        )
        if b.is_zero or b * c != o:
            raise NotMultiplicative("swap block is not an exchange of weight one")
        scale.append(b)
    t_diag = [o]
    for b in scale:
        t_diag.append(t_diag[-1] * b)
    g = diag(fd, t_diag) * g
    g_inv = g.inverse()

    # with b c = 1, diag(t) sets both swap weights to 1: w2 fixes every swap
    def w2(a: Matrix) -> Matrix:
        return g * what(a) * g_inv

    u1 = w2(gen_matrix(Transvection(1, 2, o), fd, n))
    if u1 == gen_matrix(Transvection(1, 2, o), fd, n):
        eps = 0
    elif u1 == gen_matrix(Transvection(2, 1, -o), fd, n):
        eps = 1
    else:
        raise NotMultiplicative("unit transvection image matches neither orientation")

    lam_pool = _lam_pool(fd)
    entry = _EntryMap(fd, n, w2, eps)
    for x in scalars(fd, *PHI_POOL) + lam_pool + scalars(fd, *PHI_TAIL):
        entry(x)
    phi = _resolve_hom(fd, entry.table)
    products = [x * y for x, y in _pairs(fd, GL_MULT_PAIRS)]
    if n >= 3:
        for y in scalars(fd, (1, 2)):
            if entry.at(2, 3, y) != entry(y):
                raise NotMultiplicative("transvection images disagree across positions")
        for xy in products:
            if entry.at(1, 3, xy) != hom_apply(phi, xy):
                raise NotMultiplicative("entry map is not multiplicative")

    zero_mat = _zero_matrix(fd, n)
    diagonal = [(i, i) for i in range(n)]
    lam_values = []
    for x in lam_pool:
        src = gen_matrix(DiagUnit(1, x if eps == 0 else x.inv()), fd, n)
        d = _read(w2(src), zero_mat, diagonal, "dilation image is not diagonal")
        s_x = d[1]
        if s_x.is_zero:
            raise NotMultiplicative("dilation image is singular")
        if any(v != s_x for v in d[2:]):
            raise NotMultiplicative("dilation image tail is not scalar")
        if d[0] != s_x * entry(x):
            raise NotMultiplicative("dilation image disagrees with the entry map")
        uni = [x, x.inv()] if eps == 0 else [x.inv(), x]
        if w2(diag(fd, uni + [o] * (n - 2))) != diag(
            fd, [entry(x), entry(x).inv()] + [o] * (n - 2)
        ):
            raise NotMultiplicative("unimodular dilation image is off")
        lam_x = s_x if eps == 0 else (s_x * entry(x)).inv()
        if twist:
            lam_x = lam_x / x
        lam_values.append((x, lam_x))

    if n == 2:
        # conjugation by a dilation scales a transvection entry; with the
        # dilation images pinned above this is the multiplicativity check
        for xy in products:
            if entry(xy) != hom_apply(phi, xy):
                raise NotMultiplicative("entry map is not multiplicative")

    lam = _fit_character(fd, lam_values)
    form = DegenerateForm(fd, n, lam, phi, normalize_scale(g), eps)
    return form, tuple(entry.table.items()), tuple(lam_values)


class _EntryMap:
    """The entry map phi of a map normalized so that the image of the
    transvection P_ij(x) is P_ij(phi(x)); with eps = 1 the probe is the
    inverse transpose P_ji(-x) instead, so both orientations read phi off
    plain transvections. Reads are memoized."""

    def __init__(self, fd: FieldDescriptor, n: int, normalized: MapOracle, eps: int):
        self.fd = fd
        self.n = n
        self.normalized = normalized
        self.eps = eps
        self.ident = identity(fd, n)
        self.reads: dict[tuple[int, int, FieldElem], FieldElem] = {}

    def at(self, i: int, j: int, x: FieldElem) -> FieldElem:
        """phi(x) read off the image entry (i, j), one-based."""
        key = (i, j, x)
        if key not in self.reads:
            src = Transvection(i, j, x) if self.eps == 0 else Transvection(j, i, -x)
            self.reads[key] = _read(
                self.normalized(gen_matrix(src, self.fd, self.n)),
                self.ident,
                [(i - 1, j - 1)],
                "transvection image is not a matching transvection",
            )[0]
        return self.reads[key]

    def __call__(self, x: FieldElem) -> FieldElem:
        return self.at(1, 2, x)

    @property
    def table(self) -> dict[FieldElem, FieldElem]:
        """phi at every scalar read at (1, 2), in the order first read."""
        return {x: v for (i, j, x), v in self.reads.items() if (i, j) == (1, 2)}


def _pairs(fd: FieldDescriptor, data) -> tuple[tuple[FieldElem, FieldElem], ...]:
    """The (x, y) pairs of a pair list held as data."""
    plain, surd = data
    xs = scalars(fd, [x for x, _ in plain], [x for x, _ in surd])
    ys = scalars(fd, [y for _, y in plain], [y for _, y in surd])
    return tuple(zip(xs, ys))


def _resolve_hom(fd: FieldDescriptor, table: dict) -> RingHom:
    """The homomorphism that fits the entry map table. A ring homomorphism
    of Q or Q(sqrt d) is the identity or the conjugation, so a table that
    fits neither breaks a law."""
    if all(v == x for x, v in table.items()):
        return IDENTITY_HOM
    if fd.is_quadratic and all(v == x.conjugate() for x, v in table.items()):
        return CONJUGATION_HOM
    raise NotMultiplicative("entry map is neither the identity nor the conjugation")


def _singular_pattern(w, fd: FieldDescriptor, n: int, cos: list[Matrix]) -> str:
    """Which recovery the singular probes select: "degenerate" when every
    corank one idempotent dies, "units" when E_11 survives, and "cofactor"
    when E_11, ranks 2 to n - 2 and E_12 die but no corank one idempotent.
    cos holds the corank one idempotents I - E_jj, j = 1 to n."""
    zero_mat = _zero_matrix(fd, n)
    f_cos = [w(co) for co in cos]
    if all(f == zero_mat for f in f_cos):
        return "degenerate"
    if w(unit_matrix(fd, n, 1, 1)) != zero_mat:
        return "units"
    for rank in range(2, n - 1):
        if w(rank_idempotent(fd, n, rank)) != zero_mat:
            raise RankLadderViolation(
                "a rank below n-1 survives while the rank one units die"
            )
    if w(unit_matrix(fd, n, 1, 2)) != zero_mat:
        raise RankLadderViolation("rank one images are inconsistent")
    if any(f == zero_mat for f in f_cos):
        raise RankLadderViolation("corank one images are inconsistent")
    return "cofactor"


def _recover_units(w, fd: FieldDescriptor, n: int):
    """Recover a map whose rank one units survive: their images are matrix
    units and fix the conjugator directly."""
    zero_mat = _zero_matrix(fd, n)
    units = [
        [w(unit_matrix(fd, n, i, j)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    try:
        r = conjugator_from_units(units)
    except NotMatrixUnits as exc:
        raise NotMultiplicative(str(exc)) from exc
    r_inv = r.inverse()

    def unit_probe(i: int, j: int, x: FieldElem) -> FieldElem:
        return _read(
            r * w(x * unit_matrix(fd, n, i, j)) * r_inv,
            zero_mat,
            [(i - 1, j - 1)],
            "scaled unit image is not a scaled unit",
        )[0]

    phi_pool = scalars(fd, *PHI_POOL)
    entry = _EntryMap(fd, n, lambda a: r * w(a) * r_inv, 0)
    for x in phi_pool + tuple(x for x in _lam_pool(fd) if x not in phi_pool):
        if unit_probe(1, 2, x) != entry(x):
            raise NotMultiplicative("unit and transvection probes disagree")
    for x in scalars(fd, *PHI_TAIL):
        entry(x)
    phi = _resolve_hom(fd, entry.table)
    # the scaled units x E_11 and xy E_12 must scale by phi as well
    for x, y in _pairs(fd, UNIT_MULT_PAIRS):
        for j, v in ((1, x), (2, x * y)):
            if unit_probe(1, j, v) != hom_apply(phi, v):
                raise NotMultiplicative("entry map is not multiplicative")
    return NonDegenerateForm(fd, n, phi, r, 0), tuple(entry.table.items()), None


def _check_cofactor(w, fd: FieldDescriptor, n: int, gl_form: DegenerateForm, cos: list[Matrix]):
    """The GL recovery of a map that kills E_11 but no corank one idempotent
    must have eps = 1 and lam = id, and match every corank one image."""
    if gl_form.eps != 1 or gl_form.lam != IDENTITY_CHAR:
        raise NotMultiplicative("vanishing pattern does not match a cofactor form")
    form = NonDegenerateForm(fd, n, gl_form.phi, gl_form.R, 1)
    _check_corank_one(w, cos, form)
    return form


def _check_corank_one(w, cos: list[Matrix], form: NonDegenerateForm) -> None:
    """Match the form to every corank one image the singular-pattern test
    probed, on the idempotents it probed: the form reads the cofactor the
    oracle took of each."""
    for co in cos:
        if w(co) != form.evaluate(co):
            kind = "cofactor" if form.eps else "plain"
            raise VerificationFailed(f"corank one image disagrees with the recovered {kind} form")


# -- final verification -------------------------------------------------------


def _final_verification(session, s_total: Matrix, form, fd: FieldDescriptor, n: int, seed: int):
    """Fresh random samples, invertible and singular, against the rebuilt
    oracle. Every sample's expected value comes from _reported_map, the map
    ClassifyReport.reconstructed_oracle() returns, so the map verified is
    the map reported; it is computed before the oracle is asked. Each
    sample carries its determinant from the draw, x or zero, so neither
    the form nor the oracle sweeps for it. An invertible sample, a word
    D_1(x) P_1 ... P_8, also carries its word (_word_matrix), so the form
    and an oracle that take its cofactor read it off the word with no
    elimination. A singular sample G1 diag(I_r, 0) G2, G1 and G2 drawn
    as random_gl draws them, is no single word and carries its cofactor
    (_singular_sample): zero at rank n - 2 or less, and at rank n - 1 from
    n = 4 on the product of column n of C(G1) and row n of C(G2), read off
    their words. The form and the oracle, handed the same object, read
    that cofactor, while a degenerate form and an expression with a
    DetScale atom send the sample to zero with no cofactor."""
    rng = random.Random(seed)
    reported = _reported_map(form, s_total)
    lam_pool = _lam_pool(fd)
    for i in range(VERIFY_INVERTIBLE):
        x = lam_pool[i % len(lam_pool)]
        a = _word_matrix(fd, n, ((0, x),), _transvection_triples(rng, fd, n, 8))
        _check_sample(session, reported(a), a)
    for _ in range(VERIFY_SINGULAR):
        r = rng.randrange(0, n)
        d1, w1 = _gl_word(rng, fd, n)
        a = _singular_sample(d1, w1, random_gl(rng, fd, n), r)
        _check_sample(session, reported(a), a)


def _check_sample(session, expected: Matrix, a: Matrix) -> None:
    if session.call(a) != expected:
        raise VerificationFailed(
            "oracle and recovered form disagree on a fresh sample"
        )


# -- small helpers -------------------------------------------------------


def pairs_doc(pairs):
    """(probe, value) pairs rendered as [probe, value] scalar strings; None
    stays None."""
    if pairs is None:
        return None
    return [[format_scalar(x), format_scalar(y)] for x, y in pairs]


def _lam_pool(fd: FieldDescriptor) -> tuple[FieldElem, ...]:
    """LAM_POOL over fd, with LAM_POOL_EXTRA appended where it applies."""
    return scalars(fd, *LAM_POOL) + scalars(fd, (), LAM_POOL_EXTRA.get(fd.d, ()))


def _reported_map(form: CanonicalForm, s: Matrix) -> MapOracle:
    """A -> S form(A) S^-1."""
    s_inv = s.inverse()
    return lambda a: s * form.evaluate(a) * s_inv


def _embed_top_left(p: Matrix, k: int) -> Matrix:
    """blockdiag(p, I) of size k."""
    rows = [list(r) for r in identity(p.field, k).rows]
    for i, row in enumerate(p.rows):
        rows[i][: len(row)] = row
    return Matrix(p.field, rows)
