"""Shared test utilities.

laplace_det and laplace_cofactor recompute determinants by recursive first
row expansion, a deliberately different route from the Gaussian elimination
inside Matrix, so the two can cross-check each other. minor_cofactor is the
direct definition of the cofactor map, one eliminated determinant per minor,
kept as a second reference for Matrix.cofactor.

RefElem is the scalar arithmetic of the package before its integer core:
a + b*sqrt(d) held as two Fractions. ref_product and ref_det_inverse redo
the matrix product and Gauss-Jordan elimination on RefElem, one scalar
operation per entry, as references for the differential tests of the
integer triples, of the integer product and of the fraction-free
determinant.

ref_decompose_sl, ref_decompose_gl and ref_gl_evaluate are the
factorization path as it was before decompose_sl read its determinant check
off the sweep: a separate determinant elimination first, two scalar
operations per row update, and D_1 applied as full matrix products. They are
the references for the differential tests of that path.

ref_eliminate, ref_scale, ref_cofactor and ref_apply_word are Gauss-Jordan
elimination, matrix scaling, the cofactor and word evaluation as they were
before the row kernels: one FieldElem operation per entry, with the
identity and the scalar one multiplied out like any other operand. They are
the references for the differential tests of the row kernels.

ref_evaluate is MapExpr.evaluate as it was before it applied the Cof
atoms to the input first: the atoms one by one, the last first, each on
the value of the one before, with every cofactor and determinant computed
afresh (ref_cofactor, and a sweep on a fresh copy). It is the reference for
the differential test of that evaluation.

ref_conjugator_from_units is matrix unit recovery as it was before it
checked the conjugator it returns: every relation F_ij F_kl = delta_jk F_il
multiplied out in full, O(n^7), then R built from the first column of units.
It is the reference for the differential test of that recovery.

ref_joint_diagonalize is the eigenspace split of trivial recovery as it was
before it stopped a block's scan once the block was covered: one
elimination of t - v I per candidate eigenvalue v, with v I built as a
matrix. It is the reference for the differential test of that split.

ref_involution_frame is the first step of GL recovery as it was before it
checked one law, vh_i p = p D_i(-1): every image v_i = w(D_i(-1)) squared,
every pair multiplied both ways, every multiplicity read as a rank, p built
from the first vector of each ker(vh_i + I), then inverted. It is the
reference for the differential test of that step.

assert_report_matches_its_log checks a classify report against its own probe
log: the reconstructed map must give back every image the oracle gave.

corruption_cases and sweep_outcome are the soundness sweep: five true maps
at n = 3 over Q, each with its image at one input of its clean probe log
replaced. classify must refuse each with a MultmapError or return a report
that matches the corrupted oracle at every probe it logged.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from multmap.classify import classify
from multmap.errors import (
    DimensionMismatch,
    DivisionByZero,
    MultmapError,
    NonDiagonalizableTrivial,
    NotMatrixUnits,
    NotMultiplicative,
    NotSpecialLinear,
    SingularMatrix,
)
from multmap.field import (
    CONJUGATION_HOM,
    IDENTITY_HOM,
    RATIONAL,
    FieldDescriptor,
    FieldElem,
    as_elem,
    one,
    sqrt_gen,
    zero,
)
from multmap.mapexpr import (
    Cof,
    Conj,
    DegenerateForm,
    DetScale,
    Hom,
    MapExpr,
    ScalarCharacter,
    TrivialDet,
    TrivialForm,
    simplify,
)
from multmap.matrix import (
    DiagUnit,
    Matrix,
    Transvection,
    from_columns,
    gen_matrix,
    identity,
    normalize_scale,
    rank_idempotent,
    solve_exact,
    unit_matrix,
    zeros,
)
from multmap.slword import evaluate_word


def laplace_det(m: Matrix) -> FieldElem:
    rows = m.rows

    def det(row_idx: tuple, col_idx: tuple) -> FieldElem:
        if len(row_idx) == 1:
            return rows[row_idx[0]][col_idx[0]]
        total = zero(m.field)
        r0 = row_idx[0]
        for pos, c in enumerate(col_idx):
            x = rows[r0][c]
            if x.is_zero:
                continue
            sub = det(row_idx[1:], col_idx[:pos] + col_idx[pos + 1 :])
            term = x * sub
            total = total + term if pos % 2 == 0 else total - term
        return total

    idx = tuple(range(m.n_rows))
    return det(idx, idx)


def _minor(m: Matrix, i: int, j: int) -> Matrix:
    """m without row i and column j."""
    return Matrix(m.field, [r[:j] + r[j + 1 :] for k, r in enumerate(m.rows) if k != i])


def laplace_cofactor(m: Matrix) -> Matrix:
    n = m.n_rows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            d = laplace_det(_minor(m, i, j))
            row.append(d if (i + j) % 2 == 0 else -d)
        out.append(row)
    return Matrix(m.field, out)


def minor_cofactor(m: Matrix) -> Matrix:
    n = m.n_rows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            d = _minor(m, i, j).det
            row.append(d if (i + j) % 2 == 0 else -d)
        out.append(row)
    return Matrix(m.field, out)


def rand_elem(rng, fd: FieldDescriptor, span: int = 4) -> FieldElem:
    a = Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))
    if fd.is_quadratic and rng.random() < 0.5:
        b = Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))
    else:
        b = Fraction(0)
    return FieldElem(fd, a, b)


def rand_matrix(rng, fd: FieldDescriptor, n: int, span: int = 4) -> Matrix:
    return Matrix(fd, [[rand_elem(rng, fd, span) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, fd: FieldDescriptor, n: int, span: int = 4) -> Matrix:
    while True:
        m = rand_matrix(rng, fd, n, span)
        if not m.det.is_zero:
            return m


def rand_singular(rng, fd: FieldDescriptor, n: int, rank: int | None = None) -> Matrix:
    r = rng.randrange(n) if rank is None else rank
    return (
        rand_invertible(rng, fd, n)
        * rank_idempotent(fd, n, r)
        * rand_invertible(rng, fd, n)
    )


def int_matrix(fd: FieldDescriptor, rows) -> Matrix:
    return Matrix(fd, [[as_elem(fd, x) for x in r] for r in rows])


def char_powers_bounded(form, bound: int) -> bool:
    chars = []
    if isinstance(form, TrivialForm):
        chars.extend(form.chars)
    elif isinstance(form, DegenerateForm):
        chars.append(form.lam)
    return all(abs(p) <= bound for c in chars for _, p in c.factors)


def random_mapexpr(
    rng, fd: FieldDescriptor, n: int, max_depth: int = 5, power_bound: int = 6
) -> MapExpr:
    """Random atom composite whose simplified determinant character stays
    within the classifier's fit bound; out-of-family draws are resampled."""
    while True:
        atoms = []
        for _ in range(rng.randint(0, max_depth)):
            kind = rng.choice(("conj", "cof", "hom", "detscale"))
            if kind == "conj":
                atoms.append(Conj(rand_invertible(rng, fd, n, span=2)))
            elif kind == "cof":
                atoms.append(Cof())
            elif kind == "hom":
                use_conj = fd.is_quadratic and rng.random() < 0.5
                atoms.append(Hom(CONJUGATION_HOM if use_conj else IDENTITY_HOM))
            else:
                factors = []
                if rng.random() < 0.85:
                    factors.append(("id", rng.randint(-2, 3)))
                if fd.is_quadratic and rng.random() < 0.4:
                    factors.append(("conj", rng.randint(-2, 2)))
                atoms.append(DetScale(ScalarCharacter(tuple(factors))))
        expr = MapExpr(n, fd, tuple(atoms))
        if char_powers_bounded(simplify(expr), power_bound):
            return expr


@dataclass(frozen=True)
class RefElem:
    """a + b*sqrt(d) with Fraction coordinates, componentwise equality."""

    field: FieldDescriptor
    a: Fraction
    b: Fraction = Fraction(0)

    @property
    def _d(self) -> int:
        return self.field.d if self.field.is_quadratic else 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: "RefElem") -> "RefElem":
        return RefElem(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "RefElem") -> "RefElem":
        return RefElem(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "RefElem":
        return RefElem(self.field, -self.a, -self.b)

    def __mul__(self, other: "RefElem") -> "RefElem":
        return RefElem(
            self.field,
            self.a * other.a + self.b * other.b * self._d,
            self.a * other.b + self.b * other.a,
        )

    def inv(self) -> "RefElem":
        if self.is_zero:
            raise DivisionByZero("cannot invert zero")
        norm = self.a * self.a - self._d * self.b * self.b
        return RefElem(self.field, self.a / norm, -self.b / norm)

    def __truediv__(self, other: "RefElem") -> "RefElem":
        return self * other.inv()

    def __pow__(self, exponent: int) -> "RefElem":
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = RefElem(self.field, Fraction(1))
        for _ in range(exponent):
            result = result * self
        return result

    def conjugate(self) -> "RefElem":
        return RefElem(self.field, self.a, -self.b)

    def format(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*s"


def ref_of(x: FieldElem) -> RefElem:
    return RefElem(x.field, x.a, x.b)


def ref_product(a: list[list[RefElem]], b: list[list[RefElem]]) -> list[list[RefElem]]:
    z = RefElem(a[0][0].field, Fraction(0))
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            total = z
            for x, y in zip(row, col):
                total = total + x * y
            out_row.append(total)
        out.append(out_row)
    return out


def ref_det_inverse(a: list[list[RefElem]]):
    """(det, inverse rows or None) of a square matrix by Gauss-Jordan
    elimination of [a | I]."""
    n = len(a)
    fd = a[0][0].field
    o, z = RefElem(fd, Fraction(1)), RefElem(fd, Fraction(0))
    rows = [list(r) + [o if i == j else z for j in range(n)] for i, r in enumerate(a)]
    det = o
    for c in range(n):
        p = next((i for i in range(c, n) if not rows[i][c].is_zero), None)
        if p is None:
            return z, None
        if p != c:
            rows[p], rows[c] = rows[c], rows[p]
            det = -det
        pivot_inv = rows[c][c].inv()
        det = det * rows[c][c]
        rows[c] = [x * pivot_inv for x in rows[c]]
        for i in range(n):
            if i != c:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det, [r[n:] for r in rows]


def ref_decompose_sl(m: Matrix) -> list[Transvection]:
    n = m.n_rows
    if not m.is_square:
        raise NotSpecialLinear("decomposition needs a square matrix")
    if m.det != one(m.field):
        raise NotSpecialLinear("determinant must be exactly one")
    fd = m.field
    o = one(fd)
    rows = [list(r) for r in m.rows]
    ops: list[Transvection] = []

    def add_multiple(i: int, j: int, k: FieldElem) -> None:
        if k.is_zero:
            return
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        ops.append(Transvection(i + 1, j + 1, k))

    for p in range(n - 1):
        if rows[p][p] != o:
            r = next((i for i in range(p + 1, n) if not rows[i][p].is_zero), None)
            if r is None:
                add_multiple(p + 1, p, o)
                r = p + 1
            add_multiple(p, r, (o - rows[p][p]) / rows[r][p])
        for i in range(n):
            if i != p and not rows[i][p].is_zero:
                add_multiple(i, p, -rows[i][p])
    for i in range(n - 1):
        if not rows[i][n - 1].is_zero:
            add_multiple(i, n - 1, -rows[i][n - 1])
    return [op.inv() for op in ops]


def ref_decompose_gl(m: Matrix) -> tuple[FieldElem, list[Transvection]]:
    """(det_scalar, word) of the factorization m = D_1(det m) word."""
    d = m.det
    if d.is_zero:
        raise SingularMatrix("cannot decompose a singular matrix")
    unimodular = gen_matrix(DiagUnit(1, d.inv()), m.field, m.n_rows) * m
    return d, ref_decompose_sl(unimodular)


def ref_gl_evaluate(det_scalar, word, fd: FieldDescriptor, n: int) -> Matrix:
    return gen_matrix(DiagUnit(1, det_scalar), fd, n) * evaluate_word(word, fd, n)


def ref_eliminate(fd: FieldDescriptor, rows: list[list[FieldElem]], n_pivot_cols: int):
    """(rows, pivots, det) of Gauss-Jordan elimination with pivots in the
    first n_pivot_cols columns, one scalar operation per entry."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    det = one(fd)
    pivots = []
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
        pv = rows[r][c]
        det = det * pv
        inv = pv.inv()
        rows[r] = [x if x.is_zero else x * inv for x in rows[r]]
        for i in range(nr):
            f = rows[i][c]
            if i != r and not f.is_zero:
                rows[i] = [x if y.is_zero else x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots), det


def ref_augment(m: Matrix) -> list[list[FieldElem]]:
    """The rows of [m | I] for square m."""
    o, z = one(m.field), zero(m.field)
    return [list(r) + [o if i == j else z for j in range(m.n_rows)] for i, r in enumerate(m.rows)]


def ref_scale(m: Matrix, scalar: FieldElem) -> Matrix:
    return Matrix(m.field, [[scalar * x for x in r] for r in m.rows])


def ref_cofactor(m: Matrix) -> Matrix:
    """The cofactor from one elimination of [A | I], by rank: det(A) (A^-1)^T,
    a scaled y x^T, or zero."""
    n = m.n_rows
    fd = m.field
    rows, pivots, det = ref_eliminate(fd, ref_augment(m), n)
    if len(pivots) == n:
        return Matrix(fd, [[det * rows[j][n + i] for j in range(n)] for i in range(n)])
    if len(pivots) < n - 1:
        return zeros(fd, n)
    free = next(c for c in range(n) if c not in pivots)
    x = [zero(fd)] * n
    x[free] = one(fd)
    for r, pc in enumerate(pivots):
        x[pc] = -rows[r][free]
    y = rows[n - 1][n:]
    i = next(k for k in range(n) if not y[k].is_zero)
    minor = [
        [v for col, v in enumerate(row) if col != free]
        for k, row in enumerate(m.rows)
        if k != i
    ]
    _, _, signed = ref_eliminate(fd, minor, n - 1)
    if (i + free) % 2:
        signed = -signed
    c = signed / y[i]
    return Matrix(fd, [[c * yi * xj for xj in x] for yi in y])


def ref_evaluate(expr: MapExpr, a: Matrix) -> Matrix:
    """The value of expr at a, atom by atom in the order of application."""
    fd, out = expr.field, a
    for atom in reversed(expr.atoms):
        if isinstance(atom, Conj):
            out = atom.R.inverse() * out * atom.R
        elif isinstance(atom, Cof):
            out = ref_cofactor(out)
        elif isinstance(atom, Hom):
            out = out.conjugate() if atom.phi.kind == "conj" else out
        else:
            d = Matrix(fd, out.rows).det
            if isinstance(atom, DetScale):
                out = zeros(fd, out.n_rows) if d.is_zero else atom.character.evaluate(d) * out
            else:
                z = zero(fd)
                chars = [z if d.is_zero else c.evaluate(d) for c in atom.chars]
                out = Matrix(fd, _diag_rows(chars + [z] * atom.zero_pad + [one(fd)] * atom.one_pad))
    return out


def _diag_rows(entries: list) -> list:
    z = zero(entries[0].field)
    return [[x if i == j else z for j in range(len(entries))] for i, x in enumerate(entries)]


def ref_apply_word(word, fd: FieldDescriptor, n: int) -> Matrix:
    """The product of the generators in list order, applied last first to
    the rows of the identity."""
    o, z = one(fd), zero(fd)
    rows = [[o if i == j else z for j in range(n)] for i in range(n)]
    for gen in reversed(word):
        if isinstance(gen, Transvection):
            i, j = gen.i - 1, gen.j - 1
            rows[i] = [x + gen.k * y for x, y in zip(rows[i], rows[j])]
        elif isinstance(gen, DiagUnit):
            rows[gen.i - 1] = [gen.k * x for x in rows[gen.i - 1]]
        else:
            a, b = gen.i - 1, gen.j - 1
            rows[a], rows[b] = rows[b], rows[a]
    return Matrix(fd, rows)


def ref_conjugator_from_units(units: list[list[Matrix]]) -> Matrix:
    """R with R F_ij R^-1 = E_ij, after multiplying out every relation."""
    n = len(units)
    if n < 1 or any(len(row) != n for row in units):
        raise DimensionMismatch("unit family must be square")
    fd = units[0][0].field
    k = units[0][0].n_rows
    if k != n:
        raise DimensionMismatch("full unit recovery needs n x n units in M_n")
    zero_m = zeros(fd, k)
    for i, j, p, q in product(range(n), repeat=4):
        if units[i][j] * units[p][q] != (units[i][q] if j == p else zero_m):
            raise NotMatrixUnits("matrix unit relations F_ij F_kl = delta_jk F_il violated")
    f11 = units[0][0]
    v = next((f11.column(c) for c in range(k) if any(not x.is_zero for x in f11.column(c))), None)
    if v is None:
        raise NotMatrixUnits("F_11 is zero, no unit structure to recover")
    v_mat = from_columns(fd, [v])
    r_inv = from_columns(fd, [(units[j][0] * v_mat).column(0) for j in range(n)])
    return normalize_scale(r_inv.inverse())


def ref_joint_diagonalize(mats, cand_vals, fd: FieldDescriptor, l: int):
    """Joint eigenspaces of a commuting family, one kernel per candidate."""
    blocks = [(identity(fd, l), ())]
    for m_x, vals in zip(mats, cand_vals):
        refined = []
        for basis, eigs in blocks:
            t = solve_exact(basis, m_x * basis)
            m = basis.n_cols
            ident = identity(fd, m)
            covered = 0
            for v in vals:
                kern = (t - v * ident).kernel_basis()
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


def ref_involution_frame(invs: list[Matrix], fd: FieldDescriptor, n: int):
    """(twist, p) after the square, commutation and balance checks."""
    o = one(fd)
    ident = identity(fd, n)
    for v in invs:
        if v * v != ident:
            raise NotMultiplicative("image of a determinant involution must square to I")
    if any(a * b != b * a for a, b in combinations(invs, 2)):
        raise NotMultiplicative("determinant involution images do not commute")
    mults = [n - (v + ident).rank for v in invs]
    m = mults[0]
    if any(mm != m for mm in mults):
        raise NotMultiplicative("involution eigenspace sizes are unbalanced")
    if m == 1:
        twist = 0
    elif n > 2 and m == n - 1:
        twist = 1
    else:
        raise NotMultiplicative(
            "involution eigenvalue multiplicities match no canonical form"
        )
    sign = -o if twist else o
    twisted = [sign * v for v in invs]
    p = from_columns(fd, [(vh + ident).kernel_basis()[0] for vh in twisted])
    try:
        p.inverse()
    except SingularMatrix:
        raise NotMultiplicative("involution eigenvectors are dependent") from None
    return twist, p


def assert_report_matches_its_log(report) -> None:
    """Every probe (a, b) of the report's log has reconstructed(a) == b."""
    reconstructed = report.reconstructed_oracle()
    for a, b in report.probe_log:
        assert reconstructed(a) == b, f"report disagrees with its log at probe {a!r}"


# the replacements of one logged image X in the soundness sweep
CORRUPTIONS = {
    "plus-e11": lambda x: x + unit_matrix(x.field, x.n_rows, 1, 1),
    "double": lambda x: x + x,
    "negate": lambda x: -x,
    "zero": lambda x: zeros(x.field, x.n_rows),
    "transpose": lambda x: x.transpose(),
    "identity": lambda x: identity(x.field, x.n_rows),
}


def _sweep_bases():
    """identity, C(A), det(A) A, det(A)^2 C(A) and det-cube-to-2x2 at n = 3
    over Q."""
    x = {p: ScalarCharacter((("id", p),)) for p in (1, 2, 3)}
    return {
        "identity": MapExpr(3, RATIONAL, ()),
        "cofactor": MapExpr(3, RATIONAL, (Cof(),)),
        "det-scale": MapExpr(3, RATIONAL, (DetScale(x[1]),)),
        "det-square-cofactor": MapExpr(3, RATIONAL, (DetScale(x[2]), Cof())),
        "det-cube-to-2x2": MapExpr(3, RATIONAL, (TrivialDet((x[3], x[3]), 0, 0),)),
    }


def scaled_unit_lie(fd: FieldDescriptor):
    """The identity map at n = 3 with sqrt(d) E_11 -> 2 sqrt(d) E_11 and
    d E_12 -> 2d E_12: the product of the two images stays right."""
    s, d = sqrt_gen(fd), as_elem(fd, fd.d)
    e11, e12 = unit_matrix(fd, 3, 1, 1), unit_matrix(fd, 3, 1, 2)
    lies = {s * e11: (s + s) * e11, d * e12: (d + d) * e12}
    return lambda a: lies.get(a, a)


def corruption_cases(rng=None):
    """(label, oracle, field, n) for the soundness sweep. At every input of a
    base's clean probe log, each replacement of CORRUPTIONS, or with rng one
    of them drawn by rng; a replacement equal to the clean image is left
    out."""
    for name, expr in _sweep_bases().items():
        for a, x in classify(expr.as_oracle(), RATIONAL, 3).probe_log:
            kinds = [rng.choice(list(CORRUPTIONS))] if rng else list(CORRUPTIONS)
            for kind in kinds:
                bad = CORRUPTIONS[kind](x)
                if bad != x:
                    yield f"{name}/{kind}", _replaced(expr, a, bad), RATIONAL, 3


def _replaced(expr: MapExpr, target: Matrix, image: Matrix):
    return lambda a: image if a == target else expr.evaluate(a)


def sweep_outcome(oracle, fd: FieldDescriptor, n: int) -> str:
    """The type name of the MultmapError classify raises, or "report" for a
    report that matches the oracle at every probe it logged; any other end
    fails the calling test."""
    try:
        report = classify(oracle, fd, n)
    except MultmapError as exc:
        return type(exc).__name__
    assert_report_matches_its_log(report)
    return "report"
