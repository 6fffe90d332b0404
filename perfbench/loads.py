"""The four workloads: seeded inputs, the timed operations, and the checks.

Every input is made here from the seed; nothing comes from the package's
tests. Each workload is a round, a fixed list of operations that the harness
in run.py repeats whole. An operation has three parts: prepare() builds fresh
input objects outside the timed region (Matrix caches its elimination and
its inverse, so reusing an object would make later rounds cheaper than the
first), run() is the timed call into multmap, and check() tests the result
against a computation made apart from the program, or against a property the
method must have. check() raises WrongOutput on a wrong result and returns
False when the operation failed.

Functions of the package are always called through the package module (mm.x),
so that the wrappers a traced run installs there are the ones called.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import multmap as mm
from multmap.mapexpr import Cof, Conj, DetScale, Hom, MapExpr, ScalarCharacter, TrivialDet

Q = mm.RATIONAL
Q2 = mm.quadratic(2)
# classify fits determinant characters with exponents up to this bound;
# past it a recovered scale is a sampled table that simplify's form cannot
# match, so inputs are drawn inside it
CHAR_BOUND = 6
CLI_TIMEOUT_S = 120


class WrongOutput(Exception):
    """The program returned a result that fails a check."""


@dataclass
class Op:
    name: str
    prepare: Callable[[], object]
    run: Callable[[object, object], object]  # (prepared input, tracer or None)
    check: Callable[[object], bool]


@dataclass
class Workload:
    ops: list[Op]  # one round
    after: Callable[[], None] | None = None  # untimed checks, once per run


def require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


# -- reference arithmetic, independent of Matrix ------------------------------


def laplace_det(rows, zero):
    """Determinant by first-row cofactor expansion, memoized on the column
    set: a different route from the elimination inside Matrix. Works for
    FieldElem and Fraction entries alike."""
    n = len(rows)
    memo = {}

    def det(cols: tuple):
        r = n - len(cols)
        if len(cols) == 1:
            return rows[r][cols[0]]
        if cols in memo:
            return memo[cols]
        total = zero
        for pos, c in enumerate(cols):
            x = rows[r][c]
            if x == zero:
                continue
            term = x * det(cols[:pos] + cols[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
        memo[cols] = total
        return total

    return det(tuple(range(n)))


def laplace_cofactor(rows, zero):
    n = len(rows)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            d = laplace_det(minor, zero)
            row.append(d if (i + j) % 2 == 0 else -d)
        out.append(row)
    return out


def frac_mul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]


def is_scalar_multiple(a, b) -> bool:
    """a = c b for some nonzero rational c (matrices as row lists)."""
    pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    pivot = next(((x, y) for x, y in pairs if y != 0), None)
    if pivot is None or pivot[0] == 0:
        return False
    px, py = pivot
    return all(x * py == y * px for x, y in pairs)


# -- seeded inputs ------------------------------------------------------------


def scalar_pool(fd):
    base = [mm.as_elem(fd, v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))]
    if fd.is_quadratic:
        s = mm.sqrt_gen(fd)
        base += [s, mm.one(fd) + s, mm.one(fd) - s]
    return base


def unit_pool(fd):
    """Scalars of size one: +-1, and +-sqrt d over Q(sqrt d). Inputs built from
    them have an arithmetic cost that varies little with the seed."""
    units = [mm.one(fd), -mm.one(fd)]
    if fd.is_quadratic:
        units += [mm.sqrt_gen(fd), -mm.sqrt_gen(fd)]
    return units


def row_op_matrix(rng, fd, n: int, length: int, det_scale):
    """A word of `length` random row transvections with multipliers from
    unit_pool, with its first row then scaled by det_scale; its determinant
    is det_scale by construction."""
    units = unit_pool(fd)
    o, z = mm.one(fd), mm.zero(fd)
    rows = [[o if i == j else z for j in range(n)] for i in range(n)]
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        k = rng.choice(units)
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    rows[0] = [det_scale * x for x in rows[0]]
    return mm.Matrix(fd, rows)


def conjugator(rng, fd, n: int):
    """A row permutation of a unit upper triangular matrix whose entries
    above the diagonal all come from unit_pool: a dense basis change."""
    units = unit_pool(fd)
    o, z = mm.one(fd), mm.zero(fd)
    upper = [[o if i == j else rng.choice(units) if j > i else z for j in range(n)] for i in range(n)]
    return mm.Matrix(fd, [upper[i] for i in rng.sample(range(n), n)])


def invertible(rng, fd, n: int):
    return row_op_matrix(rng, fd, n, 2 * n, rng.choice(scalar_pool(fd)))


def singular(rng, fd, n: int, deficiency: int):
    """An n x n matrix whose last `deficiency` rows are combinations of the
    first rows, so its rank is at most n - deficiency."""
    rows = [list(r) for r in invertible(rng, fd, n).rows]
    pool = scalar_pool(fd)
    for t in range(n - deficiency, n):
        c = rng.choice(pool)
        rows[t] = [x + c * y for x, y in zip(rows[0], rows[1])]
    return mm.Matrix(fd, rows)


def fresh(m):
    """An equal Matrix with no cached elimination or inverse."""
    return mm.Matrix(m.field, m.rows)


def fresh_expr(expr: MapExpr) -> MapExpr:
    atoms = tuple(Conj(fresh(a.R)) if isinstance(a, Conj) else a for a in expr.atoms)
    return MapExpr(expr.n, expr.field, atoms)


def character(rng, fd, span: int) -> ScalarCharacter:
    factors = [("id", rng.randint(-span, span))]
    if fd.is_quadratic:
        factors.append(("conj", rng.randint(-span, span)))
    return ScalarCharacter(tuple(factors))


def chars_in_bound(form) -> bool:
    lam = getattr(form, "lam", None)
    if lam is None:
        return True
    return all(abs(p) <= CHAR_BOUND for _, p in lam.factors)


def random_composition(rng, fd, n: int, kinds) -> MapExpr:
    """The atoms named in kinds, in a random order with random parameters,
    redrawn until simplify's determinant character is within the fit bound."""
    while True:
        order = list(kinds)
        rng.shuffle(order)
        atoms = []
        for kind in order:
            if kind == "conj":
                atoms.append(Conj(conjugator(rng, fd, n)))
            elif kind == "cof":
                atoms.append(Cof())
            elif kind == "hom":
                conj = fd.is_quadratic and rng.random() < 0.5
                atoms.append(Hom(mm.CONJUGATION_HOM if conj else mm.IDENTITY_HOM))
            else:
                atoms.append(DetScale(character(rng, fd, 1)))
        expr = MapExpr(n, fd, tuple(atoms))
        if chars_in_bound(mm.simplify(expr)):
            return expr


# -- classify ---------------------------------------------------------------------


@dataclass
class ClassifyCase:
    expr: MapExpr
    conj: object  # k x k basis change for padded determinant maps, else None
    expected: object  # simplify's canonical form, the independent symbolic path
    samples: list  # fresh inputs from a stream the classifier never sees
    pure_cofactor: bool


def make_oracle(expr: MapExpr, conj, conj_inv):
    if conj is None:
        return expr.as_oracle()

    def oracle(a):
        return conj * expr.evaluate(a) * conj_inv

    return oracle


def classify_op(name: str, case: ClassifyCase, check_rng) -> Op:
    n, fd = case.expr.n, case.expr.field

    def prepare():
        expr = fresh_expr(case.expr)
        if case.conj is None:
            return expr, None, None
        conj = fresh(case.conj)
        return expr, conj, conj.inverse()

    def run(prepared, tracer):
        expr, conj, conj_inv = prepared
        return mm.classify(make_oracle(expr, conj, conj_inv), fd, n)

    def check(report) -> bool:
        require(len(report.probe_log) <= 10 * n * n + 200, f"{name}: probe budget exceeded")
        require(mm.canonical_eq(report.form, case.expected), f"{name}: form differs from simplify")
        if isinstance(case.expected, mm.TrivialForm):
            built = case.expr.atoms[0]
            require(
                (report.s, report.l) == (built.one_pad, len(built.chars))
                and sorted(c.factors for c in report.form.chars)
                == sorted(c.factors for c in built.chars),
                f"{name}: trivial map recovered with other (s, l, characters)",
            )
        conj = case.conj
        oracle = make_oracle(case.expr, conj, None if conj is None else conj.inverse())
        rebuilt = report.reconstructed_oracle()
        for a in case.samples:
            require(rebuilt(a) == oracle(a), f"{name}: reconstructed map differs on a fresh sample")
        if case.pure_cofactor:
            # A C(A)^T = det(A) I, with det(A) by expansion, on a subsample
            z = mm.zero(fd)
            for a, c in check_rng.sample(report.probe_log, 2):
                d = laplace_det(a.rows, z)
                require(
                    a * c.transpose() == d * mm.identity(fd, n),
                    f"{name}: cofactor output breaks the adjugate identity",
                )
        return True

    return Op(name, prepare, run, check)


def classify_case(rng, check_rng, expr, conj=None, pure_cofactor=False, samples=(3, 2)):
    n, fd = expr.n, expr.field
    expected = mm.simplify(expr)
    pts = [invertible(check_rng, fd, n) for _ in range(samples[0])]
    pts += [singular(check_rng, fd, n, 1 + t % 2) for t in range(samples[1])]
    return ClassifyCase(expr, conj, expected, pts, pure_cofactor)


SMALL_COMPOSITIONS = [
    (Q2, ("conj",)),
    (Q2, ("conj", "cof")),
    (Q2, ("conj", "hom")),
    (Q2, ("conj", "detscale")),
    (Q2, ("conj", "cof", "hom", "detscale")),
    (Q2, ("conj", "conj", "cof", "hom")),
    (Q, ("conj",)),
    (Q, ("conj", "cof")),
    (Q, ("conj", "detscale")),
    (Q, ("conj", "cof", "detscale")),
]
# (field, characters, zero pad, one pad); k < n = 3 in the second and third
SMALL_TRIVIAL = [(Q2, 2, 0, 1), (Q2, 1, 1, 0), (Q, 2, 0, 0), (Q, 1, 0, 2)]
# each round holds this many independent draws of every template above, so
# that a round's cost depends little on the seed
SMALL_COPIES = 3


def classify_small(seed: int, workdir: Path) -> Workload:
    n = 3
    rng = random.Random(f"classify-small:{seed}")
    check_rng = random.Random(f"classify-small-check:{seed}")
    ops = []
    for copy in range(SMALL_COPIES):
        for fd, kinds in SMALL_COMPOSITIONS:
            case = classify_case(rng, check_rng, random_composition(rng, fd, n, kinds))
            ops.append(classify_op(f"{'+'.join(kinds)}/{fd.kind}#{copy}", case, check_rng))
        for fd, l, z, s in SMALL_TRIVIAL:
            chars = tuple(character(rng, fd, 2) for _ in range(l))
            expr = MapExpr(n, fd, (TrivialDet(chars, z, s),))
            case = classify_case(rng, check_rng, expr, conj=conjugator(rng, fd, l + z + s))
            ops.append(classify_op(f"trivialdet{l}.{z}.{s}/{fd.kind}#{copy}", case, check_rng))
    return Workload(ops)


def classify_large(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"classify-large:{seed}")
    check_rng = random.Random(f"classify-large-check:{seed}")
    big = (2, 1)
    ops = []
    for fd, n in ((Q, 5), (Q2, 6)):
        case = classify_case(rng, check_rng, MapExpr(n, fd, (Cof(),)), pure_cofactor=True, samples=big)
        ops.append(classify_op(f"cofactor:{n}/{fd.kind}", case, check_rng))
    n = 5
    expr = MapExpr(n, Q2, (Conj(conjugator(rng, Q2, n)), Cof(), Hom(mm.CONJUGATION_HOM)))
    ops.append(classify_op("conj+cof+hom:5/quadratic", classify_case(rng, check_rng, expr, samples=big), check_rng))
    # after a cofactor at n = 5 the scale's exponents grow fourfold, so a
    # character with exponents up to 1 stays inside the fit bound
    expr = MapExpr(n, Q, (DetScale(character(rng, Q, 1)), Cof(), Conj(conjugator(rng, Q, n))))
    ops.append(classify_op("detscale+cof+conj:5/rational", classify_case(rng, check_rng, expr, samples=big), check_rng))
    return Workload(ops)


# -- words ------------------------------------------------------------------------

FUZZ_PAIRS = 2
# independent draws of every (kind, n, field) per round
WORDS_COPIES = 4


def roundtrip_op(name: str, m, det_scale) -> Op:
    n, fd = m.n_rows, m.field

    def run(x, tracer):
        fact = mm.decompose_gl(x)
        return fact, fact.evaluate(fd, n)

    def check(result) -> bool:
        fact, back = result
        require(back == m, f"{name}: the word does not evaluate back to its input")
        require(fact.det_scalar == det_scale, f"{name}: det scalar differs from construction")
        require(
            fact.det_scalar == laplace_det(m.rows, mm.zero(fd)),
            f"{name}: det scalar differs from the Laplace determinant",
        )
        require(len(fact.word) <= n * n + n - 2, f"{name}: word longer than n^2 + n - 2")
        return True

    return Op(name, lambda: fresh(m), run, check)


def fuzz_op(name: str, expr: MapExpr, seed: int) -> Op:
    config = mm.FuzzConfig(seed=seed, pair_count=FUZZ_PAIRS)

    def run(e, tracer):
        return mm.check_multiplicative(e.evaluate, e.field, e.n, config)

    def check(verdict) -> bool:
        require(
            verdict.passed and verdict.samples == FUZZ_PAIRS,
            f"{name}: a conjugation map failed the multiplicativity fuzz",
        )
        return True

    return Op(name, lambda: fresh_expr(expr), run, check)


def adjugate_control(seed: int) -> None:
    """The anti-multiplicative A -> C(A)^T must fail the fuzz, and its
    counterexample must break Phi(AB) = Phi(A) Phi(B) in plain rationals."""

    def phi(a):
        return a.cofactor().transpose()

    verdict = mm.check_multiplicative(phi, Q, 3, mm.FuzzConfig(seed=seed, pair_count=20))
    require(not verdict.passed, "adjugate-transpose passed the multiplicativity fuzz")
    a, b = ([[x.a for x in r] for r in m.rows] for m in verdict.counterexample)

    def adj_t(x):
        return [list(c) for c in zip(*laplace_cofactor(x, Fraction(0)))]

    require(
        adj_t(frac_mul(a, b)) != frac_mul(adj_t(a), adj_t(b)),
        "adjugate-transpose counterexample does not break multiplicativity",
    )


def words(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"words:{seed}")
    ops = []
    for copy in range(WORDS_COPIES):
        for fd in (Q, Q2):
            for n in (6, 8, 10):
                d = rng.choice(scalar_pool(fd))
                m = row_op_matrix(rng, fd, n, 3 * n, d)
                ops.append(roundtrip_op(f"roundtrip:{n}/{fd.kind}#{copy}", m, d))
            for n in (4, 5, 6):
                expr = MapExpr(n, fd, (Conj(conjugator(rng, fd, n)),))
                ops.append(fuzz_op(f"fuzz:{n}/{fd.kind}#{copy}", expr, rng.randrange(1 << 30)))
    control_seed = rng.randrange(1 << 30)
    return Workload(ops, lambda: adjugate_control(control_seed))


# -- cli --------------------------------------------------------------------------


def sorted_json(text: str):
    """Parse text, requiring every object's keys to come in sorted order."""

    def pairs_hook(pairs):
        keys = [k for k, _ in pairs]
        require(keys == sorted(keys), "stdout JSON keys are not sorted")
        return dict(pairs)

    return json.loads(text, object_pairs_hook=pairs_hook)


def fractions_of(entries):
    return [[Fraction(x) for x in r] for r in entries]


def matrix_doc(rows) -> dict:
    return {"n": len(rows), "field": {"kind": "rational"}, "entries": [[str(x) for x in r] for r in rows]}


def conj_doc(r_rows, cof: bool) -> dict:
    atoms = [{"atom": "cof"}] if cof else []
    atoms.append({"atom": "conj", "R": matrix_doc(r_rows)})
    return {"n": len(r_rows), "field": {"kind": "rational"}, "order": "apply-last-first", "atoms": atoms}


def rational_rows(m):
    return [[x.a for x in r] for r in m.rows]


def evaluate_word_doc(doc: dict, n: int):
    """D_1(detScalar) times the word's transvections, in plain rationals."""
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for g in reversed(doc["word"]["gens"]):
        require(g["type"] == "P", "decompose emitted a generator other than a transvection")
        i, j, k = g["i"] - 1, g["j"] - 1, Fraction(g["k"])
        out[i] = [x + k * y for x, y in zip(out[i], out[j])]
    out[0] = [Fraction(doc["detScalar"]) * x for x in out[0]]
    return out


def cli_op(name: str, argv: list[str], workdir: Path, expect_exit: int, check_doc=None) -> Op:
    """One `multmap` invocation, run to exit before the next starts. It has
    failed when the exit code is not the expected one or stderr holds a
    traceback."""
    trace_file = workdir / "trace.json"

    def run(prepared, tracer):
        if tracer is None:
            command = [sys.executable, "-m", "multmap", *argv]
        else:
            here = Path(__file__).resolve().parent
            command = [sys.executable, str(here / "traced_cli.py"), str(trace_file), *argv]
        env = dict(os.environ, PYTHONPATH=str(Path(mm.__file__).resolve().parent.parent))
        proc = subprocess.run(
            command, cwd=workdir, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
        if tracer is not None:
            tracer.merge(json.loads(trace_file.read_text()))
            trace_file.unlink()
            tracer.add("cli.invocations", 1)
            tracer.add("cli.stdout_bytes", len(proc.stdout.encode()))
        return proc

    def check(proc) -> bool:
        if proc.returncode != expect_exit or "Traceback" in proc.stderr:
            return False
        if check_doc is not None:
            check_doc(sorted_json(proc.stdout))
        return True

    return Op(name, lambda: None, run, check)


def cli(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"cli:{seed}")
    n = 3
    a = rational_rows(invertible(rng, Q, n))
    r = rational_rows(invertible(rng, Q, n))
    r2 = rational_rows(invertible(rng, Q, n))
    d = rng.choice(scalar_pool(Q)).a
    m4 = rational_rows(row_op_matrix(rng, Q, 4, 12, mm.as_elem(Q, d)))
    files = {
        "a.json": matrix_doc(a),
        "conj.json": conj_doc(r, cof=False),
        "cofconj.json": conj_doc(r2, cof=True),
        "m4.json": matrix_doc(m4),
        # a scalar past Python's 4300-digit int() limit; the input does not
        # depend on the seed
        "big.json": matrix_doc([["9" * 5000, "0"], ["0", "1"]]),
    }
    for fname, doc in files.items():
        (workdir / fname).write_text(json.dumps(doc))
    s = str(rng.randrange(1 << 30))

    def eval_ok(doc):
        out = fractions_of(doc["entries"])
        # out = R^-1 A R exactly when R out = A R
        require(frac_mul(r, out) == frac_mul(a, r), "eval: output is not R^-1 A R")

    def simplify_ok(doc):
        require(
            (doc["class"], doc["eps"], doc["phi"]) == ("nondegenerate", "cofactor", "id"),
            "simplify: wrong class, eps or phi for cof o conj",
        )
        require(
            is_scalar_multiple(fractions_of(doc["R"]["entries"]), laplace_cofactor(r2, Fraction(0))),
            "simplify: R is not a multiple of the Laplace cofactor of the conjugator",
        )

    def decompose_ok(doc):
        require(Fraction(doc["detScalar"]) == d, "decompose: det scalar differs from construction")
        require(doc["length"] == len(doc["word"]["gens"]) <= 4 * 4 + 4 - 2, "decompose: bad length")
        require(evaluate_word_doc(doc, 4) == m4, "decompose: the word does not evaluate back")

    def gen_ok(doc):
        require(doc["n"] == 4, "gen: wrong size")
        require(laplace_det(fractions_of(doc["entries"]), Fraction(0)) == 1, "gen: sl sample has det != 1")

    def verify_ok(doc):
        require(
            doc == {"pass": True, "counterexample": None, "samples": 5, "seed": int(s)},
            "verify: a conjugation map failed the fuzz",
        )

    def classify_ok(doc):
        require(
            (doc["class"], doc["eps"], doc["phi"], doc["n"], doc["k"])
            == ("nondegenerate", "cofactor", "id", 3, 3)
            and doc["field"] == {"kind": "quadratic", "d": 2},
            "classify: cofactor:3 misreported",
        )
        require(len(doc["probeLog"]) <= 10 * n * n + 200, "classify: probe budget exceeded")

    ops = [
        cli_op("eval", ["eval", "conj.json", "a.json"], workdir, 0, eval_ok),
        cli_op("simplify", ["simplify", "cofconj.json"], workdir, 0, simplify_ok),
        cli_op("decompose", ["decompose", "m4.json"], workdir, 0, decompose_ok),
        cli_op("gen", ["gen", "sl", "--n", "4", "--seed", s], workdir, 0, gen_ok),
        cli_op("verify", ["verify", "conj.json", "--samples", "5", "--seed", s], workdir, 0, verify_ok),
        cli_op(
            "classify",
            ["classify", "cofactor:3", "--field", "quadratic:2", "--seed", s],
            workdir,
            0,
            classify_ok,
        ),
        # fails today: the parser's int() raises ValueError past 4300 digits,
        # so the command exits 1 with a traceback instead of a parse error
        cli_op("decompose-bigscalar", ["decompose", "big.json"], workdir, 2),
    ]
    return Workload(ops)


WORKLOADS = {
    "classify-small": classify_small,
    "classify-large": classify_large,
    "words": words,
    "cli": cli,
}
