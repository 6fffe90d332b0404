"""Command line front end over the JSON document formats.

Six subcommands: eval applies a map expression to a matrix, simplify
reduces an expression to its canonical form, classify probes an oracle
and prints the recovered report, decompose factors an invertible matrix
into elementary transvections, verify fuzzes multiplicativity or
agreement of two maps, and gen emits seeded sample matrices.

Every command prints a single JSON document with sorted keys to stdout;
diagnostics go to stderr. Exit codes: 0 success (a failing verdict is
data, not an error), 2 parse errors, 3 dimension or field mismatches,
4 oracle provably not multiplicative, 5 recovered form contradicted by
a fresh sample, 6 unsupported dimensions, 7 standard output closed before
the whole document was written, 1 any other library error.
"""

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .classify import classify
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    MultmapError,
    NotMultiplicative,
    ParseError,
    UnsupportedDimension,
    VerificationFailed,
)
from .field import RATIONAL, _scan_digits, format_scalar, quadratic
from .mapexpr import Cof, MapExpr, ScalarCharacter, TrivialDet, identity_expr, simplify
from .matrix import MAX_SIZE, Matrix, identity
from .slword import (
    decompose_gl,
    random_gl,
    random_sl,
    random_unitriangular,
    word_to_doc,
)
from .verify import FuzzConfig, check_equal, check_multiplicative

# Largest gen --length and --samples accepted; past them the command is a
# usage error (exit 2). At n = 32 the largest accepted values stay within a
# few seconds on a 2-vCPU virtual machine: gen gl --length 5000 took 0.5 s
# over Q and 3.8 s over Q(sqrt 999999999989), and verify cofactor:32
# --samples 50 took 6 s over Q and 12 s over Q(sqrt 2).
MAX_WORD_LENGTH = 5000
MAX_SAMPLES = 50


# -- oracle sources ---------------------------------------------------------------

# Builtins let classify and verify run without an expression file. The
# last two are deliberately broken maps used to exercise the rejection
# paths; all take the domain size from the "name:<n>" suffix.


def _builtin_identity(fd, n):
    return identity_expr(fd, n).as_oracle()


def _builtin_cofactor(fd, n):
    return MapExpr(n, fd, (Cof(),)).as_oracle()


def _builtin_det_cube(fd, n):
    cube = ScalarCharacter((("id", 3),))
    return MapExpr(n, fd, (TrivialDet((cube, cube), 0, 0),)).as_oracle()


def _builtin_adjugate(fd, n):
    # anti-multiplicative: adj(AB) = adj(B) adj(A)
    def oracle(a: Matrix) -> Matrix:
        return a.cofactor().transpose()

    return oracle


def _builtin_plus_identity(fd, n):
    def oracle(a: Matrix) -> Matrix:
        return a + identity(fd, n)

    return oracle


BUILTINS = {
    "identity": _builtin_identity,
    "cofactor": _builtin_cofactor,
    "det-cube-to-2x2": _builtin_det_cube,
    "adjugate-transpose": _builtin_adjugate,
    "plus-identity": _builtin_plus_identity,
}


def _load_doc(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text", pos=exc.start) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc.msg}", pos=exc.pos) from exc
    except ValueError as exc:
        # a JSON number with more digits than the interpreter converts
        raise ParseError(f"{path} holds a number too long to read: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path} nests too deeply to read") from None


def _builtin_size(name: str, tail: str) -> int:
    """The n of a builtin 'name:<n>': a run of the ASCII digits 0-9 only, the
    rule scalars follow, that reads as a positive integer of at most
    MAX_SIZE."""
    try:
        digits = _scan_digits(tail, 0, "") == len(tail)
    except ParseError:
        digits = False
    if not digits or int(tail) < 1:
        raise ParseError(f"builtin {name} needs a positive size, got {tail!r}")
    n = int(tail)
    if n > MAX_SIZE:
        raise ParseError(f"builtin {name} size {n} is past MAX_SIZE = {MAX_SIZE}")
    return n


def _resolve_oracle(target: str, fd):
    """A builtin 'name:<n>' or a path to a map expression document."""
    name, sep, tail = target.partition(":")
    if sep and name in BUILTINS:
        n = _builtin_size(name, tail)
        return BUILTINS[name](fd, n), fd, n
    expr = MapExpr.from_doc(_load_doc(target))
    return expr.as_oracle(), expr.field, expr.n


# -- subcommands ------------------------------------------------------------------


def cmd_eval(args) -> dict:
    expr = MapExpr.from_doc(_load_doc(args.expr_file))
    m = Matrix.from_doc(_load_doc(args.matrix_file))
    return expr.evaluate(m).to_doc()


def cmd_simplify(args) -> dict:
    expr = MapExpr.from_doc(_load_doc(args.expr_file))
    doc = simplify(expr).describe()
    doc["n"] = expr.n
    doc["field"] = expr.field.to_doc()
    return doc


def cmd_classify(args) -> dict:
    oracle, fd, n = _resolve_oracle(args.target, args.field)
    return classify(oracle, fd, n, seed=args.seed).to_doc()


def cmd_decompose(args) -> dict:
    m = Matrix.from_doc(_load_doc(args.matrix_file))
    fact = decompose_gl(m)
    return {
        "detScalar": format_scalar(fact.det_scalar),
        "word": word_to_doc(fact.word),
        "length": len(fact.word),
    }


def cmd_verify(args) -> dict:
    config = FuzzConfig(seed=args.seed, pair_count=args.samples)
    f, fd, n = _resolve_oracle(args.target, args.field)
    if args.other is None:
        verdict = check_multiplicative(f, fd, n, config)
    else:
        g, other_fd, other_n = _resolve_oracle(args.other, args.field)
        if other_fd != fd or other_n != n:
            raise DimensionMismatch("the two maps take different inputs")
        verdict = check_equal(f, g, fd, n, config)
    return verdict.to_doc()


def cmd_gen(args) -> dict:
    if args.kind == "unitriangular":
        if args.n < 1:
            raise DimensionMismatch("gen needs n >= 1")
        return random_unitriangular(random.Random(args.seed), args.field, args.n).to_doc()
    if args.n < 2:
        raise DimensionMismatch("transvection words need n >= 2")
    sampler = random_sl if args.kind == "sl" else random_gl
    m = sampler(random.Random(args.seed), args.field, args.n, length=args.length)
    return m.to_doc()


# -- wiring -----------------------------------------------------------------------


def _field_spec(text: str):
    if text == "rational":
        return RATIONAL
    name, sep, tail = text.partition(":")
    if name == "quadratic" and sep:
        try:
            d = int(tail)
        except ValueError:
            raise argparse.ArgumentTypeError(f"radicand must be an integer, got {tail!r}")
        try:
            return quadratic(d)
        except FieldMismatch as exc:
            raise argparse.ArgumentTypeError(str(exc))
    raise argparse.ArgumentTypeError("expected rational or quadratic:<d>")


def _int_within(minimum: int | None = None, maximum: int | None = None):
    """An argparse type for integers within the given bounds."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    common.add_argument(
        "--samples",
        type=_int_within(minimum=1, maximum=MAX_SAMPLES),
        default=50,
        help=f"fuzz sample count, 1 to MAX_SAMPLES = {MAX_SAMPLES} (default 50)",
    )
    common.add_argument(
        "--field",
        type=_field_spec,
        default=RATIONAL,
        metavar="FIELD",
        help="scalar field for builtins and gen: rational or quadratic:<d>",
    )

    parser = argparse.ArgumentParser(
        prog="multmap",
        description="Exact multiplicative maps on matrix rings: evaluate, "
        "simplify, classify, decompose, verify, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="apply an expression to a matrix")
    p.add_argument("expr_file", help="map expression document")
    p.add_argument("matrix_file", help="matrix document")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("simplify", parents=[common], help="canonical form of an expression")
    p.add_argument("expr_file", help="map expression document")
    p.set_defaults(run=cmd_simplify)

    p = sub.add_parser(
        "classify",
        parents=[common],
        help="probe a map as a black box and recover its canonical form",
    )
    p.add_argument(
        "target",
        help="expression file, or builtin oracle %s with 'name:<n>'"
        % "/".join(sorted(BUILTINS)),
    )
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser(
        "decompose", parents=[common], help="factor a matrix into transvections"
    )
    p.add_argument("matrix_file", help="matrix document, must be invertible")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="fuzz one map for multiplicativity, or two maps for agreement",
    )
    p.add_argument("target", help="expression file or builtin 'name:<n>'")
    p.add_argument("other", nargs="?", default=None, help="optional second map")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("gen", parents=[common], help="emit a seeded sample matrix")
    p.add_argument("kind", choices=("sl", "gl", "unitriangular"))
    # sizes below what a kind takes are dimension errors of cmd_gen (exit 3)
    p.add_argument(
        "--n",
        type=_int_within(maximum=MAX_SIZE),
        required=True,
        help=f"matrix size, at most MAX_SIZE = {MAX_SIZE}",
    )
    p.add_argument(
        "--length",
        type=_int_within(minimum=0, maximum=MAX_WORD_LENGTH),
        default=None,
        help=f"word length for sl/gl, 0 to MAX_WORD_LENGTH = {MAX_WORD_LENGTH} (default 4n)",
    )
    p.set_defaults(run=cmd_gen)

    return parser


def _fail(code: int, exc: Exception | str) -> int:
    print(f"multmap: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.run(args)
    except ParseError as exc:
        return _fail(2, exc)
    except (DimensionMismatch, FieldMismatch) as exc:
        return _fail(3, exc)
    except NotMultiplicative as exc:
        return _fail(4, exc)
    except VerificationFailed as exc:
        return _fail(5, exc)
    except UnsupportedDimension as exc:
        return _fail(6, exc)
    except MultmapError as exc:
        return _fail(1, exc)
    closed = "standard output closed before the whole document was written"
    if sys.stdout is None:
        # started with no standard output at all
        return _fail(7, closed)
    try:
        # flushed here, so that a reader that stops early shows up here and
        # not at interpreter exit
        print(json.dumps(doc, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the exit flush would fail again on the unwritten rest; send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(7, closed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
