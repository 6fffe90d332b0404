"""The package surface: every exported name has a caller, and no module of
the package imports a name it never uses.

A name that only unit tests call is a cost with no user: the first check
reads the names that multmap/__init__.py imports and looks for each, as a
whole word, in the other modules of the package (the line that defines it
does not count), the benchmark harness, README.md and the acceptance tests.
The second parses each module other than __init__.py and reports the names
it imports but never reads, such as a leftover import of a deleted helper.

The last check calls public entry points with an argument of the wrong
type, None for a matrix, an expression, a form or a word and an int for a
scalar: each must raise its MultmapError, DimensionMismatch, FieldMismatch
or ParseError, at the entry point, and no bare AttributeError or TypeError
from deeper in.
"""

import ast
import re
from pathlib import Path

import pytest

from multmap.errors import DimensionMismatch, FieldMismatch, ParseError
from multmap.field import IDENTITY_HOM, RATIONAL, hom_check, sqrt_gen
from multmap.mapexpr import canonical_eq, simplify
from multmap.matrix import (
    conjugator_from_units,
    from_columns,
    identity,
    solve_exact,
    split_idempotent_pair,
)
from multmap.slword import decompose_gl, decompose_sl, evaluate_word, word_to_doc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multmap"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """Every name an import binds, __future__ left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_every_export_has_a_caller_outside_the_unit_tests():
    exports = list(_imported(ast.parse((PACKAGE / "__init__.py").read_text())))
    assert exports
    callers = [(p, p.read_text()) for p in _modules()]
    callers += [(p, p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    callers += [(ROOT / "README.md", (ROOT / "README.md").read_text())]
    acceptance = ROOT / "tests" / "test_acceptance.py"
    callers += [(acceptance, acceptance.read_text())]
    unused = []
    for name in exports:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(
            word.search(line) and not (path.parent == PACKAGE and definition.match(line))
            for path, text in callers
            for line in text.splitlines()
        ):
            unused.append(name)
    assert unused == []


def _read_names(tree):
    """Every identifier the module reads: names, which include the roots of
    attribute chains, and the identifiers inside quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        read = _read_names(tree)
        unused += [f"{path.name}: {name}" for name in _imported(tree) if name not in read]
    assert unused == []


I3 = identity(RATIONAL, 3)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: split_idempotent_pair(None, I3), DimensionMismatch),
        (lambda: solve_exact(I3, None), DimensionMismatch),
        (lambda: conjugator_from_units([[None]]), DimensionMismatch),
        (lambda: decompose_sl(None), DimensionMismatch),
        (lambda: decompose_gl(None), DimensionMismatch),
        (lambda: I3.scale(3), FieldMismatch),
        (lambda: simplify(None), ParseError),
        (lambda: canonical_eq(None, None), ParseError),
        (lambda: word_to_doc(None), ParseError),
        (lambda: evaluate_word(None, RATIONAL, 3), ParseError),
        (lambda: sqrt_gen(None), FieldMismatch),
        (lambda: hom_check(IDENTITY_HOM, None), ParseError),
        (lambda: hom_check(IDENTITY_HOM, [(1, 2)]), ParseError),
        (lambda: from_columns(RATIONAL, None), DimensionMismatch),
        (lambda: from_columns(RATIONAL, [I3.rows[0], I3.rows[1][:2]]), DimensionMismatch),
    ],
    ids=[
        "split_idempotent_pair",
        "solve_exact",
        "conjugator_from_units",
        "decompose_sl",
        "decompose_gl",
        "scale",
        "simplify",
        "canonical_eq",
        "word_to_doc",
        "evaluate_word",
        "sqrt_gen",
        "hom_check",
        "hom_check-ints",
        "from_columns",
        "from_columns-ragged",
    ],
)
def test_an_argument_of_the_wrong_type_raises_a_multmap_error(call, error):
    with pytest.raises(error):
        call()
