"""End-to-end command line tests: golden outputs, exit codes, plumbing.

Every invocation goes through a real subprocess so the console entry
point, argument parsing, and error-to-exit-code mapping are all on the
hook; only the document fuzz test calls cli.main in the test process, to
run hundreds of documents quickly. Golden tests re-serialize the pinned
document with the documented options (indent=2, sorted keys) so both
content and formatting are byte-exact contracts.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multmap import cli
from multmap.field import RATIONAL
from multmap.matrix import MAX_SIZE, Matrix, Transvection, gen_matrix
from multmap.mapexpr import simplify
from multmap.slword import DiagUnit, evaluate_word
from multmap.field import parse_scalar

from helpers import random_mapexpr

RATIONAL_DOC = {"kind": "rational"}


def run_cli(*argv, expect: int = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "multmap", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


def golden(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def matrix_doc(n, entries) -> dict:
    return {"n": n, "field": RATIONAL_DOC, "entries": entries}


def write_doc(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CONJ_EXPR_2 = {
    "n": 2,
    "field": RATIONAL_DOC,
    "order": "apply-last-first",
    "atoms": [{"atom": "conj", "R": matrix_doc(2, [["1", "1"], ["0", "1"]])}],
}

COF_EXPR_3 = {
    "n": 3,
    "field": RATIONAL_DOC,
    "order": "apply-last-first",
    "atoms": [{"atom": "cof"}],
}


# -- eval ---------------------------------------------------------------------


def test_eval_conjugation_golden(tmp_path):
    expr = write_doc(tmp_path, "expr.json", CONJ_EXPR_2)
    mat = write_doc(tmp_path, "a.json", matrix_doc(2, [["2", "0"], ["0", "3"]]))
    proc = run_cli("eval", expr, mat)
    assert proc.stdout == golden(matrix_doc(2, [["2", "-1"], ["0", "3"]]))


def test_eval_cofactor_of_coidempotent_golden(tmp_path):
    # C(diag(0,1,1)) collapses onto the complementary rank one unit
    expr = write_doc(tmp_path, "expr.json", COF_EXPR_3)
    mat = write_doc(
        tmp_path,
        "f1.json",
        matrix_doc(3, [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    )
    proc = run_cli("eval", expr, mat)
    assert proc.stdout == golden(
        matrix_doc(3, [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]])
    )


def test_eval_malformed_scalar_exits_2_with_position(tmp_path):
    expr = write_doc(tmp_path, "expr.json", CONJ_EXPR_2)
    mat = write_doc(tmp_path, "bad.json", matrix_doc(2, [["2", "0"], ["0", "3x"]]))
    proc = run_cli("eval", expr, mat, expect=2)
    assert proc.stdout == ""
    assert "position" in proc.stderr


def test_eval_unreadable_and_unparsable_files_exit_2(tmp_path):
    expr = write_doc(tmp_path, "expr.json", CONJ_EXPR_2)
    missing = str(tmp_path / "nope.json")
    run_cli("eval", expr, missing, expect=2)
    broken = tmp_path / "broken.json"
    broken.write_text("not json {")
    run_cli("eval", str(broken), str(broken), expect=2)


def test_undecodable_and_deeply_nested_documents_exit_2(tmp_path):
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for argv in (
        ["eval", str(not_utf8), str(not_utf8)],
        ["decompose", str(not_utf8)],
        ["eval", str(deep), str(deep)],
        ["classify", str(deep)],
    ):
        proc = run_cli(*argv, expect=2)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
    assert "not UTF-8" in run_cli("decompose", str(not_utf8), expect=2).stderr
    assert "nests too deeply" in run_cli("decompose", str(deep), expect=2).stderr


def test_sizes_past_the_bound_exit_2(tmp_path):
    big = MAX_SIZE + 1
    trivial = {"atom": "trivialdet", "chars": [[{"phi": "id", "pow": 1}]]}
    docs = [
        {"n": big, "field": RATIONAL_DOC, "atoms": []},
        {"n": 2, "field": RATIONAL_DOC, "atoms": [{**trivial, "zeroPad": big}]},
        {"n": 2, "field": RATIONAL_DOC, "atoms": [{**trivial, "onePad": big}]},
    ]
    for i, doc in enumerate(docs):
        proc = run_cli("classify", write_doc(tmp_path, f"e{i}.json", doc), expect=2)
        assert "MAX_SIZE" in proc.stderr and "Traceback" not in proc.stderr
    proc = run_cli("classify", f"cofactor:{big}", expect=2)
    assert "MAX_SIZE" in proc.stderr
    for n in (str(big), "1000000"):
        proc = run_cli("gen", "sl", "--n", n, expect=2)
        assert "--n" in proc.stderr and "Traceback" not in proc.stderr
    at_bound = Matrix.from_doc(json.loads(run_cli("gen", "sl", "--n", str(MAX_SIZE)).stdout))
    assert at_bound.n_rows == MAX_SIZE


def test_eval_dimension_mismatch_exits_3(tmp_path):
    expr = write_doc(tmp_path, "expr.json", CONJ_EXPR_2)
    mat = write_doc(tmp_path, "i3.json", matrix_doc(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    proc = run_cli("eval", expr, mat, expect=3)
    assert proc.stdout == ""


# -- simplify -----------------------------------------------------------------


def test_simplify_conjugation_golden(tmp_path):
    expr = write_doc(tmp_path, "expr.json", CONJ_EXPR_2)
    proc = run_cli("simplify", expr)
    assert proc.stdout == golden(
        {
            "class": "nondegenerate",
            "phi": "id",
            "eps": "plain",
            "R": matrix_doc(2, [["1", "1"], ["0", "1"]]),
            "n": 2,
            "field": RATIONAL_DOC,
        }
    )


# -- classify -----------------------------------------------------------------


def test_classify_builtin_identity(tmp_path):
    proc = run_cli("classify", "identity:3")
    doc = json.loads(proc.stdout)
    assert doc["class"] == "nondegenerate"
    assert doc["phi"] == "id"
    assert doc["eps"] == "plain"
    assert (doc["n"], doc["k"], doc["s"], doc["l"]) == (3, 3, 0, 3)
    assert doc["R"]["entries"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert doc["probeLog"]


def test_classify_builtin_cofactor_structure():
    doc = json.loads(run_cli("classify", "cofactor:3").stdout)
    assert doc["class"] == "nondegenerate"
    assert doc["eps"] == "cofactor"
    assert doc["phi"] == "id"
    assert doc["lambda"] is None


def test_classify_det_cube_lands_in_smaller_algebra():
    doc = json.loads(run_cli("classify", "det-cube-to-2x2:3").stdout)
    assert doc["class"] == "trivial"
    assert (doc["n"], doc["k"], doc["s"], doc["l"]) == (3, 2, 0, 2)
    assert doc["chars"] == [[{"phi": "id", "pow": 3}], [{"phi": "id", "pow": 3}]]


def test_classify_agrees_with_simplify_on_random_expression(tmp_path):
    # dual path: classify sees only evaluations, never the atom list
    expr = random_mapexpr(random.Random(7), RATIONAL, 3, max_depth=3)
    path = write_doc(tmp_path, "expr.json", expr.to_doc())
    report = json.loads(run_cli("classify", path).stdout)
    simplified = json.loads(run_cli("simplify", path).stdout)
    assert report["class"] == simplified["class"]
    assert report["field"] == simplified["field"]
    assert report["n"] == simplified["n"] == 3


def test_classify_rejections_map_to_exit_codes(tmp_path):
    run_cli("classify", "adjugate-transpose:3", expect=4)
    run_cli("classify", "plus-identity:3", expect=4)
    run_cli("classify", "identity:1", expect=6)
    proc = run_cli("classify", "identity:x", expect=2)
    assert "positive size" in proc.stderr


@pytest.mark.parametrize(
    "size",
    ["\u00b2", "\u0663", "9" * 5000],
    ids=["superscript-two", "arabic-indic-three", "5000-digits"],
)
def test_builtin_sizes_take_ascii_digits_only(size):
    # a superscript two and an Arabic-Indic three are str.isdigit, and 5000
    # ASCII digits are more than the interpreter converts to an int
    proc = run_cli("classify", f"cofactor:{size}", expect=2)
    assert proc.stderr.startswith("multmap: builtin cofactor needs a positive size")
    assert "Traceback" not in proc.stderr


def test_classify_refuses_a_determinant_scale_past_the_bound(tmp_path):
    x7 = {
        "n": 3,
        "field": RATIONAL_DOC,
        "atoms": [{"atom": "detscale", "lambda": [{"phi": "id", "pow": 7}]}],
    }
    proc = run_cli("classify", write_doc(tmp_path, "x7.json", x7), expect=1)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "[-6, 6]" in proc.stderr and "CHAR_POWER_BOUND" in proc.stderr


# sha256 of the classify stdout, probe log included, pinned before the
# integer scalar core replaced Fraction pairs
COFACTOR_STDOUT_SHA256 = {
    (3, "rational"): "c924b66bd5475249efdf04fdd84d08f0f560872ae97756646cfa2ef3e273fcab",
    (3, "quadratic:2"): "fe34daa8b7b8b85649386d31fd8cb3b788522b30726bcebd61bca55905467756",
    (4, "rational"): "6f770c2c8ba82353c5181b049e02c565827f88b7b646bbf18a069306e475a528",
    (4, "quadratic:2"): "1fd41c03a993597c5b00c96b8d31f43a5bbe0802d57b76d991fe1f0ab729de69",
    # the sizes and fields of the classify-large cofactor ops, where a wrong
    # carried cofactor reaches the oracle and the form alike
    (5, "rational"): "9ae4e0512c220fc22ef07b7ead680edd82b57fb3bec4db989ac370163092109f",
    (6, "quadratic:2"): "77207f0cb9fc042abd3cf6d69a5bb6000a0b6d8288733a86339991d05eec523c",
}


@pytest.mark.parametrize("n, field", sorted(COFACTOR_STDOUT_SHA256))
def test_classify_cofactor_stdout_is_pinned(n, field):
    proc = run_cli("classify", f"cofactor:{n}", "--field", field, "--seed", "7")
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == COFACTOR_STDOUT_SHA256[n, field]


def test_classify_seed_changes_probes_not_answer():
    a = json.loads(run_cli("classify", "cofactor:3", "--seed", "0").stdout)
    b = json.loads(run_cli("classify", "cofactor:3", "--seed", "9").stdout)
    a.pop("probeLog"), b.pop("probeLog")
    assert a == b


# -- decompose ----------------------------------------------------------------


def test_decompose_identity_golden(tmp_path):
    mat = write_doc(
        tmp_path,
        "i3.json",
        matrix_doc(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    )
    proc = run_cli("decompose", mat)
    assert proc.stdout == golden({"detScalar": "1", "length": 0, "word": {"gens": []}})


def test_decompose_output_reproduces_the_input(tmp_path):
    gen_out = run_cli("gen", "gl", "--n", "3", "--seed", "3").stdout
    m = Matrix.from_doc(json.loads(gen_out))
    mat = tmp_path / "m.json"
    mat.write_text(gen_out)
    doc = json.loads(run_cli("decompose", str(mat)).stdout)
    # decompose factors into transvections only: decode the P generators
    gens = doc["word"]["gens"]
    assert doc["length"] == len(gens) and all(g["type"] == "P" for g in gens)
    word = [Transvection(g["i"], g["j"], parse_scalar(g["k"], RATIONAL)) for g in gens]
    d1 = gen_matrix(DiagUnit(1, parse_scalar(doc["detScalar"], RATIONAL)), RATIONAL, 3)
    assert d1 * evaluate_word(word, RATIONAL, 3) == m


def test_decompose_oversized_scalar_exits_2(tmp_path):
    mat = write_doc(tmp_path, "big.json", matrix_doc(2, [["9" * 5000, "0"], ["0", "1"]]))
    proc = run_cli("decompose", mat, expect=2)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "position" in proc.stderr


def test_decompose_with_an_unprintable_result_exits_1(tmp_path):
    # the determinant 3 * 10**5000 has 5001 digits: past the interpreter's
    # default limit of 4300 for printing, though each input is within it
    entries = [["1" + "0" * 3000, "0"], ["0", "3" + "0" * 2000]]
    mat = write_doc(tmp_path, "big.json", matrix_doc(2, entries))
    proc = run_cli("decompose", mat, expect=1)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("multmap: ") and "4300 digits" in proc.stderr


def test_huge_radicands_fail_fast(tmp_path):
    identity_2 = [["1", "0"], ["0", "1"]]
    doc = {"n": 2, "field": {"kind": "quadratic", "d": 10**18 + 3}, "entries": identity_2}
    huge = write_doc(tmp_path, "d.json", doc)
    start = time.perf_counter()
    proc = run_cli("decompose", huge, expect=3)
    assert "at most" in proc.stderr
    assert time.perf_counter() - start < 10
    # a radicand past the interpreter's digit limit is unreadable JSON
    unreadable = tmp_path / "long.json"
    unreadable.write_text(
        '{"n": 2, "field": {"kind": "quadratic", "d": ' + "7" * 5000 + '}, "entries": '
        + json.dumps(identity_2) + "}"
    )
    proc = run_cli("decompose", str(unreadable), expect=2)
    assert "Traceback" not in proc.stderr
    assert "too long" in proc.stderr


def test_non_string_matrix_entries_exit_2(tmp_path):
    mat = write_doc(tmp_path, "num.json", matrix_doc(2, [[2, "0"], ["0", "1"]]))
    proc = run_cli("decompose", mat, expect=2)
    assert "Traceback" not in proc.stderr
    assert "must be a string" in proc.stderr


def test_decompose_singular_exits_1(tmp_path):
    mat = write_doc(tmp_path, "z.json", matrix_doc(2, [["0", "0"], ["0", "0"]]))
    proc = run_cli("decompose", mat, expect=1)
    assert "singular" in proc.stderr


# -- verify -------------------------------------------------------------------


def test_verify_adjugate_transpose_fails_as_data():
    # a failing verdict is a result, not an error: exit stays 0
    proc = run_cli("verify", "adjugate-transpose:2", "--samples", "50")
    doc = json.loads(proc.stdout)
    assert doc["pass"] is False
    assert doc["counterexample"]["A"] is not None
    assert doc["samples"] >= 1


def test_verify_cofactor_passes():
    doc = json.loads(run_cli("verify", "cofactor:3", "--samples", "30").stdout)
    assert doc == {"pass": True, "counterexample": None, "samples": 30, "seed": 0}


def test_verify_rejects_sample_counts_below_one():
    for bad in ("-5", "0", "x"):
        proc = run_cli("verify", "cofactor:2", "--samples", bad, expect=2)
        assert proc.stdout == ""
        assert "--samples" in proc.stderr


def test_verify_sample_counts_past_the_bound_exit_2():
    for bad in (str(cli.MAX_SAMPLES + 1), "100000000"):
        proc = run_cli("verify", "cofactor:2", "--samples", bad, expect=2)
        assert proc.stdout == ""
        assert f"--samples: must be at most {cli.MAX_SAMPLES}" in proc.stderr
        assert "Traceback" not in proc.stderr
    doc = json.loads(run_cli("verify", "identity:2", "--samples", str(cli.MAX_SAMPLES)).stdout)
    assert doc["samples"] == cli.MAX_SAMPLES


def test_verify_two_maps_equality(tmp_path):
    ident = write_doc(
        tmp_path,
        "id2.json",
        {"n": 2, "field": RATIONAL_DOC, "order": "apply-last-first", "atoms": []},
    )
    same = json.loads(run_cli("verify", "identity:2", ident).stdout)
    assert same["pass"] is True
    conj = write_doc(tmp_path, "conj.json", CONJ_EXPR_2)
    diff = json.loads(run_cli("verify", "identity:2", conj).stdout)
    assert diff["pass"] is False
    assert diff["counterexample"]["B"] is None


def test_verify_mismatched_pair_exits_3(tmp_path):
    conj = write_doc(tmp_path, "conj.json", CONJ_EXPR_2)
    run_cli("verify", "identity:3", conj, expect=3)
    run_cli("verify", "identity:2", conj, "--field", "quadratic:2", expect=3)


# -- gen ----------------------------------------------------------------------


def test_gen_sl_golden_and_deterministic():
    proc = run_cli("gen", "sl", "--n", "3", "--seed", "0")
    assert proc.stdout == golden(
        matrix_doc(
            3,
            [
                ["-1", "1", "0"],
                ["21/4", "11/2", "7/2"],
                ["5", "9/2", "3"],
            ],
        )
    )
    assert run_cli("gen", "sl", "--n", "3", "--seed", "0").stdout == proc.stdout
    m = Matrix.from_doc(json.loads(proc.stdout))
    assert m.det == parse_scalar("1", RATIONAL)


def test_gen_kinds_and_field_flag():
    gl = Matrix.from_doc(json.loads(run_cli("gen", "gl", "--n", "2", "--seed", "4").stdout))
    assert not gl.det.is_zero
    ut = json.loads(
        run_cli("gen", "unitriangular", "--n", "3", "--seed", "1", "--field", "quadratic:2").stdout
    )
    assert ut["field"] == {"kind": "quadratic", "d": 2}
    assert [row[i] for i, row in enumerate(ut["entries"])] == ["1", "1", "1"]
    assert ut["entries"][1][0] == "0" and ut["entries"][2][0] == "0"


def test_gen_bad_sizes_exit_3():
    run_cli("gen", "sl", "--n", "1", expect=3)
    run_cli("gen", "unitriangular", "--n", "0", expect=3)


def test_gen_length_must_not_be_negative():
    proc = run_cli("gen", "sl", "--n", "2", "--length", "-1", expect=2)
    assert "--length" in proc.stderr
    empty = json.loads(run_cli("gen", "sl", "--n", "2", "--length", "0").stdout)
    assert empty["entries"] == [["1", "0"], ["0", "1"]]


def test_gen_lengths_past_the_bound_exit_2():
    for bad in (str(cli.MAX_WORD_LENGTH + 1), "100000000"):
        start = time.perf_counter()
        proc = run_cli("gen", "sl", "--n", "4", "--length", bad, expect=2)
        assert time.perf_counter() - start < 20
        assert proc.stdout == ""
        assert f"--length: must be at most {cli.MAX_WORD_LENGTH}" in proc.stderr
        assert "Traceback" not in proc.stderr
    longest = ("--length", str(cli.MAX_WORD_LENGTH))
    doc = json.loads(run_cli("gen", "gl", "--n", str(MAX_SIZE), *longest).stdout)
    assert len(doc["entries"]) == MAX_SIZE


def test_bad_field_flag_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "multmap", "gen", "sl", "--n", "2", "--field", "quadratic:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "squarefree" in proc.stderr


# -- output discipline ----------------------------------------------------------


def test_stdout_is_canonical_json():
    for argv in (["classify", "identity:2"], ["gen", "gl", "--n", "2"]):
        out = run_cli(*argv).stdout
        assert out == golden(json.loads(out))


CLOSED_STDOUT = "multmap: standard output closed before the whole document was written\n"


def test_closed_stdout_ends_in_exit_7_without_a_traceback():
    # a reader gone before the first write, and one that stops after a byte
    # of a classify report larger than a pipe holds (about 100 KB)
    for argv, read in ((["gen", "sl", "--n", "2"], 0), (["classify", "cofactor:5"], 1)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "multmap", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 7
        assert err == CLOSED_STDOUT
    # started with no standard output at all: nothing was written either
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m multmap gen sl --n 2 >&-', sys.executable],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (7, CLOSED_STDOUT)


def test_cli_import_generates_no_code():
    # dataclasses (which pulls in inspect and ast) and typing cost start-up
    # time on every run; the package uses neither
    heavy = ("dataclasses", "inspect", "ast", "typing")
    code = f"import sys, multmap.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -- hostile documents ----------------------------------------------------------

Q2_DOC = {"kind": "quadratic", "d": 2}

# (subcommand, documents, extra flags): valid inputs that the fuzz test
# mutates; every size stays at most 3 so each run is fast
FUZZ_SEEDS = (
    ("eval", (CONJ_EXPR_2, matrix_doc(2, [["2", "0"], ["0", "3"]])), ()),
    (
        "eval",
        (
            {
                "n": 2,
                "field": Q2_DOC,
                "atoms": [
                    {"atom": "hom", "phi": "conj"},
                    {"atom": "detscale", "lambda": [{"phi": "conj", "pow": 2}]},
                ],
            },
            {"n": 2, "field": Q2_DOC, "entries": [["1+1*s", "0"], ["1/2", "3"]]},
        ),
        (),
    ),
    ("simplify", (COF_EXPR_3,), ()),
    ("classify", (COF_EXPR_3,), ()),
    (
        "classify",
        (
            {
                "n": 3,
                "field": RATIONAL_DOC,
                "atoms": [
                    {
                        "atom": "trivialdet",
                        "chars": [[{"phi": "id", "pow": 2}]],
                        "zeroPad": 1,
                        "onePad": 1,
                    }
                ],
            },
        ),
        (),
    ),
    ("decompose", (matrix_doc(3, [["0", "1", "0"], ["2", "0", "0"], ["1", "1", "1"]]),), ()),
    ("verify", (CONJ_EXPR_2, CONJ_EXPR_2), ("--samples", "3")),
)

# wrong JSON types, bad scalars and nearby sizes; no integer above 3, since
# nothing bounds character exponents
HOSTILE_VALUES = (
    None, True, -1, 0, 1, 2, 3, 2.5, "", "x", "1/0", "-", "1+1*s", "0+1*s", "\u0663",
    "9" * 5000, [], {}, ["1"], [["1"]], RATIONAL_DOC, Q2_DOC, {"kind": "quadratic", "d": 4},
)


def _positions(doc, path=()):
    """The key paths of every value in doc, doc itself first."""
    yield path
    if isinstance(doc, dict):
        keys = sorted(doc)
    elif isinstance(doc, list):
        keys = range(len(doc))
    else:
        return
    for key in keys:
        yield from _positions(doc[key], path + (key,))


def _mutate(data, doc):
    """doc with one change at a drawn position: a key or list item dropped, a
    list item repeated, or a value replaced by a hostile one."""
    path = data.draw(st.sampled_from(list(_positions(doc))))
    if not path:
        return data.draw(st.sampled_from(HOSTILE_VALUES))
    doc = copy.deepcopy(doc)
    *head, key = path
    parent = doc
    for k in head:
        parent = parent[k]
    action = data.draw(st.sampled_from(("replace", "drop", "repeat")))
    if action == "drop":
        del parent[key]
    elif action == "repeat" and isinstance(parent, list):
        parent.append(parent[key])
    else:
        parent[key] = data.draw(st.sampled_from(HOSTILE_VALUES))
    return doc


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_documents_end_in_a_documented_exit_code(data):
    command, docs, flags = data.draw(st.sampled_from(FUZZ_SEEDS))
    docs = list(docs)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(docs) - 1))
        docs[i] = _mutate(data, docs[i])
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            text = json.dumps(doc)
            if data.draw(st.integers(0, 9)) == 0:
                text = text[: data.draw(st.integers(0, len(text)))]
            path = Path(tmp, f"doc{i}.json")
            path.write_text(text)
            paths.append(str(path))
        code, out, err = _run_main([command, *paths, *flags])
    assert code in range(7), (code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == ""
