"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at a tiny size (one second of
measuring, and only the first operations of a round for the classify
workloads), untraced and traced, and checks that the last line of output
holds exactly the metrics BENCHMARK.json names, with their units, and the
attempted and failed counts. It also checks that an untraced run leaves the
package unwrapped, and that the benchmark refuses to run, printing no
result, where the package source is missing. Exits 1 on any problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_OPS = {"classify-small": 2, "classify-large": 1}
TIMEOUT_S = 300


def result_of(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if workload in ROUND_OPS:
        argv += ["--round-ops", str(ROUND_OPS[workload])]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    where = f"{workload} --trace {trace}"
    doc = result_of(proc.stdout)
    if proc.returncode != 0 or doc is None:
        return [f"{where}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}"]
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(doc)}")
    attempted, failed = doc.get("attempted"), doc.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and 0 <= failed <= attempted >= 1):
        problems.append(f"{where}: attempted {attempted!r}, failed {failed!r}")
    if doc.get("correct") is not True:
        problems.append(f"{where}: correct is {doc.get('correct')!r}\n{proc.stderr[-2000:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in doc.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    return problems


def check_untraced_leaves_no_wrappers() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    with contextlib.redirect_stdout(io.StringIO()):
        code = run.main(["--workload", "words", "--seed", "1", "--seconds", "1", "--round-ops", "1"])
    import multmap

    wrapped = [
        name
        for name, fn in (
            ("Matrix.__mul__", multmap.Matrix.__mul__),
            ("FieldElem.__mul__", multmap.FieldElem.__mul__),
            ("classify", multmap.classify),
        )
        if hasattr(fn, "__wrapped__")
    ]
    problems = []
    if code != 0:
        problems.append(f"in-process untraced run exited {code}")
    if wrapped or "tracer" in sys.modules:
        problems.append(f"untraced run installed wrappers: {wrapped}")
    return problems


def check_refuses_without_package() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "words", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    if proc.returncode == 0 or result_of(proc.stdout) is not None:
        return [f"without the package: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
    problems += check_untraced_leaves_no_wrappers()
    problems += check_refuses_without_package()
    for p in problems:
        print(p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
