"""Benchmark of the multmap package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, so nothing needs installing. One workload runs closed loop
in this process, with no threads: each operation starts when the previous
one ends (the cli workload waits for each subprocess to exit), and whole
rounds of the workload's operations repeat until S seconds have passed. The
workloads and their checks are in loads.py; README.md says why each exists.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones,
measured with no wrappers installed. With --trace 1 the layers are traced
(tracer.py): traced and untraced rounds alternate for S seconds, and the run
reports per-layer figures per operation of the traced rounds, and the
tracing overhead as the difference between the two kinds of round.

Times are scaled to a nominal machine speed measured along each timed
stretch; see Stopwatch.

The program exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# set-up is timed this many times per run and reported as the median
SETUP_REPEATS = 5

# A shared host's speed drifts: on the 2-vCPU machine this benchmark was
# written on, one fixed computation ran at either of two speeds a factor of
# two apart, switching every few seconds, so raw times of one operation
# spread by 40 %. Every timed stretch is therefore measured with a
# Stopwatch, which runs reference(), a fixed computation in plain fractions,
# before and after the stretch and every SAMPLE_S seconds during it, and
# scales each piece between two samples to the speed at which reference()
# takes REF_S seconds (its time on that machine at the usual, slower speed).
REF_S = 0.001
SAMPLE_S = 0.5
_HILBERT = [[Fraction(1, i + j + 1) for j in range(7)] for i in range(7)]

# spans reported as per-operation call counts and self times
SPANS = [
    "field.mul",
    "field.add",
    "field.inv",
    "matrix.mul",
    "matrix.det",
    "matrix.inverse",
    "matrix.cofactor",
    "slword.evaluate_word",
    "slword.decompose_sl",
    "mapexpr.evaluate",
    "mapexpr.form_evaluate",
    "mapexpr.simplify",
]
# spans reported as per-operation self times only
SELF_ONLY = [
    "field.parse_scalar",
    "field.format_scalar",
    "classify.classify",
    "verify.check_multiplicative",
    "cli.parse",
    "cli.emit",
]


def reference() -> float:
    """Median time of three exact eliminations of the 7 x 7 Hilbert matrix."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        rows = [list(r) for r in _HILBERT]
        for c in range(len(rows)):
            inv = 1 / rows[c][c]
            for i in range(c + 1, len(rows)):
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """Time of one stretch at the nominal speed, without the time of its own
    reference samples."""

    def __init__(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self.total = 0.0

    def _piece(self, now: float) -> None:
        ref = reference()
        self.total += (now - self.t) * 2 * REF_S / (self.ref + ref)
        self.ref = ref
        self.t = perf_counter()

    def _sample(self, signum, frame) -> None:
        self._piece(perf_counter())

    def start(self) -> None:
        self.total = 0.0
        self.ref = reference()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.t = perf_counter()

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._piece(perf_counter())
        return self.total


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one multmap workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--round-ops",
        type=int,
        default=None,
        help="run only the first N operations of each round (for the self-check)",
    )
    return p.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs, SETUP_REPEATS
    times from a clean module table; returns the last build and the median
    time of one."""
    times = []
    watch = Stopwatch()
    for _ in range(SETUP_REPEATS):
        for name in [k for k in sys.modules if k == "loads" or k.split(".")[0] == "multmap"]:
            del sys.modules[name]
        watch.start()
        loads = importlib.import_module("loads")
        work = loads.WORKLOADS[workload](seed, workdir)
        times.append(watch.stop())
    if not Path(loads.mm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"multmap was imported from {loads.mm.__file__}, not from {SRC}")
    return loads, work, statistics.median(times)


class Tally:
    """Outcomes of whole rounds: the times of each operation of the round,
    by its position, and the counts over all rounds."""

    def __init__(self, size: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(size)]
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def typical(self) -> list[float]:
        """Each operation's median time over the rounds, so that figures
        built from them weigh every operation of the round once."""
        return [statistics.median(ts) for ts in self.times if ts]


def measure(loads, ops, tally: Tally, seconds: float | None = None, rounds=None, tracer=None):
    """Run whole rounds of ops until `seconds` have passed, or `rounds`
    rounds; only the run() of each operation is timed, and traced when a
    tracer is given."""
    start = perf_counter()
    done = 0
    watch = Stopwatch()
    while True:
        for pos, op in enumerate(ops):
            prepared = op.prepare()
            tally.attempted += 1
            if tracer is not None:
                tracer.enabled = True
            watch.start()
            try:
                result = op.run(prepared, tracer)
            except Exception:
                # an operation that raises has failed; the run goes on
                print(f"{op.name}: raised", file=sys.stderr)
                traceback.print_exc()
                tally.failed += 1
                continue
            finally:
                dt = watch.stop()
                if tracer is not None:
                    tracer.enabled = False
            try:
                ok = op.check(result)
            except loads.WrongOutput as exc:
                print(f"wrong output: {exc}", file=sys.stderr)
                tally.correct = False
                ok = True
            if ok:
                tally.times[pos].append(dt)
            else:
                tally.failed += 1
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif perf_counter() - start >= seconds:
            break


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def layer_metrics(tracer, ops: int, overhead_s: float) -> dict:
    counts = tracer.counts
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = (tracer.calls(span) / ops, "count")
        out[f"{span}.self_s"] = (tracer.self_s(span) / ops, "s")
    for span in SELF_ONLY:
        out[f"{span}.self_s"] = (tracer.self_s(span) / ops, "s")
    decomposed = tracer.calls("slword.decompose_sl")
    word_gens = counts.get("slword.word_gens", 0)
    out["slword.word_len"] = (word_gens / decomposed if decomposed else 0.0, "count")
    session = tracer.calls("classify.session")
    oracle = counts.get("classify.oracle", 0)
    classified = tracer.calls("classify.classify")
    out["classify.session.calls"] = (session / ops, "count")
    out["classify.oracle.calls"] = (oracle / ops, "count")
    out["classify.session.memo_hit_ratio"] = (1 - oracle / session if session else 0.0, "ratio")
    out["classify.probes_per_classify"] = (oracle / classified if classified else 0.0, "count")
    out["verify.pairs"] = (counts.get("verify.pairs", 0) / ops, "count")
    invocations = counts.get("cli.invocations", 0)
    for key, unit in (("cli.import_s", "s"), ("cli.stdout_bytes", "bytes")):
        out[key] = (counts.get(key, 0) / invocations if invocations else 0.0, unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multmap" / "__init__.py").is_file():
        print(f"perfbench: no multmap package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # one CPU for this process and the CLI children it waits for, so that
    # reference() measures the speed of the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def run(args, workdir: Path) -> int:
    loads, work, setup_s = set_up(args.workload, args.seed, workdir)
    ops = work.ops[: args.round_ops]
    tally = Tally(len(ops))
    if args.trace:
        from tracer import Tracer, install

        # traced and untraced rounds alternate, so that both see the same
        # machine state; per-layer figures come from the traced rounds
        tracer = Tracer()
        traced, untraced = Tally(len(ops)), Tally(len(ops))
        start = perf_counter()
        while perf_counter() - start < args.seconds:
            install(tracer)
            try:
                measure(loads, ops, traced, rounds=1, tracer=tracer)
            finally:
                tracer.uninstall()
            measure(loads, ops, untraced, rounds=1)
        for part in (traced, untraced):
            tally.attempted += part.attempted
            tally.failed += part.failed
            tally.correct = tally.correct and part.correct
        overhead_s = statistics.fmean(traced.typical()) - statistics.fmean(untraced.typical())
        metrics = layer_metrics(tracer, traced.attempted, overhead_s)
    else:
        measure(loads, ops, tally, seconds=args.seconds)
        typical = tally.typical()
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(typical) / sum(typical), "1/s"),
            "op_p50_s": (statistics.median(typical), "s"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
    if work.after is not None:
        try:
            work.after()
        except loads.WrongOutput as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            tally.correct = False
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
