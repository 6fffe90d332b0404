"""Span tracing of multmap's layers from outside the package.

install() wraps the public functions of each package module (field, matrix,
slword, mapexpr, classify, verify, and the parse and emit steps of cli) so
that every call becomes a span. A span's self time is its duration minus the
durations of the spans it caused, which is computed when it closes from the
stack of open spans (each open span is the parent of the next). Only the
per-name totals are kept: a run makes millions of scalar spans, and keeping
each one would cost more memory than the program under test. The totals are
turned into metrics when the run ends.

Wrappers are installed only for a traced run and removed afterwards; an
untraced run never imports this module.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter

_MISSING = object()


class Tracer:
    """Per-name call counts and self times, plus named counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def merge(self, doc: dict) -> None:
        """Fold in the totals another process wrote with dump()."""
        for name, (calls, self_s) in doc["totals"].items():
            tot = self.totals.setdefault(name, [0, 0.0])
            tot[0] += calls
            tot[1] += self_s
        for name, value in doc["counts"].items():
            self.add(name, value)

    def dump(self) -> str:
        return json.dumps({"totals": self.totals, "counts": self.counts})

    def wrap(self, name: str, fn, on_result=None):
        """fn as a span named name; on_result(tracer, result) runs after a
        traced call returns."""
        tracer = self
        stack = self.stack
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tot = totals.get(name)
                if tot is None:
                    tot = totals[name] = [0, 0.0]
                tot[0] += 1
                tot[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            new = property(self.wrap(name, raw.fget, on_result))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, on_result))
        else:
            new = self.wrap(name, raw, on_result)
        self._set(cls, attr, new)

    def wrap_function(self, fn, name: str, on_result=None) -> None:
        """Rebind fn in every multmap module that holds it under some name: a
        module that imported it by name keeps its own reference."""
        wrapper = self.wrap(name, fn, on_result)
        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] != "multmap":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()


def _count_probes(tracer: Tracer, report) -> None:
    tracer.add("classify.oracle", len(report.probe_log))


def _count_word(tracer: Tracer, word) -> None:
    tracer.add("slword.word_gens", len(word))


def _count_pairs(tracer: Tracer, verdict) -> None:
    tracer.add("verify.pairs", verdict.samples)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the loaded multmap package."""
    from multmap import cli, field, mapexpr, matrix, slword, verify

    # the package re-exports the function classify under the module's name
    classify = sys.modules["multmap.classify"]

    fe = field.FieldElem
    tracer.wrap_method(fe, "__mul__", "field.mul")
    tracer.wrap_method(fe, "__add__", "field.add")
    tracer.wrap_method(fe, "__sub__", "field.add")
    tracer.wrap_method(fe, "inv", "field.inv")
    tracer.wrap_function(field.parse_scalar, "field.parse_scalar")
    tracer.wrap_function(field.format_scalar, "field.format_scalar")

    mat = matrix.Matrix
    tracer.wrap_method(mat, "__mul__", "matrix.mul")
    tracer.wrap_method(mat, "det", "matrix.det")
    tracer.wrap_method(mat, "inverse", "matrix.inverse")
    tracer.wrap_method(mat, "cofactor", "matrix.cofactor")

    tracer.wrap_function(slword.evaluate_word, "slword.evaluate_word")
    tracer.wrap_function(
        slword.decompose_sl, "slword.decompose_sl", _count_word
    )

    tracer.wrap_method(mapexpr.MapExpr, "evaluate", "mapexpr.evaluate")
    for form in (mapexpr.TrivialForm, mapexpr.DegenerateForm, mapexpr.NonDegenerateForm):
        tracer.wrap_method(form, "evaluate", "mapexpr.form_evaluate")
        tracer.wrap_method(form, "describe", "cli.emit")
    tracer.wrap_function(mapexpr.simplify, "mapexpr.simplify")

    tracer.wrap_function(
        classify.classify, "classify.classify", _count_probes
    )
    tracer.wrap_method(classify.Session, "call", "classify.session")

    tracer.wrap_function(
        verify.check_multiplicative,
        "verify.check_multiplicative",
        _count_pairs,
    )

    tracer.wrap_method(mat, "from_doc", "cli.parse")
    tracer.wrap_method(mapexpr.MapExpr, "from_doc", "cli.parse")
    for cls in (mat, classify.ClassifyReport, verify.Verdict):
        tracer.wrap_method(cls, "to_doc", "cli.emit")
    tracer.wrap_function(slword.word_to_doc, "cli.emit")
    # cli calls json.dumps through its own module reference, so it gets a
    # copy of the json module whose dumps is a span
    json_view = types.ModuleType("json")
    json_view.__dict__.update(vars(cli.json))
    json_view.dumps = tracer.wrap("cli.emit", cli.json.dumps)
    tracer._set(cli, "json", json_view)
