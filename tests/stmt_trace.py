"""Statement trace of the test run: fail it when a statement of src/multmap
never runs.

A pytest plugin, stdlib only, loaded by name and not collected as a test:

    PYTHONPATH=src:tests python -m pytest -p stmt_trace

It installs sys.settrace and threading.settrace in pytest_configure, before
collection imports the package, and records the line events of the frames
whose code lies in src/multmap. At the end of the session it lists every
statement of src/multmap/*.py that raised no line event and makes the run
exit nonzero. A statement counts as run when a line event falls on one of
its own lines: for a simple statement all its lines, for a compound one its
header, from its first decorator to the line before its first child
statement. Docstrings are no statements here, and cli.py and __main__.py
are left out: the CLI tests run most of them in subprocesses, which no
trace of this process sees. Only a full run can pass; a run of a subset
lists what the rest of the suite runs.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multmap"
SKIPPED = {"cli.py", "__main__.py"}


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _own_lines(node: ast.stmt) -> range:
    """The lines whose events count for node: all of a simple statement,
    the header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    children = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    last = max(node.lineno, min(children) - 1) if children else node.end_lineno
    return range(first, last + 1)


def statements(path: Path) -> list[tuple[int, range]]:
    """(line, own lines) of every statement of the file but its docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                found.append((node.lineno, _own_lines(node)))
    return sorted(found, key=lambda s: s[0])


def _line_recorder(lines: set[int]):
    """A local trace function that adds the line of every line event to
    lines."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


class StatementTrace:
    """The line events of one pytest session in the files it watches."""

    def __init__(self, files: list[Path]) -> None:
        self.files = {str(f): f for f in files}
        self.seen: dict[str, set[int]] = {name: set() for name in self.files}
        self.recorders = {name: _line_recorder(lines) for name, lines in self.seen.items()}
        self.unrun: list[str] = []

    def _call(self, frame, event, arg):
        # frames of other files get no local trace, so they raise no line
        # events at all
        return self.recorders.get(frame.f_code.co_filename)

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    @pytest.hookimpl(trylast=True)
    def pytest_sessionfinish(self, session: pytest.Session) -> None:
        self.stop()
        for name, path in sorted(self.files.items()):
            seen = self.seen[name]
            for line, own in statements(path):
                if seen.isdisjoint(own):
                    self.unrun.append(f"{path.relative_to(PACKAGE.parent.parent)}:{line}")
        if self.unrun and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter) -> None:
        if self.unrun:
            terminalreporter.section("statements that never ran", red=True)
            for where in self.unrun:
                terminalreporter.write_line(where)
        else:
            terminalreporter.write_line("statement trace: every statement of src/multmap ran")


def pytest_configure(config: pytest.Config) -> None:
    files = sorted(f.resolve() for f in PACKAGE.glob("*.py") if f.name not in SKIPPED)
    trace = StatementTrace(files)
    config.pluginmanager.register(trace, "stmt_trace_session")
    trace.start()
