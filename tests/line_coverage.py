"""Line coverage of ``src/dualreflect`` under the tier-1 tests, stdlib only.

    python tests/line_coverage.py [pytest arguments]

runs pytest with a ``sys.settrace`` tracer, then lists every statement inside
a function of the package that never ran. Docstrings and ``global`` lines are
not statements that run. It exits 1 when such a statement is not in
``ALLOWED``, or when an ``ALLOWED`` entry matches no unexecuted statement;
otherwise it exits with pytest's status. The file is not named ``test_*``, so
pytest does not collect it.

Hypothesis installs its own tracer while it runs a test, so the tracer is
armed again before each test's setup and call.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dualreflect"

#: Statements that may stay unexecuted, keyed by file and the stripped text of
#: the statement's first line (never by line number), each with its reason.
ALLOWED = {
    ("backend.py", "return bool(select.select([sock], [], [], 0)[0])"): (
        "_readable's fallback for platforms without select.poll; tier-1 runs where poll exists"
    ),
    ("backend.py", "raise NotImplementedError"): (
        "ChatBackend._complete is abstract: every backend overrides it, so no test can reach it"
    ),
}


class LineRecorder:
    """The local trace function of one package file. It returns itself, so
    tracing a call makes no closure: a closure that returned itself would be a
    reference cycle per call, which the tests that count cyclic garbage see."""

    def __init__(self, lines: set[int]) -> None:
        self.lines = lines

    def __call__(self, frame, event, arg):
        if event == "line":
            self.lines.add(frame.f_lineno)
        return self


class LineCoverage:
    """A pytest plugin recording the lines run in the package's files."""

    def __init__(self) -> None:
        self.lines = {str(path): set() for path in PACKAGE.glob("*.py")}
        self._by_code_file: dict[str, LineRecorder | None] = {}

    def _trace_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._by_code_file:
            lines = self.lines.get(str(Path(filename).resolve()))
            self._by_code_file[filename] = None if lines is None else LineRecorder(lines)
        return self._by_code_file[filename]

    def arm(self) -> None:
        sys.settrace(self._trace_call)
        threading.settrace(self._trace_call)

    def pytest_configure(self, config) -> None:
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item) -> None:
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item) -> None:
        self.arm()

    def pytest_unconfigure(self, config) -> None:
        sys.settrace(None)
        threading.settrace(None)


def function_statements(tree: ast.Module):
    """Yield ``(statement, lines)`` for every statement inside a function:
    ``lines`` are those on which a line event shows that it ran. A ``try``
    is seen through its body."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack = func.body[1:] if ast.get_docstring(func, clean=False) is not None else list(func.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                start = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
                yield stmt, range(start, stmt.body[0].lineno)
                continue  # ast.walk reaches a nested function's own body
            children = [*getattr(stmt, "body", ()), *getattr(stmt, "orelse", ()), *getattr(stmt, "finalbody", ())]
            for handler in getattr(stmt, "handlers", ()):
                children.extend(handler.body)
            stack.extend(children)
            if not isinstance(stmt, ast.Try):
                end = max(stmt.body[0].lineno, stmt.lineno + 1) if getattr(stmt, "body", None) else stmt.end_lineno + 1
                yield stmt, range(stmt.lineno, end)


def unexecuted(lines: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """``(file name, line, first-line text)`` of each statement that never ran."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = lines[str(path)]
        for stmt, span in function_statements(ast.parse(source)):
            if ran.isdisjoint(span):
                missed.append((path.name, stmt.lineno, text[stmt.lineno - 1].strip()))
    return sorted(missed)


def main(argv: list[str]) -> int:
    coverage = LineCoverage()
    status = pytest.main(argv, plugins=[coverage])
    if status != 0:
        return int(status)
    missed = unexecuted(coverage.lines)
    seen = {(name, text) for name, _, text in missed}
    failed = False
    for name, line, text in missed:
        reason = ALLOWED.get((name, text))
        print(f"unexecuted {name}:{line}: {text}" + (f"  (allowed: {reason})" if reason else ""))
        failed = failed or reason is None
    for name, text in sorted(set(ALLOWED) - seen):
        print(f"stale allowlist entry, the statement ran or is gone: {name}: {text}")
        failed = True
    print(f"line coverage: {len(missed)} unexecuted statement(s), {len(ALLOWED)} allowed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
