"""Statement coverage of ``src/gausskey`` under the tier-1 suite, standard library only.

    PYTHONPATH=src python tests/statement_coverage.py [pytest arguments]

Runs pytest in this process with a line tracer on every thread
(``sys.settrace`` and ``threading.settrace``: ``simulate`` runs its chunks
on pool threads), then lists each statement of ``src/gausskey``, as ``ast``
lists them, that no line event reached, and exits 1 if there is any or if
pytest fails.  A statement counts as executed when an event falls on one of
its own lines: the whole of a simple statement, or the header of a compound
one (its decorators and the lines before its body).  Exempt are docstrings,
which run no code, and the body of ``cli.main`` and the ``__main__`` guard,
which only a new process runs.  Line events differ between Python versions;
CI runs this on 3.11.  It is not collected by pytest.

The standard library's ``trace.Trace`` would install the same two tracers,
but its ignore list caches its verdict by module basename, so once another
package's ``__init__.py`` under ``sys.prefix`` is ignored, so is
``gausskey/__init__.py``; and it line-traces ``tests/`` as well, which made
a traced run about 1.5 times as long.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gausskey"


def _own_lines(node: ast.stmt) -> range:
    """Lines whose line events mean that ``node`` ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:  # a one-line `if x: y` still owns its line
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_exempt(node: ast.stmt, path: Path) -> bool:
    """The body of ``cli.main`` and the ``if __name__ == "__main__":`` guard."""
    if path.name != "cli.py":
        return False
    if isinstance(node, ast.FunctionDef) and node.name == "main":
        return True
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(path: Path) -> list[tuple[int, range]]:
    """(line, own lines) of each statement of the module at ``path`` that must run."""
    found = []

    def visit(parent: ast.AST) -> None:
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                    found.append((node.lineno, _own_lines(node)))
                    if _is_exempt(node, path):
                        continue
                visit(node)

    visit(ast.parse(path.read_text(), str(path)))
    return found


def main(args: list[str]) -> int:
    import pytest

    root = str(PACKAGE) + os.sep
    hit: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):  # called on each new frame; only the package's are line-traced
        return local if frame.f_code.co_filename.startswith(root) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = hit[str(path)]
        for line, own in statements(path):
            if not lines.intersection(own):
                missed.append(f"{path.relative_to(PACKAGE.parent.parent)}:{line}")
    print(f"statement coverage: {len(missed)} unexecuted statement(s) in src/gausskey")
    for where in missed:
        print("  " + where)
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
