"""List the closurelab statements a pytest run never executes.

    PYTHONPATH=src python tools/linecov.py [pytest paths and options]

Runs pytest in this process under a `sys.settrace` line tracer (standard
library only, no `coverage` package), then prints every statement of
`src/closurelab` that no traced frame reached, as `file:line: source`,
and a count on stderr. With no arguments it runs `tests`.

Only this process is traced. Code that the suite reaches only through a
subprocess (`cli.main`, the `BrokenPipeError` re-raise in the command
group, verbs run with `python -m closurelab.cli`) is listed too.

A statement counts as run when any of its lines raised a line event;
for `if`, `for`, `def` and the other compound statements only the header
lines count, so an unrun body is listed on its own. Docstrings are not
statements here. Tracing slows the suite several times over; the script
is opt-in and tier-1 does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "closurelab"


def _is_docstring(body: list[ast.stmt], index: int) -> bool:
    node = body[index]
    return (
        index == 0
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement; a compound statement spans
    its header only, from its first decorator to the line before its
    body."""
    spans = []

    def visit(body: list[ast.stmt]) -> None:
        for index, node in enumerate(body):
            if _is_docstring(body, index):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            blocks = [
                getattr(node, field)
                for field in ("body", "orelse", "finalbody")
                if isinstance(getattr(node, field, None), list)
            ]
            blocks += [handler.body for handler in getattr(node, "handlers", ())]
            blocks += [case.body for case in getattr(node, "cases", ())]
            blocks = [b for b in blocks if b]
            if blocks:
                spans.append((first, max(first, blocks[0][0].lineno - 1)))
                for block in blocks:
                    visit(block)
            else:
                spans.append((first, node.end_lineno or node.lineno))

    visit(ast.parse(source).body)
    return spans


def run_traced(fn, *args):
    """fn(*args) run in this process: its result, and the lines run per
    package file."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # Called on each new frame: trace the lines of package frames only.
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def unrun_statements(hits: dict[str, set[int]]) -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        run = hits.get(str(path), set())
        for first, last in statement_spans(source):
            if run.isdisjoint(range(first, last + 1)):
                out.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    code, hits = run_traced(pytest.main, argv or ["tests"])
    unrun = unrun_statements(hits)
    print("\n".join(unrun))
    print(f"{len(unrun)} statement(s) in src/closurelab never ran; pytest exited {int(code)}",
          file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
