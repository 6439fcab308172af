"""Print, per src/skewmorph module, the statements the tier-1 suite never runs.

Runs the suite in this process under sys.settrace, with the standard
library only, then lists each module's unexecuted statements by line.
Statements are read from the module's syntax tree; docstrings and bare
annotations, which compile to no code, are left out.  A compound
statement counts as run when any line of its header runs.  The trace
makes the suite several times slower (minutes, not seconds).
Run from the repository root: python3 tools/uncovered.py
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewmorph"


def statement_lines(path: Path) -> dict[int, range]:
    """Each statement's first line -> the lines whose execution runs it."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstrings
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out[node.lineno] = range(first, max(last, node.lineno) + 1)
    return out


def main() -> int:
    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        seen = executed.get(str(path), set())
        missed = [line for line, span in sorted(statement_lines(path).items())
                  if not seen.intersection(span)]
        print(f"{path.name}: {len(missed)} statements never run"
              + (f": {', '.join(map(str, missed))}" if missed else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
