"""Print the code lines of each src/skewmorph module and their total.

A code line holds a token other than a comment or a newline, indent or
dedent token, and lies outside every module, class and function docstring.
Run from anywhere: python3 tools/src_lines.py
"""

import ast
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    tree = ast.parse(path.read_text())
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    with path.open("rb") as f:
        lines = {row for tok in tokenize.tokenize(f.readline) if tok.type not in SKIP
                 for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docs)


total = 0
for path in sorted((Path(__file__).resolve().parent.parent / "src" / "skewmorph").glob("*.py")):
    count = code_lines(path)
    total += count
    print(f"{path.name:20} {count:5}")
print(f"{'total':20} {total:5}")
