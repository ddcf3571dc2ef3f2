"""Count the code lines of each module of src/phasefrac and their total.

A code line is a line that holds at least one token and is neither blank, nor
only a comment, nor part of a docstring (the leading string literal of a
module, class or function body).  A multi-line string that is not a docstring
counts with every line it spans.  Standard library only:

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/phasefrac next to this script's directory.
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    rows: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    rows: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pkg = argv[0] if argv else os.path.join(root, "src", "phasefrac")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                n = code_lines(fh.read())
            total += n
            print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
