"""Count the lines of each `src/goursatfd` module: total lines and code lines.

A code line holds at least one token that is not a comment and not part of a
docstring (the leading string of a module, class or function body).  Blank
lines, comment-only lines and docstring lines are not code.  Stdlib only.

    python3 tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to `src/goursatfd` beside this script's parent directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple:
    """(total lines, code lines) of Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "goursatfd"
    totals = [0, 0]
    for path in sorted(src.glob("*.py")):
        total, code = count_lines(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{path.name:16s} {total:6d} {code:6d}")
    print(f"{'total':16s} {totals[0]:6d} {totals[1]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
