"""Count the code lines of ``src/hivevem``, per file and in total.

A code line is a line that holds at least one token that is neither a
comment nor part of a docstring (the first string statement of a
module, class or function).  Blank lines count as nothing.

Usage: ``python tools/sloc.py [DIR]``; DIR defaults to the repository's
``src/hivevem``.  A DIR that is not a directory, or holds no ``.py``
file, gives a message and exit code 1, not a total of 0.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of a module's scopes."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIP:
                continue
            lines.update(line for line in range(tok.start[0], tok.end[0] + 1)
                         if line not in docs)
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).parent.parent / "src" / "hivevem"
    paths = sorted(root.rglob("*.py")) if root.is_dir() else []
    if not paths:
        print(f"sloc: {root} is not a directory with .py files", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
