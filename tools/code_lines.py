"""Count the code lines of a Python package.

A code line is a line that holds a token other than a comment, outside every
module, class and function docstring: blank lines, comment-only lines and
docstring lines do not count, and a statement spread over three lines counts
three.  Docstrings are found with ``ast``, the other tokens with ``tokenize``.

Usage: ``python tools/code_lines.py [DIRECTORY]`` (default ``src/numsgps``).
Prints each module's count and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/numsgps")
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
