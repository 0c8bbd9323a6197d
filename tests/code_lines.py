"""Code lines of ``src/qi_rangekit``, or of another package directory, per
module and in total.

Usage, from the checkout root::

    python tests/code_lines.py               # src/qi_rangekit
    python tests/code_lines.py PACKAGE_DIR   # e.g. an unpacked older commit's

A line counts when it holds a token other than a comment and lies outside
the module, class and function docstrings.  Blank and comment-only lines do
not count; every line a multi-line token or statement spans does.  Only the
standard library is used (``tokenize`` and ``ast``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qi_rangekit"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(args: list[str] = ()) -> int:
    if len(args) > 1:
        print("usage: code_lines.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    package = Path(args[0]) if args else PACKAGE
    if not package.is_dir():
        print(f"no such directory: {package}", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
