"""Count code lines per Python module under a path.

A code line is a physical line that holds at least one token other than a
comment, a newline or indentation, and that lies outside every docstring
(the string literal that opens a module, class or function body).  Blank
lines, comment lines and docstrings are left out.

Usage: python tools/loc.py [PATH ...]   (default: src)

Prints one line per module, then the total for each PATH.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in SKIPPED or token.type == tokenize.ENCODING:
                continue
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    for root in map(Path, argv or ["src"]):
        modules = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for module in modules:
            count = code_lines(module)
            total += count
            print(f"{count:6d}  {module}")
        print(f"{total:6d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
