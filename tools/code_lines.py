"""Count code lines of Python sources.

A code line is a non-blank line that holds a token other than a comment;
lines that belong to the docstring of a module, class or function are not
counted.  Usage:

    python tools/code_lines.py src/csmres src/csmres/binbasis.py

prints one count per argument (a directory counts every ``*.py`` below it)
and exits 0.  Given a path that does not exist, it prints the usage and
exits 2, before counting anything.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(path: Path) -> int:
    """Code lines of a file, or of every ``*.py`` under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f.read_text()) for f in files)


USAGE = "usage: python tools/code_lines.py PATH [PATH ...]"


def main(argv: list) -> int:
    missing = [arg for arg in argv if not Path(arg).exists()]
    if missing:
        print(f"no such file or directory: {', '.join(missing)}\n{USAGE}",
              file=sys.stderr)
        return 2
    for arg in argv:
        print(f"{count(Path(arg))}\t{arg}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
