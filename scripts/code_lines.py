"""Count code lines per module of a Python package.

A code line is a physical line that carries part of a token other than a
comment, an indentation change, a line break or a docstring. Docstrings
are the string-constant first statements of modules, classes and
functions. Blank lines therefore never count, and neither do lines that
hold only a comment or only docstring text.

    python scripts/code_lines.py            # src/biosketch
    python scripts/code_lines.py path/to/package

prints one ``<lines> <module>`` line per module, sorted by name, and a
``<lines> total`` line. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biosketch"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_package(package: Path) -> dict[str, int]:
    """Code lines of every ``*.py`` file under ``package``, by relative path."""
    return {path.relative_to(package).as_posix(): code_lines(path.read_text())
            for path in sorted(package.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    counts = count_package(parser.parse_args(argv).package)
    for name, lines in counts.items():
        print(f"{lines:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
