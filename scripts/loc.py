#!/usr/bin/env python3
"""Count the code lines of each module under a package directory, and their total.

    python3 scripts/loc.py src/crossfuzzy

A code line is a line of a ``.py`` file that is not blank, not only a
comment and not part of a docstring (the string that opens a module, class
or function body). Prints one ``<lines>  <module>`` row per module, sorted
by path, then ``<total>  total``. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a comment or a docstring."""
    skip = docstring_lines(ast.parse(source))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_package(root: Path) -> dict[str, int]:
    """Code lines per module, keyed by the module's path relative to ``root``."""
    return {str(path.relative_to(root)): code_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, help="package directory, such as src/crossfuzzy")
    args = parser.parse_args(argv)
    counts = count_package(args.package)
    for module, lines in counts.items():
        print(f"{lines:6d}  {module}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
