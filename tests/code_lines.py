"""Count code lines: non-blank lines outside docstrings and ``#`` comments.

A docstring is the string literal that opens a module, class or function
body, found with :mod:`ast`; every line it spans is left out.  A line whose
first non-blank character is ``#`` is a comment and is left out too; a line
with code and a trailing comment counts.

Run as ``python tests/code_lines.py [DIRECTORY ...]`` to print the count of
each ``.py`` file under each directory, searched recursively, and their
total; the default directory is ``src/krallhahn``.
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based line numbers that the docstrings of ``source`` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    skipped = docstring_lines(source)
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if number not in skipped and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    counts = {
        file: code_lines(file.read_text(encoding="utf-8"))
        for directory in argv or ["src/krallhahn"]
        for file in sorted(Path(directory).rglob("*.py"))
    }
    for file, count in counts.items():
        print(f"{count:6d}  {file}")
    print(f"{sum(counts.values()):6d}  code lines in {len(counts)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
