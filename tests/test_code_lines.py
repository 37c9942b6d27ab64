"""The code-line counter: non-blank lines outside docstrings and comments."""

from code_lines import code_lines, docstring_lines, main

FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """One line."""

    size = 3
    # an indented comment

    def method(self):
        """Several
        lines.
        """
        text = """not a
docstring"""
        return text


def bare():
    "a one-line docstring in plain quotes"
    x = 1
    "a later string is code"
    return x


async def later():
    """Awaited."""
    return 0
'''


def test_fixture_count():
    """Docstrings of the module, a class and three functions (one in plain
    quotes, one async) are left out over every line they span, and so are
    comment and blank lines; a trailing comment, a multi-line string that
    opens no body and a string statement after the first keep their lines:
    lines 4, 9, 12, 15, 19-21, 24, 26-28, 31 and 33."""
    assert docstring_lines(FIXTURE) == {1, 2, 10, 16, 17, 18, 25, 32}
    assert code_lines(FIXTURE) == 13


def test_empty_and_docstring_only_sources_count_zero():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["13", "2", "15"]
    assert out[-1].endswith("code lines in 2 files")
