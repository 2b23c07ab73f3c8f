"""tools/loc.py: the code-line count that CHANGES.md quotes for src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SAMPLE = '''"""A module docstring
on two lines."""

# a comment line

import os


class Thing:
    """A class docstring."""

    # another comment line
    value = 1


def call(a, b):
    """A function docstring,
    on two lines."""
    return max(
        a,
        b)


TEXT = """a string assigned to a name,
which is no docstring"""
'''

# import os; class Thing:; value = 1; def call(a, b):; the three lines of
# the call; the two lines of TEXT
SAMPLE_CODE_LINES = 9


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(SAMPLE, encoding="utf-8")
    assert loc.code_lines(module) == SAMPLE_CODE_LINES


def test_main_prints_a_row_per_module_then_the_total(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "only_comments.py").write_text("# nothing but a comment\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["0", str(tmp_path / "pkg" / "only_comments.py")],
        [str(SAMPLE_CODE_LINES), str(tmp_path / "sample.py")],
        [str(SAMPLE_CODE_LINES), f"{tmp_path} (total)"],
    ]
