"""``tools/sloc.py`` counts code lines only: no docstring, comment or blank
line, and every line of a bracket or string that spans several."""

import importlib.util
import subprocess
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
spec = importlib.util.spec_from_file_location("sloc", PATH)
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

# 11 code lines: the import, the class and both defs, the three lines of the
# bracket, the return, and the two lines of the string that is no docstring
# plus the return after it
SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    size = (
        1, 2,
    )

    def grow(self):
        """Function docstring,
        over two lines."""
        # another comment

        return os.sep


async def wait():
    """Async function docstring."""
    text = """a string,
over two lines"""
    return text
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert sloc.code_lines(SOURCE) == 11
    assert sloc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_a_bracket_counts_each_of_its_lines():
    assert sloc.code_lines("x = [\n    1,\n]\n") == 3
    assert sloc.code_lines("x = [1]\n") == 1


def test_the_script_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "box.py").write_text(SOURCE)
    (tmp_path / "one.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(PATH), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["box.py", "11"],
        ["one.py", "1"],
        ["total", "12"],
    ]
