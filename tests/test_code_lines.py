"""The code-line counter in tools/code_lines.py skips docstrings, comments
and blank lines, and counts every line a code token spans."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import math  # a comment after code


class Table:
    """Class docstring."""

    # a comment line
    size = 3

    def total(self):
        """Function
        docstring."""
        text = """not a docstring,
        three lines
        """
        return math.fsum([self.size,
                          len(text)])
'''


def test_counts_code_lines_of_a_fixture():
    # import, class, size, def, the string assignment's 3 lines, return's 2
    assert code_lines.code_lines(FIXTURE) == 9
