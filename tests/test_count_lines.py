"""scripts/count_lines.py: the code-line count of the package modules."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines", SCRIPT)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

# 10 code lines: the import, the constant (2 lines), the class line, the
# attribute, the def line, the return (2 lines), the string that follows
# the docstring and the last assignment
SAMPLE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps the line

# a comment line
TABLE = """not a docstring:
# this line is inside a string"""


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring."""
        return (self.size
                * self.size)
    """A string after the docstring is an expression, not a docstring."""

x = os.sep
'''


def test_counts_a_file_of_known_lines(tmp_path, monkeypatch, capsys):
    assert count_lines.code_lines(SAMPLE) == 10
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text(SAMPLE)
    monkeypatch.setattr(count_lines, "PACKAGE", tmp_path)
    assert count_lines.main() == 0
    assert capsys.readouterr().out == "    10  a.py\n    10  b.py\n    20  total\n"


def test_counts_the_package_by_default(capsys):
    assert count_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert {name for _, name in rows[:-1]} >= {"__init__.py", "measures.py", "structure.py"}
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
