"""The code-line counter in tools/ on a fixture module with known counts."""
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps the line

# a comment line


class Box:
    """One-line class docstring."""
    size = 2

    def area(self):
        """Method docstring
        over two lines.
        """
        text = """a string that is
        not a docstring"""
        return self.size ** 2, text
'''


def test_counts_code_lines_of_fixture():
    # import, class, size, def, the 2-line string, return
    assert code_lines.code_lines(FIXTURE) == 7


def test_main_prints_each_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["7", "a.py"], ["1", "b.py"], ["8", "total"]]
