"""The line counter of ``tools/code_lines.py`` on a small fixture."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment leaves a code line


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """not a docstring:
        a string in code"""
        return text
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_each_kind_per_module_and_in_total(tmp_path, capsys):
    tool = _tool()
    assert tool.count(FIXTURE) == {"code": 6, "docstring": 5, "comment": 1, "blank": 4}
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "docstring", "comment", "blank", "lines"],
        ["a.py", "6", "5", "1", "4", "16"],
        ["b.py", "1", "0", "0", "1", "2"],
        ["total", "7", "5", "1", "5", "18"],
    ]
