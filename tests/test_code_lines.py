"""tools/code_lines.py: code lines leave out blank lines, comment lines and
docstrings, and the tool prints one row per module plus a total."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_only(tool):
    source = ('"""Module\n\ndocstring."""\n\n# a comment\nimport os\n\n\n'
              'class K:\n    """Class docstring."""\n\n    x = (1,\n         2)  # trailing\n\n'
              '    def f(self):\n        """One line."""\n        s = """not a\n'
              'docstring"""\n        return s\n')
    # import, class, the two lines of x, def, the two lines of s, return
    assert tool.code_lines(source) == 8


def test_prints_each_module_and_the_total(tool, tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nimport os\n')
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["2", "a.py"], ["1", "b.py"], ["3", "total"]]
