"""The src/ line counter (tools/src_lines.py) gives every line one kind."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: p.name)
def test_the_three_kinds_sum_to_the_line_count(path):
    source = path.read_text()
    counts = src_lines.count_lines(source)
    assert sum(counts.values()) == len(source.splitlines())


def test_each_kind_of_line():
    source = ('"""Module\n'
              '\n'
              'docstring."""\n'
              '# a comment\n'
              'x = 1  # code with a comment\n'
              '\n'
              'y = """a string\n'
              'that is code"""\n'
              'z = (1 +\n'
              '     \\\n'
              '     2)\n')
    assert src_lines.count_lines(source) == {"code": 6, "doc": 3, "blank": 2}
