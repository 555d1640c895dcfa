"""tools/src_lines.py counts code, docstring-or-comment and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
SAMPLE = '''"""Module docstring,

over three lines."""

import os  # a comment after code is code


def f(x):
    # a comment line
    """Function docstring."""
    s = """a string
that is code"""
    return s

'''


def test_counts_of_a_sample_module():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # code: import, def, the assignment's two lines, return; doc: the
    # module docstring's three lines, the comment line and the function
    # docstring; blank: the docstring's middle line and four more
    assert tool.count(SAMPLE) == {"code": 5, "doc": 5, "blank": 5,
                                  "lines": 14}
