"""tools/src_lines.py counts code, docstring-or-comment and blank lines."""

import importlib.util
import os
import subprocess
import sys
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


def test_closed_stdout_prints_no_traceback():
    # stdout is a pipe whose reader left before the first write, so the
    # flush raises BrokenPipeError whatever the output's size
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, str(TOOL)], stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == b""
