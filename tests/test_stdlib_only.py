"""The package and its tools stay stdlib-only: every absolute import in
src/varikon and in tools names a module of the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _outside_stdlib(files):
    return [(path.name, name) for path in files
            for name in _absolute_imports(path)
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_package_imports_only_the_standard_library():
    files = sorted((ROOT / "src" / "varikon").glob("*.py"))
    assert {"__init__.py", "cli.py", "solver.py"} <= {p.name for p in files}
    assert _outside_stdlib(files) == []


def test_tools_import_only_the_standard_library():
    # the mutation sampler promises to run on the standard library alone
    files = sorted((ROOT / "tools").glob("*.py"))
    assert "mutants.py" in {p.name for p in files}
    assert _outside_stdlib(files) == []
