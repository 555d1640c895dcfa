"""tools/mutants.py --since reads a change's package lines from a diff,
and records the commit it names."""

import importlib.util
import re
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
# a `git diff -U0 --no-prefix` touching two package modules, one file
# outside the package and one deleted module
DIFF = """\
diff --git src/varikon/box.py src/varikon/box.py
index 1111111..2222222 100644
--- src/varikon/box.py
+++ src/varikon/box.py
@@ -18,0 +19 @@ from operator import itemgetter
+from types import MappingProxyType
@@ -241,2 +242,5 @@ def unrank(r: int):
-def move_tables() -> dict[str, list[int]]:
-    \"\"\"{letter: row}, row[r] the rank one move away from rank r. No config
+@cache
+def move_tables() -> MappingProxyType:
+    \"\"\"{letter: row}, row[r] the rank one move away from rank r, built
+    once per process on first use: a read-only mapping of tuples that
+    every DistanceTable shares. No config
@@ -300 +304 @@ def three_cycle_atoms():
-    return tables
+    return MappingProxyType(tables)
@@ -320,3 +323,0 @@ def dihedral_check(x, y, table) -> list:
-        # a deleted comment
-        # and another
-        # and a third
diff --git src/varikon/groups.py src/varikon/groups.py
--- src/varikon/groups.py
+++ src/varikon/groups.py
@@ -7,0 +8,2 @@
+# two added lines
+# at the top
diff --git tests/test_box.py tests/test_box.py
--- tests/test_box.py
+++ tests/test_box.py
@@ -5 +5 @@
-import copy
+import contextlib
diff --git src/varikon/old.py src/varikon/old.py
deleted file mode 100644
--- src/varikon/old.py
+++ /dev/null
@@ -1,2 +0,0 @@
-x = 1
-y = 2
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_changed_lines_of_a_synthetic_diff():
    tool = load_tool()
    # a hunk's new-side count is 1 when left out and 0 when it only
    # deletes; files outside the package and deleted modules add nothing
    assert tool.changed_lines(DIFF) == {
        "box.py": {19, 242, 243, 244, 245, 246, 304},
        "groups.py": {8, 9},
    }


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_since_is_recorded_as_a_commit_hash(tmp_path, monkeypatch, capsys):
    # a one-commit repository: HEAD resolves to that commit's full hash,
    # which is what --since HEAD records, and a REV that names no commit
    # is a usage error (exit 2)
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "-c", "commit.gpgsign=false", *args], cwd=tmp_path, check=True,
            capture_output=True, text=True).stdout.strip()
    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "one")
    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    head = tool.commit_of("HEAD")
    assert re.fullmatch("[0-9a-f]{40}", head)
    assert head == git("rev-parse", "HEAD")
    with pytest.raises(SystemExit) as exc:
        tool.main(["--since", "no-such-rev"])
    assert exc.value.code == 2
    assert "no commit to diff against for 'no-such-rev'" in (
        capsys.readouterr().err)
