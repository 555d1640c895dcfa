"""Seeded single-site mutation sample of src/varikon, run against tier-1.

Usage, from the repository root (stdlib only; pytest must be installed):

    python3 tools/mutants.py [--seed 26] [--count 40] [--out FILE]
                             [--since REV]

The record is printed to stdout, or written to FILE when --out names
one. No file of the checkout is written unless --out names it: the
committed MUTANTS*.json records hold survivor classes made by hand,
which a rerun does not know, so write a rerun elsewhere and carry the
classes over by hand. Progress goes to stderr.

src, tests, benchmark, tools and the two config files are copied to a
temporary directory, and every module of the copied package is replaced
by its ast.unparse text. A control run of tier-1 must pass on that copy
before any mutant runs. A site is one place where one operator applies:
- a comparison, arithmetic, bitwise or boolean operator swapped for its
  partner (SWAPS);
- an integer constant plus one;
- a `not` dropped.
The seed draws `count` of the sites. With --since REV it draws only the
sites on the src/varikon lines that `git diff -U0 REV` adds or changes
(the working tree against REV as `git diff` sees it: edits not yet
committed count, untracked files do not), at most `count` of them, so a
change's own sites run in minutes; the record's "since" is REV resolved
by `git rev-parse --verify REV^{commit}` to its commit hash, so a
relative REV such as HEAD still names the tree once it moves on (null
without --since). Each mutant changes one site in the
copy and runs tier-1 with -x, criterion 8 deselected (it fails by
design). A mutant is killed when the run fails or times out. Survivors
are written with "class": null, to be classified by hand as equivalent,
speed-only (naming the guard that would catch it) or real gap.

A site's line number means something only for the tree it was drawn
from, so the record names it: "revision" is `git rev-parse HEAD` and
"dirty" whether `git status --porcelain` lists anything (both null
where git or the repository is missing).
"""

import argparse
import ast
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/varikon")
# the new-file line range of a -U0 hunk: start, and a count that is 1
# when left out and 0 when the hunk only deletes
HUNK = re.compile(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@")
COPIED = ("src", "tests", "benchmark", "tools", "pyproject.toml",
          "BENCHMARK.json")
DESELECT = "tests/test_acceptance.py::test_criterion_08_a6_product_identity"
MEMORY_LIMIT = 4 << 30  # address space per tier-1 run, in bytes

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
    ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.BitXor: ast.BitOr,
    ast.BitOr: ast.BitXor, ast.BitAnd: ast.BitOr, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.And: ast.Or, ast.Or: ast.And,
}


def sites_of(name: str, text: str) -> list[dict]:
    """Every mutation site of one module, in ast.walk order. A site names
    its node by that order, so it can be found again in a fresh parse."""
    sites = []
    for index, node in enumerate(ast.walk(ast.parse(text))):
        ops = []
        if isinstance(node, ast.Compare):
            ops = list(enumerate(node.ops))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            ops = [(None, node.op)]
        for k, op in ops:
            if type(op) in SWAPS:
                sites.append((index, k, f"{type(op).__name__} -> "
                              f"{SWAPS[type(op)].__name__}", node))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((index, None, f"{node.value} -> {node.value + 1}",
                          node))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            sites.append((index, None, "drop not", node))
    return [{"site": f"{name}:{node.lineno}", "node": index, "op": k,
             "mutation": mutation,
             "source": " ".join(ast.get_source_segment(text, node).split())}
            for index, k, mutation, node in sites]


def mutate(text: str, site: dict) -> str:
    """The module's ast.unparse text with the one site changed."""
    tree = ast.parse(text)
    nodes = list(ast.walk(tree))
    node = nodes[site["node"]]
    if site["mutation"] == "drop not":
        for parent in nodes:
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list) and any(v is node
                                                     for v in value):
                    value[[id(v) for v in value].index(id(node))] = \
                        node.operand
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.Compare):
        node.ops[site["op"]] = SWAPS[type(node.ops[site["op"]])]()
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def changed_lines(diff: str) -> dict[str, set[int]]:
    """{module file name: line numbers} of the package lines, numbered in
    the new tree, that a `git diff -U0 --no-prefix` adds or changes."""
    touched, name = {}, None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = Path(line[4:])
            name = path.name if path.parent == PACKAGE else None
        elif name and (hunk := HUNK.match(line)):
            start, count = int(hunk[1]), int(hunk[2] or 1)
            touched.setdefault(name, set()).update(range(start,
                                                         start + count))
    return touched


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


def commit_of(rev: str) -> str:
    """The full hash of the commit REV names; CalledProcessError if it
    names none."""
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()


def git_tree() -> tuple:
    """(revision, dirty) of the checkout, or (None, None) without git."""
    try:
        revision = git("rev-parse", "HEAD").strip()
        return revision, git("status", "--porcelain") != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def tier1(copy: Path, timeout: float) -> tuple[str, str, float]:
    """(result, pytest's last line, seconds) of one -x tier-1 run; the
    run's whole process group is killed if it overruns."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", "--deselect", DESELECT]
    # no bytecode: a same-size mutant written within a second of the last
    # one would otherwise be read from a stale cache
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=copy, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          start_new_session=True,
                          preexec_fn=_limit_memory) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timeout", "", time.perf_counter() - start
    last = (out.strip().splitlines() or [""])[-1]
    result = "survived" if proc.returncode == 0 else "killed"
    return result, last, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=26)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--out", type=Path,
                        help="write the JSON record here, not to stdout")
    parser.add_argument("--since", metavar="REV",
                        help="draw only the sites on package lines that "
                             "`git diff -U0 REV` adds or changes")
    args = parser.parse_args(argv)

    revision, dirty = git_tree()
    originals = {p.name: p.read_text()
                 for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    sites = [s for name, text in originals.items()
             for s in sites_of(name, text)]
    since = None
    if args.since is not None:
        try:
            since = commit_of(args.since)
            touched = changed_lines(git("diff", "-U0", "--no-color",
                                        "--no-prefix", since, "--",
                                        str(PACKAGE)))
        except (OSError, subprocess.CalledProcessError) as exc:
            parser.error(f"no commit to diff against for {args.since!r}: "
                         f"{exc}")
        sites = [s for s in sites if int(s["site"].split(":")[1])
                 in touched.get(s["site"].split(":")[0], ())]
    chosen = sorted(random.Random(args.seed).sample(
        sites, min(args.count, len(sites))), key=sites.index)
    with tempfile.TemporaryDirectory(prefix="varikon-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.
                                ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(src, copy / name)
        unparsed = {name: ast.unparse(ast.parse(text))
                    for name, text in originals.items()}
        for name, text in unparsed.items():
            (copy / PACKAGE / name).write_text(text)
        result, last, seconds = tier1(copy, timeout=600)
        print(f"control: {last} ({seconds:.1f} s)", file=sys.stderr)
        if result != "survived":
            print("control run failed; no mutant was run", file=sys.stderr)
            return 1
        passed = int(re.search(r"(\d+) passed", last).group(1))
        control = {"tests_passed": passed, "seconds": round(seconds, 1)}
        timeout = max(60.0, 5 * seconds)
        mutants = []
        for n, site in enumerate(chosen, start=1):
            name = site["site"].split(":")[0]
            path = copy / PACKAGE / name
            path.write_text(mutate(originals[name], site))
            try:
                result, last, seconds = tier1(copy, timeout)
            finally:
                path.write_text(unparsed[name])
            row = {k: site[k] for k in ("site", "mutation", "source")}
            row.update(result=result, seconds=round(seconds, 1))
            if result == "survived":
                row["class"] = None
            mutants.append(row)
            print(f"[{n}/{len(chosen)}] {row['site']} {row['mutation']}: "
                  f"{result} ({seconds:.1f} s)", file=sys.stderr)

    record = {
        "seed": args.seed, "count": len(chosen), "sites": len(sites),
        "since": since, "revision": revision, "dirty": dirty,
        "command": "python -m pytest -x -q -p no:cacheprovider --deselect "
                   + DESELECT,
        "control": control,
        "killed": sum(m["result"] != "survived" for m in mutants),
        "survived": sum(m["result"] == "survived" for m in mutants),
        "mutants": mutants,
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
