"""Benchmark for the varikon package: one workload per run.

    python3 benchmark/run.py --workload solve-strict --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src`. The
last stdout line is a JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.

Workloads (closed loops with one caller; nothing runs concurrently):
  solve-strict    heuristic a6 then a5 on a seeded stream of configs,
                  to the strict target
  solve-rotation  the same stream, to the rotation target
  verify-lab      repeated `cli.build_verify_reports()` passes
  cli-cold        fresh `python -m varikon` processes over a fixed
                  round of commands
"""

import argparse
import inspect
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from checks import (check_histogram, check_solution, check_verify_checks,
                    check_word_table)
from cli_child import MARKER
from oracle import Oracle
from speed import INTERVAL_S, REFERENCE_S, Gauge, reference_task
from tracer import Tracer, layer_metrics, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 25
COLD_IMPORT_REPS = 25
# Set-ups are short, so each is scaled by the gauge samples taken right
# before and after it, not by those of the surrounding MARGIN_S.
SETUP_MARGIN_S = 0.005
# A cold import is timed in a fresh interpreter, which also times the
# reference task three times right before and three times right after
# it: the child's own gauge.
COLD_IMPORT_CODE = inspect.getsource(reference_task) + """
import time
clock = time.perf_counter
def gauge():
    out = []
    for _ in range(3):
        t = clock(); reference_task(); out.append(clock() - t)
    return out
reference_task()  # warm-up
before = gauge()
t = clock(); import varikon.cli; took = clock() - t
print(took, *before, *gauge())
"""
CHILD_TIMEOUT_S = 120
# The traced run does a fixed number of rounds, seconds * this rate
# (at least one), so its call counts repeat exactly for a given seed.
# The rates make a traced run last about --seconds on a 2-core x86 VM.
TRACED_ROUNDS_PER_S = {"solve-strict": 3.5, "solve-rotation": 28.0,
                       "verify-lab": 0.25, "cli-cold": 0.04}
# The seeded configs the cli-cold round asks `solve --method optimal`
# to bring to the center and rotation targets. They do not depend on
# --seed: today the CLI answers these with the strict-target solution,
# which is longer than the distance to the target set, so both fail on
# every round (a fault of the program, counted in `failed`).
KNOWN_FAULT_SEEDS = {"center": 1, "rotation": 2}
CLI_KINDS = ("enumerate", "verify", "solve_optimal", "solve_heuristic",
             "words")

clock = time.perf_counter


class Timings:
    """(seconds, start, end) triples in one flat array, 24 bytes an
    operation, so that a run's own storage adds little to its peak
    memory."""

    def __init__(self):
        self.values = array("d")

    def add(self, triple):
        self.values.extend(triple)

    def __len__(self):
        return len(self.values) // 3

    def __iter__(self):
        v = self.values
        return (v[i:i + 3] for i in range(0, len(v), 3))


class Run:
    """Tallies of one benchmark run."""

    def __init__(self, args, oracle):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # problems of operations expected to pass
        self.gauge = Gauge()
        self.setup_s = []  # at the gauge's reference speed
        self.op_times = Timings()  # operations expected to pass only
        self.cli_times = {kind: Timings() for kind in CLI_KINDS}
        self.solution_moves = [0, 0]  # total moves, solutions
        self.peak_rss_mb = 0.0
        self.tracer = Tracer() if self.traced else None
        self.child_traces = {"stats": {}, "setup_moves": 0,
                             "setup_apply_calls": 0}

    def rounds(self):
        """Round indices: until --seconds have passed untraced, a fixed
        count traced."""
        if self.traced:
            count = max(1, round(self.seconds
                                 * TRACED_ROUNDS_PER_S[self.workload]))
            yield from range(count)
            return
        deadline = clock() + self.seconds
        i = 0
        while i == 0 or clock() < deadline:
            yield i
            i += 1

    def timing(self, t0, t1):
        return (self.gauge.net(t0, t1), t0, t1)

    def scaled(self, timings):
        """Seconds at the gauge's reference speed."""
        return [t * self.gauge.factor(t0, t1) for t, t0, t1 in timings]

    def count_solution(self, moves):
        self.solution_moves[0] += moves
        self.solution_moves[1] += 1

    def record(self, problems, known_fault=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_fault:
                self.unexpected.extend(problems)
                print(f"{self.workload}: {problems[0]}", file=sys.stderr)


def child_env():
    """The caller's environment without its Python settings (bytecode
    caching, hash seed, optimisation), so that children behave alike
    wherever the benchmark runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_import_setup(run):
    """Set-up of the process-level workloads: the cold import of
    `varikon.cli`, timed inside fresh interpreters."""
    for _ in range(COLD_IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", COLD_IMPORT_CODE],
                             cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S, check=True)
        took, *samples = map(float, out.stdout.split())
        run.setup_s.append(took * REFERENCE_S / statistics.median(samples))


def config_blocks(oracle, seed):
    """Seeded blocks of 56 configs, one for each placement of the blank
    and piece 1 (each placement has 360 reachable configs). Every config
    appears once per 360 blocks, so the stream is uniform, and each block
    holds the same mix of placements, which set the depth of the setup
    search; runs on different seeds therefore see the same mix."""
    rng = random.Random(seed)
    pools = {}
    for config in oracle.states:
        pools.setdefault((config.index(None), config.index(1)), []).append(config)
    pools = list(pools.values())
    while True:
        for pool in pools:
            rng.shuffle(pool)
        for i in range(len(pools[0])):
            block = [pool[i] for pool in pools]
            rng.shuffle(block)
            yield block


# ---------------------------------------------------------------------------

def solve_workload(run, mode):
    from varikon import solver

    oracle = run.oracle
    warmup = oracle.states[len(oracle.states) // 2]
    with run.gauge.sampling():
        for _ in range(SETUP_REPS):
            run.gauge.sample()
            t0 = clock()
            s = solver.Solver()
            s.solve_heuristic_a6(warmup, mode)
            s.solve_heuristic_a5(warmup, mode)
            t1 = clock()
            run.gauge.sample()
            run.setup_s.append(run.gauge.net(t0, t1)
                               * run.gauge.factor(t0, t1, SETUP_MARGIN_S))

        blocks = config_blocks(oracle, run.seed)
        for _ in run.rounds():
            for config in next(blocks):
                solve_one(run, s, config, mode)


def solve_one(run, s, config, mode):
    t0 = clock()
    try:
        solutions = (("a6", s.solve_heuristic_a6(config, mode)),
                     ("a5", s.solve_heuristic_a5(config, mode)))
    except Exception as exc:  # a raising solve is a failed operation
        run.record([f"solve raised {exc!r}"])
        return
    run.op_times.add(run.timing(t0, clock()))
    problems = []
    for method, sol in solutions:
        problems += check_solution(run.oracle, config, mode, method,
                                   sol.moves, sol.phases, sol.target)
        run.count_solution(len(sol.moves))
    run.record(problems)


def verify_workload(run):
    cold_import_setup(run)
    from varikon import cli, groups

    tables = []
    build_table = groups.build_distance_table

    def keep_table():
        table = build_table()
        tables.append(table)
        return table

    groups.build_distance_table = keep_table
    try:
        with run.gauge.sampling():
            for _ in run.rounds():
                verify_one(run, cli, tables)
    finally:
        groups.build_distance_table = build_table


def verify_one(run, cli, tables):
    t0 = clock()
    try:
        reports = cli.build_verify_reports()
    except Exception as exc:
        run.record([f"verify raised {exc!r}"])
        return
    run.op_times.add(run.timing(t0, clock()))
    depths = tables.pop().depth
    run.record(check_verify_checks([(c.claim, c.passed)
                                    for r in reports for c in r.checks])
               + check_histogram(run.oracle, sorted(Counter(depths).items())))


# ---------------------------------------------------------------------------

def cli_round(rng):
    """(kind, argv, known_fault) for one round of cli-cold commands."""
    cmds = [("enumerate", ["enumerate"], False),
            ("verify", ["verify", "--format", "json"], False)]
    for method in ("optimal", "a6", "a5"):
        for target in ("strict", "center", "rotation"):
            known_fault = method == "optimal" and target != "strict"
            seed = (KNOWN_FAULT_SEEDS[target] if known_fault
                    else rng.randrange(1_000_000))
            kind = "solve_optimal" if method == "optimal" else "solve_heuristic"
            cmds.append((kind, ["solve", "--random", "--seed", str(seed),
                                "--method", method, "--target", target],
                         known_fault))
    for group in ("a5", "a6"):
        cmds.append(("words", ["words", "--group", group], False))
    return cmds


def parse_config(text):
    return tuple(None if t == "_" else int(t) for t in text.split(","))


def check_cli(oracle, kind, argv, proc, known_fault):
    try:
        return _check_cli(oracle, kind, argv, proc, known_fault)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{' '.join(argv)}: unreadable output ({exc!r})"]


def _check_cli(oracle, kind, argv, proc, known_fault):
    if "Traceback" in proc.stderr:
        return ["command printed a traceback"]
    if known_fault and proc.returncode == 2:
        return []  # rejecting the combination is a correct answer
    expected_code = 1 if kind == "verify" else 0  # criterion 8 stays red
    if proc.returncode != expected_code:
        return [f"exit code {proc.returncode}, expected {expected_code}"]
    if kind == "enumerate":
        lines = proc.stdout.split()
        if lines[0] != "depth,count":
            return ["enumerate output has no depth,count header"]
        return check_histogram(oracle, [tuple(map(int, line.split(",")))
                                        for line in lines[1:]])
    if kind == "verify":
        return check_verify_checks([(c["claim"], c["pass"])
                                    for rep in json.loads(proc.stdout)
                                    for c in rep["checks"]])
    if kind == "words":
        # element cycle text holds commas of its own
        rows = [line.rsplit(",", 2) for line in proc.stdout.splitlines()[1:]]
        return check_word_table(argv[2], rows)
    out = json.loads(proc.stdout)
    config = parse_config(out["config"])
    if config not in oracle.index:
        return [f"solved config {out['config']} is not reachable"]
    method = argv[argv.index("--method") + 1]
    mode = argv[argv.index("--target") + 1]
    return check_solution(oracle, config, mode, method, out["moves"],
                          [(p["label"], p["word"]) for p in out["phases"]],
                          parse_config(out["target"]))


def run_child(run, argv, traced):
    """One cold `varikon` process, sampling the gauge while it runs;
    returns (timing, process, trace snapshot or None)."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "varikon", *argv]
    t0 = clock()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        while True:
            try:
                out, err = child.communicate(timeout=INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if clock() - t0 > CHILD_TIMEOUT_S:
                    child.kill()
                    out, err = child.communicate()
                    break
                run.gauge.sample()
    timing = run.timing(t0, clock())
    proc = subprocess.CompletedProcess(cmd, child.returncode, out, err)
    snap = None
    if traced:
        head, sep, tail = proc.stderr.rpartition(MARKER)
        if sep:
            proc.stderr, snap = head, json.loads(tail)
    return timing, proc, snap


def cli_workload(run):
    cold_import_setup(run)
    rng = random.Random(run.seed)
    for _ in run.rounds():
        for kind, argv, known_fault in cli_round(rng):
            timing, proc, _ = run_child(run, argv, traced=False)
            problems = check_cli(run.oracle, kind, argv, proc, known_fault)
            if not known_fault:
                run.cli_times[kind].add(timing)
            if run.traced:
                # the untraced child above gives the cold time per command;
                # this one gives the layer counters and the traced time
                timing, proc, snap = run_child(run, argv, traced=True)
                problems += check_cli(run.oracle, kind, argv, proc,
                                      known_fault)
                if snap is None:
                    problems.append("traced child wrote no counters")
                else:
                    merge(run.child_traces, snap)
            if not known_fault:
                run.op_times.add(timing)
                if kind == "solve_heuristic" and not problems:
                    run.count_solution(json.loads(proc.stdout)["total"])
            run.record(problems, known_fault)


WORKLOADS = {
    "solve-strict": lambda run: solve_workload(run, "strict"),
    "solve-rotation": lambda run: solve_workload(run, "rotation"),
    "verify-lab": verify_workload,
    "cli-cold": cli_workload,
}


# ---------------------------------------------------------------------------

def percentile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end_metrics(run):
    ops = run.scaled(run.op_times)
    return {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": 1000 * percentile(ops, 0.50),
        "op_p99_ms": 1000 * percentile(ops, 0.99),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer_metrics(run):
    snap = run.tracer.snapshot()
    merge(snap, run.child_traces)
    factor = run.gauge.run_factor()
    out = {name: v * factor if name.endswith((".s", ".self_s")) else v
           for name, v in layer_metrics(snap).items()}
    total, count = run.solution_moves
    out["solution_moves_mean"] = total / count if count else 0.0
    out["trace.op_mean_ms"] = 1000 * statistics.fmean(run.scaled(run.op_times))
    for kind, times in run.cli_times.items():
        out[f"cli_{kind}_s"] = (statistics.median(run.scaled(times))
                                if times else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "varikon" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a varikon checkout; {SRC}/varikon or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    # One core for this process and its children, so the gauge samples
    # the core that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args, Oracle())
    if run.traced:
        run.tracer.install()
    try:
        run.gauge.sample()
        WORKLOADS[args.workload](run)
        # read before the metrics are worked out from the timings
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
               else resource.RUSAGE_SELF)
        run.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    finally:
        if run.traced:
            run.tracer.uninstall()
    if not run.op_times:
        print("error: no operation completed", file=sys.stderr)
        return 1

    if run.traced:
        values, listed = per_layer_metrics(run), spec["per_layer"]
    else:
        values, listed = end_to_end_metrics(run), spec["end_to_end"]
    if {m["name"] for m in listed} != set(values):
        print("error: computed metrics differ from BENCHMARK.json: "
              f"{sorted({m['name'] for m in listed} ^ set(values))}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
