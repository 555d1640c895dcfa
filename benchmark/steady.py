"""Run each workload several times and report how steady each metric is.

    python3 benchmark/steady.py --runs 10 [--workload cli-cold ...]
                                [--traced] [--out FILE]

Runs use seeds 1 to --runs, each BENCHMARK.json's run_seconds long. For
every end-to-end metric the table gives the median, the quartiles
(statistics.quantiles, n=4), the spread (interquartile distance over the
median) and whether the spread fits the metric's bound in
BENCHMARK.json. Each workload also shows the operations attempted and
failed over its runs. With --traced every run is repeated with
--trace 1, the per-layer medians that are not zero are listed, and the
tracing overhead is the traced mean operation time over the untraced one,
minus one. --out writes every run's result, with nproc and the Python
version, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace,
                  nproc=os.cpu_count(), python=platform.python_version())
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    seconds = spec["run_seconds"]
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"{args.runs} runs of {seconds} s per workload")
    seeds = range(1, args.runs + 1)
    records = []
    for workload in args.workload or names:
        plain = [run_once(workload, s, seconds, 0) for s in seeds]
        records += plain
        attempted = sum(r["attempted"] for r in plain)
        failed = sum(r["failed"] for r in plain)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in plain})
        print(f"\n== {workload}: attempted {attempted}, failed {failed}, "
              f"correct {all(r['correct'] for r in plain)}; "
              f"failed/attempted per run {', '.join(shares)}")
        print(f"{'metric':<14} {'unit':<5} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'spread':>7} {'bound':>6}  fits")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in plain]
            med, q1, q3, spread = summary(vals)
            fits = "yes" if spread <= m["bound"] else "NO"
            print(f"{m['name']:<14} {m['unit']:<5} {med:>11.4f} {q1:>11.4f} "
                  f"{q3:>11.4f} {spread:>7.3f} {m['bound']:>6.2f}  {fits}")
        if args.traced:
            traced = [run_once(workload, s, seconds, 1) for s in seeds]
            records += traced
            for m in spec["per_layer"]:
                vals = [r["metrics"][m["name"]]["value"] for r in traced]
                med = statistics.median(vals)
                if med:
                    print(f"  {m['name']:<40} {med:>14.6g} {m['unit']}")
            untraced_ms = 1000 / statistics.median(
                r["metrics"]["ops_per_s"]["value"] for r in plain)
            traced_ms = statistics.median(
                r["metrics"]["trace.op_mean_ms"]["value"] for r in traced)
            print(f"tracing overhead: mean op {untraced_ms:.4f} ms untraced, "
                  f"{traced_ms:.4f} ms traced, "
                  f"{traced_ms / untraced_ms - 1:+.1%}")
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
