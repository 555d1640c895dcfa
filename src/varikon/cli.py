"""Command-line surface: enumeration, verification, word tables, solving.

Exit codes: 0 ok, 1 check-failed or stdout closed early, 2 input-error.
"""

import argparse
import json
import os
import sys

from . import box, fifteen, groups, solver, words
from .report import Report

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2

# --method choice -> the Solver method it calls, as (config, target mode)
SOLVE_METHODS = {"optimal": "solve_optimal", "a6": "solve_heuristic_a6",
                 "a5": "solve_heuristic_a5"}


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return INPUT_ERROR


def _print_csv(rows, out):
    for row in rows:
        print(",".join(str(x) for x in row), file=out)


def cmd_enumerate(args, out) -> int:
    table = groups.build_distance_table()
    hist = table.histogram()
    if args.format == "json":
        print(json.dumps({"count": len(table.depth),
                          "max_depth": table.max_depth,
                          "histogram": hist}), file=out)
    else:
        _print_csv([("depth", "count")] + hist, out)
    return OK


def build_verify_reports() -> list[Report]:
    table = groups.build_distance_table()
    z = groups.center(table)
    kernel = groups.subgroup_K()
    center_words = groups.verify_center_words(table, z)
    reports = [
        center_words,
        groups.verify_K_is_A7(kernel),
        groups.verify_structure(table, z, kernel, center_words.passed),
        box.atoms_report(),
        fifteen.family_report(),
        words.a5_report(),
        words.a6_report(),
    ]
    dihedral = Report("dihedral letter pairs")
    # cyclic pairs, so each letter's X^2 = e is checked once
    for x, y in (("R", "U"), ("U", "B"), ("B", "R")):
        dihedral.checks.extend(box.dihedral_check(x, y, table))
    reports.append(dihedral)
    return reports


def cmd_verify(args, out) -> int:
    reports = build_verify_reports()
    failed = sum(len(r.failures()) for r in reports)
    if args.format == "json":
        print(json.dumps([r.row() for r in reports], indent=2), file=out)
    else:
        for r in reports:
            print(f"== {r.title} ==", file=out)
            for line in r.lines():
                print(line, file=out)
        total = sum(len(r.checks) for r in reports)
        print(f"-- {total - failed}/{total} checks passed --", file=out)
    return CHECK_FAILED if failed else OK


def cmd_solve(args, out) -> int:
    if args.random == (args.config is not None):
        return _input_error("need exactly one of a config and --random")
    if args.seed is not None and not args.random:
        return _input_error("--seed applies only with --random")
    try:  # an unreachable config is turned away by the solve itself
        config = (box.random_reachable(args.seed or 0) if args.random
                  else box.parse_config(args.config))
        s = (solver.OptimalSolver if args.method == "optimal"
             else solver.Solver)()
        sol = getattr(s, SOLVE_METHODS[args.method])(config, args.target)
    except ValueError as exc:
        return _input_error(str(exc))
    print(json.dumps({
        "config": box.format_config(config),
        "method": sol.method,
        "moves": sol.moves,
        "total": sol.total,
        "phases": [{"label": lab, "word": w, "length": len(w)}
                   for lab, w in sol.phases],
        "target": box.format_config(sol.target),
    }, indent=2), file=out)
    return OK


def cmd_words(args, out) -> int:
    table = words.build_a5_table() if args.group == "a5" else words.build_a6_table()
    if args.format == "json":
        print(json.dumps({
            "group": args.group,
            "size": len(table),
            "max_length": table.max_length(),
            "entries": [{"element": el, "length": int(length), "word": w}
                        for el, length, w in table.csv_rows()[1:]],
        }), file=out)
    else:
        _print_csv(table.csv_rows(), out)
    return OK


def cmd_fifteen(args, out) -> int:
    if args.verify_cycles:
        rep = fifteen.family_report()
        for line in rep.lines():
            print(line, file=out)
        return OK if rep.passed else CHECK_FAILED
    try:
        config = fifteen.parse_config(args.check)
    except ValueError as exc:
        return _input_error(str(exc))
    solvable = fifteen.is_solvable(config)
    print(json.dumps({"config": fifteen.format_config(config),
                      "solvable": solvable}), file=out)
    return OK


def _seed(text: str) -> int:
    # ASCII decimal, as board tokens: int() also takes "-3" (whose sign
    # random.Random drops), "+3", "1_0" and non-ASCII digits
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"not ASCII decimal digits: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varikon",
        description="Verification laboratory and solver for the 2x2x2 "
                    "Varikon Box.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate",
                       help="reachable-state count and depth histogram")
    p.set_defaults(run=cmd_enumerate)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run every structural check")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve", help="solve one config")
    p.set_defaults(run=cmd_solve)
    p.add_argument("config", nargs="?",
                   help="8 comma-separated tokens, '_' for the blank")
    p.add_argument("--method", choices=tuple(SOLVE_METHODS),
                   default="optimal")
    p.add_argument("--target", choices=solver.MODES, default="strict")
    p.add_argument("--random", action="store_true",
                   help="solve a random reachable config instead")
    p.add_argument("--seed", type=_seed,
                   help="seed for --random (default 0)")

    p = sub.add_parser("words", help="emit a shortest-word table")
    p.set_defaults(run=cmd_words)
    p.add_argument("--group", choices=("a5", "a6"), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fifteen", help="15-puzzle checks")
    p.set_defaults(run=cmd_fifteen)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", metavar="CONFIG",
                       help="16 comma-separated tokens, '_' for the blank")
    group.add_argument("--verify-cycles", action="store_true",
                       help="verify the conjugated 3-cycle family")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # the reader left: `varikon verify | head -1`
        # point stdout at devnull so the final flush cannot raise again,
        # and exit 1 as Python's SIGPIPE recipe does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CHECK_FAILED
    return code


if __name__ == "__main__":
    sys.exit(main())
