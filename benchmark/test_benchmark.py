"""Tests of the benchmark's oracle and output checks.

    python3 -m pytest benchmark

The checks must bite: each synthetic bad output below is counted as a
failed operation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import (KNOWN_FAILING_CLAIM, check_solution,  # noqa: E402
                    check_verify_checks, check_word_table)
from oracle import SOLVED, Oracle, replay  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


@pytest.fixture(scope="module")
def box_solver():
    from varikon import solver

    return solver.Solver()


def counted_failed(oracle, problems):
    """Whether a run tallies an operation with these problems as failed."""
    tally = run.Run(argparse.Namespace(workload="solve-strict", seed=0,
                                       seconds=0, trace=0), oracle)
    tally.record(problems)
    return tally.attempted == 1 and tally.failed == 1 and tally.unexpected


def test_oracle_state_space(oracle):
    assert len(oracle.states) == len(oracle.index) == 20160
    assert max(oracle.distance["strict"]) == 19
    assert sum(n for _, n in oracle.histogram()) == 20160


def test_oracle_target_sets(oracle):
    assert len(oracle.targets["strict"]) == 1
    assert len(oracle.targets["center"]) == 4
    assert len(oracle.targets["rotation"]) == 12
    assert oracle.targets["center"] <= oracle.targets["rotation"]
    assert max(oracle.distance["center"]) == 15
    assert max(oracle.distance["rotation"]) == 14


def test_oracle_moves_follow_the_documented_convention():
    # RBRB cycles the pieces (5,6,7) and leaves the blank home
    assert replay(SOLVED, "RBRB") == (1, 2, 3, 4, 6, 7, 5, None)
    assert all(replay(SOLVED, m + m) == SOLVED for m in "RUB")


def test_correct_outputs_pass(oracle, box_solver):
    for config in oracle.states[::997]:
        for mode in ("strict", "center", "rotation"):
            for method in ("a6", "a5"):
                sol = getattr(box_solver, f"solve_heuristic_{method}")(
                    config, mode)
                assert check_solution(oracle, config, mode, method,
                                      sol.moves, sol.phases,
                                      sol.target) == []
        sol = box_solver.solve_optimal(config)
        assert check_solution(oracle, config, "strict", "optimal",
                              sol.moves, sol.phases, sol.target) == []
    assert check_verify_checks([("|Z|", True),
                                (KNOWN_FAILING_CLAIM, False)]) == []


def test_solution_with_a_dropped_letter_fails(oracle, box_solver):
    config = oracle.states[12345]
    sol = box_solver.solve_heuristic_a6(config, "strict")
    (setup_label, setup), (word_label, word) = sol.phases
    assert setup, "pick a config whose solution has setup letters"
    phases = [(setup_label, setup[1:]), (word_label, word)]
    problems = check_solution(oracle, config, "strict", "a6",
                              setup[1:] + word, phases, sol.target)
    assert counted_failed(oracle, problems)


@pytest.mark.parametrize("labels", [("setup", "expansion"),
                                    ("setup", "setup"),
                                    ("word-expansion", "setup")])
def test_mislabelled_word_phase_fails(oracle, box_solver, labels):
    config = oracle.states[12345]
    sol = box_solver.solve_heuristic_a5(config, "strict")
    phases = [(label, w) for label, (_, w) in zip(labels, sol.phases)]
    problems = check_solution(oracle, config, "strict", "a5", sol.moves,
                              phases, sol.target)
    assert counted_failed(oracle, problems)


def test_target_outside_the_mode_fails(oracle, box_solver):
    outside = oracle.targets["rotation"] - oracle.targets["center"]
    config, sol = next(
        (c, sol) for c in oracle.states
        for sol in [box_solver.solve_heuristic_a6(c, "rotation")]
        if sol.target in outside)
    problems = check_solution(oracle, config, "center", "a6", sol.moves,
                              sol.phases, sol.target)
    assert counted_failed(oracle, problems)


def test_verify_report_with_a_second_failure_fails(oracle):
    problems = check_verify_checks([("|Z|", False),
                                    (KNOWN_FAILING_CLAIM, False)])
    assert counted_failed(oracle, problems)


def test_word_table_with_a_wrong_word_fails(oracle):
    rows = [("()", "0", ""), ("(1,2,3)", "1", "+2")]
    assert counted_failed(oracle, check_word_table("a5", rows))


def test_known_fault_inputs_expose_the_fault(oracle):
    # The round's optimal-with-target commands solve these configs; the
    # strict answer is longer than the distance to each target set.
    from varikon import box

    for mode, seed in run.KNOWN_FAULT_SEEDS.items():
        config = box.random_reachable(seed)
        assert (oracle.distance_to("strict", config)
                > oracle.distance_to(mode, config))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_reports_every_listed_metric(trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cores = os.sched_getaffinity(0)
    try:
        assert run.main(["--workload", "solve-rotation", "--seed", "3",
                         "--seconds", "0.2", "--trace", trace]) == 0
    finally:
        os.sched_setaffinity(0, cores)  # the run pins itself to one core
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "solve-strict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
