"""Command-line surface: output shapes and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varikon
from varikon import box, cli, groups, perm, solver, words


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate")
    lines = out.strip().splitlines()
    assert code == cli.OK
    assert lines[0] == "depth,count"
    assert lines[1] == "0,1"
    assert lines[-1] == "19,18"
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 20160


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--format", "json")
    payload = json.loads(out)
    assert code == cli.OK
    assert payload["count"] == 20160
    assert payload["max_depth"] == 19


def test_solve_solved_config(capsys):
    code, out, _ = run(capsys, "solve", "1,2,3,4,5,6,7,_")
    payload = json.loads(out)
    assert code == cli.OK
    assert payload["total"] == 0
    assert payload["moves"] == ""


def test_solve_heuristic_phases(capsys):
    code, out, _ = run(capsys, "solve", "1,5,2,4,3,6,7,_", "--method", "a6")
    payload = json.loads(out)
    assert code == cli.OK
    assert payload["method"] == "heuristic-a6"
    assert payload["total"] == 20
    phases = {p["label"]: p["length"] for p in payload["phases"]}
    assert phases == {"setup": 0, "word-expansion": 20}
    assert payload["target"] == "1,2,3,4,5,6,7,_"


def test_solve_random_is_seeded(capsys):
    code1, out1, _ = run(capsys, "solve", "--random", "--seed", "9")
    code2, out2, _ = run(capsys, "solve", "--random", "--seed", "9")
    assert code1 == code2 == cli.OK
    assert out1 == out2


def test_solve_random_defaults_to_seed_zero(capsys):
    _, plain, _ = run(capsys, "solve", "--random", "--method", "a6")
    _, seeded, _ = run(capsys, "solve", "--random", "--seed", "0",
                       "--method", "a6")
    assert plain == seeded
    # both solve seed 0's config, not merely the same one
    assert json.loads(plain)["config"] == \
        box.format_config(box.random_reachable(0))


@pytest.mark.parametrize("seed", ("-3", "+3", "\uff13", "\u0661", "1_0",
                                  " 3", ""))
def test_solve_seed_is_ascii_decimal(capsys, seed):
    # int() takes all of these, and random.Random drops the sign of -3,
    # which would silently solve the --seed 3 config
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--random", "--seed", seed, "--method", "a6"])
    captured = capsys.readouterr()
    assert exc.value.code == cli.INPUT_ERROR
    assert captured.out == ""
    assert "error:" in captured.err and "--seed" in captured.err


@pytest.mark.parametrize("argv", [
    ("solve", "1,2,3,4,5,6,7,_", "--random"),
    ("solve", "1,2,3,4,5,6,7,_", "--seed", "3"),
    ("solve", "--seed", "3"),
])
def test_solve_rejects_ignored_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.INPUT_ERROR
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("method, target", [
    (method, target) for method in ("optimal", "a6", "a5")
    for target in solver.MODES])
def test_solve_unreachable_config(capsys, method, target):
    # the solve call itself turns the board away, under every method
    code, out, err = run(capsys, "solve", "1,2,3,4,6,5,7,_",
                         "--method", method, "--target", target)
    assert code == cli.INPUT_ERROR
    assert out == ""
    assert err == "error: unreachable config: 1,2,3,4,6,5,7,_\n"


def test_solve_malformed_config(capsys):
    code, _, err = run(capsys, "solve", "1,2,bogus")
    assert code == cli.INPUT_ERROR
    assert "error" in err


def test_solve_needs_a_config_or_random(capsys):
    code, _, err = run(capsys, "solve")
    assert code == cli.INPUT_ERROR
    assert "config" in err


@pytest.mark.parametrize("target, seed", (("center", 1), ("rotation", 2)))
def test_solve_optimal_honours_the_target(capsys, mode_tables, target, seed):
    # on these configs the strict answer is longer than the distance to
    # the mode's targets, so answering with it would show
    code, out, err = run(capsys, "solve", "--random", "--seed", str(seed),
                         "--method", "optimal", "--target", target)
    assert (code, err) == (cli.OK, "")
    payload = json.loads(out)
    config = box.random_reachable(seed)
    reached = box.parse_config(payload["target"])
    assert payload["method"] == "optimal"
    assert box.apply_word(config, payload["moves"]) == reached
    assert reached in {rot.target() for rot in box.TARGET_FRAMES[target]}
    r = box.rank(config)
    assert payload["total"] == mode_tables[target].depth[r] \
        < mode_tables["strict"].depth[r]


def test_words_csv(capsys):
    code, out, _ = run(capsys, "words", "--group", "a5")
    lines = out.strip().splitlines()
    assert code == cli.OK
    assert lines[0] == "element,length,word"
    assert len(lines) == 61


def test_words_json(capsys):
    code, out, _ = run(capsys, "words", "--group", "a6", "--format", "json")
    payload = json.loads(out)
    assert code == cli.OK
    assert payload["size"] == 360
    assert payload["max_length"] == 5
    # every table entry, as the CSV rows print it
    assert [(e["element"], str(e["length"]), e["word"])
            for e in payload["entries"]] == \
        words.build_a6_table().csv_rows()[1:]


def test_fifteen_solvability_check(capsys):
    code, out, _ = run(capsys, "fifteen", "--check",
                       "1,2,3,4,5,6,7,8,9,10,11,12,13,15,14,_")
    payload = json.loads(out)
    assert code == cli.OK
    assert payload["solvable"] is False


def test_fifteen_cycle_family(capsys):
    code, out, _ = run(capsys, "fifteen", "--verify-cycles")
    assert code == cli.OK
    assert "[ok]" in out and "[FAIL]" not in out


def test_verify_reports_the_single_known_mismatch(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    reports = json.loads(out)
    failing = [chk for rep in reports for chk in rep["checks"]
               if not chk["pass"]]
    assert code == cli.CHECK_FAILED
    assert len(failing) == 1
    assert failing[0]["claim"] == "factored identity for (2,4,6)"


def test_verify_text_summary_line(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == cli.CHECK_FAILED
    assert out.strip().endswith("checks passed --")


def test_verify_claims_are_unique_within_each_report():
    # a claim checked twice in one report is a claim with two homes; the
    # dihedral pairs run cyclically, so each letter's involution is one
    # check of its own
    claims = {}
    for rep in cli.build_verify_reports():
        names = [c.claim for c in rep.checks]
        assert len(set(names)) == len(names), rep.title
        claims[rep.title] = names
    assert {f"{m}^2 = e" for m in box.LETTERS} <= set(
        claims["dihedral letter pairs"])


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        cli.main(["bogus"])


# sha256 of `varikon verify` stdout, text and JSON. Sets in the report are
# printed sorted, so the output is the same under any PYTHONHASHSEED.
VERIFY_SHA256 = {
    "text": "9c06e0d99e4c8219d6d2b0707054c583db5b9b078ab63191960740c031465f80",
    "json": "e23ac4fddb0fed89444dab6770885e5d6b684014e7c2495d9bf8955113c24664",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_SHA256))
def test_verify_output_is_deterministic(fmt):
    src = str(Path(varikon.__file__).resolve().parents[1])
    procs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "varikon", "verify", "--format", fmt],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == cli.CHECK_FAILED, err.decode()
        outs.append(out)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == VERIFY_SHA256[fmt]


def test_closed_stdout_prints_no_traceback():
    # stdout is a pipe whose reader left before the first write, so the
    # flush raises BrokenPipeError whatever the output's size (`varikon
    # verify | head -1` gets there only when the output outgrows the pipe
    # buffer). enumerate exits 0 when its output is read, so its 1 here
    # comes from cli.main's handler, as verify's must
    src = str(Path(varikon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("enumerate", "verify"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "varikon", command],
                                  env=env, stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.CHECK_FAILED, (command, proc.stderr)
        assert proc.stderr == b"", command


def test_cli_import_pulls_in_no_heavy_modules():
    # every cold `varikon` process pays for what cli imports; -S keeps the
    # interpreter's site hooks out of the check. box's module-level
    # constants (the rotations, the solve targets) must not build the rank
    # format's tables, its shared ranks or the move rows either, so the
    # three caches stay empty
    src = str(Path(varikon.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import varikon.cli; "
            "from varikon import box; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& sys.modules.keys()), box._lex_sequences.cache_info().currsize, "
            "box.ranks.cache_info().currsize, "
            "box.move_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[] 0 0 0\n"


def test_verify_builds_each_table_once(distance_table):
    # verify stays in rank space on one distance table: no tuple
    # enumeration, and the kernel is built once and shared
    build = mock.Mock(return_value=distance_table)
    kernel = mock.Mock(wraps=groups.subgroup_K)
    enumerate_ = mock.Mock(wraps=box.enumerate_reachable)
    with mock.patch.object(groups, "build_distance_table", build), \
            mock.patch.object(groups, "subgroup_K", kernel), \
            mock.patch.object(box, "enumerate_reachable", enumerate_):
        cli.build_verify_reports()
    assert (build.call_count, kernel.call_count,
            enumerate_.call_count) == (1, 1, 0)


def test_verify_does_no_per_element_permutation_work():
    # parity and compose are per-permutation Python calls: a verify pass
    # reads parity off Lehmer codes and closes generator sets with the
    # word tables' bytes.translate search, so only the word tables' own
    # products remain
    parity = mock.Mock(wraps=perm.parity)
    compose = mock.Mock(wraps=perm.compose)
    with mock.patch.object(perm, "parity", parity), \
            mock.patch.object(perm, "compose", compose):
        cli.build_verify_reports()
    assert parity.call_count <= 16
    assert compose.call_count <= 3000


def test_verify_does_no_per_rank_config_work():
    # the table is filled over ranks and the kernel read as block 7's
    # sequences, so configs are built only for the handful of named
    # elements, and the table's fill reads no perm.bfs tree
    unrank = mock.Mock(wraps=box.unrank)
    piece_perm = mock.Mock(wraps=box.piece_perm)
    with mock.patch.object(box, "unrank", unrank), \
            mock.patch.object(box, "piece_perm", piece_perm):
        cli.build_verify_reports()
    assert unrank.call_count <= 50
    assert piece_perm.call_count <= 20
    bfs = mock.Mock(wraps=perm.bfs)
    with mock.patch.object(perm, "bfs", bfs):
        groups.DistanceTable()
    assert bfs.call_count == 0


def test_heuristic_solve_builds_no_distance_table(capsys):
    # a cold heuristic solve must not pay for the 20,160-rank table
    build = mock.Mock(side_effect=AssertionError("distance table built"))
    with mock.patch.object(groups, "build_distance_table", build):
        for method in ("a6", "a5"):
            for target in ("strict", "center", "rotation"):
                code, out, _ = run(capsys, "solve", "--random", "--seed",
                                   "4", "--method", method, "--target",
                                   target)
                assert code == cli.OK
                assert json.loads(out)["method"] == f"heuristic-{method}"
    assert build.call_count == 0


@pytest.mark.parametrize("target", solver.MODES)
def test_optimal_solve_builds_no_word_table(capsys, mode_tables, box_solver,
                                            target):
    # --method optimal reads the mode's distance table alone, and answers
    # as the full solver does
    build = mock.Mock(side_effect=AssertionError("word table built"))
    with mock.patch.object(words, "build_table", build), \
            mock.patch.object(groups, "build_distance_table",
                              lambda mode="strict": mode_tables[mode]):
        code, out, err = run(capsys, "solve", "--random", "--seed", "6",
                             "--method", "optimal", "--target", target)
    assert (code, err, build.call_count) == (cli.OK, "", 0)
    config = box.random_reachable(6)
    sol = box_solver.solve_optimal(config, target)
    assert json.loads(out) == {
        "config": box.format_config(config), "method": "optimal",
        "moves": sol.moves, "total": sol.total,
        "phases": [{"label": "optimal", "word": sol.moves,
                    "length": sol.total}],
        "target": box.format_config(sol.target)}


# Exit-code contract: 0 ok, 1 check failed, 2 input error (returned, or
# raised as SystemExit by argparse); no other exception escapes.
_TOKENS = st.one_of(
    st.sampled_from(["_", "0", "1", "2", "3", "7", "8", "15", "16", "-1",
                     "+3", "1_0", "\u0661", "\uff13", "x", " 4 ", ""]),
    st.text(max_size=3))
_BOARDS = st.one_of(
    st.lists(_TOKENS, max_size=17).map(",".join),
    st.permutations("1234567_").map(",".join),
    st.permutations([str(i) for i in range(1, 16)] + ["_"]).map(",".join),
    st.text(max_size=20))
_SOLVE_FLAGS = st.lists(st.sampled_from([
    ("--random",), ("--seed", "5"), ("--seed", "x"), ("--seed", "-3"),
    ("--seed", "\uff13"), ("--method", "a6"),
    ("--method", "a5"), ("--method", "optimal"), ("--method", "bogus"),
    ("--target", "center"), ("--target", "rotation"), ("--target", "strict"),
    ("--bogus",)]), max_size=3)


def _exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == cli.INPUT_ERROR, argv
    assert code in (cli.OK, cli.CHECK_FAILED, cli.INPUT_ERROR), argv
    if code == cli.OK:
        json.loads(out.getvalue())
    if code == cli.INPUT_ERROR:
        assert out.getvalue() == "" and "error:" in err.getvalue(), argv


@settings(max_examples=150, deadline=None)
@given(_BOARDS, _SOLVE_FLAGS)
def test_solve_exit_code_contract(mode_tables, text, flags):
    argv = ["solve", text] + [arg for flag in flags for arg in flag]
    # optimal solves would otherwise rebuild the mode's table each time
    with mock.patch.object(groups, "build_distance_table",
                           lambda mode="strict": mode_tables[mode]):
        _exit_code_contract(argv)


@settings(max_examples=150, deadline=None)
@given(_BOARDS)
def test_fifteen_check_exit_code_contract(text):
    _exit_code_contract(["fifteen", "--check", text])
