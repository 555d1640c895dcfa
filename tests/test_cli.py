"""Command-line surface: output shapes and exit codes."""

import json

import pytest

from varikon import cli


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


def test_solve_unreachable_config(capsys):
    code, out, err = run(capsys, "solve", "1,2,3,4,6,5,7,_")
    assert code == cli.INPUT_ERROR
    assert out == ""
    assert "unreachable" in err


def test_solve_malformed_config(capsys):
    code, _, err = run(capsys, "solve", "1,2,bogus")
    assert code == cli.INPUT_ERROR
    assert "error" in err


def test_solve_needs_a_config_or_random(capsys):
    code, _, err = run(capsys, "solve")
    assert code == cli.INPUT_ERROR
    assert "config" in err


@pytest.mark.parametrize("target", ("center", "rotation"))
def test_solve_optimal_rejects_a_non_strict_target(capsys, target):
    code, out, err = run(capsys, "solve", "--random", "--seed", "1",
                         "--method", "optimal", "--target", target)
    assert code == cli.INPUT_ERROR
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    code, out, _ = run(capsys, "solve", "--random", "--seed", "1",
                       "--method", "optimal", "--target", "strict")
    assert code == cli.OK
    assert json.loads(out)["method"] == "optimal"


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


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        cli.main(["bogus"])
