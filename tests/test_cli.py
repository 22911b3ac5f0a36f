import json
import os
import subprocess
import sys

import jsonschema

import conich1
from conich1.cli import EXIT_FAILED, EXIT_OK, EXIT_USAGE, REPORT_SCHEMA, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    if report is not None:
        jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


def test_eval_normal_form(capsys):
    code, rep = run(capsys, "eval", "-n", "4", "(1,2) c1")
    assert code == EXIT_OK
    assert rep["result"]["normal_form"] == "c2 (1,2)"
    assert rep["result"]["sigma"] == -1
    assert no_floats(rep)


def test_eval_parse_error_exit_2(capsys):
    code, _ = run(capsys, "eval", "-n", "4", "c9")
    assert code == EXIT_USAGE


def test_h1_worked_example(capsys):
    code, rep = run(capsys, "h1", "-n", "6", "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6")
    assert code == EXIT_OK
    assert rep["result"]["h1_rank"] == 1
    assert rep["result"]["agree"] is True
    assert no_floats(rep)


def test_h1_methods(capsys):
    for method, rank in [("oracle", 2), ("halfsum", 2), ("cyclic", 2)]:
        code, rep = run(capsys, "h1", "-n", "4", "--method", method, "c1 c2 c3 c4")
        assert code == EXIT_OK
        assert rep["result"]["f2_rank"] == rank


def test_check_passing_group(capsys):
    code, rep = run(capsys, "check", "-n", "4", "c1 c2 c3 c4 (2,3)", "(1,2,3)")
    assert code == EXIT_OK
    assert rep["result"]["all_conditions"] is True


def test_check_failing_group_exit_1(capsys):
    code, rep = run(capsys, "check", "-n", "4", "c1 c2 c3 c4")
    assert code == EXIT_FAILED
    assert rep["result"]["all_conditions"] is False


def test_class_command(capsys):
    code, rep = run(capsys, "class", "--id", "2", "--p", "5", "--r", "1")
    assert code == EXIT_OK
    assert rep["result"]["verified"] is True
    assert rep["result"]["orbit_profile"] == [5, 1]


def test_class_command_bad_params(capsys):
    code, _ = run(capsys, "class", "--id", "2", "--p", "4", "--r", "1")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "class", "--id", "1")
    assert code == EXIT_USAGE


def test_project_command(capsys):
    code, rep = run(capsys, "project", "-n", "4", "--orbit", "1", "c1 c2 c3 c4 (2,3)", "(1,2,3)")
    assert code == EXIT_OK
    assert rep["result"]["rank"] == 4
    assert rep["result"]["appended_flag"] is True
    assert rep["result"]["order"] == 6


def test_enumerate_command(capsys):
    code, rep = run(capsys, "enumerate", "-n", "4")
    assert code == EXIT_OK
    assert rep["result"]["count"] == 1
    assert rep["result"]["entries"][0]["class_id"] == 1
    assert no_floats(rep)


def test_invariant_checks_survive_python_O(capsys):
    # -O strips asserts; the invariants must be explicit exceptions
    src = os.path.dirname(os.path.dirname(os.path.abspath(conich1.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, code in [
        (["enumerate", "-n", "4", "--mode", "generator_guided"], EXIT_OK),
        (["check", "-n", "4", "c1 c2 c3 c4"], EXIT_FAILED),
    ]:
        assert main(argv) == code
        in_process = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "conich1.cli", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == in_process


def test_verify_tables_command(capsys):
    code, rep = run(capsys, "verify-tables", "-n", "8")
    assert code == EXIT_OK
    assert rep["result"]["all_ok"] is True
    assert len(rep["result"]["rows"]) == 4


def test_determinism_byte_identical(capsys):
    out = []
    for _ in range(2):
        code = main(["h1", "-n", "5", "c1 c2 (2,3)", "(1,2,3)"])
        assert code == EXIT_OK
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_usage_exit_2(capsys):
    assert main(["bogus-command"]) == EXIT_USAGE


def test_enumerate_determinism(capsys):
    outs = []
    for _ in range(2):
        assert main(["enumerate", "-n", "4", "--mode", "generator_guided"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
