import hashlib
import json
import os
import subprocess
import sys

import jsonschema

import conich1
from conich1 import enumeration
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
        (["check", "-n", "4", "c1 c2 c3 c4"], EXIT_FAILED),  # decided by the cyclic closed form
        (["check", "-n", "4", "c1 c2", "c3 c4 (1,2)"], EXIT_FAILED),  # a Klein four-group, by the oracle
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


# sha256 of the stdout of each CLI command in the README; a change to any
# report of these commands must come with new digests here
README_REPORTS = [
    (["eval", "-n", "4", "(1,2) c1"], "932c2789a54137ab4a8ae3cc8a41ac7ce607fc3687dc34785b0e82cf80c5a439"),
    (["h1", "-n", "6", "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"], "40c6b681e1b73c07483c6066d88ec3c36988c172a72b48aa97bcb55b5ba59930"),
    (["h1", "-n", "4", "--method", "cyclic", "c1 c2 c3 c4"], "12dc387a845244d49e1f33bb37d370e4e95c0324f2f3232eb3f58d65e113fe8a"),
    (["check", "-n", "4", "c1 c2 c3 c4 (2,3)", "(1,2,3)"], "8d0474ade8973e55ac53407bc868a117dd89209d05e2a49d78267d596a6b5beb"),
    (["class", "--id", "2", "--p", "5", "--r", "1"], "04a575d308083449ec00d3898fd813d1096ae2a08d74f1b4ba2c06384b577d14"),
    (["project", "-n", "4", "--orbit", "1", "c1 c2 c3 c4 (2,3)", "(1,2,3)"], "67e2518cdef2f03c3d6f3c097e3dd7832229e37b5d7ba6d63816b220de8ae9fc"),
    (["enumerate", "-n", "5"], "3121abf263aa9108978cbe162c32702adf0ade45e5ad1d13d750753aae1c7139"),
    (["verify-tables", "-n", "9"], "7663a265046c6f40ebc2faaa1c48bf2fbc2e47f748226028e84e5ebceddde836"),
]


def test_readme_reports_are_frozen(capsys, monkeypatch, full_lattice):
    # enumerate -n 5 reads the memoized rank-5 lattice instead of building it again
    monkeypatch.setattr(enumeration, "_enumerate_full", full_lattice)
    for argv, digest in README_REPORTS:
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
