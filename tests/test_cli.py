import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

import conich1
from conich1 import classes, cli, enumeration
from conich1.cli import EXIT_FAILED, EXIT_OK, EXIT_USAGE, MAX_RANK, REPORT_SCHEMA, main


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


def test_h1_cyclic_counts_its_generators_before_closing_the_group(capsys, monkeypatch):
    # the two generators span S_9, whose 9! elements are above the closure cap
    def no_closure(*args, **kwargs):
        raise AssertionError("closure called")

    monkeypatch.setattr(cli, "closure", no_closure)
    assert main(["h1", "-n", "9", "--method", "cyclic", "(1,2)", "(1,2,3,4,5,6,7,8,9)"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--method cyclic needs exactly one generator" in captured.err


def test_h1_halfsum_search_leaves_out_zero_orbits_and_refuses_large_nullspaces(capsys):
    # a transposition at rank 64 leaves 62 fixed indices, each an orbit with
    # a zero column sum, which the half-sum search leaves out
    start = time.perf_counter()
    code, rep = run(capsys, "h1", "-n", "64", "(1,64)")
    assert code == EXIT_OK and time.perf_counter() - start < 10
    assert rep["result"]["agree"] is True and rep["result"]["h1_rank"] == 0
    # twenty single flips leave a parity nullspace of dimension 19, whose
    # 2^19 combinations the search refuses, naming the oracle
    flips = " ".join(f"c{j}" for j in range(1, 21))
    for method in ("cross", "halfsum"):
        assert main(["h1", "-n", "20", "--method", method, flips]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--method oracle" in captured.err
    code, rep = run(capsys, "h1", "-n", "20", "--method", "oracle", flips)
    assert code == EXIT_OK


def test_check_passing_group(capsys):
    code, rep = run(capsys, "check", "-n", "4", "c1 c2 c3 c4 (2,3)", "(1,2,3)")
    assert code == EXIT_OK
    assert rep["result"]["all_conditions"] is True


def test_check_failing_group_exit_1(capsys):
    code, rep = run(capsys, "check", "-n", "4", "c1 c2 c3 c4")
    assert code == EXIT_FAILED
    assert rep["result"]["all_conditions"] is False


def test_check_undecided_above_the_bound_exit_2(capsys):
    # the flip-free Sylow 2-subgroup of S_16, of order 32,768: no cyclic
    # subgroup fails, and (H1) is not decided above the subgroup bound
    gens = ["(1,2)", "(1,3)(2,4)", "(1,5)(2,6)(3,7)(4,8)", "(1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)(8,16)"]
    assert main(["check", "-n", "16", *gens]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not decided above the subgroup bound 2000" in captured.err


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
    # a parameter the family does not take is refused, not dropped, and
    # named as such also when it is above MAX_RANK
    for n in ("3", "100"):
        assert main(["class", "--id", "2", "--p", "5", "--r", "1", "--n", n]) == EXIT_USAGE, n
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("class 2 needs parameters ('p', 'r'), got ['n', 'p', 'r']\n"), n


def test_class_command_refuses_unknown_id_and_rank_above_max(capsys, monkeypatch):
    # both are refused with exit 2 before any generator is built
    def no_generators(*args, **kwargs):
        raise AssertionError("class_generators called")

    monkeypatch.setattr(classes, "class_generators", no_generators)
    for argv in (["--id", "0"], ["--id", "99", "--n", "1"]):
        assert main(["class", *argv]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "class id must be 1..24" in captured.err, argv
    for r, rank in (("4", 82), ("6", 730), ("9", 19684)):
        assert main(["class", "--id", "2", "--p", "3", "--r", r]) == EXIT_USAGE, r
        captured = capsys.readouterr()
        assert captured.out == "", r
        assert f"rank n must be at most {MAX_RANK}, got {rank}" in captured.err, r
    monkeypatch.undo()
    code, rep = run(capsys, "class", "--id", "2", "--p", "61", "--r", "1")
    assert code == EXIT_OK
    assert rep["result"]["rank"] == 62 and rep["result"]["verified"] is True


def test_class_command_refuses_a_parameter_above_max_rank_at_once(capsys, monkeypatch):
    # every family's rank exceeds each of its parameters, so a parameter
    # above MAX_RANK is refused before the rank or any generator is computed
    def no_generators(*args, **kwargs):
        raise AssertionError("class_generators called")

    monkeypatch.setattr(classes, "class_generators", no_generators)
    for argv, key, val in (
        (["--id", "2", "--p", "3", "--r", "100000"], "r", 100000),
        (["--id", "1", "--n", "100000000"], "n", 100000000),
        (["--id", "23", "--n", "2000000"], "n", 2000000),
        (["--id", "2", "--p", "1000003", "--r", "1"], "p", 1000003),
    ):
        start = time.process_time()
        assert main(["class", *argv]) == EXIT_USAGE, argv
        assert time.process_time() - start < 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"parameter {key} must be at most MAX_RANK = {MAX_RANK}, got {val}" in captured.err, argv


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


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI query is a fresh process, so start-up is part of its cost;
    # dataclasses (which pulls in inspect) and its generated code would be most of it
    src = os.path.dirname(os.path.dirname(os.path.abspath(conich1.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, conich1, conich1.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S: a site hook (a .pth file of some installed package) may import either module itself
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


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


# exit code and sha256 of the stdout of each CLI command in the README, of
# enumerate -n 4/5 in both modes, of verify-tables -n 4..9, of two failing
# checks and of the report paths no README command reaches; a change to any
# of these reports must come with new digests here
FROZEN_REPORTS = [
    (["eval", "-n", "4", "(1,2) c1"], EXIT_OK, "932c2789a54137ab4a8ae3cc8a41ac7ce607fc3687dc34785b0e82cf80c5a439"),
    # sigma = 1, so the report holds the phi rows
    (["eval", "-n", "4", "c1 c2 (1,2,3)"], EXIT_OK, "f9459ece292b0b4e93af3c51cc239a73a82cee257f62b2bc3ae7c537cb708fba"),
    (["h1", "-n", "6", "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"], EXIT_OK, "40c6b681e1b73c07483c6066d88ec3c36988c172a72b48aa97bcb55b5ba59930"),
    # --method oracle and halfsum print one H1Report at the top level, not nested in the cross report
    (["h1", "-n", "6", "--method", "oracle", "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"], EXIT_OK, "aae9e0be3830152bc02ad76013997f35e58ef000e2898bdea48dc8f303ae2bf9"),
    (["h1", "-n", "6", "--method", "halfsum", "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"], EXIT_OK, "7978642d3452ba8771c5fa66d77c396508b715f7050a859098a39109bacc844a"),
    (["h1", "-n", "4", "--method", "cyclic", "c1 c2 c3 c4"], EXIT_OK, "12dc387a845244d49e1f33bb37d370e4e95c0324f2f3232eb3f58d65e113fe8a"),
    (["check", "-n", "4", "c1 c2 c3 c4 (2,3)", "(1,2,3)"], EXIT_OK, "8d0474ade8973e55ac53407bc868a117dd89209d05e2a49d78267d596a6b5beb"),
    (["class", "--id", "2", "--p", "5", "--r", "1"], EXIT_OK, "04a575d308083449ec00d3898fd813d1096ae2a08d74f1b4ba2c06384b577d14"),
    (["project", "-n", "4", "--orbit", "1", "c1 c2 c3 c4 (2,3)", "(1,2,3)"], EXIT_OK, "67e2518cdef2f03c3d6f3c097e3dd7832229e37b5d7ba6d63816b220de8ae9fc"),
    (["enumerate", "-n", "5"], EXIT_OK, "7d9539b670bb9206c4cc899df622a8c2f4d881071b1dbedccf3ce110829745e7"),
    (["verify-tables", "-n", "9"], EXIT_OK, "7663a265046c6f40ebc2faaa1c48bf2fbc2e47f748226028e84e5ebceddde836"),
    (["enumerate", "-n", "4", "--mode", "full"], EXIT_OK, "215c1bc01835982143621da8c26629047dbbe53464a793ae39bd2bdfada33c82"),
    (["enumerate", "-n", "4", "--mode", "generator_guided"], EXIT_OK, "99cba65b25ce3494980f33c0786a4c0fd3af9747d49fc45c990a12aa68e1e6ff"),
    (["enumerate", "-n", "5", "--mode", "generator_guided"], EXIT_OK, "6283223b95842db4ace64c66492d2d11dfda61de4125d231790e7e91ab140127"),
    (["verify-tables", "-n", "4"], EXIT_OK, "e3a95bb212526acf911cb83b7a5bfea31bfb78638caa5baed40160e3924f2be5"),
    (["verify-tables", "-n", "5"], EXIT_OK, "c66b2b34169d73be115ce3cc4f548099161dc5095fad87d10fe0b14f2230121b"),
    (["verify-tables", "-n", "6"], EXIT_OK, "7b88f36b382940bf6863cffe6534a802508902647bf4e659e743a77e48b5a68f"),
    (["verify-tables", "-n", "7"], EXIT_OK, "49977ac158d78ca98263de9c8ee1944277dbee5b53afe4ff7990a27ca52d4759"),
    (["verify-tables", "-n", "8"], EXIT_OK, "63035f6d37b37978edeb33b30ce6eba4c0c1609b12083b0490f77f72626d18fe"),
    (["check", "-n", "4", "c1 c2 c3 c4"], EXIT_FAILED, "4de642e0b49f7559fe94ef30ecc235a1fb60192a87cb6e5b93084811b7a8c4b6"),
    (["check", "-n", "4", "c1 c2", "c3 c4 (1,2)"], EXIT_FAILED, "ca670484f241f0f6b28b8241c830a9e8023d88d39c0fab2894c8f99c0ad91492"),
    # an identity generator, which the group's stored generators still hold
    (["h1", "-n", "6", "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6", "(1,2)(1,2)"], EXIT_OK, "9aaf68b7fec52f82ed558998fdef3e5d86a190127729f0dc4ab15b1e07451a34"),
    # a 2-group of order 16,384, above the subgroup bound: the cyclic scan finds a witness of order 2
    (
        ["check", "-n", "8", "(1,2)", "(1,3)(2,4)", "(1,5)(2,6)(3,7)(4,8)", "c1 c2", "c3 c4", "c5 c6", "c7 c8", "c1 c3", "c1 c5"],
        EXIT_FAILED,
        "c9fb05b9a1358bfa347fd1a022be575c1ee4c3ee18f287c517aa333c62c57c1e",
    ),
]


def test_readme_reports_are_frozen(capsys, monkeypatch, full_lattice):
    # enumerate -n 4/5 --mode full read the memoized lattices instead of building them again
    monkeypatch.setattr(enumeration, "_enumerate_full", full_lattice)
    for argv, code, digest in FROZEN_REPORTS:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _leading_literal(text):
    # the longest prefix of text that is a Python literal
    for end in range(len(text), 0, -1):
        try:
            return ast.literal_eval(text[:end])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"no literal starts {text!r}")


def test_readme_library_block_values():
    # run the README's ## Library block: every `expr  # value` line must
    # evaluate to the literal its comment starts with
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    checked = []
    for line in block.splitlines():
        expr, _, comment = line.partition("  # ")
        if not comment:
            exec(line, namespace)
            continue
        value, expected = eval(expr, namespace), _leading_literal(comment.strip())
        assert value == expected and type(value) is type(expected), line
        checked.append(expected)
    assert checked == [(2,), ((5, 6), (1, 2, 3, 4)), False]


def test_rank_below_1_exit_2(capsys):
    # every -n refuses n < 1 at parse time: exit 2, nothing on stdout
    for n in ("0", "-1"):
        for argv in (
            ["eval", "-n", n, ""],
            ["h1", "-n", n, ""],
            ["check", "-n", n, ""],
            ["project", "-n", n, "--orbit", "1", ""],
            ["enumerate", "-n", n],
            ["verify-tables", "-n", n],
        ):
            assert main(argv) == EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert f"rank n must be at least 1, got {n}" in captured.err, argv
    # ranks the enumeration modes do not support name the supported range
    for mode, supported in (("full", "2 <= n <= 5"), ("generator_guided", "2 <= n <= 7")):
        assert main(["enumerate", "-n", "1", "--mode", mode]) == EXIT_USAGE
        assert f"{mode} mode supports {supported}" in capsys.readouterr().err


def test_rank_above_max_exit_2(capsys):
    # every -n refuses n > MAX_RANK at parse time, naming the bound; MAX_RANK itself runs
    for argv in (
        ["eval", "-n", "65", ""],
        ["h1", "-n", "65", ""],
        ["check", "-n", "65", ""],
        ["project", "-n", "65", "--orbit", "1", ""],
        ["enumerate", "-n", "65"],
        ["verify-tables", "-n", "65"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"rank n must be at most {MAX_RANK}, got 65" in captured.err, argv
    assert MAX_RANK == 64 and main(["eval", "-n", "64", "(1,2)"]) == EXIT_OK
