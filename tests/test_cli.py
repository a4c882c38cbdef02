import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpchoice
from gpchoice import make_problem, serialize_problem
from gpchoice.cli import build_parser, main
from helpers import (
    PROBLEM_DIR,
    cli_faults,
    fuzz_cases,
    large_coefficient_gp,
    stalled_choice_gp,
)

EX1_CASE1 = str(PROBLEM_DIR / "example1_case1.json")
EX2_CASE6 = str(PROBLEM_DIR / "example2_case6.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_doc(out):
    doc = json.loads(out)
    assert isinstance(doc, dict)
    return doc


class TestSolveCommand:
    def test_example1_text_report(self, capsys):
        code, out, _ = run(capsys, "solve", EX1_CASE1)
        assert code == 0
        assert "z: 11.01098" in out
        assert "c = 1 " in out and "p = -1 " in out and "a = 1 " in out

    def test_example2_text_report(self, capsys):
        code, out, _ = run(capsys, "solve", EX2_CASE6)
        assert code == 0
        assert "z: 50.60611" in out
        assert "p = -3 " in out

    def test_machine_report_shape_and_values(self, capsys):
        code, out, _ = run(capsys, "solve", EX1_CASE1, "--format", "machine")
        assert code == 0
        doc = machine_doc(out)
        assert set(doc) == {
            "status", "z", "x", "w", "lambda", "gap", "chosen", "timing_ms",
        }
        assert doc["status"] == "optimal"
        assert round(doc["z"], 4) == 11.011
        assert doc["chosen"]["c"]["value"] == 1.0
        assert doc["chosen"]["p"]["value"] == -1.0
        assert doc["chosen"]["a"]["value"] == 1.0
        assert len(doc["x"]) == 2 and len(doc["w"]) == 5

    def test_machine_report_round_trips(self, capsys):
        _, out, _ = run(capsys, "solve", EX1_CASE1, "--format", "machine")
        doc = machine_doc(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_machine_report_is_stable_across_runs(self, capsys):
        _, first, _ = run(capsys, "solve", EX1_CASE1, "--format", "machine")
        _, second, _ = run(capsys, "solve", EX1_CASE1, "--format", "machine")
        a, b = json.loads(first), json.loads(second)
        a.pop("timing_ms"), b.pop("timing_ms")  # wall clock differs by nature
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_all_assignments_table_has_27_rows(self, capsys):
        code, out, _ = run(
            capsys, "solve", EX1_CASE1, "--all-assignments", "--format", "machine"
        )
        assert code == 0
        doc = machine_doc(out)
        assert len(doc["assignments"]) == 27

    # the stationarity tolerance is a constant: every --tolerance, the once
    # accepted 1e-4 (which ended example 1 "optimal" at z = 18.795418)
    # included, is an unknown option
    @pytest.mark.parametrize("command", ["solve", "dual"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc", "1e-4"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, EX1_CASE1, "--tolerance", value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"unrecognized arguments: --tolerance {value}" in captured.err

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "no_such_file.json")
        assert code == 2
        assert out == ""
        assert err == "error: no such file: no_such_file.json\n"

    # a file without read permission raises an OSError as a directory does,
    # but cannot be tested when the tests run as root, who may read any file
    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_file_exits_2_with_one_line(self, capsys, tmp_path, kind):
        path = tmp_path / "problem.json"
        if kind == "directory":
            path.mkdir()
            expected = f"error: cannot read {path}: "
        else:
            path.write_bytes(b"\xff\xfe\x00")
            expected = f"error: {path}: not UTF-8 text"
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(expected) and err.count("\n") == 1

    def test_empty_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""

    def test_undefined_set_exits_3_and_names_it(self, capsys, tmp_path):
        doc = json.loads((PROBLEM_DIR / "example1_case1.json").read_text())
        doc["candidate_sets"] = doc["candidate_sets"][:2]  # drop set "a"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert "a" in err

    def test_repeated_key_exits_3_and_names_it(self, capsys, tmp_path):
        # refused even where both values are equal
        line = '"format": "gp-problem/1",'
        text = (PROBLEM_DIR / "example1_case1.json").read_text()
        path = tmp_path / "repeated.json"
        path.write_text(text.replace(line, line * 2, 1))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: key 'format' appears more than once in one object\n"

    def test_plain_problem_without_sets(self, capsys, tmp_path):
        doc = json.loads((PROBLEM_DIR / "example1_case1.json").read_text())
        doc["objective"][0]["coefficient"] = 1
        doc["objective"][0]["exponents"]["x1"] = -1
        doc["constraints"][0]["terms"][0]["coefficient"] = 1
        del doc["candidate_sets"]
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "z: 11.01098" in out

    def test_enumeration_past_the_cap_exits_3(self, capsys, monkeypatch):
        # example1_case1 has 27 combinations
        monkeypatch.setattr(gpchoice.selectors, "_COMBINATION_CAP", 26)
        code, out, err = run(capsys, "solve", EX1_CASE1)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceed the cap of 26" in err

    def test_solve_validates_the_template_once(self, capsys, monkeypatch):
        # solve_choice's compile validates the template; the command does not
        # validate it again before
        seen, original = [], gpchoice.selectors.validate_choice_gp

        def spy(cg):
            seen.append(cg)
            return original(cg)

        monkeypatch.setattr(gpchoice.selectors, "validate_choice_gp", spy)
        code, _, _ = run(capsys, "solve", EX1_CASE1)
        assert code == 0
        assert len(seen) == 1

    def test_unreachable_tolerance_exits_5_with_residuals(self, capsys, tmp_path):
        # the free-variable problem min x + 1/x s.t. y + y^2 <= 1 stalls
        # (ROADMAP item 1)
        path = tmp_path / "free.json"
        g = make_problem([(1, (1, 0)), (1, (-1, 0))],
                         [([(1, (0, 1)), (1, (0, 2))], 1.0)])
        path.write_text(json.dumps(serialize_problem(g)))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 5
        assert "iteration_limit" in out
        assert "stationarity" in err

    # a stalled expansion that may beat the winner blocks the choice, in
    # both enumeration modes; one above the winner is excluded
    @pytest.mark.parametrize("kind, code", [("wrong winner", 5),
                                            ("wrong infeasible", 5),
                                            ("excluded", 0)])
    @pytest.mark.parametrize("flags", [(), ("--all-assignments",)])
    def test_stalled_expansions_set_the_exit_code(self, capsys, tmp_path, kind,
                                                  code, flags):
        path = tmp_path / "stalled.json"
        path.write_text(json.dumps(serialize_problem(stalled_choice_gp(kind))))
        got, out, err = run(capsys, "solve", str(path), "--format", "machine", *flags)
        assert got == code
        assert machine_doc(out)["status"] == ("optimal" if code == 0 else
                                              "iteration_limit")
        assert ("stationarity" in err) is (code == 5)

    @pytest.mark.parametrize("kind", ["wrong winner", "excluded"])
    def test_a_stalled_row_prints_no_z(self, capsys, tmp_path, kind):
        path = tmp_path / "stalled.json"
        path.write_text(json.dumps(serialize_problem(stalled_choice_gp(kind))))
        _, out, _ = run(capsys, "solve", str(path), "--all-assignments")
        assert "  [10] iteration_limit z=-\n" in out
        _, out, _ = run(capsys, "solve", str(path), "--all-assignments",
                        "--format", "machine")
        row = machine_doc(out)["assignments"][0]
        assert row["bits"] == ["10"]
        assert (row["status"], row["z"]) == ("iteration_limit", None)

    def test_underflowing_primal_exits_5(self, capsys, tmp_path):
        # min x^0.01 + 1e-20 / x^0.01: the optimal x = 1e-1000 underflows
        doc = {
            "format": "gp-problem/1",
            "variables": ["x"],
            "objective": [{"coefficient": 1, "exponents": {"x": 0.01}},
                          {"coefficient": 1e-20, "exponents": {"x": -0.01}}],
            "constraints": [],
        }
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path), "--format", "machine")
        assert code == 5
        assert machine_doc(out)["status"] == "iteration_limit"
        assert "did not converge" in err

    def test_underflowing_dual_value_exits_5_without_a_warning(self, tmp_path):
        # min 1e-300 x s.t. 1e-30 / x <= 1: the dual value 1e-330 is 0 in
        # doubles; the report says so, and stderr carries no numpy warning
        doc = {
            "format": "gp-problem/1",
            "variables": ["x"],
            "objective": [{"coefficient": 1e-300, "exponents": {"x": 1}}],
            "constraints": [
                {"terms": [{"coefficient": 1e-30, "exponents": {"x": -1}}],
                 "bound": 1}
            ],
        }
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(doc))
        src = Path(gpchoice.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-m", "gpchoice.cli", "solve", str(path),
             "--format", "machine"],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        assert out.returncode == 5
        assert machine_doc(out.stdout)["status"] == "iteration_limit"
        assert "Warning" not in out.stderr
        assert "did not converge" in out.stderr

    # ROADMAP item 11: a valid GP that used to end in GpDomainError, exit 3
    @pytest.mark.parametrize("command", ["solve", "dual"])
    def test_large_coefficient_gp_never_exits_3(self, capsys, tmp_path, command):
        path = tmp_path / "large.json"
        path.write_text(json.dumps(serialize_problem(large_coefficient_gp())))
        code, out, err = run(capsys, command, str(path), "--format", "machine")
        assert code in (0, 5)
        assert machine_doc(out)["status"] == ("optimal" if code == 0
                                              else "iteration_limit")
        assert "error" not in err

    def test_infeasible_problem_exits_4(self, capsys, tmp_path):
        doc = {
            "format": "gp-problem/1",
            "variables": ["x1", "x2"],
            "objective": [{"coefficient": 1, "exponents": {"x1": 1, "x2": 1}}],
            "constraints": [
                {"terms": [{"coefficient": 1, "exponents": {"x1": 1, "x2": 1}}],
                 "bound": 1}
            ],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", str(path), "--format", "machine")
        assert code == 4
        doc_out = machine_doc(out)
        assert doc_out["status"] in ("infeasible", "unbounded")
        assert doc_out["z"] is None


class TestDualCommand:
    def test_example1_rows_and_weights(self, capsys):
        code, out, _ = run(
            capsys, "dual", EX1_CASE1,
            "--assign", "c=01", "--assign", "p=10", "--assign", "a=01",
        )
        assert code == 0
        assert "w01 + w02 + w03 = 1" in out
        assert "-w01 + w03 + w11 = 0" in out
        assert "-3*w02 + w03 + w12 = 0" in out
        assert "w01 = 0.4387805" in out
        assert "dual value: 11.01098" in out

    def test_single_monomial_objective_gives_unit_weight(self, capsys, tmp_path):
        doc = {
            "format": "gp-problem/1",
            "variables": ["x1"],
            "objective": [{"coefficient": 5, "exponents": {"x1": 0}}],
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dual", str(path))
        assert code == 0
        assert "w01 = 1" in out

    def test_invalid_bit_pattern_exits_3(self, capsys):
        code, out, err = run(
            capsys, "dual", EX1_CASE1,
            "--assign", "c=11", "--assign", "p=10", "--assign", "a=01",
        )
        assert code == 3
        assert out == ""
        assert "c" in err

    def test_missing_assignment_exits_3(self, capsys):
        code, _, err = run(capsys, "dual", EX1_CASE1, "--assign", "c=01")
        assert code == 3
        assert "p" in err or "assign" in err

    def test_unknown_set_name_exits_3(self, capsys):
        code, _, err = run(
            capsys, "dual", EX1_CASE1,
            "--assign", "c=01", "--assign", "p=10", "--assign", "a=01",
            "--assign", "zz=00",
        )
        assert code == 3
        assert "zz" in err

    def test_inadmissible_bits_on_a_singleton_set_exit_3(self, capsys, tmp_path):
        doc = json.loads((PROBLEM_DIR / "example1_case1.json").read_text())
        for cs in doc["candidate_sets"]:
            cs["values"] = cs["values"][:1]
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "dual", str(path))[0] == 0
        code, out, err = run(capsys, "dual", str(path), "--assign", "c=11")
        assert code == 3
        assert out == ""
        assert "not admissible" in err

    def test_malformed_assign_exits_3(self, capsys):
        code, _, _ = run(capsys, "dual", EX1_CASE1, "--assign", "c:01")
        assert code == 3

    def test_machine_format(self, capsys):
        code, out, _ = run(
            capsys, "dual", EX1_CASE1, "--format", "machine",
            "--assign", "c=01", "--assign", "p=10", "--assign", "a=01",
        )
        assert code == 0
        doc = machine_doc(out)
        assert doc["status"] == "optimal"
        assert round(doc["z"], 3) == 11.011
        assert len(doc["rows"]) == 3


class TestValidateCommand:
    def test_valid_file(self, capsys):
        code, out, _ = run(capsys, "validate", EX1_CASE1)
        assert code == 0
        assert "ok" in out

    def test_syntax_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_semantic_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "gp-problem/1", "variables": ["x"],
                                    "objective": [], "mystery": 1}))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 3

    def test_integer_beyond_double_range_exits_3(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "format": "gp-problem/1", "variables": ["x"],
            "objective": [{"coefficient": 10**400, "exponents": {"x": 1}}],
        }))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert "coefficient: integer is too large for a double" in err

    @pytest.mark.parametrize("value", [5, None, {"terms": []}, "terms"],
                             ids=["int", "null", "dict", "string"])
    @pytest.mark.parametrize("field", ["constraints", "candidate_sets"])
    def test_a_list_field_that_is_not_a_list_exits_3(
        self, capsys, tmp_path, field, value
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "gp-problem/1", "variables": ["x"],
            "objective": [{"coefficient": 1, "exponents": {"x": 1}}], field: value,
        }))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (3, "", f"error: {path}.{field}: expected a list\n")

    @pytest.mark.parametrize("command", ["validate", "solve", "dual"])
    @pytest.mark.parametrize("role", [[], {}], ids=["list", "object"])
    def test_a_role_that_is_not_a_string_exits_3(self, capsys, tmp_path, command,
                                                 role):
        doc = json.loads((PROBLEM_DIR / "example1_case1.json").read_text())
        doc["candidate_sets"][0]["role"] = role
        path = tmp_path / "role.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, "")
        assert err == (f"error: {path}.candidate_sets[0].role: {role!r} is not one"
                       " of ['constraint_coefficient', 'exponent',"
                       " 'objective_coefficient']\n")

    @pytest.mark.parametrize("command", ["validate", "solve", "dual"])
    def test_integer_beyond_the_digit_limit_exits_3(self, capsys, tmp_path, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "format": "gp-problem/1", "variables": ["x"],
            "objective": [{"coefficient": "HUGE", "exponents": {"x": 1}}],
        }).replace('"HUGE"', "1" + "0" * 5000))
        code, out, err = run(capsys, command, str(path))
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: an integer literal has more than 4300 digits\n"


def test_each_subcommand_takes_exactly_its_options():
    # an option that comes back changes this test and the README synopsis
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    expected = {"solve": {"--format", "--all-assignments"},
                "dual": {"--format", "--assign"}, "validate": set()}
    assert options == expected
    assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help"}
    readme = (PROBLEM_DIR.parent / "README.md").read_text()
    synopsis = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    for command in synopsis.split("gpchoice ")[1:]:
        name = command.split()[0]
        assert set(re.findall(r"--[a-z-]+", command)) == expected[name]


# faults of scripts/fuzz_cli.py --count 2000 runs, by seed and case index:
# an exponent candidate of 1e-320, whose recovery made y = inf and warned
# "invalid value" on inf * 0 in its residual, and a constraint bound of
# 1e-320, which overflowed a coefficient over it to inf, warned "overflow"
# and left validate (exit 0) and solve (exit 4) apart
@pytest.mark.parametrize("seed, case", [(3, 208), (4, 1305)])
def test_fuzz_case_has_no_fault(seed, case, tmp_path):
    fixture, text, assigns, mutations = list(fuzz_cases(seed, case + 1))[case]
    assert cli_faults(text, tmp_path / "case.json", assigns) == [], (fixture, mutations)


# ROADMAP item 11: 200 mutated fixtures, 10 per seed, in about 6 s; the
# long sweeps are scripts/fuzz_cli.py's
@pytest.mark.parametrize("seed", range(20))
def test_mutated_fixtures_exit_as_validation_says(seed, tmp_path):
    for fixture, text, assigns, mutations in fuzz_cases(seed, 10):
        faults = cli_faults(text, tmp_path / "case.json", assigns)
        assert not faults, (fixture, mutations, faults)


def test_every_command_loads_neither_numpy_ma_nor_scipy():
    # np.unique imports numpy.ma (numpy 2.4), 12 ms of a cold solve; one
    # process runs every fixture, pruned and keep-all, in both formats, then
    # dual and validate, and neither numpy.ma nor scipy is loaded after
    src = Path(gpchoice.__file__).resolve().parent.parent
    code = f"""
import contextlib, io, sys
from pathlib import Path
from gpchoice.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for path in sorted(Path({str(PROBLEM_DIR)!r}).glob("*.json")):
        for keep in ([], ["--all-assignments"]):
            for form in ("machine", "text"):
                codes.append(main(["solve", str(path), "--format", form, *keep]))
    codes.append(main(["dual", {EX1_CASE1!r}, "--assign", "c=01", "--assign", "p=10",
                       "--assign", "a=01"]))
    codes.append(main(["validate", {EX1_CASE1!r}]))
print(len(codes), set(codes))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)})
    assert out.stdout == "50 {0}\n[]\n", out.stdout
