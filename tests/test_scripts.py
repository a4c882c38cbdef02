"""The scripts run from a checkout with no PYTHONPATH and no install."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


# what each script's output must contain; the examples give each fixture's
# pruned time beside its keep-all time, number of equality systems and
# number of fast-pass batches, one per fixture on the shipped problems; the
# stress sweep reports its iteration count and solve time per iteration, so
# a kernel change reads as "same iterations, less time each", and ends with
# a digest of its statuses alone and a digest of its results; the line
# counter prints raw and code lines per library file, then the totals
EXPECTED = {
    "run_paper_examples.py": r"(\nexample[12]_case[1-6] +z = .* \d+\.\d ms  "
    r"keep-all +\d+\.\d ms  systems = [1-9]\d*  batches = 1){12}\n",
    "fuzz_cli.py": r"^20 cases at seed 1 in \d+\.\ds: 0 faulty\n$",
    "code_lines.py": r"^file +raw +code\n(\w+\.py +[1-9]\d* +[1-9]\d*\n)+"
    r"total +[1-9]\d* +[1-9]\d*\n$",
    "stress_random.py": r"\n  [1-9]\d* Newton iterations, \d+\.\d us each "
    r"\(\d+\.\d\ds in solve\)\n[\s\S]*\nstatus digest {12}[0-9a-f]{64}\n"
    r"sweep digest {13}[0-9a-f]{64}\n$",
}


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_paper_examples.py", []),
        ("stress_random.py", ["--count", "20"]),
        ("fuzz_cli.py", ["--count", "20", "--seed", "1"]),
        ("code_lines.py", []),
    ],
)
def test_script_runs_without_pythonpath(script, args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=REPO / "scripts",
    )
    assert out.returncode == 0, out.stderr
    assert re.search(EXPECTED[script], out.stdout), out.stdout


def _interleave(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "interleave.py"), *map(str, args)],
        capture_output=True, text=True, env=env, cwd=REPO / "scripts",
    )


def test_interleave_runs_a_tree_against_itself():
    # --count calls on every workload: 24 fixture calls cycle the 12 fixtures
    # twice; 12 cli calls run each fixture once a tree, in fresh processes
    for workload, count, groups in (("stress", 20, 2), ("enumerate", 24, 3), ("cli", 12, 2)):
        out = _interleave(REPO / "src", REPO / "src", "--workload", workload, "--count", count)
        assert out.returncode == 0, out.stderr
        assert re.fullmatch(
            rf"{workload}: {groups} groups of up to 10 calls, outputs bit-identical, "
            r"in \d+\.\ds\n"
            r"median time ratio change/parent \d+\.\d{3} \(parent/change \d+\.\d{3}\)\n",
            out.stdout), out.stdout


def test_interleave_names_the_first_call_whose_outputs_differ(tmp_path):
    # a tree whose interior-point method stops at a looser tolerance gives
    # other bits on the stress problems that reach it
    shutil.copytree(REPO / "src" / "gpchoice", tmp_path / "gpchoice",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "gpchoice" / "solver.py"
    text = solver.read_text()
    assert "\n_IPM_TOL = 1e-12\n" in text
    solver.write_text(text.replace("\n_IPM_TOL = 1e-12\n", "\n_IPM_TOL = 1e-9\n"))
    out = _interleave(REPO / "src", tmp_path, "--workload", "stress", "--count", "20")
    assert out.returncode == 1
    assert re.fullmatch(r"call \d+: outputs differ\n", out.stderr), out.stderr
    # every group still runs and is timed; the looser tree moves the bits of
    # 10 of the 11 calls that reach the method, and the status of 2
    assert re.fullmatch(
        r"stress: 2 groups of up to 10 calls, 10 of 20 calls differ in bits, "
        r"2 in status, in \d+\.\ds\n"
        r"median time ratio change/parent \d+\.\d{3} \(parent/change \d+\.\d{3}\)\n",
        out.stdout), out.stdout


def _bench_pairs(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_pairs.py"), *map(str, args)],
        capture_output=True, text=True, env=env, cwd=REPO / "scripts",
    )


def _git(*args):
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


needs_git = pytest.mark.skipif(not (REPO / ".git").exists(),
                               reason="bench_pairs compares a commit with a git work tree")


@needs_git
def test_bench_pairs_runs_a_tree_against_itself(tmp_path):
    out = tmp_path / "BENCH.json"
    run = _bench_pairs("HEAD", "--workload", "enumerate", "--pairs", 1, "--seconds", 1,
                       "--seed", 7, "--out", out)
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(r"pair 1 of 1 \(seed 7\): ops_per_s parent \d+\.\d, "
                        r"change \d+\.\d\n", run.stdout), run.stdout
    doc = json.loads(out.read_text())
    assert list(doc) == ["command", "machine", "parent", "pairs", "claim", "notes", "seeds",
                         "summary", "runs"]
    assert doc["parent"] == _git("rev-parse", "HEAD")
    assert doc["seeds"] == {"enumerate": [7, 7]}
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    summary = doc["summary"]["enumerate"]
    assert list(summary) == names
    for metric in summary.values():
        assert metric["change_better"] in ("0 of 1", "1 of 1")
        for side in ("parent", "change"):
            assert metric[f"{side}_quartiles"] == [metric[f"{side}_median"]] * 2
    [run] = doc["runs"]["enumerate"]
    assert run["seeds"] == [7, 7] and [pair["seed"] for pair in run["pairs"]] == [7]
    for side in ("parent", "change"):
        pair = run["pairs"][0][side]
        assert list(pair) == names
        assert [pair[name] for name in names] == [summary[name][f"{side}_median"]
                                                  for name in names]

    # a rerun into the same file appends its pairs; the summary is its own
    rerun = _bench_pairs("HEAD", "--workload", "enumerate", "--pairs", 1, "--seconds", 1,
                         "--seed", 8, "--out", out)
    assert rerun.returncode == 0, rerun.stderr
    again = json.loads(out.read_text())
    assert again["seeds"] == {"enumerate": [8, 8]}
    assert again["runs"]["enumerate"][0] == run
    [_, latest] = again["runs"]["enumerate"]
    assert latest["seeds"] == [8, 8] and [pair["seed"] for pair in latest["pairs"]] == [8]
    assert [latest["pairs"][0]["change"][name] for name in names] == [
        again["summary"]["enumerate"][name]["change_median"] for name in names]


@needs_git
def test_bench_pairs_refuses_trees_whose_bench_differs(tmp_path):
    # the commit before the last change to bench/ has another bench/
    before = _git("log", "-1", "--format=%H", "--", "bench") + "^"
    out = tmp_path / "BENCH.json"
    run = _bench_pairs(before, "--workload", "enumerate", "--pairs", 1, "--out", out)
    assert run.returncode == 2
    assert run.stderr == "bench_pairs: bench/ differs between the parent and the change\n"
    assert not out.exists()
