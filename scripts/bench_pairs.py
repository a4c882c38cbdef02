#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the work tree, in pairs.

    python scripts/bench_pairs.py PARENT_REF --workload W --pairs N --out BENCH_<n>.json

The parent is PARENT_REF's tree, copied by ``git archive``; the change is
the work tree's files that git tracks or would track (not ignored), copied
as they are.  The script refuses to run (exit 2) where the two copies'
``bench/`` directories differ: a pair then times two benchmarks, not two
programs.  Each pair runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each copy, at seeds --seed, --seed + 1, ..., the parent
first in the first pair and the order alternating from pair to pair.  Every
run is a fresh interpreter with -B and PYTHONDONTWRITEBYTECODE=1 in a copy
with no bytecode, so both compile their source alike; a run that fails, or
whose result line is not ``correct``, stops the script (exit 1).

For each end-to-end metric of BENCHMARK.json the summary gives the median
and the two quartiles of each side's runs, the number of pairs in which the
change is better (by the metric's direction) and the relative change of the
medians.  --out is written as JSON with the keys command, machine, parent,
pairs, claim, notes, seeds, summary and runs.  runs keeps, per workload,
every run of the script: its seeds and, per pair, the seed and each side's
end-to-end metrics.  Where the file exists with the same parent, the
workload's seeds and summary are replaced by this run's, its pairs are
appended to its runs and the rest is kept, so that one file collects several
workloads and every run made on each.  Running a commit against its own work
tree measures the noise.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "enumerate", "enumerate-all", "stress-random")
NAMES = ("parent", "change")
PAIRS = ("parent and change alternate which runs first (the parent first at the "
         "first seed of each workload); each runs from a copy of its tree's files "
         "(git archive of the parent; the change's work-tree files, bench/ "
         "identical to the parent's); neither tree has bytecode, and "
         "PYTHONDONTWRITEBYTECODE=1 is set")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def copy_parent(ref: str, to: Path) -> None:
    to.mkdir()
    archive = git("archive", "--format=tar", ref)
    subprocess.run(["tar", "-x", "-C", str(to)], input=archive, check=True)


def copy_change(to: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        source = REPO / name
        if source.is_file():  # a tracked file deleted in the work tree is gone
            (to / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, to / name)


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The metrics of one benchmark run in tree, by name."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    if not result or not result.get("correct"):
        sys.exit(f"bench_pairs: {tree.name} at seed {seed} failed "
                 f"(exit {run.returncode}):\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the pairs in
    which the change is better, and the relative change of the medians."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        better = sum(c < p if lower else c > p for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        summary[name] = {
            "parent_median": p50, "parent_quartiles": quartiles(parent),
            "change_median": c50, "change_quartiles": quartiles(change),
            "change_better": f"{better} of {len(parent)}",
            "rel_change": c50 / p50 - 1.0 if p50 else 0.0,
        }
    return summary


def machine() -> str:
    import numpy
    return (f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}; timings "
            "at the bench reference speed (bench/calibrate.py)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_ref")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed (default 1)")
    parser.add_argument("--seconds", type=int, default=15,
                        help="bench/run.py --seconds (default 15)")
    parser.add_argument("--claim", help="the claim the pairs test, if any")
    parser.add_argument("--note", action="append", default=[], help="a note (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent = git("rev-parse", "--verify", f"{args.parent_ref}^{{commit}}").decode().strip()
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    if out and out.get("parent") != parent:
        sys.exit(f"bench_pairs: {args.out} holds pairs against {out.get('parent')}")
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    last = args.seed + args.pairs - 1
    with tempfile.TemporaryDirectory() as tmp:
        trees = dict(zip(NAMES, (Path(tmp, name) for name in NAMES)))
        copy_parent(parent, trees["parent"])
        copy_change(trees["change"])
        if tree_files(trees["parent"] / "bench") != tree_files(trees["change"] / "bench"):
            print("bench_pairs: bench/ differs between the parent and the change",
                  file=sys.stderr)
            return 2
        runs: dict[str, list[dict]] = {name: [] for name in NAMES}
        for i, seed in enumerate(range(args.seed, last + 1)):
            for name in NAMES if i % 2 == 0 else NAMES[::-1]:
                runs[name].append(run_bench(trees[name], args.workload, seed, args.seconds))
            print(f"pair {i + 1} of {args.pairs} (seed {seed}): ops_per_s parent "
                  f"{runs['parent'][-1]['ops_per_s']:.1f}, change "
                  f"{runs['change'][-1]['ops_per_s']:.1f}", flush=True)

    out.update(
        command=f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        machine=machine(), parent=parent, pairs=PAIRS)
    out["claim"] = args.claim if args.claim is not None else out.get("claim", "")
    out["notes"] = out.get("notes", []) + args.note
    out["seeds"] = {**out.get("seeds", {}), args.workload: [args.seed, last]}
    out["summary"] = {**out.get("summary", {}),
                      args.workload: summarize(runs, metrics)}
    names = [metric["name"] for metric in metrics]
    pairs = [{"seed": seed, **{side: {name: runs[side][i][name] for name in names}
                               for side in NAMES}}
             for i, seed in enumerate(range(args.seed, last + 1))]
    out["runs"] = out.get("runs", {})
    out["runs"][args.workload] = [*out["runs"].get(args.workload, []),
                                  {"seeds": [args.seed, last], "pairs": pairs}]
    order = ("command", "machine", "parent", "pairs", "claim", "notes", "seeds", "summary",
             "runs")
    args.out.write_text(json.dumps({key: out[key] for key in order}, indent=4) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
