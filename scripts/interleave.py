#!/usr/bin/env python3
"""Time two trees' packages side by side, output for output.

    python scripts/interleave.py PARENT_SRC CHANGE_SRC --workload stress

Each SRC is the directory that holds a tree's gpchoice package (a checkout's
src/).  Each package is copied to a temporary directory under a name of its
own, gpchoice_parent and gpchoice_change, and imported from there, so both
load in one interpreter; the cli workload copies each as gpchoice into a
directory of its own and runs it in fresh processes.  The workload's calls
run in groups of
bench/run.py's STRESS_GROUP: each group runs on one package, then on the
other, the order alternating from group to group, and every call's outputs
on the two are compared bit for bit (floats and arrays compared by their
bytes).  Where they differ the script names the first call that differs on
stderr, runs every group still, prints how many calls differ in bits and
how many in status, and exits 1.  Either way it prints the median, over
groups, of the change's time over the parent's (and the parent's over the
change's), so a change that moves outputs on purpose is timed as well.

Each workload makes --count calls.  ``stress`` solves the first --count
problems of the benchmark's stress set (bench/generator.py at bench/run.py's
STRESS_GENERATOR_SEED); ``enumerate`` and ``enumerate-all`` run solve_choice,
pruned and keep-all, on the 12 fixtures in sorted order, cycled, after one
untimed pass over them.  Each fixture is parsed once and its model object
solved call after call, as bench/run.py's enumerate workloads do, so a call
after the first reads the template that solve_choice compiled and kept on that
object, with its seeds' solver batch, prepared on the first call.  ``cli`` runs one fresh ``gpchoice solve FIXTURE --format machine``
process a call, over the fixtures in the same order and with no untimed pass,
each cold as a user's, so every call compiles its template; both trees run
with -B and no __pycache__, so that each process compiles its package from
source, and each call's output is its exit code and its report without
timing_ms.  Comparing a tree with itself measures the noise.
"""

import argparse
import dataclasses
import enum
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))

from generator import random_problems  # noqa: E402
from run import CLI_MAIN, STRESS_GENERATOR_SEED, STRESS_GROUP  # noqa: E402

NAMES = ("parent", "change")
FIXTURES = sorted((REPO / "problems").glob("*.json"))
# a cli call's output: the exit code, and the machine report without
# timing_ms (the process's stdout where it is no report)
CliRun = namedtuple("CliRun", "status report")


def copy(src: str, to: Path) -> Path:
    """The gpchoice package under src, copied to `to` without bytecode."""
    package = Path(src) / "gpchoice"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"interleave: no gpchoice package in {src}")
    shutil.copytree(package, to, ignore=shutil.ignore_patterns("__pycache__"))
    return to


def load(src: str, name: str, into: Path):
    """The gpchoice package under src, imported as gpchoice_<name>."""
    copy(src, into / f"gpchoice_{name}")
    return importlib.import_module(f"gpchoice_{name}")


def cli_run(path: Path, fixture: Path) -> CliRun:
    """One cold gpchoice solve of fixture, importing the package under path."""
    env = {**os.environ, "PYTHONPATH": str(path)}
    run = subprocess.run([sys.executable, "-B", "-c", CLI_MAIN, "solve", str(fixture),
                          "--format", "machine"], capture_output=True, text=True,
                         env=env, stdin=subprocess.DEVNULL)
    try:
        report = json.loads(run.stdout)
        report.pop("timing_ms", None)
    except json.JSONDecodeError:
        report = run.stdout
    return CliRun(run.returncode, report)


def bits(value):
    """value as nested tuples of exact leaves: floats by hex, arrays by bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        return repr(value)
    return tuple(bits(item) for item in value)


def calls(pkg, workload: str, count: int) -> list:
    """The workload's calls on pkg, each a function of no arguments; for the
    cli workload pkg is the directory that holds the package."""
    if workload == "cli":
        return [lambda f=FIXTURES[i % len(FIXTURES)]: cli_run(pkg, f) for i in range(count)]
    if workload == "stress":
        problems = [pkg.make_problem(*raw)
                    for raw in random_problems(STRESS_GENERATOR_SEED, count)]
        return [lambda p=p: pkg.solve(pkg.standardize(p)) for p in problems]
    keep = workload == "enumerate-all"
    models = [pkg.as_choice_gp(pkg.parse_problem(path)) for path in FIXTURES]
    return [lambda m=models[i % len(models)]: pkg.solve_choice(m, keep_assignments=keep)
            for i in range(count)]


def run_group(group: list) -> tuple[float, list]:
    started = time.perf_counter()
    outputs = [call() for call in group]
    return time.perf_counter() - started, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload",
                        choices=("stress", "enumerate", "enumerate-all", "cli"),
                        required=True)
    parser.add_argument("--count", type=int, default=300,
                        help="calls (default 300)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = zip((args.parent_src, args.change_src), NAMES)
        if args.workload == "cli":
            packages = [copy(src, Path(tmp, name, "gpchoice")).parent for src, name in trees]
        else:
            packages = [load(src, name, Path(tmp)) for src, name in trees]
        work = [calls(pkg, args.workload, args.count) for pkg in packages]
        if args.workload in ("enumerate", "enumerate-all"):
            # compile each model, start its programs and build its seeds'
            # batch's solver arrays, which the compile keeps, as the benchmark does
            for pkg_calls in work:
                run_group(pkg_calls[:len(FIXTURES)])
        ratios, started = [], time.perf_counter()
        differ = status = 0  # calls whose outputs differ in bits, and in status
        for g, first in enumerate(range(0, len(work[0]), STRESS_GROUP)):
            groups = [pkg_calls[first:first + STRESS_GROUP] for pkg_calls in work]
            order = (0, 1) if g % 2 == 0 else (1, 0)
            timed = {i: run_group(groups[i]) for i in order}
            for k, (a, b) in enumerate(zip(timed[0][1], timed[1][1])):
                if bits(a) != bits(b):
                    if not differ:
                        print(f"call {first + k}: outputs differ", file=sys.stderr)
                    differ += 1
                    status += bits(a.status) != bits(b.status)
            ratios.append(timed[1][0] / timed[0][0])
    change = statistics.median(ratios)
    outputs = (f"{differ} of {len(work[0])} calls differ in bits, {status} in status"
               if differ else "outputs bit-identical")
    print(f"{args.workload}: {len(ratios)} groups of up to {STRESS_GROUP} calls, "
          f"{outputs}, in {time.perf_counter() - started:.1f}s")
    print(f"median time ratio change/parent {change:.3f} (parent/change "
          f"{statistics.median(1.0 / x for x in ratios):.3f})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
