#!/usr/bin/env python3
"""Benchmark of gpchoice: one command, four workloads, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It uses the checkout's own ``src/`` and ``problems/``.  ``--trace 0`` times
the end-to-end metrics with no tracing, scaled to a reference machine speed
by ``calibrate.py``.  ``--trace 1`` runs each
operation untraced and traced, and reports the per-layer metrics and the
tracing overhead.  Every output is checked; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrate import Clock
from generator import digest, random_problems
from spans import Tracer

# checks.py imports scipy.optimize, so it is imported inside the functions
# that need it: fresh-interpreter children import this module and must load
# no more than the program itself does

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"

WORKLOADS = ("cli-cold", "enumerate", "enumerate-all", "stress-random")
FIXTURES = tuple(f"example{e}_case{c}" for e in (1, 2) for c in range(1, 7))

# The stress set is always drawn from the ROADMAP baseline seed: it holds the
# three known ITERATION_LIMIT stalls, and --seed only orders it.  Per-solve
# time is bimodal (about half the problems under 8 ms, half over 15 ms), so
# any statistic of a seed-dependent set moves with its mix of the modes.
STRESS_GENERATOR_SEED = 20260808
STRESS_PASS_SIZE = 300
# Single-solve times are bimodal with the split near one half, so their
# median sits in the sparse gap between the modes and jumped from 8.7 to
# 15.9 ms between runs.  Latency on stress-random is therefore taken over
# groups of this many consecutive solves, whose times are unimodal.
STRESS_GROUP = 10
# ROADMAP baseline: first 300 problems at the generator seed, and one pass
# of enumeration over the 12 fixtures
BASELINE_STATUSES = {"optimal": 212, "infeasible": 85, "iteration_limit": 3}
BASELINE_COMBINATIONS = 2574
BASELINE_SOLVES = 1002
WARMUP_GENERATOR_SEED = 1
WARMUP_PROBLEMS = 30

# Typical seconds one pass takes at the seed commit on a shared 2-CPU virtual machine.
# --seconds fixes the number of passes from these, so a faster program is
# measured on the same work; cli-cold needs two passes for a tail beyond the
# median.
PASS_SECONDS = {"cli-cold": 12.0, "enumerate": 2.2, "enumerate-all": 2.3,
                "stress-random": 3.2}
MIN_PASSES = {"cli-cold": 2, "enumerate": 1, "enumerate-all": 1, "stress-random": 1}
SETUP_REPEATS = 3

CLI_MAIN = "import sys; from gpchoice.cli import main; sys.exit(main())"
IMPORT_MODULES = {"gpchoice": "import.gpchoice_ms", "numpy": "import.numpy_ms",
                  "scipy.linalg": "import.scipy_linalg_ms",
                  "scipy.optimize": "import.scipy_optimize_ms"}
IMPORTS_DONE = "bench: program imported"
TRACE_PREFIX = "bench-trace "


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload], round(seconds / PASS_SECONDS[workload]))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def use_checkout_source() -> None:
    """Import gpchoice from this checkout's src/, never an installed copy."""
    if not (SRC / "gpchoice" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    workload: str
    seed: int
    passes: int
    items: list  # fixtures: (name, ChoiceGp); stress: (index, raw, GpProblem)
    digest: str


def _order(seed: int, n: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


def load_inputs(workload: str, seed: int, passes: int) -> Inputs:
    """Everything a run needs before timing: parsed fixtures or generated GPs."""
    import gpchoice as gp

    if workload == "stress-random":
        raws = random_problems(STRESS_GENERATOR_SEED, STRESS_PASS_SIZE * passes)
        items = [(i, raws[i], gp.make_problem(*raws[i])) for i in _order(seed, len(raws))]
        return Inputs(workload, seed, passes, items,
                      digest((i, raw) for i, raw, _ in items))
    missing = [f for f in FIXTURES if not (PROBLEMS / f"{f}.json").is_file()]
    if missing:
        raise SystemExit(f"bench: missing fixtures in {PROBLEMS}: {', '.join(missing)}")
    names = [FIXTURES[i] for i in _order(seed, len(FIXTURES))]
    items = [(n, gp.as_choice_gp(gp.parse_problem(PROBLEMS / f"{n}.json"))) for n in names]
    return Inputs(workload, seed, passes, items,
                  digest((n, (PROBLEMS / f"{n}.json").read_bytes()) for n in names))


def combinations(cg) -> int:
    total = 1
    for cs in cg.sets:
        total *= cs.size
    return total


# ---------------------------------------------------------------- processes


@dataclass
class ChildRun:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float


def run_child(argv: list[str]) -> ChildRun:
    """Run one child to completion; wall time and its own peak RSS."""
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(elapsed, proc.returncode, out.read().decode(),
                        err.read().decode(), usage.ru_maxrss / 1024.0)


def load_child(inputs: Inputs, importtime: bool) -> ChildRun:
    """Import the program and load the same inputs in a fresh interpreter."""
    flags = ["-X", "importtime"] if importtime else []
    run = run_child([sys.executable, *flags, str(BENCH / "child.py"), "load",
                     inputs.workload, str(inputs.seed), str(inputs.passes)])
    if run.returncode != 0:
        raise SystemExit(f"bench: loading inputs in a child failed:\n{run.stderr}")
    return run


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative ``-X importtime`` ms of the program's imports, 0 if absent."""
    found = {metric: 0.0 for metric in IMPORT_MODULES.values()}
    for line in stderr.split(IMPORTS_DONE)[0].splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m and m.group(2) in IMPORT_MODULES:
            found[IMPORT_MODULES[m.group(2)]] = int(m.group(1)) / 1e3
    return found


def bare_interpreter_ms() -> float:
    runs = [run_child([sys.executable, "-c", "pass"]).seconds for _ in range(SETUP_REPEATS + 1)]
    return statistics.median(runs[1:]) * 1e3


# ---------------------------------------------------------------- passes


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)  # seconds per operation
    # per operation: its time at the reference speed over its raw time
    scales: list[float] = field(default_factory=list)
    reference_ms: float = 0.0  # the calibration's time at the reference speed
    failures: list[list[str]] = field(default_factory=list)  # per operation
    # failed operations that claim nothing wrong: an honest iteration_limit
    # on a stress problem, or an operation that raised or gave no report
    unanswered: int = 0
    peak_rss_mb: float = 0.0
    rays_verified: int = 0
    rays_unverified: int = 0
    statuses: list[str] = field(default_factory=list)
    children: list[ChildRun] = field(default_factory=list)
    pending_rays: list[tuple] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.failures if f)

    def timed(self, fn, *args, **kwargs):
        """Time one operation; an exception is recorded as its failure."""
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the loop must go on and report every failure
            self.unanswered += 1
            self.failures.append([f"raised {type(e).__name__}: {e}"])
            return None
        finally:
            self.times.append(time.perf_counter() - started)


def _choice_outcome(result):
    status = result.status.value
    chosen = None
    if result.chosen_bits is not None:
        chosen = {name: "".join(map(str, bits)) for name, bits in result.chosen_bits}
    z = result.report.objective_value if status == "optimal" else None
    return status, chosen, z


def fixture_op(workload: str, item, refs: dict, out: PassResult, traced: bool) -> None:
    import gpchoice as gp
    from checks import check_assignments, check_fixture

    name, cg = item
    keep = workload == "enumerate-all"
    result = out.timed(gp.solve_choice, cg, keep_assignments=keep)
    if result is None:
        out.failures[-1][0] = f"{name}: {out.failures[-1][0]}"
        return
    failures = check_fixture(name, refs[name], *_choice_outcome(result))
    if keep:
        statuses = [a.status for a in result.assignments or ()]
        failures += check_assignments(name, refs[name], statuses)
    out.failures.append(failures)


def cli_op(workload: str, item, refs: dict, out: PassResult, traced: bool) -> None:
    from checks import check_fixture

    name, _ = item
    if traced:
        argv = [sys.executable, "-X", "importtime", str(BENCH / "child.py"), "cli"]
    else:
        argv = [sys.executable, "-c", CLI_MAIN]
    run = run_child(argv + ["solve", str(PROBLEMS / f"{name}.json"), "--format", "machine"])
    out.times.append(run.seconds)
    out.children.append(run)
    out.peak_rss_mb = max(out.peak_rss_mb, run.maxrss_mb)
    try:
        doc = json.loads(run.stdout)
    except json.JSONDecodeError:
        out.unanswered += 1
        out.failures.append([f"{name}: no machine report (exit {run.returncode})"])
        return
    chosen = None
    if doc.get("chosen") is not None:
        chosen = {k: v["bits"] for k, v in doc["chosen"].items()}
    failures = check_fixture(name, refs[name], doc.get("status"), chosen, doc.get("z"))
    if run.returncode != 0:  # every fixture's reference is optimal
        failures.append(f"{name}: exit code {run.returncode}")
    out.failures.append(failures)


def stress_op(workload: str, item, refs: dict, out: PassResult, traced: bool) -> None:
    import gpchoice as gp
    from checks import check_optimal

    index, raw, problem = item
    report = out.timed(lambda: gp.solve(gp.standardize(problem)))
    if report is None:
        out.statuses.append("raised")
        out.failures[-1][0] = f"problem {index}: {out.failures[-1][0]}"
        return
    status = report.status.value
    out.statuses.append(status)
    if status == "optimal":
        out.failures.append(
            [f"problem {index}: {f}" for f in
             check_optimal(raw, report.primal_x, report.dual.objective_value)])
    elif status == "iteration_limit":
        out.unanswered += 1
        out.failures.append([f"problem {index}: iteration_limit"])
    else:
        out.failures.append([])
        out.pending_rays.append((len(out.failures) - 1, index, raw, status))


def check_rays(out: PassResult) -> None:
    """Certificates of non-optimal stress results, an LP each, after timing."""
    from checks import primal_ray

    for slot, index, raw, status in out.pending_rays:
        if primal_ray(raw) is None:
            out.rays_unverified += 1
            out.failures[slot].append(f"problem {index}: {status} without a primal ray")
        else:
            out.rays_verified += 1
    out.pending_rays.clear()


OPERATIONS = {"cli-cold": cli_op, "enumerate": fixture_op, "enumerate-all": fixture_op,
              "stress-random": stress_op}


def warm_up(inputs: Inputs, refs: dict) -> None:
    """Fill lazy state before timing: one untimed pass, or a few other GPs.

    cli-cold needs none: the fresh interpreters that come before its timed
    pass have already compiled the program's bytecode.
    """
    import gpchoice as gp

    scratch = PassResult()
    if inputs.workload == "stress-random":
        for raw in random_problems(WARMUP_GENERATOR_SEED, WARMUP_PROBLEMS):
            stress_op(inputs.workload, (-1, raw, gp.make_problem(*raw)), refs, scratch, False)
    elif inputs.workload != "cli-cold":
        for item in inputs.items:
            fixture_op(inputs.workload, item, refs, scratch, False)


def run_passes(inputs: Inputs, refs: dict, tracer: Tracer | None = None) -> list[PassResult]:
    """The timed passes: one result, or an untraced and a traced one.

    Untraced, a calibration runs before the first operation and after each
    one (each group of ``STRESS_GROUP`` on ``stress-random``), and the
    calibrations give each operation its scale to the reference speed.
    ``cli-cold`` calibrates with a fresh process, the others in process.

    With a tracer every operation runs untraced and traced back to back, in
    alternating order, so that both see the same machine load and their
    difference is the cost of tracing, not drift in the machine's speed.
    """
    op = OPERATIONS[inputs.workload]
    results = [PassResult() for _ in range(1 if tracer is None else 2)]
    # the stress set already holds one pass's worth of problems per pass
    passes = 1 if inputs.workload == "stress-random" else inputs.passes
    sequence = [item for _ in range(passes) for item in inputs.items]
    group = STRESS_GROUP if inputs.workload == "stress-random" else 1
    clock = Clock(inputs.workload != "cli-cold") if tracer is None else None
    for k, item in enumerate(sequence):
        if tracer is None:
            op(inputs.workload, item, refs, results[0], False)
            if (k + 1) % group == 0 or k + 1 == len(sequence):
                clock.mark()
            continue
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    op(inputs.workload, item, refs, results[1], True)
            else:
                op(inputs.workload, item, refs, results[0], False)
    if clock:
        results[0].scales = [clock.scale(k // group) for k in range(len(sequence))]
        results[0].reference_ms = clock.reference_ms
    for out in results:
        check_rays(out)
        if inputs.workload != "cli-cold":
            out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return results


# ---------------------------------------------------------------- metrics


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with ten samples beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def baseline_lines(inputs: Inputs, result: PassResult, metrics: dict) -> list[str]:
    """Compare with the ROADMAP baseline; report, never adjust."""
    if inputs.workload == "stress-random":
        first = [s for (i, _, _), s in zip(inputs.items, result.statuses)
                 if i < STRESS_PASS_SIZE]
        counts = {s: first.count(s) for s in sorted(set(first))}
        verdict = "agrees" if counts == BASELINE_STATUSES else "DISAGREES"
        return [f"baseline: first {STRESS_PASS_SIZE} problems at generator seed "
                f"{STRESS_GENERATOR_SEED}: {counts}; ROADMAP {BASELINE_STATUSES}: {verdict}"]
    combos = sum(combinations(cg) for _, cg in inputs.items)
    verdict = "agrees" if combos == BASELINE_COMBINATIONS else "DISAGREES"
    lines = [f"baseline: {combos} combinations per pass; ROADMAP "
             f"{BASELINE_COMBINATIONS}: {verdict}"]
    if "solver.solve.calls" in metrics:
        solves = metrics["solver.solve.calls"][0]
        verdict = "agrees" if solves == BASELINE_SOLVES else "DISAGREES"
        lines.append(f"baseline: {solves:g} solves per pass; ROADMAP "
                     f"{BASELINE_SOLVES}: {verdict}")
    return lines


def end_to_end(inputs: Inputs, refs: dict) -> tuple[dict, list[PassResult], list[str]]:
    clock = Clock(in_process=False)
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        raw_setups.append(load_child(inputs, False).seconds)
        clock.mark()
    setups = [s * clock.scale(k) for k, s in enumerate(raw_setups)]
    warm_up(inputs, refs)
    [result] = run_passes(inputs, refs)
    n = len(result.times)
    group = STRESS_GROUP if inputs.workload == "stress-random" else 1

    def samples_ms(times):
        return [sum(times[i:i + group]) * 1e3 for i in range(0, n, group)]

    scaled = [t * s for t, s in zip(result.times, result.scales)]
    samples, raw_samples = samples_ms(scaled), samples_ms(result.times)
    tail_ms, tail_pct = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (statistics.median(samples), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "ok_share": ((n - result.failed) / n, "share"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }
    notes = [
        f"op_ms_* and ops_per_s are at the reference speed, where a calibration takes "
        f"{result.reference_ms} ms; this run's took about "
        f"{result.reference_ms / statistics.mean(result.scales):.4f} ms",
        f"setup_s: median of {SETUP_REPEATS} fresh interpreters "
        f"({', '.join(f'{s:.4f}' for s in setups)} s; raw "
        f"{', '.join(f'{s:.4f}' for s in raw_setups)} s, a calibration process took "
        f"{1e3 * statistics.mean(clock.calibrations):.1f} ms)",
        f"op_ms_*: over {len(samples)} samples of {group} operation(s); tail is "
        f"p{tail_pct:.1f}, {min(10, len(samples) - 1)} samples beyond it",
        f"raw wall time: setup_s {statistics.median(raw_setups):.4f} s, op_ms_p50 "
        f"{statistics.median(raw_samples):.4f} ms, op_ms_tail {tail(raw_samples)[0]:.4f} ms, "
        f"ops_per_s {n / sum(result.times):.4f} 1/s",
        f"ok_share: fail_share {result.failed / n:.6g} ({result.failed} of {n} failed)",
    ]
    return metrics, [result], notes


def _cli_layers(plain: PassResult, traced: PassResult, bare_ms: float,
                tracer) -> tuple[float, float]:
    """Median solve and rest ms per cold process; merges the children's traces."""
    solve_ms, rest_ms = [], []
    for plain_run, traced_run in zip(plain.children, traced.children):
        head, _, snapshot = traced_run.stderr.rpartition(TRACE_PREFIX)
        if snapshot:
            tracer.merge(json.loads(snapshot))
        try:
            solve_ms.append(float(json.loads(traced_run.stdout)["timing_ms"]))
        except (json.JSONDecodeError, KeyError, TypeError):
            solve_ms.append(0.0)
        rest_ms.append(plain_run.seconds * 1e3 - bare_ms
                       - import_times(head)["import.gpchoice_ms"] - solve_ms[-1])
    return statistics.median(solve_ms), statistics.median(rest_ms)


def per_layer(inputs: Inputs, refs: dict) -> tuple[dict, list[PassResult], list[str]]:
    # the fresh interpreters come first, so they also compile the bytecode
    imports = [import_times(load_child(inputs, True).stderr) for _ in range(SETUP_REPEATS)]
    bare_ms = bare_interpreter_ms()
    warm_up(inputs, refs)
    tracer = Tracer()
    plain, traced = run_passes(inputs, refs, tracer)
    cli_solve_ms = cli_rest_ms = 0.0  # no CLI on an in-process path
    if inputs.workload == "cli-cold":
        cli_solve_ms, cli_rest_ms = _cli_layers(plain, traced, bare_ms, tracer)

    metrics = {"interpreter.bare_ms": (bare_ms, "ms")}
    for metric in IMPORT_MODULES.values():
        metrics[metric] = (statistics.median(found[metric] for found in imports), "ms")
    metrics["cli.solve_ms"] = (cli_solve_ms, "ms")
    metrics["cli.rest_ms"] = (cli_rest_ms, "ms")
    metrics.update(tracer.layer_metrics(inputs.passes))
    combos = 0
    if inputs.workload != "stress-random":
        combos = sum(combinations(cg) for _, cg in inputs.items)
    solves = metrics["solver.solve.calls"][0]
    metrics["selectors.combinations"] = (combos, "count")
    metrics["selectors.solve_ratio"] = (solves / combos if combos else 0.0, "ratio")
    metrics["check.ray_verified"] = (traced.rays_verified, "count")
    metrics["check.ray_unverified"] = (traced.rays_unverified, "count")
    metrics["trace.overhead_pct"] = (
        (sum(traced.times) / sum(plain.times) - 1.0) * 100.0, "%")
    notes = [f"trace.overhead_pct: traced {sum(traced.times):.4f} s against "
             f"untraced {sum(plain.times):.4f} s over the same operations"]
    return metrics, [plain, traced], notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    use_checkout_source()
    from checks import load_references

    refs = load_references()
    inputs = load_inputs(args.workload, args.seed, passes_for(args.workload, args.seconds))
    print(f"workload {inputs.workload}  seed {inputs.seed}  passes {inputs.passes}  "
          f"inputs {len(inputs.items)}  inputs_sha256 {inputs.digest}")
    measure = per_layer if args.trace else end_to_end
    metrics, results, notes = measure(inputs, refs)
    notes += baseline_lines(inputs, results[0], metrics)
    if inputs.workload == "stress-random":
        first = results[0]
        notes.append(f"certificates: {first.rays_verified} verified primal rays, "
                     f"{first.rays_unverified} unverified; {first.statuses.count('raised')} "
                     f"raised, {first.statuses.count('iteration_limit')} iteration_limit")

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    for line in notes:
        print(line)
    failures = [f for result in results for op in result.failures for f in op]
    for line in failures[:20]:
        print(f"failed: {line}")
    if len(failures) > 20:
        print(f"failed: ... {len(failures) - 20} more")

    # every operation, traced or not, is checked; correct means no output the
    # program vouches for is wrong: an unanswered operation is failed, but
    # it is not a wrong answer
    attempted = sum(len(r.times) for r in results)
    failed = sum(r.failed for r in results)
    wrong = failed - sum(r.unanswered for r in results)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
