#!/usr/bin/env python3
"""Solver robustness sweep on randomly generated feasible GPs.

Generates small problems (feasible by construction at a known interior
point), solves each through the dual path, and checks every OPTIMAL report's
x and dual weights against the optimal claim of gpchoice.certificate, built
from the problem alone.  Prints the Newton iterations of the reported dual
solves and the solve time per iteration, status counts (with the indices of
the ITERATION_LIMIT problems), the worst duality gap and equality residual,
and how many of the OPTIMAL reports' certificates held.

The last two lines are SHA-256 digests.  The status digest covers every
problem's index and status alone, so two commits that print the same one
agree on every status even where values moved.  The sweep digest covers
every problem's index, status, z, x, dual weight bytes and iteration count:
two commits that print the same one on one machine gave bit-identical
results.  The sweep digest is not portable across BLAS builds.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# run from a checkout: import this tree's package, installed or not, and the
# test suite's generator, so the sweep and the tests share one
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from gpchoice import (  # noqa: E402
    Status,
    optimal_claim,
    problem_terms,
    solve,
    standardize,
)
from helpers import random_feasible_gp  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20260808)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    # problem indices by status
    statuses: dict[str, list[int]] = {}
    worst_gap = 0.0
    worst_residual = 0.0
    certified = 0
    iterations = 0
    solving = 0.0
    digest = hashlib.sha256()
    status_digest = hashlib.sha256()

    started = time.perf_counter()
    for index in range(args.count):
        s = standardize(random_feasible_gp(rng))
        tick = time.perf_counter()
        report = solve(s)
        solving += time.perf_counter() - tick
        iterations += report.dual.iterations
        statuses.setdefault(report.status.value, []).append(index)
        status_digest.update(repr((index, report.status.value)).encode())
        digest.update(repr((index, report.status.value, report.objective_value,
                            report.primal_x, report.dual.iterations)).encode())
        digest.update(report.dual.weights.tobytes())
        if report.status is not Status.OPTIMAL:
            continue
        worst_gap = max(worst_gap, report.duality_gap)
        worst_residual = max(worst_residual, report.dual.equality_residual)
        claim = optimal_claim(problem_terms(s), [report.primal_x],
                              [report.dual.weights])
        certified += claim.holds[0]
    elapsed = time.perf_counter() - started

    print(f"{args.count} problems in {elapsed:.1f}s (seed {args.seed})")
    per_iteration = solving / iterations * 1e6 if iterations else float("nan")
    print(f"  {iterations} Newton iterations, {per_iteration:.1f} us each "
          f"({solving:.2f}s in solve)")
    for name, indices in sorted(statuses.items()):
        listed = ""
        if name == Status.ITERATION_LIMIT.value:
            listed = f" (problems {', '.join(map(str, indices))})"
        print(f"  {name:16s} {len(indices)}{listed}")
    print(f"worst duality gap        {worst_gap:.3e}")
    print(f"worst equality residual  {worst_residual:.3e}")
    optimal = len(statuses.get(Status.OPTIMAL.value, []))
    print(f"certificates held {certified} of {optimal}")
    print(f"status digest            {status_digest.hexdigest()}")
    print(f"sweep digest             {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
