#!/usr/bin/env python3
"""Reproduce the two shipped design-selection examples across all six
candidate-set sizes and print the selected constants, optima, and dual
weights.  The last line checks the first example's winner against the
optimal claim of gpchoice.certificate, built from its expansion alone.

Each fixture's line gives the time of the pruned search, then the time of
the keep-all pass (every expansion solved, as --all-assignments does), its
number of equality systems and its number of fast-pass batches: the
expansions that share exponent values share one system, the systems of a
fixture share one block layout, and keep-all runs the fast pass of all the
systems that share a null-space dimension as one batch.
"""

import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"
# run from a checkout: import this tree's package, installed or not
sys.path.insert(0, str(REPO / "src"))

from gpchoice import (  # noqa: E402
    Role,
    build_dual,
    expand,
    optimal_claim,
    parse_problem,
    problem_terms,
    solve_choice,
    solve_dual,
    standardize,
)


def run_fixture(path: Path):
    cg = parse_problem(path)
    started = time.perf_counter()
    result = solve_choice(cg)
    elapsed = (time.perf_counter() - started) * 1e3
    started = time.perf_counter()
    table = solve_choice(cg, keep_assignments=True).assignments
    keep_all = (time.perf_counter() - started) * 1e3
    exponents = [i for i, cs in enumerate(cg.sets) if cs.role is Role.EXPONENT]
    names = [cs.name for cs in cg.sets]
    systems = {  # one expansion per system
        tuple(row.values[i] for i in exponents): dict(zip(names, row.bits))
        for row in table if row.status != "rejected"
    }
    batches = set()  # the null-space dimension of each system
    for choice in systems.values():
        d = build_dual(standardize(expand(cg, choice)))
        batches.add(d.term_count - np.linalg.matrix_rank(d.equality_matrix))
    chosen = dict(result.chosen_values or ())
    report = result.report
    print(
        f"{path.stem:18s} z = {report.objective_value:12.7g}  "
        f"(c, p, a) = ({chosen['c']:g}, {chosen['p']:g}, {chosen['a']:g})  "
        f"combos = {result.solved + result.rejected:3d}  {elapsed:7.1f} ms  "
        f"keep-all {keep_all:7.1f} ms  systems = {len(systems)}  "
        f"batches = {len(batches)}"
    )
    return cg, result


def show_dual(cg, result, label):
    expanded = expand(cg, dict(result.chosen_bits))
    d = build_dual(standardize(expanded))
    ds = solve_dual(d)
    print(f"\n{label}: dual value {ds.objective_value:.7g}")
    for name, weight in zip(d.weight_labels(), ds.weights):
        print(f"  {name} = {weight:.7g}")


def main() -> int:
    print("selected constants per fixture")
    print("-" * 132)
    last = {}
    for example in (1, 2):
        for case in range(1, 7):
            path = PROBLEMS / f"example{example}_case{case}.json"
            last[example] = run_fixture(path)

    for example in (1, 2):
        cg, result = last[example]
        show_dual(cg, result, f"example {example} at its selected constants")

    cg, result = last[1]
    expanded = expand(cg, dict(result.chosen_bits))
    report = result.report
    claim = optimal_claim(problem_terms(standardize(expanded)), [report.primal_x],
                          [report.dual.weights])
    print(f"\ncertificate (example 1): {'held' if claim.holds[0] else 'FAILED'}, "
          f"gap {claim.gap[0]:.2e}, worst violation {claim.violation[0]:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
