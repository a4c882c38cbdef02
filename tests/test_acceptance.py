"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3 expects the selected constants (c, p, a) = (1, -3, 1) on cases 1
and 3-6 of the second example and (1, -4, 1) on case 2.  Case 2 is the only
fixture whose exponent set holds -4, and the size-4 encoding makes all four
patterns selectable (criterion 6 requires it), so the enumeration may pick
it.  The test backs that expectation with a weak-duality certificate: the
chosen expansion's primal value (50.605969) lies below the dual value of the
(1, -3, 1) expansion (50.606108), which is a lower bound on every feasible
point of that expansion, by more than the 1e-9 relative tie window.  The
(1, -3, 1) expansion itself is still solved and checked against the paper's
z = 50.60611; see README for the analysis.
"""

import itertools
import time

import numpy as np

from gpchoice import (
    CandidateSet,
    Role,
    Status,
    build_dual,
    case_constraint_violations,
    log_dual_objective,
    optimal_claim,
    parse_problem,
    problem_terms,
    selector_polynomial,
    solve,
    solve_choice,
    solve_dual,
    standardize,
    valid_assignments,
)
from helpers import (
    EX1_W,
    EX1_X,
    EX1_Z,
    EX2_W,
    EX2_X,
    EX2_Z,
    PROBLEM_DIR,
    example1_problem,
    example2_problem,
    random_feasible_gp,
)


def report(number, ok, detail=""):
    marker = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {marker}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_example1_reproduction_across_all_cases():
    failures = []
    for case in range(1, 7):
        cg = parse_problem(PROBLEM_DIR / f"example1_case{case}.json")
        started = time.perf_counter()
        result = solve_choice(cg)
        elapsed = time.perf_counter() - started
        chosen = dict(result.chosen_values or ())
        z = result.report.objective_value if result.report else None
        x = result.report.primal_x if result.report else (np.nan, np.nan)
        if result.status is not Status.OPTIMAL:
            failures.append(f"case {case}: status {result.status.value}")
        elif abs(z - EX1_Z) > 1e-4:
            failures.append(f"case {case}: z={z}")
        elif (chosen.get("c"), chosen.get("p"), chosen.get("a")) != (1.0, -1.0, 1.0):
            failures.append(f"case {case}: chosen {chosen}")
        elif abs(x[0] - EX1_X[0]) > 1e-4 or abs(x[1] - EX1_X[1]) > 1e-4:
            failures.append(f"case {case}: x={x}")
        elif elapsed >= 1.0:
            failures.append(f"case {case}: {elapsed:.2f}s")
    report(1, not failures, "; ".join(failures) or "6 cases, z=11.01098, (c,p,a)=(1,-1,1)")


def test_criterion_2_example1_dual_reproduction():
    ds = solve_dual(build_dual(standardize(example1_problem())))
    ok = (
        ds.status is Status.OPTIMAL
        and abs(ds.objective_value - EX1_Z) <= 1e-3
        and np.max(np.abs(ds.weights - np.array(EX1_W))) <= 1e-3
    )
    report(
        2, ok,
        f"dual value {ds.objective_value:.6f}, "
        f"max weight deviation {np.max(np.abs(ds.weights - np.array(EX1_W))):.2e}",
    )


# Selected (c, p, a) per case of the second example.  Case 2 alone offers
# the exponent -4, and it beats the paper's choice (see the certificate in
# _check_case2_beats_paper_choice).
EX2_CHOSEN = {1: (1.0, -3.0, 1.0), 2: (1.0, -4.0, 1.0), 3: (1.0, -3.0, 1.0),
              4: (1.0, -3.0, 1.0), 5: (1.0, -3.0, 1.0), 6: (1.0, -3.0, 1.0)}


def _check_case2_beats_paper_choice(result):
    """Certify by weak duality that the paper's (1, -3, 1) is not optimal on
    example2_case2: the dual value of the (1, -3, 1) expansion bounds every
    feasible point of that expansion from below, and the chosen expansion's
    feasible optimum lies below that bound by more than the tie window."""
    failures = []
    paper = solve(standardize(example2_problem()))
    if paper.status is not Status.OPTIMAL:
        return [f"case 2: (1,-3,1) expansion status {paper.status.value}"]
    if abs(paper.objective_value - EX2_Z) > 1e-5:
        failures.append(f"case 2: (1,-3,1) expansion z={paper.objective_value}")
    if paper.dual.equality_residual > 1e-10:
        failures.append(f"case 2: (1,-3,1) dual residual {paper.dual.equality_residual:.2e}")
    if result.report.kkt_residuals.primal_feasibility > 1e-8:
        failures.append(f"case 2: chosen expansion infeasible by "
                        f"{result.report.kkt_residuals.primal_feasibility:.2e}")
    z = result.report.objective_value
    bound = paper.dual.objective_value
    if not bound - z > 1e-9 * max(abs(z), abs(bound)):
        failures.append(f"case 2: chosen z={z} does not beat the (1,-3,1) "
                        f"dual bound {bound}")
    return failures


def test_criterion_3_example2_reproduction_across_all_cases():
    failures = []
    for case in range(1, 7):
        cg = parse_problem(PROBLEM_DIR / f"example2_case{case}.json")
        result = solve_choice(cg)
        chosen = dict(result.chosen_values or ())
        z = result.report.objective_value if result.report else None
        x = result.report.primal_x if result.report else (np.nan,) * 4
        dual_value = result.report.dual.objective_value if result.report else None
        w21 = result.report.dual.weights[-1] if result.report else np.nan
        if result.status is not Status.OPTIMAL:
            failures.append(f"case {case}: status {result.status.value}")
            continue
        if abs(z - EX2_Z) > 1e-3:
            failures.append(f"case {case}: z={z}")
        if (chosen.get("c"), chosen.get("p"), chosen.get("a")) != EX2_CHOSEN[case]:
            failures.append(f"case {case}: chosen (c,p,a)="
                            f"({chosen.get('c')}, {chosen.get('p')}, {chosen.get('a')})")
        if np.max(np.abs(np.array(x) - np.array(EX2_X))) > 1e-2:
            failures.append(f"case {case}: x={x}")
        if abs(dual_value - EX2_Z) > 1e-3:
            failures.append(f"case {case}: dual value {dual_value}")
        if abs(w21 - 0.3333285) > 1e-3:
            failures.append(f"case {case}: w21={w21}")
        if case == 2:
            failures.extend(_check_case2_beats_paper_choice(result))
    report(3, not failures, "; ".join(failures) or
           "6 cases, z=50.60611, (c,p,a)=(1,-3,1); case 2 (1,-4,1) beats "
           "the (1,-3,1) dual bound")


def test_criterion_4_duality_gap_on_random_feasible_problems():
    rng = np.random.default_rng(42)
    optimal = 0
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(50):
        s = standardize(random_feasible_gp(rng))
        rep = solve(s)
        if rep.status is Status.OPTIMAL:
            optimal += 1
            worst_gap = max(worst_gap, rep.duality_gap)
            worst_residual = max(worst_residual, rep.dual.equality_residual)
    ok = optimal >= 20 and worst_gap <= 1e-6 and worst_residual <= 1e-10
    report(
        4, ok,
        f"{optimal}/50 optimal, worst gap {worst_gap:.2e}, "
        f"worst equality residual {worst_residual:.2e}",
    )


def test_criterion_5_certificates_hold():
    # each report's x and dual weights must pass the optimal claim built from
    # the problem alone: x feasible within 1e-8 and z within 1e-6 of the dual
    # value that bounds every feasible point from below
    failures = []

    def certified(s, rep):
        claim = optimal_claim(problem_terms(s), [rep.primal_x], [rep.dual.weights])
        return rep.status is Status.OPTIMAL and bool(claim.holds[0])

    s1 = standardize(example1_problem())
    if not certified(s1, solve(s1)):
        failures.append("example 1")

    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 20:
        s = standardize(random_feasible_gp(rng))
        if s.variable_count > 3:
            continue
        rep = solve(s)
        if rep.status is not Status.OPTIMAL:
            continue
        if not certified(s, rep):
            failures.append(f"random {checked}")
        checked += 1
    report(5, not failures,
           "; ".join(failures) or "example 1 + 20 random problems certified")


def test_criterion_6_selector_bijection_and_exclusions():
    rng = np.random.default_rng(99)
    failures = []
    for k in range(1, 9):
        for trial in range(100):
            values = tuple(rng.uniform(-20.0, 20.0, k))
            cs = CandidateSet("s", Role.EXPONENT, values)
            selected = [selector_polynomial(cs, p) for p in valid_assignments(cs)]
            if selected != list(values):
                failures.append(f"k={k} trial {trial}: positions missed")
                break
    for k in (3, 5, 6, 7):
        bit_len = 2 if k <= 4 else 3
        cs = CandidateSet("s", Role.EXPONENT, tuple(float(i) for i in range(1, k + 1)))
        valid = set(valid_assignments(cs))
        for bits in itertools.product((0, 1), repeat=bit_len):
            violated = bool(case_constraint_violations(k, bits))
            if (bits in valid) == violated:
                failures.append(f"k={k} pattern {bits}: exclusion mismatch")
    report(6, not failures,
           "; ".join(failures) or "800 bijections, exclusions match constraints")


def test_criterion_7_orthogonality_residuals_at_reference_weights():
    d1 = build_dual(standardize(example1_problem()))
    r1 = float(np.max(np.abs(d1.equality_matrix @ np.array(EX1_W) - d1.equality_rhs)))
    d2 = build_dual(standardize(example2_problem()))
    r2 = float(np.max(np.abs(d2.equality_matrix @ np.array(EX2_W) - d2.equality_rhs)))
    report(7, r1 <= 2e-6 and r2 <= 2e-6, f"residuals {r1:.2e}, {r2:.2e}")


def test_criterion_8_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    duals = [
        build_dual(standardize(example1_problem())),
        build_dual(standardize(example2_problem())),
    ]
    worst = 0.0
    for i in range(100):
        d = duals[i % 2]
        w = rng.uniform(0.05, 2.0, d.term_count)
        _, grad = log_dual_objective(d, w)
        h = 1e-6
        for k in range(d.term_count):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            fd = (log_dual_objective(d, wp)[0] - log_dual_objective(d, wm)[0]) / (2 * h)
            worst = max(worst, abs(grad[k] - fd))
    report(8, worst <= 1e-5, f"worst gradient deviation {worst:.2e} over 100 points")
