import numpy as np
import pytest

import gpchoice.oracle
from gpchoice import (
    GpDomainError,
    NoFeasiblePointError,
    Status,
    brute_force_oracle,
    make_problem,
    solve,
    standardize,
)
from helpers import EX1_Z, example1_problem, random_feasible_gp


def test_example1_grid_value_matches_reference():
    result = brute_force_oracle(
        standardize(example1_problem()), box_log_halfwidth=5.0,
        grid_points_per_dim=200,
    )
    assert result.value == pytest.approx(EX1_Z, rel=1e-2)


def test_balanced_two_term_objective():
    s = standardize(make_problem([(1, (1,)), (1, (-1,))]))
    result = brute_force_oracle(s, box_log_halfwidth=2.0, grid_points_per_dim=400)
    assert result.value == pytest.approx(2.0, abs=1e-3)
    assert result.x[0] == pytest.approx(1.0, abs=1e-2)


def test_infeasible_problem_reports_no_feasible_point():
    s = standardize(make_problem([(1, (1,))], [([(2, (1,)), (3, (-1,))], 1.0)]))
    with pytest.raises(NoFeasiblePointError):
        brute_force_oracle(s, box_log_halfwidth=3.0, grid_points_per_dim=100)


def test_rejects_unsupported_dimension_and_grid():
    s5 = standardize(make_problem([(1.0, (1, 1, 1, 1, 1))]))
    with pytest.raises(GpDomainError):
        brute_force_oracle(s5, 2.0, 10)
    s1 = standardize(make_problem([(1.0, (1,))]))
    with pytest.raises(GpDomainError):
        brute_force_oracle(s1, 2.0, 1)
    with pytest.raises(GpDomainError):
        brute_force_oracle(s1, -1.0, 10)


def test_refinement_tightens_the_estimate(monkeypatch):
    s = standardize(example1_problem())
    monkeypatch.setattr(gpchoice.oracle, "_REFINEMENTS", 0)
    coarse = brute_force_oracle(s, 5.0, 60)
    monkeypatch.setattr(gpchoice.oracle, "_REFINEMENTS", 2)
    refined = brute_force_oracle(s, 5.0, 60)
    assert refined.value <= coarse.value
    assert refined.value == pytest.approx(EX1_Z, rel=1e-3)


def test_agrees_with_solver_on_random_problems():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 6:
        s = standardize(random_feasible_gp(rng))
        if s.variable_count > 3:
            continue
        report = solve(s)
        if report.status is not Status.OPTIMAL:
            continue
        half = max(2.0, 1.3 * float(np.max(np.abs(np.log(report.primal_x)))))
        points = 81 if s.variable_count <= 2 else 61
        result = brute_force_oracle(s, half, points)
        assert result.value == pytest.approx(report.objective_value, rel=1e-2)
        checked += 1
