"""The solver-free claims of gpchoice.certificate: hand-made certificates
pass, and each perturbed one fails on the check it breaks."""

import ast
import math
import sys
from pathlib import Path

import pytest

import gpchoice.certificate
from gpchoice import (
    infeasible_claim,
    make_problem,
    optimal_claim,
    problem_terms,
    solve,
    standardize,
)
from gpchoice.certificate import GAP_TOL, VIOLATION_TOL
from helpers import example1_problem, example2_problem, first_term_multipliers

# min x + 1/x s.t. 0.5*y + 0.5/y <= 1: z = 2 at x = y = 1; for any a >= 0
# the weights (1/2, 1/2, a, a) meet normality and orthogonality, and give
# v = 2 exactly, as 0.5 * lambda / a = 1 for lambda = 2a
PROBLEM = standardize(make_problem(
    [(1, (1, 0)), (1, (-1, 0))], [([(0.5, (0, 1)), (0.5, (0, -1))], 1.0)]
))
X = (1.0, 1.0)
W = (0.5, 0.5, 1e-3, 1e-3)


def _claim(x, w, s=PROBLEM):
    return optimal_claim(problem_terms(s), [x], [w])


def _objective_at(value):
    """x1 >= 1 with x1 + 1/x1 = value."""
    half = value / 2.0
    return half + math.sqrt(half * half - 1.0)


def _constraint_at(value):
    """y >= 1 with 0.5*y + 0.5/y = value."""
    return value + math.sqrt(value * value - 1.0)


class TestOptimalClaim:
    def test_a_hand_made_certificate_holds_with_no_gap(self):
        claim = _claim(X, W)
        assert claim == ([2.0], [0.0], [0.0], [True])

    def test_zero_weights_add_nothing(self):
        assert _claim(X, (0.5, 0.5, 0.0, 0.0)).holds[0]

    @pytest.mark.parametrize("problem", [example1_problem, example2_problem])
    def test_solve_output_on_the_paper_examples_holds(self, problem):
        s = standardize(problem())
        report = solve(s)
        assert _claim(report.primal_x, report.dual.weights, s).holds[0]

    @pytest.mark.parametrize("x, w", [
        pytest.param(X, (0.5, 0.5, -1e-3, -1e-3), id="negative weight"),
        pytest.param(X, (0.5 + 1e-10, 0.5 + 1e-10, 1e-3, 1e-3), id="normality"),
        pytest.param(X, (0.5 + 2e-10, 0.5 - 2e-10, 1e-3, 1e-3), id="orthogonality"),
        pytest.param(X, (0.5, 0.5, float("nan"), 1e-3), id="nan weight"),
        pytest.param((_objective_at(2.0 * (1.0 + 1.1 * GAP_TOL)), 1.0), W, id="gap"),
        pytest.param((1.0, _constraint_at(1.0 + 1.1 * VIOLATION_TOL)), W,
                     id="violation"),
        pytest.param((float("nan"), 1.0), W, id="nan x"),
        pytest.param((0.0, 1.0), W, id="zero x"),
        pytest.param((-1.0, 1.0), W, id="negative x"),
        pytest.param((1.0,), W, id="short x"),
        pytest.param((1.0, 1.0, 1.0), W, id="long x"),
    ])
    def test_a_perturbed_certificate_fails(self, x, w):
        assert not _claim(x, w).holds[0]

    def test_the_tolerances_are_where_the_claim_breaks(self):
        # just inside each tolerance the perturbed certificates above hold
        inside_gap = (_objective_at(2.0 * (1.0 + 0.9 * GAP_TOL)), 1.0)
        inside_violation = (1.0, _constraint_at(1.0 + 0.9 * VIOLATION_TOL))
        assert _claim(inside_gap, W).holds[0]
        assert _claim(inside_violation, W).holds[0]
        assert _claim(X, (0.5 + 2e-11, 0.5 - 2e-11, 1e-3, 1e-3)).holds[0]

    def test_the_gap_is_proven_to_1e_8(self):
        # 1e-6 before: four orders above the worst gap the solver delivers
        # (6.4e-11 over the stress sweep), so it proved less than it could;
        # a face guess that certifies is proven to this gap
        assert GAP_TOL <= 1e-8

    def test_rows_are_judged_apart(self):
        x = [X, (0.0, 1.0), X]
        w = [W, W, (0.5, 0.5, -1e-3, -1e-3)]
        claim = optimal_claim(problem_terms(PROBLEM), x, w)
        assert claim.holds == [True, False, False]
        assert math.isnan(claim.objective[1]) and math.isnan(claim.gap[1])

    def test_an_overflowing_term_is_no_certificate(self):
        s = standardize(make_problem([(1, (300,)), (1, (-1,))]))
        claim = _claim((1e3,), (0.5, 0.5), s)
        assert not claim.holds[0] and math.isnan(claim.objective[0])


class TestInfeasibleClaim:
    def test_a_multi_term_multiplier_on_one_constraint_proves_infeasibility(self):
        # 2x + 2y <= 1 asks x*y <= 1/16, and 1/(8xy) <= 1 asks x*y >= 1/8:
        # no single term of the first constraint cancels the exponents
        first = ([(2, (1, 0)), (2, (0, 1))], 1.0)
        second = ([(1 / 8, (-1, -1))], 1.0)
        s = standardize(make_problem([(1, (1, 1))], [first, second]))
        assert infeasible_claim(problem_terms(s), (1, 1, 1))
        assert not infeasible_claim(problem_terms(s), (1, 0, 1))
        assert not infeasible_claim(problem_terms(s), (1, 0.5, 1))
        # with 1/(32xy) <= 1 the point x = y = 1/4 is feasible
        second = ([(1 / 32, (-1, -1))], 1.0)
        s = standardize(make_problem([(1, (1, 1))], [first, second]))
        assert not infeasible_claim(problem_terms(s), (1, 1, 1))

    def test_the_witness_needs_cancelling_exponents_and_a_product_above_one(self):
        # 2x <= 1 and 0.5/x <= 1 hold at x = 0.5
        s = standardize(make_problem([(1, (1,))], [([(2, (1,))], 1.0),
                                                   ([(0.5, (-1,))], 1.0)]))
        assert not infeasible_claim(problem_terms(s), first_term_multipliers(s, (1, 1)))
        # 2x <= 1 and 3/x^2 <= 1 ask x <= 0.5 and x >= 1.73: the exponents
        # cancel only with multipliers (2, 1), and negative ones prove nothing
        s = standardize(make_problem([(1, (1,))], [([(2, (1,))], 1.0),
                                                   ([(3, (-2,))], 1.0)]))
        terms = problem_terms(s)
        assert not infeasible_claim(terms, first_term_multipliers(s, (1, 1)))
        assert infeasible_claim(terms, first_term_multipliers(s, (2, 1)))
        assert not infeasible_claim(terms, first_term_multipliers(s, (-2, -1)))
        assert not infeasible_claim(terms, (2, 1, 0))  # one per constraint term
        # 2x <= 1 and 0.5x <= 1 hold at x = 0.5, yet (1, -1) cancels the
        # exponents and its positive part alone gives log 2 > 0
        s = standardize(make_problem([(1, (1,))], [([(2, (1,))], 1.0),
                                                   ([(0.5, (1,))], 1.0)]))
        assert not infeasible_claim(problem_terms(s), (1, -1))


def test_the_checker_depends_on_no_solver():
    # the judge must not come to depend on what it judges: numpy, the
    # standard library and .posynomial only
    source = Path(gpchoice.certificate.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    allowed = {"numpy", ".posynomial", "__future__"}
    foreign = {
        name for name in imported - allowed
        if name.startswith(".") or name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign, foreign
    assert ".posynomial" in imported and "numpy" in imported
