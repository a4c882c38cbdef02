"""The solver-free claims of gpchoice.certificate: hand-made certificates
pass, and each perturbed one fails on the check it breaks."""

import ast
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import gpchoice.certificate
import gpchoice.solver
import test_solver
from gpchoice import (
    evaluate,
    infeasible_claim,
    make_posynomial,
    make_problem,
    optimal_claim,
    problem_terms,
    solve,
    standardize,
)
from gpchoice.certificate import GAP_TOL, VIOLATION_TOL, Terms
from gpchoice.problem_io import as_choice_gp, parse_problem
from gpchoice.selectors import solve_choice
from helpers import (
    PROBLEM_DIR,
    example1_problem,
    example2_problem,
    first_term_multipliers,
)

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


def _claim_bits(claim) -> list[tuple]:
    """Per row, the claim's objective, violation and gap as hex, and holds."""
    return [(*(float(v).hex() for v in floats), holds)
            for *floats, holds in zip(*claim)]


@lru_cache(maxsize=1)
def _keep_all_calls() -> tuple:
    """(terms, x, w) of every claim of a keep-all solve of each fixture: one
    exponent matrix per row, several matrices a call."""
    calls, original = [], gpchoice.solver._optimal_claim

    def spy(t, x, w, plans):
        calls.append((t, x, w))
        return original(t, x, w, plans)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpchoice.solver, "_optimal_claim", spy)
        for path in sorted(PROBLEM_DIR.glob("*.json")):
            solve_choice(as_choice_gp(parse_problem(path)), keep_assignments=True)
    return tuple(calls)


def _posynomials(t: Terms, row: int) -> list:
    """Each block of row's terms as a posynomial, objective first."""
    coefficients = t.coefficients if t.coefficients.ndim == 1 else t.coefficients[row]
    exponents = t.exponents if t.exponents.ndim == 2 else t.exponents[row]
    return [make_posynomial(zip(coefficients[t.blocks == b].tolist(),
                                exponents[t.blocks == b].tolist()))
            for b in range(t.blocks.max() + 1)]


def _random_terms(rng, rows: int, shared: bool) -> tuple[Terms, np.ndarray, np.ndarray]:
    """Terms of rows random points over three blocks, with zero, negative
    and fractional exponents, and weights that need not meet any equation."""
    blocks = np.array([0, 0, 0, 1, 1, 2, 2, 2])
    shape = (len(blocks), 4) if shared else (rows, len(blocks), 4)
    exponents = rng.choice([0.0, 0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -1.5, 1 / 3, 2.7], shape)
    coefficients = np.exp(rng.normal(size=(rows, len(blocks))))
    x = np.exp(rng.normal(size=(rows, 4)))
    w = rng.uniform(0.0, 1.0, size=(rows, len(blocks)))
    return Terms(coefficients, exponents, blocks), x, w


def _each_posynomial_bits(t: Terms, x, w) -> None:
    """The claim's f_0(x), and each f_i(x) behind its violation, are
    evaluate's values bit for bit: the worst violation, then each block as
    the only constraint (violation max(0, f_i(x) - 1)) and as the objective."""
    claim = optimal_claim(t, x, w)
    values = [[evaluate(p, xs) for p in _posynomials(t, i)] for i, xs in enumerate(x)]
    assert [v.hex() for v in claim.objective] == [f[0].hex() for f in values]
    assert [v.hex() for v in claim.violation] == [
        max([0.0, *(f_i - 1.0 for f_i in f[1:])]).hex() for f in values]
    for b in range(1, t.blocks.max() + 1):
        sole = (t.blocks == 0) | (t.blocks == b)
        part = optimal_claim(Terms(t.coefficients[:, sole], t.exponents[..., sole, :],
                                   np.minimum(t.blocks[sole], 1)), x, w[:, sole])
        assert [v.hex() for v in part.violation] == [max(0.0, f[b] - 1.0).hex() for f in values]
        alone = t.blocks == b
        part = optimal_claim(Terms(t.coefficients[:, alone], t.exponents[..., alone, :],
                                   t.blocks[alone] * 0), x, w[:, alone])
        assert [v.hex() for v in part.objective] == [f[b].hex() for f in values]


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
        # (5.16e-11 over the stress sweep), so it checked less than it
        # could; every certified row's gap is checked to this tolerance,
        # which proves the optimum only where orthogonality holds exactly
        # (ROADMAP item 24)
        assert GAP_TOL <= 1e-8

    def test_rows_are_judged_apart(self):
        x = [X, (0.0, 1.0), X]
        w = [W, W, (0.5, 0.5, -1e-3, -1e-3)]
        claim = optimal_claim(problem_terms(PROBLEM), x, w)
        assert claim.holds == [True, False, False]
        assert math.isnan(claim.objective[1]) and math.isnan(claim.gap[1])

    def test_per_row_exponents_judge_each_row_as_alone(self):
        # the perturbed systems of the merged-batch test: each family's
        # systems share a block layout, not their exponents
        batches = 0
        for family in test_solver.TestMergedBatches._families():
            problems = [s for system in family for s in system]
            terms = [problem_terms(s) for s in problems]
            if len({t.exponents.shape for t in terms}) > 1:
                continue
            reports = [solve(s) for s in problems]
            rows = [i for i, r in enumerate(reports) if r.primal_x is not None]
            if len({terms[i].exponents.tobytes() for i in rows}) < 2:
                continue
            batches += 1
            x = np.array([reports[i].primal_x for i in rows])
            w = np.array([reports[i].dual.weights for i in rows])
            w[-1, 0] = -w[-1, 0]  # a negative weight fails its own row alone
            batch = Terms(np.array([terms[i].coefficients for i in rows]),
                          np.array([terms[i].exponents for i in rows]),
                          terms[rows[0]].blocks)
            alone = [optimal_claim(terms[i], x[j:j + 1], w[j:j + 1])
                     for j, i in enumerate(rows)]
            together = optimal_claim(batch, x, w)
            assert _claim_bits(together) == [
                bits for claim in alone for bits in _claim_bits(claim)
            ]
            assert together.holds[:-1] == [True] * (len(rows) - 1)
            assert not together.holds[-1]
            # an x of the wrong length is no point for any row
            longer = np.hstack([x, np.ones((len(x), 1))])
            assert optimal_claim(batch, longer, w).holds == [False] * len(rows)
        assert batches >= 25  # 29 families, 251 rows

    def test_keep_all_claims_sum_as_evaluate(self):
        # every keep-all row of every fixture, as the solver certifies it
        rows = 0
        for t, x, w in _keep_all_calls():
            _each_posynomial_bits(t, x, w)
            rows += len(x)
        assert rows == 1002

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_points_sum_as_evaluate(self, seed, shared):
        _each_posynomial_bits(*_random_terms(np.random.default_rng(seed), 40, shared))

    def test_rows_of_two_matrices_out_of_order_are_judged_as_alone(self):
        # a keep-all call's rows mix its expansions' exponent matrices; taken
        # in a shuffled order, and with random rows of two matrices
        # interleaved, each row's claim is its claim alone
        t, x, w = max(_keep_all_calls(), key=lambda call: len(call[1]))
        assert len({m.tobytes() for m in t.exponents}) >= 2
        order = np.random.default_rng(1).permutation(len(x))
        batches = [(Terms(t.coefficients[order], t.exponents[order], t.blocks),
                    x[order], w[order])]
        rng = np.random.default_rng(2)
        (a, xa, wa), (b, xb, wb) = (_random_terms(rng, 8, True) for _ in range(2))
        pick = np.array([1, 0, 0, 1, 0, 1, 1, 0], dtype=bool)[:, None]  # b's rows
        batches.append((Terms(np.where(pick, b.coefficients, a.coefficients),
                              np.where(pick[..., None], b.exponents, a.exponents), a.blocks),
                        np.where(pick, xb, xa), np.where(pick, wb, wa)))
        for terms, points, weights in batches:
            alone = [optimal_claim(Terms(terms.coefficients[i:i + 1],
                                         terms.exponents[i], terms.blocks),
                                   points[i:i + 1], weights[i:i + 1])
                     for i in range(len(points))]
            assert _claim_bits(optimal_claim(terms, points, weights)) == [
                bits for claim in alone for bits in _claim_bits(claim)]
        assert sum(optimal_claim(*batches[0]).holds) > len(x) // 2

    def test_a_shared_matrix_claims_as_one_matrix_a_row(self):
        # the rows of each exponent matrix of the keep-all calls, with the
        # matrix shared (K, n) and repeated (B, K, n)
        groups = 0
        for t, x, w in _keep_all_calls():
            keys = [m.tobytes() for m in t.exponents]
            for key in dict.fromkeys(keys):
                rows = [i for i, k in enumerate(keys) if k == key]
                per_row = Terms(t.coefficients[rows], t.exponents[rows], t.blocks)
                shared = per_row._replace(exponents=t.exponents[rows[0]])
                assert _claim_bits(optimal_claim(shared, x[rows], w[rows])) == _claim_bits(
                    optimal_claim(per_row, x[rows], w[rows]))
                groups += 1
        assert groups > len(_keep_all_calls())

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_claim_builds_one_plan_per_matrix_it_is_given(self, monkeypatch, shared):
        # no plan outlives its claim: a shared (K, n) matrix builds one, a
        # (B, K, n) stack one per row, and the claim repeated builds them anew
        built, original = [], gpchoice.certificate._plan
        monkeypatch.setattr(gpchoice.certificate, "_plan",
                            lambda *args: built.append(args) or original(*args))
        t, x, w = _random_terms(np.random.default_rng(3), 6, shared)
        first = _claim_bits(optimal_claim(t, x, w))
        assert len(built) == (1 if shared else 6)
        assert _claim_bits(optimal_claim(t, x, w)) == first
        assert len(built) == (2 if shared else 12)

    @pytest.mark.parametrize("shared", [False, True])
    def test_the_same_exponent_bytes_under_another_block_layout_sum_as_evaluate(self, shared):
        # each claim reads its matrix under its own blocks: the same bytes
        # claimed under one layout, then under two others, sum as evaluate
        t, x, w = _random_terms(np.random.default_rng(3), 6, shared)
        for blocks in (t.blocks, [0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 1, 1, 1, 1, 2, 2]):
            _each_posynomial_bits(t._replace(blocks=np.array(blocks)), x, w)

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
        # 2x^0.1 <= 1 and 3x^-0.3 <= 1: (3, 1) cancels the exponents to
        # rounding, 3 * 0.1 - 0.3 = 5.55e-17, which no x in the doubles can use
        s = standardize(make_problem([(1, (1,))], [([(2, (0.1,))], 1.0),
                                                   ([(3, (-0.3,))], 1.0)]))
        assert infeasible_claim(problem_terms(s), (3, 1))
        # e^600 x <= 1 and e^-599.5 x^-a <= 1, with (1, 1): the product asks
        # 0.5 + (1 - a) log x <= 0.  At a = 0.999 it leaves log x <= -500, and
        # x = e^-600.05 meets both; at a = 0.9999 it asks log x <= -5000,
        # beyond the doubles
        for a, holds in ((0.999, False), (0.9999, True)):
            s = standardize(make_problem([(1, (1,))], [([(math.exp(600), (1,))], 1.0),
                                                       ([(math.exp(-599.5), (-a,))], 1.0)]))
            x = math.exp(-600.05)
            assert (evaluate(s.constraints[0], (x,)) <= 1.0
                    and evaluate(s.constraints[1], (x,)) <= 1.0) is not holds
            assert infeasible_claim(problem_terms(s), (1, 1)) is holds


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
