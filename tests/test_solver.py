import itertools
import math
import subprocess
import sys
import threading
from collections import Counter, namedtuple
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gpchoice.solver
from gpchoice import (
    Status,
    build_dual,
    evaluate,
    infeasible_claim,
    make_problem,
    optimal_claim,
    problem_terms,
    recover_primal,
    solve,
    solve_dual,
    standardize,
)
from gpchoice.posynomial import Posynomial
from gpchoice.problem_io import as_choice_gp, parse_problem
from gpchoice.selectors import solve_choice
from gpchoice.solver import (
    _BARRIER_SCHEDULE,
    _STATIONARITY_TOL,
    FEASIBILITY_TOL,
    GAP_TOL,
    DualSolution,
    ReconstructionError,
    _barrier_eval,
    _dual_start,
    _equality_start,
    _newton_step,
    _null_space,
    _projected_norm,
    _reduced_program,
    _solve_duals,
    _solve_rows,
    _support_point,
    _system_key,
)
from helpers import (
    EX1_W,
    EX1_X,
    EX1_Z,
    EX2_W,
    EX2_X,
    EX2_Z,
    PROBLEM_DIR,
    degenerate_minimax_gp,
    example1_problem,
    example2_problem,
    first_term_multipliers,
    first_term_split,
    free_variable_gp,
    gate_sizing_chain,
    large_coefficient_gp,
    negative_difficulty_gp,
    primal_infeasible_gp,
    random_feasible_gp,
    zero_difficulty_gp,
)


class TestSolveDual:
    def test_example1_weights_match_reference(self):
        ds = solve_dual(build_dual(standardize(example1_problem())))
        assert ds.status is Status.OPTIMAL
        assert ds.objective_value == pytest.approx(EX1_Z, abs=1e-3)
        np.testing.assert_allclose(ds.weights, EX1_W, atol=1e-3)

    def test_example2_weights_match_reference(self):
        ds = solve_dual(build_dual(standardize(example2_problem())))
        assert ds.status is Status.OPTIMAL
        assert ds.objective_value == pytest.approx(EX2_Z, abs=1e-3)
        assert ds.weights[6] == pytest.approx(0.3333285, abs=1e-3)  # w21
        np.testing.assert_allclose(ds.weights, EX2_W, atol=1e-3)
        np.testing.assert_allclose(
            ds.lambdas, [EX2_W[4] + EX2_W[5], EX2_W[6]], atol=1e-3
        )

    def test_zero_degree_of_difficulty_solved_directly(self):
        ds = solve_dual(build_dual(standardize(make_problem([(1, (1,)), (1, (-1,))]))))
        assert ds.status is Status.OPTIMAL
        assert ds.iterations == 0  # direct linear solve, no Newton steps
        np.testing.assert_allclose(ds.weights, [0.5, 0.5], atol=1e-12)
        assert ds.objective_value == pytest.approx(2.0, rel=1e-12)

    def test_residuals_meet_settings_at_optimum(self):
        for g in (example1_problem(), example2_problem()):
            ds = solve_dual(build_dual(standardize(g)))
            assert ds.status is Status.OPTIMAL
            assert ds.equality_residual <= FEASIBILITY_TOL
            assert ds.stationarity <= _STATIONARITY_TOL

    def test_empty_feasible_set_is_infeasible(self):
        # min x1*x2 with x1*x2 <= 1: orthogonality forces a negative weight
        g = make_problem([(1, (1, 1))], [([(1, (1, 1))], 1.0)])
        ds = solve_dual(build_dual(standardize(g)))
        assert ds.status is Status.INFEASIBLE

    def test_unbounded_dual_for_infeasible_primal(self):
        # 2x + 3/x <= 1 has no solution; the dual grows without bound
        g = make_problem([(1, (1,))], [([(2, (1,)), (3, (-1,))], 1.0)])
        ds = solve_dual(build_dual(standardize(g)))
        assert ds.status is Status.UNBOUNDED

    def test_forced_zero_weights_are_reduced_away(self):
        # x2 appears only with positive exponents, so its orthogonality row
        # forces the last two weights to zero: the feasible set is nonempty
        # but has no interior
        g = make_problem(
            [(1, (1, 0)), (1, (-1, 0)), (1, (1, 1)), (1, (-1, 1))]
        )
        ds = solve_dual(build_dual(standardize(g)))
        assert ds.status is Status.OPTIMAL
        np.testing.assert_allclose(ds.weights, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert ds.objective_value == pytest.approx(2.0, rel=1e-12)
        # the primal infimum (2, as x2 -> 0) is not attained, and the full
        # solve must not report a spurious optimum
        assert solve(standardize(g)).status is not Status.OPTIMAL

    @pytest.mark.parametrize(
        "constraint, reduced",
        [
            # one y term: the affine set is the single point (0.5, 0.5, 0)
            ([(1, (0, 1))], False),
            # two y terms: the support LP finds w_y = 0 and the reduced
            # program loses the constraint block
            ([(0.25, (0, 1)), (0.25, (0, 2))], True),
        ],
    )
    def test_emptied_constraint_block_on_the_forced_zero_path(
        self, monkeypatch, constraint, reduced
    ):
        # min x + 1/x s.t. a posynomial in y alone <= 1: y appears only with
        # positive exponents, so every feasible point zeroes its weights
        reduced_sizes = []
        original = gpchoice.solver._reduced_program

        def spy(d, keep):
            program = original(d, keep)
            reduced_sizes.append(program.block_sizes)
            return program

        monkeypatch.setattr(gpchoice.solver, "_reduced_program", spy)
        s = standardize(make_problem([(1, (1, 0)), (1, (-1, 0))], [(constraint, 1.0)]))
        ds = solve_dual(build_dual(s))
        assert ds.status is Status.OPTIMAL
        padding = [0.0] * len(constraint)
        np.testing.assert_allclose(ds.weights, [0.5, 0.5] + padding, atol=1e-12)
        np.testing.assert_array_equal(ds.lambdas, [0.0])
        assert ds.objective_value == pytest.approx(2.0, rel=1e-12)
        assert reduced_sizes == ([(2,)] if reduced else [])
        report = solve(s)
        assert report.status is Status.OPTIMAL
        np.testing.assert_allclose(report.primal_x, (1.0, 1.0), rtol=1e-9)

    def test_inconsistent_equality_system_is_infeasible_at_once(self):
        # x's orthogonality row equals the normality row, so A w = e1 has no
        # solution: the least-squares projection leaves residual 0.5
        g = make_problem([(1, (1, 1)), (1, (1, -1))], [([(1, (0, 1))], 1.0)])
        ds = solve_dual(build_dual(standardize(g)))
        assert ds.status is Status.INFEASIBLE
        assert ds.iterations == 0
        assert solve(standardize(g)).status is not Status.OPTIMAL


def _empty_set() -> tuple[np.ndarray, np.ndarray]:
    # min x1*x2 with x1*x2 <= 1: orthogonality forces a negative weight
    d = build_dual(standardize(make_problem([(1, (1, 1))], [([(1, (1, 1))], 1.0)])))
    return d.equality_matrix, d.equality_rhs


def _forced_zeros() -> tuple[np.ndarray, np.ndarray]:
    # the last row zeroes w3 and w4; w0 = w1 and w2 = 1 - 2 w0 leave a
    # segment whose relative interior is positive on w0, w1, w2
    a = np.array(
        [[1.0, 1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 1.0, 2.0]]
    )
    return a, np.array([1.0, 0.0, 0.0])


def _start_bytes(start) -> tuple:
    return tuple(None if arr is None else arr.tobytes() for arr in start)


class TestSupportPoint:
    """One NNLS solve proves {A w = b, w >= 0} empty; the LP finds the
    support of the rest."""

    @staticmethod
    def _count_lp(monkeypatch) -> list[str]:
        import scipy.optimize

        calls = []
        for name in ("linprog", "nnls"):
            original = getattr(scipy.optimize, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.optimize, name, spy)
        return calls

    @staticmethod
    def _replace_nnls(monkeypatch, nnls):
        import scipy.optimize

        monkeypatch.setattr(scipy.optimize, "nnls", nnls)

    @staticmethod
    def _capped(a, b):
        raise RuntimeError("Maximum number of iterations reached.")

    @staticmethod
    def _no_residual(a, b):
        # a solution of A w = b that may be negative: the gate never fires,
        # so the LP alone decides
        return np.linalg.lstsq(a, b, rcond=None)[0], 0.0

    @staticmethod
    def _support_calls(monkeypatch, indices) -> list[tuple]:
        """(system key, a, b, w) of each _support_point call that the cold
        starts of these stress problems make."""
        calls, original = [], gpchoice.solver._support_point

        def spy(a, b):
            w = original(a, b)
            calls.append((a, b, w))
            return w

        monkeypatch.setattr(gpchoice.solver, "_support_point", spy)
        out = []
        for index in indices:
            key = _system_key(build_dual(standardize(_stress_problems()[index])))
            _equality_start.__wrapped__(*key)
            out += [(key, *call) for call in calls]
            calls.clear()
        return out

    def test_forced_zeros_are_exact_and_the_rest_positive(self, monkeypatch):
        calls = self._count_lp(monkeypatch)
        a, b = _forced_zeros()
        w = _support_point(a, b)
        assert calls == ["nnls", "linprog"]
        assert np.all(w[:3] > 0.0)
        np.testing.assert_array_equal(w[3:], [0.0, 0.0])
        np.testing.assert_allclose(a @ w, b, rtol=0, atol=1e-9)
        self._replace_nnls(monkeypatch, self._no_residual)
        assert _support_point(a, b).tobytes() == w.tobytes()

    def test_empty_set_gives_none(self, monkeypatch):
        calls = self._count_lp(monkeypatch)
        assert _support_point(*_empty_set()) is None
        assert calls == ["nnls"]

    def test_the_nnls_residual_is_a_farkas_witness(self, monkeypatch):
        # w >= 0 nearest to A w = b leaves y = A w - b with A^T y >= 0 and
        # b^T y = -|y|^2 < 0, so no w >= 0 solves A w = b
        from scipy.optimize import nnls

        empty = [(a, b) for _, a, b, w in self._support_calls(monkeypatch, range(300))
                 if w is None]
        assert len(empty) == 44
        for a, b in [_empty_set(), *empty]:
            w, _ = nnls(a, b)
            y = a @ w - b
            y /= np.linalg.norm(y)
            assert (a.T @ y).min() >= -1e-10
            assert b @ y <= -1e-8

    def test_an_nnls_past_its_iteration_cap_falls_back_to_the_lp(self, monkeypatch):
        a, b = _forced_zeros()
        gated = _support_point(a, b)
        self._replace_nnls(monkeypatch, self._capped)
        calls = self._count_lp(monkeypatch)
        assert _support_point(a, b).tobytes() == gated.tobytes()
        assert _support_point(*_empty_set()) is None
        assert calls.count("linprog") == 2

    def test_the_lp_alone_gives_the_same_starts(self, monkeypatch):
        indices = [*range(300), *TestStressRegressions.LP_STARTS]
        support = self._support_calls(monkeypatch, indices)
        keys = {key: w is None for key, *_, w in support}
        # 44 empty sets and the LP_STARTS
        assert sum(keys.values()) == 44
        assert len(keys) == 44 + len(TestStressRegressions.LP_STARTS)
        gated = [_start_bytes(_equality_start.__wrapped__(*key)) for key in keys]
        self._replace_nnls(monkeypatch, self._no_residual)
        calls = self._count_lp(monkeypatch)
        alone = [_start_bytes(_equality_start.__wrapped__(*key)) for key in keys]
        assert alone == gated
        assert calls.count("linprog") == len(keys)

    def test_first_300_stress_problems_make_8_lp_calls(self, monkeypatch):
        calls = self._count_lp(monkeypatch)
        _equality_start.cache_clear()
        for g in _stress_problems()[:300]:
            solve(standardize(g))
        assert Counter(calls) == {"nnls": 52, "linprog": 8}


class TestRecoverPrimal:
    def test_example1_point(self):
        s = standardize(example1_problem())
        ds = solve_dual(build_dual(s))
        np.testing.assert_allclose(recover_primal(s, ds), EX1_X, atol=1e-4)

    def test_example2_point(self):
        s = standardize(example2_problem())
        ds = solve_dual(build_dual(s))
        np.testing.assert_allclose(recover_primal(s, ds), EX2_X, atol=1e-2)

    def test_balanced_two_term_objective_recovers_unit_point(self):
        s = standardize(make_problem([(1, (1,)), (1, (-1,))]))
        ds = solve_dual(build_dual(s))
        np.testing.assert_allclose(recover_primal(s, ds), [1.0], atol=1e-12)

    def test_inconsistent_weights_raise(self):
        s = standardize(example1_problem())
        ds = solve_dual(build_dual(s))
        corrupted = DualSolution(
            status=ds.status,
            weights=ds.weights.copy(),
            lambdas=ds.lambdas.copy(),
            objective_value=2.0 * ds.objective_value,  # wrong scale
            equality_residual=ds.equality_residual,
            stationarity=ds.stationarity,
            iterations=ds.iterations,
        )
        with pytest.raises(ReconstructionError):
            recover_primal(s, corrupted)


class TestSolve:
    def test_underflowing_primal_recovery_gives_a_report(self):
        # the dual is optimal at z = 2e-10, but x = 1e-1000 underflows to 0;
        # the report says so as the overflowing twin does, instead of raising
        for c in (1e-20, 1e20):
            s = standardize(make_problem([(1, (0.01,)), (c, (-0.01,))]))
            report = solve(s)
            assert report.dual.status is Status.OPTIMAL
            assert report.dual.objective_value == pytest.approx(2.0 * c**0.5)
            assert report.status is Status.ITERATION_LIMIT
            assert report.primal_x is None
            with pytest.raises(ReconstructionError, match="overflows or underflows"):
                recover_primal(s, report.dual)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_dual_value_gives_a_report(self):
        # min 1e-300 x s.t. 1e-30 / x <= 1: the dual is optimal at z = 1e-330,
        # which is 0 in doubles, so log(w z) has no finite value to recover x
        s = standardize(make_problem([(1e-300, (1.0,))], [([(1e-30, (-1.0,))], 1.0)]))
        report = solve(s)
        assert report.dual.status is Status.OPTIMAL
        assert report.dual.objective_value == 0.0
        assert report.status is Status.ITERATION_LIMIT
        assert report.primal_x is None
        with pytest.raises(ReconstructionError, match="w \\* z underflows"):
            recover_primal(s, report.dual)

    def test_example1_report(self):
        report = solve(standardize(example1_problem()))
        assert report.status is Status.OPTIMAL
        assert report.objective_value == pytest.approx(EX1_Z, abs=1e-4)
        np.testing.assert_allclose(report.primal_x, EX1_X, atol=1e-4)
        assert report.duality_gap <= 1e-6
        assert report.kkt_residuals.primal_feasibility <= 1e-8

    def test_example2_report(self):
        report = solve(standardize(example2_problem()))
        assert report.status is Status.OPTIMAL
        assert report.objective_value == pytest.approx(EX2_Z, abs=1e-3)
        np.testing.assert_allclose(report.primal_x, EX2_X, atol=1e-2)

    def test_unattained_infimum_is_not_reported_optimal(self):
        # objective x1*x2 can approach 0 on the feasible set without
        # attaining it; the solver must not claim optimality
        g = make_problem([(1, (1, 1))], [([(1, (1, 1))], 1.0)])
        report = solve(standardize(g))
        assert report.status is not Status.OPTIMAL

    def test_constant_objective_without_variables(self):
        report = solve(standardize(make_problem([(5.0, ())], variable_names=[])))
        assert report.status is Status.OPTIMAL
        assert report.objective_value == pytest.approx(5.0, rel=1e-12)
        assert report.primal_x == ()

    def test_deterministic_bit_identical_reports(self):
        s = standardize(example2_problem())
        first = solve(s)
        second = solve(s)
        assert first.objective_value == second.objective_value
        assert first.primal_x == second.primal_x
        assert first.duality_gap == second.duality_gap
        assert np.array_equal(first.dual.weights, second.dual.weights)

    def test_optimal_reports_satisfy_gap_and_residual_bounds(self):
        rng = np.random.default_rng(314)
        optimal = 0
        for _ in range(40):
            s = standardize(random_feasible_gp(rng))
            report = solve(s)
            if report.status is Status.OPTIMAL:
                optimal += 1
                assert report.duality_gap <= 1e-6
                assert report.dual.equality_residual <= 1e-10
                for posy in s.constraints:
                    assert evaluate(posy, report.primal_x) <= 1.0 + 1e-8
        assert optimal >= 15  # the generator must keep producing solvable cases


class TestSolverSettings:
    """The solver's constants, read at call time."""

    # example 1 takes the fast path; stress problem 3 adds the barrier and a
    # reduced last pass, 23 the support LP, 55 the drop of inactive blocks
    @pytest.mark.parametrize("index", [None, 3, 23, 55])
    def test_max_iterations_bounds_every_pass_of_a_solve(self, monkeypatch, index):
        g = example1_problem() if index is None else _stress_problems()[index]
        d = build_dual(standardize(g))
        full = solve_dual(d)
        assert full.status is Status.OPTIMAL
        n = full.iterations
        monkeypatch.setattr(gpchoice.solver, "_MAX_ITERATIONS", n)
        exact = solve_dual(d)
        assert _solution_bytes(exact) == _solution_bytes(full)
        for budget in (1, n // 2, n - 1):
            monkeypatch.setattr(gpchoice.solver, "_MAX_ITERATIONS", budget)
            ds = solve_dual(d)
            assert ds.status is Status.ITERATION_LIMIT
            assert ds.iterations <= budget
        monkeypatch.setattr(gpchoice.solver, "_MAX_ITERATIONS", 1)
        short = solve(standardize(g))
        assert short.status is Status.ITERATION_LIMIT


class TestNumpyLinearAlgebra:
    """The numpy null space and Newton step agree with their scipy originals."""

    @staticmethod
    def _rank_deficient(rng):
        rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 9))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        a = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        if rng.random() < 0.5:  # stacked unit rows, as for a face of zero weights
            a = np.vstack([a, np.eye(cols)[rng.random(cols) < 0.3]])
        return a

    @pytest.mark.parametrize("seed", range(20))
    def test_null_space_matches_scipy(self, seed):
        import scipy.linalg

        a = self._rank_deficient(np.random.default_rng(seed))
        mine = _null_space(a)
        ref = scipy.linalg.null_space(a)
        assert mine.shape == ref.shape
        np.testing.assert_allclose(mine.T @ mine, np.eye(mine.shape[1]), atol=1e-12)
        np.testing.assert_allclose(a @ mine, 0.0, atol=1e-12 * max(1.0, np.abs(a).max()))
        np.testing.assert_allclose(mine @ mine.T, ref @ ref.T, atol=1e-12)

    def test_null_space_of_full_column_rank_is_empty(self):
        assert _null_space(np.eye(3)).shape == (3, 0)

    @staticmethod
    def _scipy_newton_step(hu, gu):
        """The Newton step as computed before, through scipy's Cholesky."""
        import scipy.linalg

        neg = -(hu + hu.T) / 2.0
        ridge = 0.0
        scale = max(1.0, float(np.max(np.abs(neg))))
        for _ in range(6):
            try:
                factor = scipy.linalg.cho_factor(neg + ridge * np.eye(len(gu)))
                return scipy.linalg.cho_solve(factor, gu)
            except (np.linalg.LinAlgError, ValueError):
                ridge = max(10.0 * ridge, 1e-12 * scale)
        return gu

    @pytest.mark.parametrize("seed", range(10))
    def test_newton_step_matches_scipy_cholesky(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        root = rng.normal(size=(n, n))
        hu = -(root @ root.T) - 1e-3 * np.eye(n)
        hu += 1e-9 * rng.normal(size=(n, n))  # asymmetric rounding noise
        gu = rng.normal(size=n)
        np.testing.assert_allclose(
            _newton_step(hu, gu), self._scipy_newton_step(hu, gu), rtol=1e-9
        )

    def test_newton_step_on_a_singular_hessian_matches_the_scipy_ridge(self):
        # the ridge adds 1e-12 to every eigenvalue, the floor only to the zero
        hu = -np.diag([1.0, 0.0])
        gu = np.array([0.5, -2.0])
        np.testing.assert_allclose(
            _newton_step(hu, gu), self._scipy_newton_step(hu, gu), rtol=2e-12
        )

    @given(
        st.integers(1, 6),
        st.sampled_from(["definite", "singular", "indefinite"]),
        st.floats(-8.0, 8.0),
        st.integers(0, 2**32 - 1),
    )
    def test_newton_step_is_finite_and_ascends(self, n, kind, log_scale, seed):
        rng = np.random.default_rng(seed)
        eig = 10.0 ** rng.uniform(-6.0, 0.0, size=n)  # eigenvalues of -hu
        if kind == "singular":
            eig[rng.random(n) < 0.5] = 0.0
            eig[0] = 0.0
        elif kind == "indefinite":
            eig *= rng.choice([-1.0, 1.0], size=n)
            eig[0] = -abs(eig[0])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        hu = -(10.0**log_scale) * (q * eig) @ q.T
        gu = rng.normal(size=n)
        du = _newton_step(hu, gu)
        assert np.isfinite(du).all()
        assert gu @ du > 0.0

    def test_import_loads_no_scipy(self):
        src = Path(__import__("gpchoice").__file__).resolve().parent.parent
        code = (
            "import sys, gpchoice.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "[]"

    def test_shipped_problems_never_reach_the_lp(self):
        # every expansion of the 12 fixtures starts from the projection or
        # from alternating projections, so a cold CLI never loads scipy
        src = Path(__import__("gpchoice").__file__).resolve().parent.parent
        code = (
            "import sys, pathlib; "
            "from gpchoice import parse_problem, solve_choice; "
            f"paths = sorted(pathlib.Path({str(PROBLEM_DIR)!r}).glob('*.json')); "
            "assert len(paths) == 12; "
            "[solve_choice(parse_problem(p), keep_assignments=True) for p in paths]; "
            "print('scipy.optimize' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"


STRESS_SEED = 20260808


@lru_cache(maxsize=1)
def _stress_problems(count=2000):
    rng = np.random.default_rng(STRESS_SEED)
    return tuple(random_feasible_gp(rng) for _ in range(count))


class TestStressRegressions:
    """Problems of the stress sweep (random_feasible_gp at seed 20260808)."""

    # every constraint block is inactive at the optimum; the barrier used to
    # leave those weights near 1e-10 and stall in ITERATION_LIMIT
    STALLS = (55, 129, 218, 374, 378, 482, 528, 649, 717, 865, 908, 934,
              1102, 1109, 1113)
    # OPTIMAL only by a hair before the stall fix; rounding could flip them
    KNIFE_EDGE = (131, 230, 412, 756)
    # a weight of 1e-15 to 1e-13 inside an active block: dropping inactive
    # blocks alone leaves them in ITERATION_LIMIT
    TINY_WEIGHTS = (289, 474, 1393, 1434)
    # a weight of 3e-8 to 6e-8 in an active block, kept by the drop
    SMALL_WEIGHTS = (21, 312)
    # independent primal SLSQP optima in log space
    SLSQP = {55: 1.2220566, 129: 13.314045, 218: 6.4653102}

    @pytest.mark.parametrize(
        "index", STALLS + KNIFE_EDGE + TINY_WEIGHTS + SMALL_WEIGHTS
    )
    def test_inactive_constraints_reach_a_certified_optimum(self, index):
        s = standardize(_stress_problems()[index])
        report = solve(s)
        assert report.status is Status.OPTIMAL
        assert report.duality_gap <= 1e-6
        assert report.kkt_residuals.primal_feasibility <= 1e-8
        if index in self.SLSQP:
            assert report.objective_value == pytest.approx(
                self.SLSQP[index], rel=1e-6
            )

    def test_1522_certifies_in_its_first_solve(self, monkeypatch):
        # at stationarity 1e-8 the dual stopped at 9.9e-9 after 6 iterations
        # and the recovered x violated a constraint by 1.04e-8, so it took a
        # second solve; at 1e-10 one solve of 7 iterations certifies
        solves = []
        original = gpchoice.solver._solve_duals

        def spy(d, coefficients):
            solves.append(coefficients)
            return original(d, coefficients)

        monkeypatch.setattr(gpchoice.solver, "_solve_duals", spy)
        report = solve(standardize(_stress_problems()[1522]))
        assert report.status is Status.OPTIMAL
        assert report.duality_gap <= 1e-6
        assert report.kkt_residuals.primal_feasibility <= 1e-8
        assert report.dual.stationarity <= 1e-10
        assert report.dual.iterations == 7
        assert len(solves) == 1

    # the projection and alternating projections find no interior start;
    # the support LP does
    LP_STARTS = (23, 27, 33, 85, 125, 148, 149, 289, 312, 325, 372, 428, 434,
                 540, 559, 565, 588, 630, 637, 694, 897, 1057, 1065, 1124, 1158,
                 1216, 1262, 1340, 1357, 1362, 1387, 1393, 1472, 1477, 1546,
                 1558, 1605, 1633, 1652, 1772, 1901, 1921)

    @pytest.mark.parametrize("index", LP_STARTS)
    def test_lp_start_reaches_a_certified_optimum(self, index):
        report = solve(standardize(_stress_problems()[index]))
        assert report.status is Status.OPTIMAL
        assert report.duality_gap <= 1e-6
        assert report.kkt_residuals.primal_feasibility <= 1e-8

    # these are INFEASIBLE (feasible by construction, but the infimum is not
    # attained), 791 is ITERATION_LIMIT and the other 1428 are OPTIMAL
    INFEASIBLE = (0, 1, 7, 17, 20, 28, 29, 31, 32, 38, 39, 40, 41, 44, 50, 51,
                  57, 58, 73, 77, 79, 86, 87, 88, 91, 93, 108, 110, 111, 112,
                  113, 115, 118, 133, 135, 136, 140, 153, 156, 157, 164, 169,
                  174, 181, 183, 189, 195, 196, 199, 205, 206, 212, 213, 215,
                  219, 221, 224, 225, 227, 231, 233, 236, 239, 241, 249, 254,
                  255, 260, 261, 262, 264, 268, 269, 270, 272, 275, 278, 280,
                  283, 285, 286, 290, 294, 295, 297, 301, 302, 309, 310, 316,
                  319, 321, 324, 327, 329, 337, 343, 352, 356, 360, 364, 365,
                  366, 367, 380, 382, 393, 394, 395, 396, 397, 398, 407, 410,
                  420, 421, 422, 432, 433, 443, 448, 449, 453, 465, 467, 473,
                  477, 478, 480, 487, 488, 489, 490, 493, 496, 499, 504, 505,
                  506, 509, 510, 511, 512, 513, 515, 516, 518, 520, 527, 535,
                  543, 545, 546, 550, 552, 563, 566, 572, 578, 580, 583, 587,
                  593, 594, 596, 600, 603, 606, 607, 610, 611, 612, 613, 616,
                  618, 619, 621, 622, 627, 635, 636, 644, 646, 648, 654, 655,
                  658, 662, 667, 670, 671, 673, 680, 683, 685, 686, 688, 689,
                  691, 700, 705, 707, 708, 715, 720, 726, 736, 739, 740, 741,
                  744, 745, 747, 749, 750, 751, 752, 754, 761, 762, 765, 766,
                  772, 774, 778, 786, 787, 789, 792, 794, 795, 796, 798, 804,
                  809, 815, 819, 820, 824, 827, 839, 848, 850, 853, 854, 855,
                  857, 859, 862, 864, 877, 878, 879, 887, 906, 910, 911, 912,
                  913, 914, 922, 924, 925, 927, 932, 933, 940, 942, 943, 946,
                  947, 956, 957, 966, 968, 969, 970, 973, 975, 977, 978, 981,
                  988, 992, 993, 996, 999, 1001, 1003, 1004, 1005, 1011, 1015,
                  1016, 1017, 1025, 1027, 1031, 1036, 1040, 1041, 1052, 1054,
                  1056, 1058, 1059, 1062, 1068, 1069, 1074, 1079, 1086, 1087,
                  1089, 1094, 1104, 1106, 1108, 1115, 1119, 1120, 1122, 1128,
                  1130, 1131, 1136, 1142, 1143, 1144, 1145, 1153, 1168, 1172,
                  1174, 1177, 1178, 1180, 1182, 1183, 1184, 1188, 1189, 1192,
                  1197, 1201, 1204, 1213, 1215, 1217, 1222, 1225, 1234, 1243,
                  1246, 1255, 1257, 1267, 1271, 1274, 1275, 1279, 1281, 1282,
                  1286, 1287, 1292, 1298, 1299, 1301, 1314, 1315, 1317, 1318,
                  1322, 1323, 1326, 1332, 1338, 1345, 1351, 1353, 1355, 1356,
                  1358, 1363, 1367, 1371, 1372, 1373, 1375, 1378, 1379, 1380,
                  1381, 1391, 1396, 1397, 1402, 1412, 1413, 1414, 1415, 1418,
                  1420, 1422, 1427, 1428, 1432, 1436, 1437, 1438, 1441, 1444,
                  1445, 1453, 1455, 1460, 1461, 1462, 1463, 1466, 1467, 1468,
                  1469, 1473, 1476, 1478, 1479, 1482, 1484, 1488, 1491, 1495,
                  1496, 1497, 1502, 1504, 1509, 1513, 1514, 1516, 1523, 1526,
                  1529, 1532, 1533, 1539, 1540, 1542, 1544, 1547, 1555, 1559,
                  1562, 1564, 1568, 1573, 1575, 1576, 1578, 1590, 1597, 1603,
                  1604, 1607, 1613, 1616, 1625, 1626, 1628, 1637, 1644, 1645,
                  1646, 1647, 1649, 1651, 1656, 1658, 1659, 1663, 1670, 1671,
                  1673, 1683, 1684, 1685, 1690, 1695, 1701, 1703, 1704, 1705,
                  1706, 1709, 1710, 1714, 1720, 1730, 1738, 1740, 1741, 1744,
                  1746, 1749, 1751, 1753, 1755, 1758, 1766, 1767, 1768, 1769,
                  1777, 1782, 1788, 1791, 1795, 1796, 1805, 1813, 1814, 1816,
                  1817, 1822, 1827, 1831, 1835, 1837, 1838, 1842, 1849, 1857,
                  1865, 1868, 1876, 1880, 1883, 1888, 1898, 1906, 1908, 1910,
                  1912, 1914, 1915, 1918, 1920, 1922, 1926, 1927, 1931, 1945,
                  1948, 1949, 1950, 1952, 1956, 1957, 1960, 1963, 1970, 1974,
                  1983, 1985, 1988, 1990, 1991, 1993, 1995, 1997)

    def test_status_of_each_of_the_first_2000_problems(self):
        reports = [solve(standardize(g)) for g in _stress_problems()]
        expected = [Status.OPTIMAL] * 2000
        for index in self.INFEASIBLE:
            expected[index] = Status.INFEASIBLE
        expected[791] = Status.ITERATION_LIMIT
        assert len(self.INFEASIBLE) == 571
        assert [report.status for report in reports] == expected
        for report in reports:
            if report.status is Status.OPTIMAL:
                # 8.65e-9 at stationarity 1e-8; 6.4e-11 at 1e-10
                assert report.duality_gap <= 1e-9
                assert report.kkt_residuals.primal_feasibility <= 1e-8
        # 67382 when each barrier stage started from the last centre, 41254
        # before the face guess, 23929 with it
        assert sum(report.dual.iterations for report in reports) <= 25125

    def test_overflowing_primal_recovery_gives_a_report(self):
        # recover_primal overflows x = exp(y) to inf on this problem
        report = solve(standardize(_stress_problems()[791]))
        assert report.status is Status.ITERATION_LIMIT
        assert report.primal_x is None

    def test_optimal_exactly_when_the_certificate_holds(self):
        # the claim is built from the problem, not from its dual program; the
        # free-variable draws that stall end with an x that violates their
        # constraint, so they are the reports with x that are not OPTIMAL
        indices = sorted({*range(200), 791, 1522, *self.LP_STARTS})
        problems = [_stress_problems()[i] for i in indices]
        problems += [_free_variable_draw(i) for i in range(60)]
        with_x = Counter()
        for g in problems:
            s = standardize(g)
            report = solve(s)
            if report.primal_x is None:
                assert report.status is not Status.OPTIMAL
                continue
            claim = optimal_claim(problem_terms(s), [report.primal_x],
                                  [report.dual.weights])
            assert claim.holds[0] is (report.status is Status.OPTIMAL)
            assert claim.objective[0] == report.objective_value
            assert claim.violation[0] == report.kkt_residuals.primal_feasibility
            assert report.duality_gap == claim.gap[0]
            with_x[report.status] += 1
        # 187 of the stress problems and 45 of the free-variable draws
        assert with_x == {Status.OPTIMAL: 187 + 45,
                          Status.ITERATION_LIMIT: len(_FREE_VARIABLE_STALLS)}

    def test_choice_of_a_plain_problem_is_its_solve(self):
        # solve_choice fills its one expansion from the compiled template and
        # solves it as a batch of one: every field as solve, NaN included
        indices = (*range(200), 791, 1522, *self.LP_STARTS)
        statuses = set()
        for index in indices:
            g = _stress_problems()[index]
            result = solve_choice(g)
            alone = solve(standardize(g))
            assert result.status is alone.status
            assert _report_fields(result.report) == _report_fields(alone)
            statuses.add(alone.status)
        assert statuses == {Status.OPTIMAL, Status.INFEASIBLE, Status.ITERATION_LIMIT}


def _infeasible_draw(index: int):
    return primal_infeasible_gp(np.random.default_rng((7, index)))


# draws of primal_infeasible_gp whose dual has no feasible point either: solve
# reports them INFEASIBLE, as it reports a feasible problem whose infimum is
# not attained, instead of UNBOUNDED
_INFEASIBLE_DRAWS = (6, 9, 11, 12, 18, 20, 21, 29, 34, 48, 49, 57, 58)


def _free_variable_draw(index: int):
    return free_variable_gp(np.random.default_rng((11, index)))


# draws of free_variable_gp that solve ends ITERATION_LIMIT: the dual is
# OPTIMAL at z, but recovery sets y = 1, where the constraint is violated
_FREE_VARIABLE_STALLS = (0, 6, 8, 11, 17, 24, 28, 29, 34, 36, 44, 46, 47, 53, 57)


class TestKnownWrongStatuses:
    """Problems whose true status is known by construction.  Where solve
    reports another, the test is a strict expected failure until ROADMAP
    item 1 (primal statuses with certificates) lands."""

    def test_primal_infeasible_draws_carry_a_witness_and_are_never_optimal(self):
        for index in range(60):
            s = standardize(_infeasible_draw(index))
            nu = first_term_multipliers(s, (1, 1))
            assert infeasible_claim(problem_terms(s), nu)
            assert solve(s).status is not Status.OPTIMAL

    @pytest.mark.parametrize("index", [
        pytest.param(i, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: the dual is infeasible too, and "
            "solve reports that as it reports an unattained infimum"))
        if i in _INFEASIBLE_DRAWS else i
        for i in range(60)
    ])
    def test_primal_infeasible_draw_is_unbounded(self, index):
        assert solve(standardize(_infeasible_draw(index))).status is Status.UNBOUNDED

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: recover_primal takes "
                       "the least-squares y = 0 for the free variable")
    def test_free_variable_is_optimal(self):
        # min x + 1/x s.t. y + y^2 <= 1: z = 2 at x = 1 and any y <= 0.618
        s = standardize(make_problem([(1, (1, 0)), (1, (-1, 0))],
                                     [([(1, (0, 1)), (1, (0, 2))], 1.0)]))
        report = solve(s)
        assert report.status is Status.OPTIMAL
        assert report.objective_value == pytest.approx(2.0, abs=1e-9)
        assert evaluate(s.constraints[0], report.primal_x) <= 1.0 + 1e-8

    @pytest.mark.parametrize("index", [
        pytest.param(i, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: recover_primal takes the "
            "least-squares y = 0 for the free variable"))
        if i in _FREE_VARIABLE_STALLS else i
        for i in range(60)
    ])
    def test_free_variable_draw_is_optimal(self, index):
        g = _free_variable_draw(index)
        a, b = (t.coefficient for t in g.objective.terms)
        report = solve(standardize(g))
        assert report.status is Status.OPTIMAL
        assert report.objective_value == pytest.approx(
            2.0 * math.sqrt(a * b), rel=2.0 * GAP_TOL
        )

    def test_a_duplicate_monomial_changes_neither_status_nor_optimum(self):
        rng = np.random.default_rng(12)
        statuses = Counter()
        for _ in range(200):
            g = random_feasible_gp(rng)
            whole = solve(standardize(g))
            split = solve(standardize(first_term_split(g)))
            assert split.status is whole.status
            if whole.status is Status.OPTIMAL:
                # each is certified within GAP_TOL of the same dual value
                assert split.objective_value == pytest.approx(
                    whole.objective_value, rel=2.0 * GAP_TOL
                )
            statuses[whole.status] += 1
        # the INFEASIBLE ones are feasible with an infimum that is not attained
        assert statuses == {Status.OPTIMAL: 143, Status.INFEASIBLE: 57}


def _zero_difficulty_draw(index: int):
    return zero_difficulty_gp(np.random.default_rng((19, index)))


# draws of zero_difficulty_gp whose log x reaches 1e2 to 1e3: the dual is
# OPTIMAL at z, but x = exp(y) or its terms leave the doubles
_ZERO_DIFFICULTY_STALLS = (53, 80, 140)


class TestDegreeOfDifficulty:
    """ROADMAP item 2's family of degree of difficulty zero or below: the
    dual equalities have one solution or none."""

    def test_zero_difficulty_dual_is_the_drawn_point(self):
        for index in range(200):
            g, w = _zero_difficulty_draw(index)
            s = standardize(g)
            d = build_dual(s)
            lam = np.bincount(d.block_index, weights=w)[1:]
            z = np.prod((d.term_coefficients / w) ** w) * np.prod(lam ** lam)
            ds = solve_dual(d)
            assert ds.status is Status.OPTIMAL
            assert ds.iterations == 0
            np.testing.assert_allclose(ds.weights, w, rtol=1e-12)
            assert ds.objective_value == pytest.approx(z, rel=1e-12)
            if index not in _ZERO_DIFFICULTY_STALLS:
                report = solve(s)
                assert report.status is Status.OPTIMAL
                assert report.objective_value == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("index", [
        pytest.param(i, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: x lies beyond double range, "
            "where only log-space certification can certify it"))
        for i in _ZERO_DIFFICULTY_STALLS
    ])
    def test_zero_difficulty_draw_is_optimal(self, index):
        g, _ = _zero_difficulty_draw(index)
        assert solve(standardize(g)).status is Status.OPTIMAL

    def test_negative_difficulty_is_infeasible_at_the_projection(self):
        # K <= n weights cannot meet n + 1 generic equalities: the start's
        # projection leaves a residual, and no Newton step is taken
        for index in range(200):
            d = build_dual(standardize(negative_difficulty_gp(
                np.random.default_rng((23, index)))))
            assert all(arr is None for arr in _dual_start(d))
            ds = solve_dual(d)
            assert ds.status is Status.INFEASIBLE
            assert ds.iterations == 0

    def test_a_variable_in_no_term_is_optimal(self):
        # min x + 1/x over (x, y): y's orthogonality row is zero
        report = solve(standardize(make_problem([(1, (1, 0)), (1, (-1, 0))])))
        assert report.status is Status.OPTIMAL
        assert report.objective_value == pytest.approx(2.0, rel=1e-12)
        assert report.primal_x[0] == pytest.approx(1.0, rel=1e-9)


class TestGateSizingChains:
    """ROADMAP item 10's chain: n variables and 3n + 1 terms in n + 2
    blocks, larger than any other problem tested."""

    @pytest.mark.parametrize("n", [5, 10, 20, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chain_is_certified_optimal(self, n, seed):
        s = standardize(gate_sizing_chain(np.random.default_rng((17, n, seed)), n))
        report = solve(s)
        assert report.status is Status.OPTIMAL
        claim = optimal_claim(problem_terms(s), [report.primal_x],
                              [report.dual.weights])
        assert claim.holds[0]

    def test_chain_at_80_takes_91_iterations(self):
        # 86 before the face guess, which fails on this chain and then leaves
        # the barrier its weight bytes; a guess nested inside the guess, with
        # its own barrier, took 1751
        s = standardize(gate_sizing_chain(np.random.default_rng((17, 80, 0)), 80))
        report = solve(s)
        assert report.status is Status.OPTIMAL
        assert report.dual.iterations == 91


class TestLargeCoefficients:
    """ROADMAP item 11's large-coefficient GP.  The projection of its
    barrier iterate onto the reduced equalities used to start the last pass
    outside the program, where the pass made a NaN weight and solve raised
    GpDomainError, the error of bad input."""

    @pytest.mark.filterwarnings("error")
    def test_solve_ends_with_a_status_and_no_warning(self):
        s = standardize(large_coefficient_gp())
        report = solve(s)
        assert report.status in (Status.OPTIMAL, Status.ITERATION_LIMIT)
        if report.status is Status.OPTIMAL:
            claim = optimal_claim(problem_terms(s), [report.primal_x],
                                  [report.dual.weights])
            assert claim.holds[0]
        else:  # the row ends where the barrier left it, inside the program
            assert report.dual.weights.min() > 0.0
            assert report.dual.equality_residual <= FEASIBILITY_TOL

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the reduction after "
                       "the barrier finds no start inside the reduced program")
    def test_is_certified_optimal(self):
        s = standardize(large_coefficient_gp())
        report = solve(s)
        assert report.status is Status.OPTIMAL
        claim = optimal_claim(problem_terms(s), [report.primal_x],
                              [report.dual.weights])
        assert claim.holds[0]


class TestDegenerateMinimax:
    """ROADMAP item 10's degenerate minimax GP on example2_case1: 128 terms
    in 38 blocks over 5 variables.  Its optimum lies in [1.0751382,
    1.0751386]: the last dual iterate bounds it from below, and a feasible
    point of a log-form solve from above."""

    @staticmethod
    @lru_cache(maxsize=1)
    def _solved():
        s = standardize(degenerate_minimax_gp("example2_case1"))
        return s, solve(s)

    def test_stalls_at_a_dual_value_below_the_optimum(self):
        s, report = self._solved()
        assert (s.variable_count, s.term_count, len(s.constraints)) == (5, 128, 37)
        assert report.status is not Status.OPTIMAL
        assert 1.0751381 <= report.dual.objective_value <= 1.0751386

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the barrier does not "
                       "centre at mu <= 1e-8, and the reduction keeps a wrong support")
    def test_is_certified_optimal(self):
        s, report = self._solved()
        assert report.status is Status.OPTIMAL
        claim = optimal_claim(problem_terms(s), [report.primal_x],
                              [report.dual.weights])
        assert claim.holds[0]
        assert 1.0751382 <= report.objective_value <= 1.0751386


def _solution_bytes(ds: DualSolution) -> tuple:
    floats = (ds.objective_value, ds.equality_residual, ds.stationarity)
    return (ds.status, ds.weights.tobytes(), ds.lambdas.tobytes(),
            tuple(float(v).hex() for v in floats), ds.iterations)


class TestSharedStart:
    """One start point and null space per equality system, for every dual."""

    # start kind: (problem, POCS calls, LP calls when the cache is cold)
    KINDS = {
        "projection": (example1_problem(), 0, 0),
        "pocs": (example2_problem(), 1, 0),
        "single point": (make_problem([(1, (1,)), (1, (-1,))]), 0, 0),
        # x's orthogonality row equals the normality row
        "inconsistent": (
            make_problem([(1, (1, 1)), (1, (1, -1))], [([(1, (0, 1))], 1.0)]), 0, 0
        ),
        # x2 appears only with positive exponents: its weights are forced to zero
        "support": (
            make_problem([(1, (1, 0)), (1, (-1, 0)), (1, (1, 1)), (1, (-1, 1))]), 1, 1
        ),
    }

    @staticmethod
    def _count_fallbacks(monkeypatch) -> list[str]:
        calls = []
        for name in ("_pocs_interior", "_support_point"):
            original = getattr(gpchoice.solver, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(gpchoice.solver, name, spy)
        return calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_start_equals_cold_start(self, monkeypatch, kind):
        problem, pocs, lp = self.KINDS[kind]
        d = build_dual(standardize(problem))
        calls = self._count_fallbacks(monkeypatch)
        _equality_start.cache_clear()
        cold = solve_dual(d)
        assert calls.count("_pocs_interior") == pocs
        assert calls.count("_support_point") == lp
        misses = _equality_start.cache_info().misses
        calls.clear()
        warm = solve_dual(d)
        assert calls == []
        assert _equality_start.cache_info().misses == misses
        assert _solution_bytes(warm) == _solution_bytes(cold)
        expected = Status.INFEASIBLE if kind == "inconsistent" else Status.OPTIMAL
        assert cold.status is expected
        if kind == "inconsistent":
            assert cold.iterations == 0

    def test_duals_with_one_equality_matrix_share_the_start(self):
        first = build_dual(standardize(example1_problem(c=1.0)))
        second = build_dual(standardize(example1_problem(c=5.0)))
        assert np.array_equal(first.equality_matrix, second.equality_matrix)
        _equality_start.cache_clear()
        cold = solve_dual(second)
        _equality_start.cache_clear()
        solve_dual(first)
        misses = _equality_start.cache_info().misses
        warm = solve_dual(second)
        assert _equality_start.cache_info().misses == misses
        assert _solution_bytes(warm) == _solution_bytes(cold)
        assert _dual_start(first) is _dual_start(second)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cached_arrays_are_read_only(self, kind):
        d = build_dual(standardize(self.KINDS[kind][0]))
        start = _dual_start(d)
        arrays = [arr for arr in start if arr is not None]
        assert arrays or kind == "inconsistent"
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        # the dual's derived equality system, shared by every reader, too;
        # C order keeps lstsq and the SVD rounding as before
        for arr in (d.equality_matrix, d.equality_rhs):
            assert arr.flags.c_contiguous
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_reduced_program_derives_the_kept_columns(self):
        rng = np.random.default_rng(STRESS_SEED)
        emptied = 0
        for problem in _stress_problems()[:200]:
            d = build_dual(standardize(problem))
            keep = rng.random(d.term_count) < 0.7
            keep[0] = True  # normality keeps an objective weight
            program = _reduced_program(d, keep)
            a = program.equality_matrix
            assert a.flags.c_contiguous and not a.flags.writeable
            assert a.tobytes() == d.equality_matrix[:, keep].tobytes()
            assert a.shape == (d.variable_count + 1, int(keep.sum()))
            assert program.equality_rhs.tolist() == [1.0] + [0.0] * d.variable_count
            counts = np.bincount(d.block_index[keep], minlength=len(d.block_sizes))
            assert program.block_sizes == (
                int(counts[0]), *(int(c) for c in counts[1:] if c)
            )
            emptied += program.constraint_count < d.constraint_count
        assert emptied  # some masks empty a constraint block

    def test_keep_all_pass_computes_each_start_once(self, monkeypatch):
        # 1002 duals over the 12 fixtures; exponent values alone fix each
        # equality system, so there are 10 distinct ones, 46 fixture by
        # fixture, and keep-all solves each fixture's systems as one batch
        paths = sorted(PROBLEM_DIR.glob("*.json"))
        models = [as_choice_gp(parse_problem(p)) for p in paths]
        batches = []
        original = gpchoice.solver._solve_duals

        def spy(d, coefficients):
            batches.append(coefficients)
            return original(d, coefficients)

        monkeypatch.setattr(gpchoice.solver, "_solve_duals", spy)
        _equality_start.cache_clear()
        for cg in models:
            solve_choice(cg, keep_assignments=True)
        assert sum(len(rows) for rows in batches) == 1002
        assert len(batches) == 46
        assert _equality_start.cache_info().misses <= 10
        misses = _equality_start.cache_info().misses
        for cg in models:
            solve_choice(cg, keep_assignments=True)
        assert _equality_start.cache_info().misses == misses
        per_fixture = 0
        for cg in models:
            _equality_start.cache_clear()
            solve_choice(cg, keep_assignments=True)
            per_fixture += _equality_start.cache_info().misses
        assert per_fixture <= 46

    def test_cache_stays_within_its_bound(self):
        size = _equality_start.cache_info().maxsize
        problems = _stress_problems()[:size + 20]
        _equality_start.cache_clear()
        for problem in problems:
            _dual_start(build_dual(standardize(problem)))
        info = _equality_start.cache_info()
        assert info.misses > size  # more distinct systems than the cache holds
        assert info.currsize <= size

    def test_threads_share_the_cache_and_get_cold_results(self):
        duals = [build_dual(standardize(p)) for p, _, _ in self.KINDS.values()]
        duals += [build_dual(standardize(p)) for p in _stress_problems()[:10]]
        _equality_start.cache_clear()
        cold = [_solution_bytes(solve_dual(d)) for d in duals]
        systems = _equality_start.cache_info().currsize
        _equality_start.cache_clear()
        results = {}

        def work(offset):
            order = duals[offset:] + duals[:offset]
            results[offset] = [_solution_bytes(solve_dual(d)) for d in order]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(0, 15, 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for offset, got in results.items():
            assert got == cold[offset:] + cold[:offset]
        assert len(results) == len(threads)
        assert _equality_start.cache_info().currsize == systems

    def test_fast_pass_stops_at_the_first_boundary_touch(self, monkeypatch):
        # a wrong face: the fast pass ends on block 1, but at the optimum
        # block 2 is slack (lambda = (0.343, 0)), so the face guess without
        # block 1 fails its certificate in 5 iterations and the barrier takes
        # over from the start; the weight the barrier leaves near 1e-13 is
        # dropped and the last pass runs inside the reduced program, so it
        # ends at an exact 0.0. The pinned weights are those of barrier
        # stages started from their tangent predictions (34 iterations
        # besides the guess; 62 from the last centre, 72 when the fast pass
        # ran on along the face); an independent solve of the reduced program
        # agrees with them
        passes = TestBarrierPredictor._spy_passes(monkeypatch)
        d = build_dual(standardize(_stress_problems()[3]))
        ds = solve_dual(d)
        assert ds.status is Status.OPTIMAL
        weights = ("0x1.315229a878730p-1", "0x1.a19c19823bfbap-4",
                   "0x1.34f4a64e801b3p-2", "0x1.4c44ecf9b4177p-5",
                   "0x1.35a4e9858554fp-2", "0x0.0p+0")
        assert [w.hex() for w in ds.weights.tolist()] == list(weights)
        assert ds.lambdas[1] == 0.0 < ds.lambdas[0]
        # the fast pass, the guess on its face, six barrier stages, the last pass
        assert [p.mu for p in passes] == [0.0, 0.0, *_BARRIER_SCHEDULE, 0.0]
        guess = passes[1]
        assert guess.start.shape[1] < d.term_count  # block 1 dropped
        assert guess.iterations == 5
        assert ds.iterations == 39
        assert ds.iterations - guess.iterations <= 35
        kept = ds.weights > 0.0
        reduced = solve_dual(_reduced_program(d, kept))
        assert reduced.status is Status.OPTIMAL
        np.testing.assert_allclose(
            ds.weights[kept], reduced.weights, rtol=1e-12, atol=0.0
        )
        assert ds.weights[~kept].tolist() == [0.0]

    def test_a_face_guess_that_certifies_settles_the_dual(self, monkeypatch):
        # stress problem 2's fast pass ends with its one constraint block at
        # the boundary; the pass on the program without it certifies on the
        # full problem's terms, so no barrier runs (33 iterations with the
        # barrier, 5 + 5 now)
        passes = TestBarrierPredictor._spy_passes(monkeypatch)
        d = build_dual(standardize(_stress_problems()[2]))
        ds = solve_dual(d)
        assert ds.status is Status.OPTIMAL
        assert [p.mu for p in passes] == [0.0, 0.0]
        assert passes[1].start.shape[1] == d.term_count - 1
        assert ds.iterations == 10
        dropped = d.block_index == 1
        assert ds.weights[dropped].tolist() == [0.0]
        assert ds.lambdas.tolist() == [0.0]
        # the barrier's dual value, before the guess
        barrier = float.fromhex("0x1.2332391c41381p+2")
        assert ds.objective_value == pytest.approx(barrier, rel=1e-9, abs=0.0)


# one _newton_phase call on a batch of one: its null space, start and end
# weights, (1, K) each, mu, and row 0's status and count
_Pass = namedtuple("_Pass", "nullsp start mu end status iterations")


class TestBarrierPredictor:
    """Each barrier stage after a centred one starts from the tangent
    prediction of the central path, not from the last centre."""

    @staticmethod
    def _spy_passes(monkeypatch) -> list[_Pass]:
        passes = []
        original = gpchoice.solver._newton_phase

        def spy(d, log_c, nullsp, basis_sums, w, mu, tol, max_iterations):
            out = original(d, log_c, nullsp, basis_sums, w, mu, tol, max_iterations)
            end, status, iterations = out  # a batch of one: read row 0
            passes.append(_Pass(nullsp, w, mu, end, status[0], iterations[0]))
            return out

        monkeypatch.setattr(gpchoice.solver, "_newton_phase", spy)
        return passes

    def test_prediction_is_closer_to_the_next_centre(self, monkeypatch):
        # a weight that is zero at the optimum sits near mu / v on the central
        # path; the last centre misses the next stage's stationarity by about
        # 0.54 at each of the last three transitions, and the prediction by
        # 1.3e-2, 1.3e-4 and 1.3e-6
        passes = self._spy_passes(monkeypatch)
        d = build_dual(standardize(_stress_problems()[3]))
        assert solve_dual(d).status is Status.OPTIMAL
        stages = [p for p in passes if p.mu > 0.0]
        assert [stage.mu for stage in stages] == list(_BARRIER_SCHEDULE)
        for before, after in zip(stages[2:], stages[3:]):  # from mu = 1e-4 on
            assert before.status is Status.OPTIMAL

            def stationarity(w):
                grad = _barrier_eval(d, w[0], after.mu)[2]
                return _projected_norm(before.nullsp, grad)

            assert stationarity(after.start) <= 0.1 * stationarity(before.end)

    def test_every_stage_starts_strictly_inside(self, monkeypatch):
        passes = self._spy_passes(monkeypatch)
        predicted = 0
        # the face guess settles most boundary optima without the barrier:
        # 85 predictions in the first 100 problems (240 before it)
        for problem in _stress_problems()[:250]:
            d = build_dual(standardize(problem))
            passes.clear()
            ds = solve_dual(d)
            # predictions are no Newton iterations: the passes sum to the count
            assert sum(p.iterations for p in passes) == ds.iterations
            stages = [p for p in passes if p.mu > 0.0]
            for stage in stages:
                assert stage.start.min() > 0.0
                residual = d.equality_matrix @ stage.start[0] - d.equality_rhs
                assert np.abs(residual).max() <= FEASIBILITY_TOL
            for before, after in zip(stages, stages[1:]):
                # a centred stage hands on its prediction, a capped one its end
                centred = before.status is Status.OPTIMAL
                assert centred == (after.start is not before.end)
                predicted += centred
        assert predicted >= 200  # 220


def _scaled(s, rng):
    """s with every term coefficient scaled by its own factor in [0.5, 2]:
    the same exponents, so the same equality system."""

    def scale(posy):
        return Posynomial(tuple(
            replace(t, coefficient=t.coefficient * float(rng.uniform(0.5, 2.0)))
            for t in posy.terms
        ))

    return replace(s, objective=scale(s.objective),
                   constraints=tuple(scale(p) for p in s.constraints))


def _report_fields(report) -> tuple:
    floats = (report.primal_x, report.objective_value, report.duality_gap,
              report.kkt_residuals)
    return (report.status, repr(floats), _solution_bytes(report.dual))


class TestSiblingBatches:
    """_solve_rows solves the duals of one equality system as one batch, and
    certifies its rows together; each row ends exactly as the same problem
    solved alone."""

    @staticmethod
    @lru_cache(maxsize=1)
    def _families():
        # the first 60 stress problems, 1522 (whose x missed its certificate
        # at a looser stationarity) and an infeasible primal (an unbounded
        # dual), each with 6 scaled siblings
        unbounded = make_problem([(1, (1,))], [([(2, (1,)), (3, (-1,))], 1.0)])
        problems = (*_stress_problems()[:60], _stress_problems()[1522], unbounded)
        rng = np.random.default_rng(STRESS_SEED)
        families = [
            (s, *(_scaled(s, rng) for _ in range(6)))
            for s in (standardize(g) for g in problems)
        ]
        # min x + 1/x s.t. c x <= 1: the constraint is active only for c > 1
        families.append(tuple(
            standardize(make_problem([(1, (1,)), (1, (-1,))], [([(c, (1,))], 1.0)]))
            for c in (0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 8.0)
        ))
        # min x^0.01 + c / x^0.01 at x = c^50, which underflows for c = 1e-20
        # and overflows for c = 1e20
        families.append(tuple(
            standardize(make_problem([(1, (0.01,)), (c, (-0.01,))]))
            for c in (1e-20, 1e-3, 1.0, 4.0, 1e20)
        ))
        return tuple(families)

    @staticmethod
    def _batch(family):
        d = build_dual(family[0])
        coefficients = np.array([build_dual(s).term_coefficients for s in family])
        return _solve_rows(d, coefficients)

    # the paths a family reaches, by the function that marks each
    PATHS = {"_newton_phase": "barrier", "_reduced_program": "reduction",
             "_support_point": "support LP", "_guessed_faces": "face guess"}

    @pytest.mark.parametrize("max_iterations", [10_000, 5])
    def test_rows_end_as_solved_alone(self, monkeypatch, max_iterations):
        monkeypatch.setattr(gpchoice.solver, "_MAX_ITERATIONS", max_iterations)
        reached = dict.fromkeys(self.PATHS.values(), 0)
        batched = [False]
        for name, path in self.PATHS.items():
            original = getattr(gpchoice.solver, name)

            # a barrier phase has mu > 0
            def spy(*args, _original=original, _path=path):
                if batched[0] and (_path != "barrier" or args[5] > 0.0):
                    reached[_path] += 1
                return _original(*args)

            monkeypatch.setattr(gpchoice.solver, name, spy)
        # per recovery of a batch: its number of active sets and failed rows
        recoveries = []
        original_recover = gpchoice.solver._recover

        def recover(d, coefficients, solutions):
            points = original_recover(d, coefficients, solutions)
            if batched[0]:
                masks = ((ds.weights > 1e-12, ds.lambdas > 1e-12) for ds in solutions)
                active = {w.tobytes() + lam.tobytes() for w, lam in masks}
                failed = sum(isinstance(x, ReconstructionError) for x in points)
                recoveries.append((len(active), failed))
            return points

        monkeypatch.setattr(gpchoice.solver, "_recover", recover)
        _equality_start.cache_clear()
        statuses, mixed, capped = [], 0, 0  # each family's; families that end apart
        for family in self._families():
            batched[0] = True
            together = self._batch(family)
            batched[0] = False
            alone = [solve(s) for s in family]
            assert [_report_fields(r) for r in together] == [
                _report_fields(r) for r in alone
            ]
            statuses.append({r.status for r in together})
            # siblings that end apart: another status or iteration count
            ends = {(r.status, r.dual.iterations) for r in together}
            mixed += len(ends) > 1
            capped += len(ends) > 1 and Status.ITERATION_LIMIT in dict(ends)
        # an INFEASIBLE system, UNBOUNDED rows and OPTIMAL ones
        assert {Status.INFEASIBLE} in statuses
        assert {Status.UNBOUNDED, Status.OPTIMAL} <= set().union(*statuses)
        if max_iterations == 5:
            # rows stop at the budget while their siblings end otherwise
            assert capped >= 5
        else:
            assert all(reached.values()), reached
            assert mixed >= 30
            # a batch whose rows recover on several active sets, and one in
            # which rows fail recovery (underflow, overflow) beside optimal ones
            assert max(sets for sets, _ in recoveries) >= 2
            assert (1, 2) in recoveries
            assert statuses[-1] == {Status.OPTIMAL, Status.ITERATION_LIMIT}

    def test_each_row_owns_its_arrays(self):
        for family in self._families():
            duals = [build_dual(s) for s in family]
            coefficients = np.array([d.term_coefficients for d in duals])
            solutions = _solve_duals(duals[0], coefficients)
            arrays = [a for ds in solutions for a in (ds.weights, ds.lambdas)]
            for a in arrays:
                assert not a.flags.writeable
            for a, b in itertools.combinations(arrays, 2):
                assert not np.shares_memory(a, b)
