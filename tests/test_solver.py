import hashlib
import itertools
import math
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gpchoice.selectors
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
from gpchoice.certificate import Terms
from gpchoice.dual import block_lambdas
from gpchoice.posynomial import GpDomainError, Posynomial
from gpchoice.problem_io import as_choice_gp, parse_problem
from gpchoice.selectors import (
    CandidateSet,
    ChoiceGp,
    Role,
    SetRef,
    TermTemplate,
    expand,
    solve_choice,
)
from gpchoice.solver import (
    _BOUNDARY_WEIGHT,
    _PASS_ITERATIONS,
    _STATIONARITY_TOL,
    FEASIBILITY_TOL,
    GAP_TOL,
    DualSolution,
    ReconstructionError,
    _Batch,
    _check_weights,
    _equality_start,
    _interior_point,
    _log_dual_objective,
    _lstsq,
    _newton_phase,
    _newton_step,
    _nnls,
    _null_space,
    _projected_norm,
    _recover,
    _reduced_program,
    _solve_duals,
    _solve_rows,
    _support_point,
)
from helpers import (
    EX1_W,
    EX1_X,
    EX1_Z,
    EX2_W,
    EX2_X,
    EX2_Z,
    PROBLEM_DIR,
    batch_arrays,
    degenerate_minimax_gp,
    example1_problem,
    example2_problem,
    first_term_multipliers,
    first_term_split,
    report_columns,
    free_variable_gp,
    gate_sizing_chain,
    large_coefficient_gp,
    negative_difficulty_gp,
    primal_infeasible_gp,
    random_feasible_gp,
    random_minimax_gp,
    tiny_weight_gp,
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


def _lp_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The support of {A w = b, w >= 0} by scipy's LP (Freund, Roundy and
    Todd, 1985), the reference: maximize sum(t) subject to A w = b tau,
    t <= w, 0 <= t <= 1, w >= 0, tau >= 1; the support is {t > 1/2}."""
    from scipy.optimize import linprog

    m, k = a.shape
    res = linprog(
        np.concatenate([np.zeros(k), -np.ones(k), [0.0]]),
        A_ub=np.hstack([-np.eye(k), np.eye(k), np.zeros((k, 1))]), b_ub=np.zeros(k),
        A_eq=np.hstack([a, np.zeros((m, k)), -b[:, None]]), b_eq=np.zeros(m),
        bounds=[(0.0, None)] * k + [(0.0, 1.0)] * k + [(1.0, None)], method="highs",
    )
    assert res.success
    return res.x[k:2 * k] > 0.5


class TestSupportPoint:
    """One numpy NNLS solve proves {A w = b, w >= 0} empty before alternating
    projections run; where they fail, NNLS solves on the cone find the
    support of the rest.  scipy's LP is the reference."""

    @staticmethod
    def _count(monkeypatch) -> list[str]:
        calls = []
        for name in ("_support_point", "_nnls"):
            original = getattr(gpchoice.solver, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(gpchoice.solver, name, spy)
        return calls

    @staticmethod
    def _nnls_calls(monkeypatch, indices) -> list[tuple]:
        """(program, a, b, w) of the _nnls call that decides emptiness in the
        start of each of these stress problems that makes one."""
        calls, original, out = [], gpchoice.solver._nnls, []

        def spy(a, b):
            w = original(a, b)
            calls.append((a, b, w))
            return w

        with monkeypatch.context() as patch:
            patch.setattr(gpchoice.solver, "_nnls", spy)
            for index in indices:
                d = build_dual(standardize(_stress_problems()[index]))
                _equality_start(d)
                out += [(d, *calls[0])] if calls else []
                calls.clear()
        return out

    @staticmethod
    def _empty(a, b, w) -> bool:
        return np.maximum.reduce(np.abs(a @ w - b)) > 1e-8

    def _empty_programs(self, monkeypatch) -> list:
        """The programs of the 44 empty sets of the first 300 stress problems."""
        programs = [d for d, a, b, w in self._nnls_calls(monkeypatch, range(300))
                    if self._empty(a, b, w)]
        assert len(programs) == 44
        return programs

    def test_forced_zeros_are_exact_and_the_rest_positive(self):
        a, b = _forced_zeros()
        nearest = _nnls(a, b)
        assert not self._empty(a, b, nearest)
        w = _support_point(a, b, nearest)
        assert np.all(w[:3] > 0.0)
        np.testing.assert_array_equal(w[3:], [0.0, 0.0])
        np.testing.assert_allclose(a @ w, b, rtol=0, atol=1e-9)

    def test_the_support_is_the_lps(self):
        # the forced zeros, each stress system whose start needs the support
        # point, and both emptied-block problems (the first a single point,
        # the second reduced)
        systems = [_forced_zeros()]
        problems = [_stress_problems()[i] for i in TestStressRegressions.LP_STARTS]
        problems += [make_problem([(1, (1, 0)), (1, (-1, 0))], [(constraint, 1.0)])
                     for constraint in ([(1, (0, 1))], [(0.25, (0, 1)), (0.25, (0, 2))])]
        for g in problems:
            d = build_dual(standardize(g))
            systems.append((d.equality_matrix, d.equality_rhs))
        full = []
        for a, b in systems:
            w = _support_point(a, b, _nnls(a, b))
            np.testing.assert_array_equal(w > 0.0, _lp_support(a, b))
            np.testing.assert_allclose(a @ w, b, rtol=0, atol=1e-12)
            full.append(bool((w > 0.0).all()))
        # every stress system has full support; the other three have zeros
        assert full == [False] + [True] * 42 + [False, False]

    def test_empty_set_gives_none(self, monkeypatch):
        # NNLS proves each empty set empty, and no support point is sought;
        # the single point of _empty_set() has a negative weight
        programs = [*self._empty_programs(monkeypatch), build_dual(standardize(make_problem(
            [(1, (1, 1))], [([(1, (1, 1))], 1.0)])))]
        calls = self._count(monkeypatch)
        for d in programs:
            start = _equality_start(d)
            assert start == (None, None, None)  # proven empty: no null space kept
        assert calls == ["_nnls"] * 44

    def test_the_nnls_residual_is_a_farkas_witness(self, monkeypatch):
        # w >= 0 nearest to A w = b leaves y = A w - b with A^T y >= 0 and
        # b^T y = -|y|^2 < 0, so no w >= 0 solves A w = b; scipy's NNLS
        # gives every system the same verdict
        from scipy.optimize import nnls

        systems = [(a, b, w) for _, a, b, w in self._nnls_calls(monkeypatch, range(300))]
        empty = [(a, b, w) for a, b, w in systems if self._empty(a, b, w)]
        assert len(empty) == 44
        for a, b, w in [(*_empty_set(), _nnls(*_empty_set())), *empty]:
            assert (w >= 0.0).all()
            y = a @ w - b
            y /= np.linalg.norm(y)
            assert (a.T @ y).min() >= -1e-10
            assert b @ y <= -1e-8
        for a, b, w in systems:
            assert self._empty(a, b, w) == self._empty(a, b, nnls(a, b)[0])

    @pytest.mark.parametrize("seed", range(20))
    def test_nnls_reaches_the_least_residual(self, seed):
        # random systems, some with a nonnegative solution and some without:
        # the residual is scipy's, and the verdict with it
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        a = rng.normal(size=(m, k))
        b = a @ np.abs(rng.normal(size=k)) if seed % 2 else rng.normal(size=m)
        w, (expected, _) = _nnls(a, b), nnls(a, b)
        assert (w >= 0.0).all()
        assert np.linalg.norm(a @ w - b) == pytest.approx(np.linalg.norm(a @ expected - b),
                                                           rel=1e-9, abs=1e-12)

    def test_an_nnls_past_its_iteration_cap_leaves_no_start(self, monkeypatch):
        # undecided, a set goes on to alternating projections, and where they
        # fail it has no start: the empty sets, and the sets whose start
        # needs the support point, which it is not asked for
        programs = self._empty_programs(monkeypatch)
        programs += [build_dual(standardize(_stress_problems()[i]))
                     for i in TestStressRegressions.LP_STARTS]
        monkeypatch.setattr(gpchoice.solver, "_nnls", lambda a, b: None)
        calls = self._count(monkeypatch)
        for d in programs:
            start = _equality_start(d)
            assert start.w is None and start.support is None
            assert start.nullsp is not None  # undecided, not proven empty
        assert calls == ["_nnls"] * len(programs)

    def test_an_undecided_start_ends_iteration_limit(self, monkeypatch):
        # stress problem 23 is feasible by construction; with _nnls past its
        # cap its set is undecided, and its dual ends ITERATION_LIMIT, as
        # does its solve, never INFEASIBLE
        s = standardize(_stress_problems()[23])
        report = solve(s)
        assert report.status is Status.OPTIMAL and report.dual.iterations == 6
        monkeypatch.setattr(gpchoice.solver, "_nnls", lambda a, b: None)
        report = solve(s)  # on a program of its own, whose start is computed anew
        assert report.status is Status.ITERATION_LIMIT
        assert report.dual.status is Status.ITERATION_LIMIT
        assert report.dual.iterations == 0

    def test_a_cone_solve_past_its_cap_leaves_no_start(self, monkeypatch):
        # the first solve proves the set nonempty; a cone solve that runs out
        # leaves the support undecided, and the set without a start (a cone
        # solve's right side ends in 1, the system's in 0)
        original = gpchoice.solver._nnls
        monkeypatch.setattr(gpchoice.solver, "_nnls",
                            lambda a, b: original(a, b) if b[-1] == 0.0 else None)
        calls = self._count(monkeypatch)
        for i in TestStressRegressions.LP_STARTS:
            start = _equality_start(build_dual(standardize(_stress_problems()[i])))
            assert start.w is None and start.support is None
            assert start.nullsp is not None  # undecided, not proven empty
        assert calls.count("_support_point") == len(TestStressRegressions.LP_STARTS)
        a, b = _forced_zeros()
        assert _support_point(a, b, original(a, b)) is None

    def test_first_300_stress_problems_make_8_support_point_calls(self, monkeypatch):
        calls = self._count(monkeypatch)
        for g in _stress_problems()[:300]:
            solve(standardize(g))
        assert Counter(calls) == {"_nnls": 128, "_support_point": 8}

    def test_scipy_nnls_is_imported_nowhere(self):
        # no module of the package imports scipy, its NNLS and LP included
        import ast

        src = Path(gpchoice.solver.__file__).parent
        nodes = [node for path in src.rglob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))]
        modules = {alias.name for node in nodes if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in nodes
                    if isinstance(node, ast.ImportFrom) and node.module}
        assert "numpy" in modules
        assert not [name for name in modules if name.split(".")[0] == "scipy"]


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


def _optimal_rows(systems, first_system):
    """_recover's arguments at the OPTIMAL rows of _solve_duals(systems),
    their systems numbered from first_system: coefficients (B, K),
    exponents (B, K, n), system codes, weights, dual values, lambdas and y."""
    duals = _solve_duals(systems)
    pick = np.repeat(np.arange(len(systems)), [len(c) for _, c in systems])
    exponents = np.array([d.exponent_matrix for d, _ in systems])[pick]
    coefficients = np.concatenate([c for _, c in systems])
    optimal = duals.status == gpchoice.solver._CODE[Status.OPTIMAL]
    return [a[optimal] for a in (coefficients, exponents, pick + first_system, duals.weights,
                                 duals.objective_value, duals.lambdas, duals.y)]


class TestStackedRecovery:
    """_recover solves the groups of rows (one system, one active set) that
    share a shape as one stacked least-squares solve; every row's x and
    failure are those of a call on that row alone."""

    @staticmethod
    def _batches(cg):
        """The systems of the pruned search's seed batch and of keep-all."""
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gpchoice.selectors, "_solve_rows",
                       lambda systems: calls.append(systems) or _solve_rows(systems))
            solve_choice(cg)
            seeds = calls[0]
            calls.clear()
            solve_choice(cg, keep_assignments=True)
        return seeds, calls[0]

    @pytest.mark.parametrize("fixture", sorted(p.stem for p in PROBLEM_DIR.glob("*.json")))
    def test_a_mixed_batch_recovers_as_one_call_per_row(self, monkeypatch, fixture):
        seeds, keep_all = self._batches(parse_problem(PROBLEM_DIR / f"{fixture}.json"))
        parts = [_optimal_rows(seeds, 0), _optimal_rows(keep_all[:2], 100)]
        # copies of the first seed row, each a system of its own: one whose
        # relations are inconsistent (every coefficient moved), one whose
        # w z underflows (z = 0), one carrying the method's y and one whose
        # y leaves exp's range
        rng = np.random.default_rng(42)
        c, e, _, w, z, lam, y = (a[:1].repeat(4, axis=0) for a in parts[0])
        c[0] *= np.exp(rng.normal(size=c.shape[1]))
        z[1] = 0.0
        y[2], y[3] = rng.normal(size=y.shape[1]), 1000.0
        parts.append([c, e, np.arange(200, 204), w, z, lam, y])
        coefficients, exponents, system, w, z, lam, y = map(np.concatenate, zip(*parts))
        blocks = seeds[0][0].block_index

        def recover(rows):
            t = Terms(coefficients[rows], exponents[rows], blocks)
            return _recover(t, system[rows], w[rows], z[rows], lam[rows], y[rows])

        shapes = []
        linalg = gpchoice.solver._umath_linalg

        class Spy:
            def __getattr__(self, name):
                return getattr(linalg, name)

            def lstsq(self, a, *args, **kwargs):
                shapes.append(a.shape)
                return linalg.lstsq(a, *args, **kwargs)

        monkeypatch.setattr(gpchoice.solver, "_umath_linalg", Spy())
        x, failures = recover(slice(None))
        stacked, shapes[:] = list(shapes), []
        messages = {}
        for i in range(len(w)):
            xi, fi = recover([i])
            assert x[i].tobytes() == xi[0].tobytes(), i
            messages |= {i: str(e) for e in fi.values()}
        assert {i: str(e) for i, e in failures.items()} == messages
        # one solve per shape, fewer than the groups solved alone, and one
        # stack of several matrices
        assert len(stacked) == len(set(stacked)) < len(shapes)
        assert max(shape[0] for shape in stacked) > 1
        last = len(w) - 4
        assert "inconsistent" in messages[last]
        assert messages[last + 1] == "w * z underflows at dual value 0.0"
        assert last + 2 not in messages
        assert x[last + 2].tobytes() == np.exp(y[last + 2]).tobytes()
        assert "overflows or underflows" in messages[last + 3]


class TestSolve:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coefficient", [0.0, math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("place", ["objective", "constraint"])
    def test_a_coefficient_that_is_not_finite_and_positive_raises(self, coefficient, place):
        # solve checks its input through build_dual: no numpy warning, no status
        term = [(coefficient, (-1.0,))]
        if place == "objective":
            s = standardize(make_problem([(1.0, (1.0,)), *term]))
        else:
            s = standardize(make_problem([(1.0, (1.0,))], [(term, 1.0)]))
        with pytest.raises(GpDomainError, match="term 1: coefficient .* is not finite and positive"):
            solve(s)

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

    # example 1 takes the fast path; stress problems 2, 3 and 55 go on to the
    # interior-point method from the boundary, 22 from inside the program,
    # 773 from a fast-pass step that does not ascend, and 23 starts at the
    # support point
    @pytest.mark.parametrize("index", [None, 2, 3, 22, 23, 55, 773])
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
    """The numpy null space and Newton step agree with their scipy originals,
    and the direct gufunc calls with numpy.linalg, bit for bit."""

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

    @pytest.mark.parametrize("seed", range(20))
    def test_null_space_is_the_numpy_svd_form_bit_for_bit(self, seed):
        # _null_space calls the gufunc under np.linalg.svd directly
        a = self._rank_deficient(np.random.default_rng(seed))
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        tol = np.max(s, initial=0.0) * np.finfo(float).eps * max(a.shape)
        expected = vh[int(np.sum(s > tol)):].T
        got = _null_space(a)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape, rank", [
        ((6, 3), 3), ((3, 6), 3), ((4, 4), 4), ((5, 4), 2), ((4, 4), 3), ((0, 3), 0),
    ], ids=["tall", "wide", "square", "rank-deficient", "singular", "no-rows"])
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_lstsq_is_numpy_lstsq_bit_for_bit(self, shape, rank, columns):
        # np.linalg.lstsq(a, b, rcond=None)[0], its x = 0 without rows included
        rng = np.random.default_rng([shape[0], shape[1], rank])
        a = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
        b = rng.normal(size=shape[:1] if columns is None else (shape[0], columns))
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        got = _lstsq(a, b)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape, rank", [
        ((6, 3), 3), ((3, 6), 3), ((5, 4), 2), ((0, 3), 0),
    ], ids=["tall", "wide", "rank-deficient", "no-rows"])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_a_stacked_lstsq_solves_each_matrix_as_alone(self, shape, rank, columns):
        rng = np.random.default_rng([shape[0], shape[1], rank, columns])
        a = rng.normal(size=(4, shape[0], rank)) @ rng.normal(size=(4, rank, shape[1]))
        b = rng.normal(size=(4, shape[0], columns))
        got = _lstsq(a, b)
        assert got.shape == (4, shape[1], columns)
        for matrix, rhs, x in zip(a, b, got):
            assert x.tobytes() == _lstsq(matrix, rhs).tobytes()

    def test_lstsq_raises_as_numpy_where_the_svd_fails(self):
        a = np.array([[np.nan, 1.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(a, np.ones(3), rcond=None)
        with pytest.raises(np.linalg.LinAlgError):
            _lstsq(a, np.ones(3))

    def test_a_singular_newton_system_takes_least_squares(self, monkeypatch):
        # z appears in no term, so its row and column of the interior-point
        # method's Newton system are zero: np.linalg.solve would raise, the
        # gufunc gives nan, and the step comes from least squares.  A solve
        # now certifies at the method's warm start, after the fast pass's
        # boundary touch, with no Newton step; the method runs here from the
        # fast pass's end after 3 iterations, where its 4th search stalled
        # before boundary touches were taken
        s = standardize(_FREE_Z)
        d = build_dual(s)
        report = solve(s)
        assert report.status is Status.OPTIMAL and report.dual.iterations == 5
        assert report.objective_value == 2.0
        start, nullsp, _ = d._start
        log_c = np.log(d.term_coefficients)
        sums = d._layout.member @ nullsp
        end, _, used, _ = _newton_phase(d, log_c[None], np.array([nullsp.T]).mT, sums[None],
                                        start[None], 3)
        assert used == [3] and end.min() == pytest.approx(1.25e-10, rel=1e-9)
        systems = []
        original = gpchoice.solver._lstsq

        def spy(a, b):
            if a.shape == (5, 5):  # (n + m) square: only the Newton system
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(a, b)
                systems.append(a)
            return original(a, b)

        monkeypatch.setattr(gpchoice.solver, "_lstsq", spy)
        ipm = _interior_point(d, d.term_coefficients, nullsp, end[0], 3)
        assert len(systems) == 2  # both steps of the method's one iteration
        assert ipm.status is Status.OPTIMAL and ipm.iterations == 4
        claim = optimal_claim(problem_terms(s), [np.exp(ipm.y)], [ipm.weights])
        assert claim.holds[0] and claim.objective[0] == 2.0

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
        # with scipy unimportable, every start path solves as it does here:
        # the fixtures, keep-all, the forced-zero problems and the stress
        # problems whose start needs the support point
        src = Path(__import__("gpchoice").__file__).resolve().parent.parent
        code = ("import sys; sys.modules['scipy'] = None; "
                "from test_solver import _start_path_statuses; "
                "print(_start_path_statuses())")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": f"{src}:{Path(__file__).parent}"},
        )
        statuses = _start_path_statuses()
        assert len(statuses) == 2574 + 3 + 42  # 2574 fixture assignments
        assert statuses[2574:] == ["iteration_limit", "optimal", "optimal"] + ["optimal"] * 42
        assert out.stdout.strip() == repr(statuses)


def _start_path_statuses() -> list[str]:
    """The status of each keep-all assignment of the 12 fixtures, of each
    forced-zero problem of TestSolveDual and of each stress problem whose
    start needs the support point (TestStressRegressions.LP_STARTS)."""
    statuses = []
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        result = solve_choice(parse_problem(path), keep_assignments=True)
        statuses += [outcome.status for outcome in result.assignments]
    objective = [(1, (1, 0)), (1, (-1, 0))]
    problems = [make_problem([*objective, (1, (1, 1)), (1, (-1, 1))])]
    problems += [make_problem(objective, [(constraint, 1.0)])
                 for constraint in ([(1, (0, 1))], [(0.25, (0, 1)), (0.25, (0, 2))])]
    problems += [_stress_problems()[i] for i in TestStressRegressions.LP_STARTS]
    return statuses + [solve(standardize(g)).status.value for g in problems]


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

        def spy(systems):
            solves.extend(coefficients for _, coefficients in systems)
            return original(systems)

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
        # before the face step followed the fast pass, 23330 with the face
        # step and the barrier, 14371 with the interior-point method, 15362
        # with its search on the primal-dual potential, 13669 with its search
        # on the residual norm
        assert sum(report.dual.iterations for report in reports) <= 24500

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
        # 187 of the stress problems and 52 of the free-variable draws
        assert with_x == {Status.OPTIMAL: 187 + 52,
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


# draws of free_variable_gp that solve ends ITERATION_LIMIT: the fast pass
# ends OPTIMAL at z, but recovery sets y = 1, where the constraint is violated
_FREE_VARIABLE_STALLS = (0, 17, 24, 28, 34, 36, 46, 53)


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

    @pytest.mark.parametrize("index, iterations", [(3, 15), (7, 15), (56, 15)])
    def test_a_ray_ends_the_method_where_it_is_tested(self, index, iterations):
        # the fast pass takes 5 iterations; the constraint weights make a ray
        # at the method's first test for one (every _RAY_EVERY iterations),
        # where all 200 of its iterations ran before (205 in all), and at its
        # third (45) and second (25) on draws 3 and 7 under the potential's
        # line search
        report = solve(standardize(_infeasible_draw(index)))
        assert report.status is Status.UNBOUNDED
        assert report.dual.iterations == iterations

    @pytest.mark.parametrize("index", [3, 7, 56])
    def test_the_method_s_ray_is_the_infeasibility_claim(self, monkeypatch, index):
        # the method's UNBOUNDED verdict is certificate.infeasible_claim's
        # True, on a floating-point witness whose exponents cancel to
        # rounding alone; the witness holds on terms the solver did not build
        calls, original = [], gpchoice.solver.infeasible_claim

        def spy(t, nu):
            calls.append((nu, original(t, nu)))
            return calls[-1][1]

        monkeypatch.setattr(gpchoice.solver, "infeasible_claim", spy)
        s = standardize(_infeasible_draw(index))
        assert solve(s).status is Status.UNBOUNDED
        assert [holds for _, holds in calls] == [False] * (len(calls) - 1) + [True]
        nu, terms = calls[-1][0], problem_terms(s)
        assert infeasible_claim(terms, nu)
        assert 0.0 < np.abs(nu @ terms.exponents[terms.blocks > 0]).max() < 1e-15

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

    def test_weakly_infeasible_constraint_ends_within_two_passes(self):
        # min 5/x1 + 3/x2^3 + x1 x2 s.t. 3 x1 + 1 <= 1: no x is feasible, yet
        # no ray proves it, and the dual grows like a logarithm; the fast
        # pass and the interior-point method each run out of their cap, where
        # the whole 10000-iteration budget ran before (ROADMAP item 1 gives
        # it its status)
        s = standardize(make_problem([(5, (-1, 0)), (3, (0, -3)), (1, (1, 1))],
                                     [([(3, (1, 0)), (1, (0, 0))], 1.0)]))
        report = solve(s)
        assert report.status is Status.ITERATION_LIMIT
        assert report.dual.iterations == 2 * _PASS_ITERATIONS

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


def _tiny_weight_draw(index: int):
    return tiny_weight_gp(np.random.default_rng((23, index)))


# draws of tiny_weight_gp whose OPTIMAL dual does not certify: each has a
# weight below _BOUNDARY_WEIGHT, whose relation recovery drops, and the x it
# finds fails the claim on violation (4, 8, 13, 17, 18, 26, 28, 32, 35, 51,
# 59) or on the gap (the rest); and draws whose x = exp(y) leaves the doubles
_TINY_WEIGHT_UNCLAIMED = (1, 4, 8, 13, 17, 18, 22, 26, 27, 28, 32, 35, 36,
                          37, 45, 46, 51, 56, 57, 58, 59)
_TINY_WEIGHT_OVERFLOWS = (3, 38)


def _tiny_weight_case(index: int):
    reason = (
        "ROADMAP item 3: recovery drops the relation of a weight below "
        "_BOUNDARY_WEIGHT, and the x it finds fails the claim"
        if index in _TINY_WEIGHT_UNCLAIMED else
        "ROADMAP item 1: x lies beyond double range, where only log-space "
        "certification can certify it"
        if index in _TINY_WEIGHT_OVERFLOWS else None
    )
    if reason is None:
        return index
    return pytest.param(index, marks=pytest.mark.xfail(strict=True, reason=reason))


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

    @pytest.mark.parametrize("index", [_tiny_weight_case(i) for i in range(60)])
    def test_tiny_weight_draw_is_optimal_at_its_closed_form(self, index):
        # ROADMAP item 2's optimal weights down to 1e-30: the dual is the
        # drawn point; the solve must certify z* = prod (c/w)^w prod lam^lam
        g, w = _tiny_weight_draw(index)
        s = standardize(g)
        d = build_dual(s)
        lam = np.bincount(d.block_index, weights=w)[1:]
        z = np.prod((d.term_coefficients / w) ** w) * np.prod(lam ** lam)
        ds = solve_dual(d)
        assert ds.status is Status.OPTIMAL
        assert ds.objective_value == pytest.approx(z, rel=1e-9)
        report = solve(s)
        assert report.status is Status.OPTIMAL
        assert report.objective_value == pytest.approx(z, rel=1e-9)

    def test_the_method_certifies_tiny_weight_draw_59_from_its_dual(self):
        # the dual is the drawn point, OPTIMAL at 0 iterations, but recovery
        # drops a weight's relation and the claim fails (ROADMAP item 18);
        # the interior-point method, warm-started from that dual, reads its
        # own y (it ran all 200 iterations under the potential's search)
        g, _ = _tiny_weight_draw(59)
        s = standardize(g)
        d = build_dual(s)
        ds = solve_dual(d)
        assert ds.status is Status.OPTIMAL and ds.iterations == 0
        ipm = _interior_point(d, d.term_coefficients, d._start.nullsp,
                              ds.weights, ds.iterations)
        assert ipm.status is Status.OPTIMAL and ipm.iterations < _PASS_ITERATIONS
        claim = optimal_claim(problem_terms(s), [np.exp(ipm.y)], [ipm.weights])
        assert claim.holds[0]

    def test_negative_difficulty_is_infeasible_at_the_projection(self):
        # K <= n weights cannot meet n + 1 generic equalities: the start's
        # projection leaves a residual, and no Newton step is taken
        for index in range(200):
            d = build_dual(standardize(negative_difficulty_gp(
                np.random.default_rng((23, index)))))
            assert all(arr is None for arr in d._start)
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

    def test_chain_at_80_takes_22_iterations(self):
        # the fast pass ends at the boundary, and the interior-point method
        # certifies from there (33 iterations under the potential's search)
        s = standardize(gate_sizing_chain(np.random.default_rng((17, 80, 0)), 80))
        report = solve(s)
        assert report.status is Status.OPTIMAL
        assert report.dual.iterations == 22
        assert report.dual.y is not None


def _assert_certified_at_the_methods_point(seed: int, index: int):
    """random_feasible_gp draw index at seed ends OPTIMAL at the
    interior-point method's y, and its optimal claim holds."""
    rng = np.random.default_rng(seed)
    problems = [random_feasible_gp(rng) for _ in range(index + 1)]
    s = standardize(problems[index])
    report = solve(s)
    assert report.status is Status.OPTIMAL
    assert report.dual.y is not None  # certified at the method's point
    claim = optimal_claim(problem_terms(s), [report.primal_x],
                          [report.dual.weights])
    assert claim.holds[0]


class TestCollapsedMultipliers:
    """Feasible draws outside the stress sweep whose fast pass ends short of
    the optimum with the objective's two terms nearly antiparallel and one
    active constraint whose multiplier is small at the optimum (0.37, 0.069,
    0.02).  From a start that shifted every multiplier and slack by one
    constant, the first Newton steps drove that multiplier far below its
    optimum (to 1e-4 on problem 1247) while the dual residual was still 0.25
    to 1.24, and the method then crawled to its cap (ITERATION_LIMIT); the
    start lifts each pair to at least the dual residual, so that none starts
    below the infeasibility it must outlast."""

    @pytest.mark.parametrize("seed, index", [(4242, 659), (4242, 1247), (99, 652)])
    def test_is_certified_optimal(self, seed, index):
        _assert_certified_at_the_methods_point(seed, index)


@pytest.mark.parametrize("seed, index", [(STRESS_SEED, 149), (31337, 678)])
def test_a_draw_at_the_slack_factors_window_edge_is_certified_optimal(seed, index):
    # the residual-norm line search loses these two at a trial-slack factor
    # of 0.95, one step past the window in which every tested status holds
    _assert_certified_at_the_methods_point(seed, index)


def _far_optimum_draw():
    # random_feasible_gp seed 6 problem 338: both blocks saturate at the
    # optimum, and the Newton system in y is singular there
    rng = np.random.default_rng(6)
    problems = [random_feasible_gp(rng) for _ in range(339)]
    return standardize(problems[338])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: the interior-point method "
                   "crawls along the ray to an optimum at log x = (464, -612) and ends "
                   "ITERATION_LIMIT")
def test_a_feasible_draw_with_a_far_optimum_is_certified():
    assert solve(_far_optimum_draw()).status is Status.OPTIMAL


def _support_point_draw():
    # random_feasible_gp seed 4242 problem 1324, whose start is the support point
    rng = np.random.default_rng(4242)
    return standardize([random_feasible_gp(rng) for _ in range(1325)][1324])


def test_a_draw_that_starts_at_the_support_point_is_certified():
    # the support point scales each cone point to tau <= 1 before it adds it;
    # the sum of the unscaled points starts the fast pass elsewhere, and the
    # interior-point method stalls from its end (below)
    assert solve(_support_point_draw()).status is Status.OPTIMAL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: from this end the interior-point "
                   "method's residual norm stalls at 4.22, each iteration about 15 "
                   "halvings, and it ends ITERATION_LIMIT after 200 iterations")
def test_the_method_certifies_a_draw_from_a_nearby_fast_pass_end():
    # the fast pass's end, after 5 iterations, from the sum of unscaled cone
    # points; from today's end, (0.689, 0.311, 0.158, 3.571, 8.5e-15), the
    # method certifies in 10 iterations
    d = build_dual(_support_point_draw())
    end = np.array([8.21623442e-01, 1.78376558e-01, 2.46936786e-01, 4.52490759e+00,
                    1.00889362e-14])
    ds = _interior_point(d, d.term_coefficients, d._start.nullsp, end, 5)
    assert ds.status is Status.OPTIMAL


def test_a_feasible_draw_with_a_far_optimum_is_not_called_unbounded():
    # its lambda grows to 178 while the method crawls along the ray, where
    # the ray test every _RAY_EVERY iterations runs; the draw is feasible,
    # so a claim of UNBOUNDED or INFEASIBLE would be false
    assert solve(_far_optimum_draw()).status in (Status.OPTIMAL, Status.ITERATION_LIMIT)


class TestLargeCoefficients:
    """ROADMAP item 11's large coefficients.  The projection of the GP's
    barrier iterate onto the reduced equalities used to start the last pass
    outside the program, where the pass made a NaN weight and solve raised
    GpDomainError, the error of bad input; later that row ended
    ITERATION_LIMIT after 79 iterations, and the face step after the fast
    pass certified it in 15.  The interior-point method certifies it in 13."""

    @pytest.mark.filterwarnings("error")
    def test_solve_ends_with_a_status_and_no_warning(self):
        s = standardize(large_coefficient_gp())
        report = solve(s)
        assert report.status in (Status.OPTIMAL, Status.ITERATION_LIMIT)
        if report.status is Status.OPTIMAL:
            claim = optimal_claim(problem_terms(s), [report.primal_x],
                                  [report.dual.weights])
            assert claim.holds[0]
        else:  # the row ends where the fast pass left it, inside the program
            assert report.dual.weights.min() > 0.0
            assert report.dual.equality_residual <= FEASIBILITY_TOL

    def test_is_certified_optimal(self):
        s = standardize(large_coefficient_gp())
        report = solve(s)
        assert report.status is Status.OPTIMAL
        assert report.dual.iterations == 13
        claim = optimal_claim(problem_terms(s), [report.primal_x],
                              [report.dual.weights])
        assert claim.holds[0]

    # 60, 60, 56 and 56 of the 64 rows were OPTIMAL when only the barrier's
    # iterate was reduced to its face
    @pytest.mark.parametrize("largest", [3e15, 3e16, 3e19, 3e21])
    def test_keep_all_rows_with_a_large_candidate_are_certified(
        self, monkeypatch, largest
    ):
        cg = parse_problem(PROBLEM_DIR / "example2_case2.json")
        sets = tuple(
            replace(cs, candidates=(*cs.candidates[:-1], largest))
            if cs.name == "a" else cs for cs in cg.sets
        )
        cg = replace(cg, sets=sets)
        # each report of the batch, by its expansion's exponents and coefficients
        reports = {}
        original = gpchoice.selectors._solve_rows

        def spy(systems):
            out = original(systems)
            rows = iter(out)  # every system's reports, in call order
            for d, coefficients in systems:
                for c, report in zip(coefficients, rows):
                    reports[d.exponent_matrix.tobytes(), c.tobytes()] = report
            return out

        monkeypatch.setattr(gpchoice.selectors, "_solve_rows", spy)
        rows = solve_choice(cg, keep_assignments=True).assignments
        assert len(rows) == 64
        assert {row.status for row in rows} == {Status.OPTIMAL.value}
        names = [cs.name for cs in cg.sets]
        for row in rows:
            s = standardize(expand(cg, dict(zip(names, row.bits))))
            d = build_dual(s)
            report = reports[d.exponent_matrix.tobytes(), d.term_coefficients.tobytes()]
            claim = optimal_claim(problem_terms(s), [report.primal_x],
                                  [report.dual.weights])
            assert claim.holds[0]
            assert claim.objective[0] == row.objective_value


class TestDegenerateMinimax:
    """ROADMAP item 10's degenerate minimax GPs: on example2_case1, 128 terms
    in 38 blocks over 5 variables, with its optimum in [1.0751382,
    1.0751386]; on example2_case6, 218 terms in 62 blocks, with its optimum
    in [1.0759840, 1.0759846].  The dual bounds each from below, and a
    feasible point of a log-form solve from above."""

    @staticmethod
    @lru_cache(maxsize=2)
    def _solved(fixture="example2_case1"):
        s = standardize(degenerate_minimax_gp(fixture))
        return s, solve(s)

    def test_is_certified_optimal(self):
        s, report = self._solved()
        assert (s.variable_count, s.term_count, len(s.constraints)) == (5, 128, 37)
        assert report.status is Status.OPTIMAL
        claim = optimal_claim(problem_terms(s), [report.primal_x],
                              [report.dual.weights])
        assert claim.holds[0]
        assert 1.0751382 <= report.objective_value <= 1.0751386

    @pytest.mark.parametrize("fixture", ["example1_case1", "example2_case1",
                                         "example2_case2"])
    def test_random_draws_are_certified_optimal(self, fixture):
        # ROADMAP item 2's family: each z*(v) scaled by its own factor
        for index in range(8):
            s = standardize(random_minimax_gp(np.random.default_rng((31, index)), fixture))
            report = solve(s)
            assert report.status is Status.OPTIMAL
            claim = optimal_claim(problem_terms(s), [report.primal_x],
                                  [report.dual.weights])
            assert claim.holds[0]

    def test_case6_is_certified_optimal(self):
        s, report = self._solved("example2_case6")
        assert (s.variable_count, s.term_count, len(s.constraints)) == (5, 218, 61)
        assert report.status is Status.OPTIMAL
        claim = optimal_claim(problem_terms(s), [report.primal_x],
                              [report.dual.weights])
        assert claim.holds[0]
        assert 1.0759840 <= report.objective_value <= 1.0759846


def _solution_bytes(ds: DualSolution) -> tuple:
    floats = (ds.objective_value, ds.equality_residual, ds.stationarity)
    return (ds.status, ds.weights.tobytes(), ds.lambdas.tobytes(),
            tuple(float(v).hex() for v in floats), ds.iterations,
            None if ds.y is None else ds.y.tobytes())


class TestSharedStart:
    """One start point and null space per program (DualProgram._start), for
    every solve of it."""

    # start kind: (problem, POCS calls, support point calls of the first solve)
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

    @staticmethod
    def _started(monkeypatch) -> list:
        """The programs whose start is computed from now on, in order."""
        started, original = [], gpchoice.solver._equality_start
        monkeypatch.setattr(gpchoice.solver, "_equality_start",
                            lambda d: started.append(d) or original(d))
        return started

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_start_equals_cold_start(self, monkeypatch, kind):
        problem, pocs, lp = self.KINDS[kind]
        d = build_dual(standardize(problem))
        calls = self._count_fallbacks(monkeypatch)
        started = self._started(monkeypatch)
        cold = solve_dual(d)
        assert calls.count("_pocs_interior") == pocs
        assert calls.count("_support_point") == lp
        assert started[0] is d
        calls.clear()
        started.clear()
        warm = solve_dual(d)
        assert calls == []
        # d keeps its start; the program over its support is built, and
        # started, by each solve: a single point here, with no fallback
        assert not any(p is d for p in started)
        assert len(started) == (kind == "support")
        assert _solution_bytes(warm) == _solution_bytes(cold)
        expected = Status.INFEASIBLE if kind == "inconsistent" else Status.OPTIMAL
        assert cold.status is expected
        if kind == "inconsistent":
            assert cold.iterations == 0

    def test_duals_with_one_equality_matrix_share_the_start(self):
        first = build_dual(standardize(example1_problem(c=1.0)))
        second = build_dual(standardize(example1_problem(c=5.0)))
        assert np.array_equal(first.equality_matrix, second.equality_matrix)
        cold = solve_dual(second)
        # second's coefficients on first's program, from first's start
        warm = _solve_duals([(first, second.term_coefficients[None])])[0]
        assert _solution_bytes(warm) == _solution_bytes(cold)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cached_arrays_are_read_only(self, kind):
        d = build_dual(standardize(self.KINDS[kind][0]))
        start = d._start
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
        # equality system, so there are 46, fixture by fixture, and keep-all
        # solves each fixture's systems in one call, whose fast pass is one
        # batch: the systems of a fixture share their block layout and
        # nullity.  Each system's program, kept by the model's compile,
        # computes its start on the first pass alone
        paths = sorted(PROBLEM_DIR.glob("*.json"))
        models = [as_choice_gp(parse_problem(p)) for p in paths]
        calls, passes = [], []
        original = gpchoice.solver._solve_duals

        def spy(systems):
            calls.append([coefficients for _, coefficients in systems])
            return original(systems)

        monkeypatch.setattr(gpchoice.solver, "_solve_duals", spy)
        original_phase = gpchoice.solver._newton_phase

        def phase_spy(d, log_c, bases, basis_sums, w, max_iterations):
            passes.append(len(w))
            return original_phase(d, log_c, bases, basis_sums, w, max_iterations)

        monkeypatch.setattr(gpchoice.solver, "_newton_phase", phase_spy)
        started = self._started(monkeypatch)
        for cg in models:
            solve_choice(cg, keep_assignments=True)
        systems = [rows for call in calls for rows in call]
        assert sum(len(rows) for rows in systems) == 1002
        assert len(systems) == 46
        assert len(calls) == 12
        # one fast pass per fixture
        assert passes == [27, 64, 100, 180, 180, 180, 27, 64, 36, 48, 48, 48]
        assert len(started) == len({id(d) for d in started}) == 46
        started.clear()
        for cg in models:
            solve_choice(cg, keep_assignments=True)
        assert started == []

    def test_every_call_solves_on_the_compiles_programs(self, monkeypatch):
        # the seeds' batch, the pruned search's second batch and keep-all
        # hand _solve_rows the programs the model's compile keeps, one per
        # equality system, call after call
        tied = ChoiceGp(  # its pruned search solves a second batch
            variable_names=("x1",),
            objective=(TermTemplate(SetRef("c"), (1.0,)), TermTemplate(1.0, (-1.0,))),
            constraints=(((TermTemplate(SetRef("b"), (1.0,)),), 100.0),),
            sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 2.0)),
                  CandidateSet("b", Role.CONSTRAINT_COEFFICIENT, (1.0, 3.0))),
        )
        calls = []
        monkeypatch.setattr(gpchoice.selectors, "_solve_rows",
                            lambda systems: calls.append(systems) or _solve_rows(systems))
        paths = sorted(PROBLEM_DIR.glob("*.json"))
        for cg in [*(parse_problem(p) for p in paths), tied]:
            calls.clear()
            for keep in (False, True, False, True):
                solve_choice(cg, keep_assignments=keep)
            programs = vars(cg)["_compiled"].programs
            assert len(calls) == (6 if cg is tied else 4)
            for systems in calls:
                assert all(any(d is p for p in programs) for d, _ in systems)
            keep_all = {id(d) for d, _ in calls[-1]}
            assert keep_all == {id(p) for p in programs}

    def test_threads_sharing_programs_get_cold_results(self):
        problems = [*(p for p, _, _ in self.KINDS.values()), *_stress_problems()[:10]]
        # each result from a program of its own, started cold
        cold = [_solution_bytes(solve_dual(build_dual(standardize(p)))) for p in problems]
        duals = [build_dual(standardize(p)) for p in problems]  # not yet started
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

    def test_fast_pass_stops_at_the_first_boundary_touch(self, monkeypatch):
        # a wrong face: the fast pass ends on block 1 after 5 iterations, but
        # at the optimum block 2 is slack (lambda = (0.343, 0)); the
        # interior-point method goes on from that end and certifies in 6 more,
        # and an independent solve of the program without block 2 agrees
        # with its weights
        passes = []
        original = gpchoice.solver._newton_phase

        def spy(*args):
            # a batch of one: (end, status, count, last evaluation)
            passes.append(original(*args))
            return passes[-1]

        monkeypatch.setattr(gpchoice.solver, "_newton_phase", spy)
        d = build_dual(standardize(_stress_problems()[3]))
        ds = solve_dual(d)
        [(end, status, iterations, _)] = passes
        assert status == [Status.ITERATION_LIMIT] and iterations == [5]
        assert end[0][d.block_index == 1].max() <= _BOUNDARY_WEIGHT < end[0].max()
        assert ds.status is Status.OPTIMAL
        assert ds.iterations == 11 and ds.y is not None
        assert ds.lambdas[1] <= _BOUNDARY_WEIGHT < ds.lambdas[0]
        kept = d.block_index < 2
        reduced = solve_dual(_reduced_program(d, kept))
        assert reduced.status is Status.OPTIMAL
        np.testing.assert_allclose(ds.weights[kept], reduced.weights, rtol=1e-12, atol=0.0)

    def test_no_fixture_row_reaches_the_interior_point_method(self, monkeypatch):
        # every fixture row, pruned or keep-all, ends the fast pass OPTIMAL:
        # none touches the boundary or takes a step that does not ascend, so
        # neither rule, each of which hands a row to the interior-point
        # method, can move a golden report
        calls = []
        original = gpchoice.solver._interior_point

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gpchoice.solver, "_interior_point", spy)
        for path in sorted(PROBLEM_DIR.glob("*.json")):
            for keep in (False, True):
                solve_choice(parse_problem(path), keep_assignments=keep)
        assert calls == []

    @staticmethod
    def _failed_steps(monkeypatch) -> list[list[int]]:
        """Per fast pass made from now on, its rows that end on a step that
        does not ascend: inside the program and within the budget, neither
        OPTIMAL nor UNBOUNDED."""
        passes, original = [], gpchoice.solver._newton_phase

        def spy(*args):
            end, status, used, at_end = original(*args)
            passes.append([i for i, (st, k) in enumerate(zip(status, used))
                           if st is Status.ITERATION_LIMIT and k < args[-1]
                           and end[i].min() > _BOUNDARY_WEIGHT])
            return end, status, used, at_end

        monkeypatch.setattr(gpchoice.solver, "_newton_phase", spy)
        return passes

    def test_two_stress_rows_end_the_fast_pass_on_a_failed_step(self, monkeypatch):
        # of the bench's 1500 stress problems only 773 and 1273 take a step
        # that does not ascend; each ends before it and the interior-point
        # method certifies it from there
        passes, failed = self._failed_steps(monkeypatch), {}
        for index, g in enumerate(_stress_problems()[:1500]):
            passes.clear()
            report = solve(standardize(g))
            if any(passes):
                failed[index] = report
        assert sorted(failed) == [773, 1273]
        for index, iterations in ((773, 9), (1273, 13)):
            report = failed[index]
            assert report.status is Status.OPTIMAL and report.dual.y is not None
            assert report.dual.iterations == iterations

    def test_interior_point_rows_are_pinned(self, monkeypatch):
        # every row of the first 300 stress problems that reaches the method
        # ends as recorded with the residual-norm line search: status,
        # iterations, weight and y bytes, hashed (bit-exact under the numpy
        # the CI pins, as the golden reports are)
        digest, rows = hashlib.sha256(), []
        original = gpchoice.solver._interior_point

        def spy(*args):
            ds = original(*args)
            rows.append(ds.status)
            digest.update(repr((ds.status.value, ds.iterations)).encode())
            digest.update(ds.weights.tobytes())
            digest.update(b"" if ds.y is None else ds.y.tobytes())
            return ds

        monkeypatch.setattr(gpchoice.solver, "_interior_point", spy)
        for g in _stress_problems()[:300]:
            solve(standardize(g))
        assert rows == [Status.OPTIMAL] * 148
        assert digest.hexdigest() == (
            "b086e38f0367831da6aa37dce9bb6df99edac107fa4e7aad159798b166ba25b3")


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


# min x + 1/x s.t. y / 2 <= 1 and 1 / (2 y) <= 1, over (x, y, z): z is free
_FREE_Z = make_problem([(1, (1, 0, 0)), (1, (-1, 0, 0))],
                       [([(0.5, (0, 1, 0))], 1.0), ([(0.5, (0, -1, 0))], 1.0)])


# min x + 1/x s.t. 0.1 y + 0.1 y^2 <= 1: y's orthogonality row zeroes the
# constraint's weights, so the dual is solved over the objective's alone
_FORCED_ZEROS = make_problem([(1, (1, 0)), (1, (-1, 0))],
                             [([(0.1, (0, 1)), (0.1, (0, 2))], 1.0)])


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
        # at a looser stationarity), an infeasible primal (an unbounded dual)
        # and _FORCED_ZEROS, each with 6 scaled siblings
        unbounded = make_problem([(1, (1,))], [([(2, (1,)), (3, (-1,))], 1.0)])
        problems = (*_stress_problems()[:60], _stress_problems()[1522], unbounded,
                    _FORCED_ZEROS)
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
        return list(_solve_rows([(d, coefficients)]))

    # the paths a family reaches, by the function that marks each
    PATHS = {"_interior_point": "interior point", "_reduced_program": "reduction",
             "_support_point": "support point"}

    @pytest.mark.parametrize("max_iterations", [10_000, 5])
    def test_rows_end_as_solved_alone(self, monkeypatch, max_iterations):
        monkeypatch.setattr(gpchoice.solver, "_MAX_ITERATIONS", max_iterations)
        reached = dict.fromkeys(self.PATHS.values(), 0)
        batched = [False]
        for name, path in self.PATHS.items():
            original = getattr(gpchoice.solver, name)

            def spy(*args, _original=original, _path=path):
                reached[_path] += batched[0]
                return _original(*args)

            monkeypatch.setattr(gpchoice.solver, name, spy)
        # per recovery of a batch: its number of active sets and failed rows
        recoveries = []
        original_recover = gpchoice.solver._recover

        def recover(d, coefficients, w, z, lambdas, y):
            points, failures = original_recover(d, coefficients, w, z, lambdas, y)
            if batched[0]:
                masks = zip(w > 1e-12, lambdas > 1e-12)
                active = {w.tobytes() + lam.tobytes() for w, lam in masks}
                recoveries.append((len(active), len(failures)))
            return points, failures

        monkeypatch.setattr(gpchoice.solver, "_recover", recover)
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

    def test_a_failed_step_ends_its_row_as_alone(self, monkeypatch):
        # stress problem 773 takes a fast-pass step that does not ascend and
        # goes on to the interior-point method; its six scaled siblings, in
        # the same fast pass, end it OPTIMAL
        passes = TestSharedStart._failed_steps(monkeypatch)
        s = standardize(_stress_problems()[773])
        rng = np.random.default_rng(STRESS_SEED)
        family = (s, *(_scaled(s, rng) for _ in range(6)))
        together = self._batch(family)
        assert passes == [[0]]
        alone = [solve(s) for s in family]
        assert [_report_fields(r) for r in together] == [_report_fields(r) for r in alone]

    def test_each_row_owns_its_arrays(self):
        for family in self._families():
            duals = [build_dual(s) for s in family]
            coefficients = np.array([d.term_coefficients for d in duals])
            solutions = _solve_duals([(duals[0], coefficients)])
            arrays = [a for ds in solutions for a in (ds.weights, ds.lambdas)]
            for a in arrays:
                assert not a.flags.writeable
            for a, b in itertools.combinations(arrays, 2):
                assert not np.shares_memory(a, b)


class TestFinishFromTheLastEvaluation:
    """_finish reads the fast pass's last evaluation of each row it ends
    OPTIMAL: its value, stationarity and lambda columns equal, byte for
    byte, a fresh evaluation at the row's end weights on its own basis."""

    @staticmethod
    def _checked(monkeypatch) -> list[int]:
        """Per fast pass from now on that ends a row OPTIMAL, how many rows
        _finish then checked against a fresh evaluation; the fast pass's
        kernel must see positive weights alone."""
        checked, pending = [], []
        original_phase, original_finish = gpchoice.solver._newton_phase, gpchoice.solver._finish
        original_kernel = gpchoice.solver._positive_log_dual

        def kernel(d, w, log_c):
            assert (w > 0.0).all()  # so no nan either
            return original_kernel(d, w, log_c)

        def phase(d, log_c, bases, basis_sums, w, max_iterations):
            out = original_phase(d, log_c, bases, basis_sums, w, max_iterations)
            ends, status = out[:2]
            fresh = []
            for i in (i for i, st in enumerate(status) if st is Status.OPTIMAL):
                value, grad, _, _ = _log_dual_objective(d, _check_weights(d, ends[i]),
                                                        log_c[i])
                fresh.append((np.exp(value), _projected_norm(bases[i], grad),
                              block_lambdas(d, ends[i])))
            pending[:] = [fresh] if fresh else []
            return out

        def finish(*args):
            duals = original_finish(*args)
            if pending:  # this fast pass's finish
                fresh = pending.pop()
                assert len(duals) == len(fresh)
                for k, (z, stationarity, lambdas) in enumerate(fresh):
                    assert duals.objective_value[k].tobytes() == z.tobytes()
                    assert duals.stationarity[k].tobytes() == stationarity.tobytes()
                    assert duals.lambdas[k].tobytes() == lambdas.tobytes()
                checked.append(len(fresh))
            return duals

        monkeypatch.setattr(gpchoice.solver, "_positive_log_dual", kernel)
        monkeypatch.setattr(gpchoice.solver, "_newton_phase", phase)
        monkeypatch.setattr(gpchoice.solver, "_finish", finish)
        return checked

    def test_keep_all_passes_over_the_fixtures(self, monkeypatch):
        checked = self._checked(monkeypatch)
        for path in sorted(PROBLEM_DIR.glob("*.json")):
            solve_choice(parse_problem(path), keep_assignments=True)
        assert checked == [27, 64, 100, 180, 180, 180, 27, 64, 36, 48, 48, 48]

    def test_first_300_stress_problems(self, monkeypatch):
        checked = self._checked(monkeypatch)
        for g in _stress_problems()[:300]:
            solve(standardize(g))
        # 54 of them end the fast pass OPTIMAL, each a batch of one
        assert checked == [1] * 54

    def test_sibling_batches(self, monkeypatch):
        checked = self._checked(monkeypatch)
        for family in TestSiblingBatches._families():
            TestSiblingBatches._batch(family)
        # 17 families end rows of their fast pass OPTIMAL, 102 rows in all
        assert checked == [7, 7, 1, 7, 5, 7, 7, 2, 7, 7, 7, 7, 7, 6, 7, 7, 4]


def _perturbed(s, rng):
    """s with every nonzero exponent scaled by its own factor in [0.9, 1.1]:
    the same blocks, so the same block layout, on another equality system."""

    def perturb(posy):
        return Posynomial(tuple(
            replace(t, exponents=tuple(
                e * float(rng.uniform(0.9, 1.1)) if e else e for e in t.exponents
            ))
            for t in posy.terms
        ))

    return replace(s, objective=perturb(s.objective),
                   constraints=tuple(perturb(p) for p in s.constraints))


class TestMergedBatches:
    """The systems of one _solve_rows call share one block layout and
    variable count; it runs the fast pass of those that share a nullity as
    one batch, each row from its own start and on its own null-space basis;
    each row ends exactly as the same problem solved alone."""

    def test_a_call_has_one_block_layout(self):
        # objective blocks of 2 and 3 terms; then one variable and two
        x = [(1, (1,)), (1, (-1,))]
        for other in ([(1, (1,)), (1, (2,)), (1, (-1,))], [(1, (1, 0)), (1, (-1, 1))]):
            systems = [(d, d.term_coefficients[None])
                       for d in (build_dual(standardize(make_problem(t))) for t in (x, other))]
            for solve_all, batch in itertools.product((_solve_duals, _solve_rows),
                                                      (systems, _Batch(systems))):
                with pytest.raises(ValueError, match="one block layout"):
                    solve_all(batch)

    @staticmethod
    @lru_cache(maxsize=1)
    def _families():
        """Per family, its systems; per system, standardized problems with one
        set of exponents.  A family is a problem and two perturbed copies,
        each with two scaled siblings: the first 40 stress problems (the
        support-point starts 23, 27 and 33 among them), an infeasible primal
        (an unbounded dual) and _FORCED_ZEROS.  One more family shares a
        block layout across two nullities: y enters no term of its second
        system."""
        rng = np.random.default_rng(STRESS_SEED + 27)
        unbounded = make_problem([(1, (1,))], [([(2, (1,)), (3, (-1,))], 1.0)])
        families = []
        for s in (standardize(g) for g in (*_stress_problems()[:40], unbounded,
                                           _FORCED_ZEROS)):
            systems = (s, _perturbed(s, rng), _perturbed(s, rng))
            families.append(tuple((t, _scaled(t, rng), _scaled(t, rng)) for t in systems))
        families.append(tuple(
            (standardize(make_problem([(1, (1, 0)), (1, (-1, 0)), *terms])),)
            for terms in ([(1, (0, 1)), (1, (0, -1))], [(2, (1, 0)), (1, (-1, 0))])
        ))
        return tuple(families)

    @pytest.mark.parametrize("max_iterations", [10_000, 5])
    def test_rows_end_as_solved_alone(self, monkeypatch, max_iterations):
        monkeypatch.setattr(gpchoice.solver, "_MAX_ITERATIONS", max_iterations)
        families = self._families()
        reached, batched = Counter(), [False]
        original_phase = gpchoice.solver._newton_phase

        def phase(d, log_c, bases, basis_sums, w, max_iterations):
            if batched[0]:  # a fast pass whose rows hold several bases
                reached["merged"] += len({b.tobytes() for b in bases.mT}) > 1
                reached["largest"] = max(reached["largest"], len(w))
            return original_phase(d, log_c, bases, basis_sums, w, max_iterations)

        monkeypatch.setattr(gpchoice.solver, "_newton_phase", phase)
        paths = {"_interior_point": "interior point", "_reduced_program": "reduction",
                 "_support_point": "support point"}
        for name, path in paths.items():
            original = getattr(gpchoice.solver, name)

            def spy(*args, _original=original, _path=path):
                reached[_path] += batched[0]
                return _original(*args)

            monkeypatch.setattr(gpchoice.solver, name, spy)
        systems = [(build_dual(system[0]),
                    np.array([build_dual(s).term_coefficients for s in system]))
                   for family in families for system in family]
        # one call per block layout and variable count, as _solve_rows asks
        calls: dict[tuple, list[int]] = {}
        for i, (d, _) in enumerate(systems):
            calls.setdefault((d.block_index.tobytes(), d.variable_count), []).append(i)
        solved = [None] * len(systems)
        batched[0] = True
        for call in calls.values():
            reports = iter(_solve_rows([systems[i] for i in call]))
            for i in call:  # the call's reports, in call order
                solved[i] = list(itertools.islice(reports, len(systems[i][1])))
        batched[0] = False
        together = iter(solved)
        # families whose rows end apart; those with a row at the budget
        statuses, mixed, capped = Counter(), 0, 0
        for family in families:
            ends = set()
            for system in family:
                reports = next(together)
                alone = [solve(s) for s in system]
                assert [_report_fields(r) for r in reports] == [
                    _report_fields(r) for r in alone
                ]
                statuses.update(r.status for r in reports)
                ends |= {(r.status, r.dual.iterations) for r in reports}
            mixed += len(ends) > 1
            capped += len(ends) > 1 and Status.ITERATION_LIMIT in dict(ends)
        assert {Status.INFEASIBLE, Status.UNBOUNDED, Status.OPTIMAL} <= set(statuses)
        # families that share a layout and a nullity share fast-pass batches:
        # 14 of them hold several bases, the largest 45 rows
        assert reached["merged"] >= 10 and reached["largest"] >= 45
        if max_iterations == 5:  # rows stop at the budget beside others
            assert capped >= 3
        else:
            assert mixed >= 20
            for path in ("interior point", "reduction", "support point"):
                assert reached[path], path

    def test_a_kept_batch_solves_as_a_fresh_list(self, monkeypatch):
        # a _Batch prepares its arrays on its first solve and keeps them,
        # read-only, with each forced-zero system's reduced batch; solved
        # twice it gives, byte for byte, what a plain list of its pairs gives
        reductions = []
        original = gpchoice.solver._reduced_program
        monkeypatch.setattr(gpchoice.solver, "_reduced_program",
                            lambda *args: reductions.append(1) or original(*args))
        systems = [(build_dual(system[0]),
                    np.array([build_dual(s).term_coefficients for s in system]))
                   for family in self._families() for system in family]
        calls: dict[tuple, list] = {}  # one call per block layout and variable count
        for d, coefficients in systems:
            calls.setdefault((d.block_index.tobytes(), d.variable_count), []).append(
                (d, coefficients))
        total = 0  # reduced systems
        for call in calls.values():
            fresh = report_columns(_solve_rows(call))
            reductions.clear()
            kept = _Batch(call)
            assert [report_columns(_solve_rows(kept)) for _ in range(2)] == [fresh] * 2
            assert report_columns(_solve_rows(kept)) == fresh
            routes = kept._plan.routes
            reduced = [route for _, _, route in routes if isinstance(route, _Batch)]
            assert len(reductions) == len(reduced)  # each built once, on the first solve
            total += len(reduced)
            arrays = list(batch_arrays(kept))
            assert len(arrays) >= 4 * len(kept._plan.groups) + 4
            for arr in arrays:
                assert not arr.flags.writeable
        assert total  # _FORCED_ZEROS's systems are reduced


def _permuted(g, draw):
    """g with its variables, the terms of each posynomial and its
    constraints in drawn orders; with each new variable's old index, and
    each new term's old index in the standard form's term order."""
    n = len(g.variable_names)
    variables = draw(st.permutations(range(n)))
    sections = [list(g.objective.terms), *(list(p.terms) for p, _ in g.constraints)]
    firsts = list(itertools.accumulate(map(len, sections), initial=0))
    constraints = draw(st.permutations(range(len(g.constraints))))
    source, posynomials = [], []
    for i in (0, *(c + 1 for c in constraints)):
        order = draw(st.permutations(range(len(sections[i]))))
        source.extend(firsts[i] + t for t in order)
        posynomials.append([(sections[i][t].coefficient,
                             [sections[i][t].exponents[j] for j in variables]) for t in order])
    bounds = [g.constraints[c][1] for c in constraints]
    h = make_problem(posynomials[0], list(zip(posynomials[1:], bounds)),
                     [g.variable_names[j] for j in variables])
    return h, np.array(variables), np.array(source)


@given(st.integers(0, 2**32 - 1), st.data())
def test_permuting_a_problem_keeps_its_solution(seed, data):
    # ROADMAP item 26's first relation: how a problem is written must not
    # move its status; an optimum keeps z within 2 GAP_TOL, and its x and
    # weights, mapped back, pass the optimal claim on the original
    g = random_feasible_gp(np.random.default_rng(seed))
    h, variables, source = _permuted(g, data.draw)
    s = standardize(g)
    original, permuted = solve(s), solve(standardize(h))
    assert permuted.status is original.status
    if original.status is Status.OPTIMAL:
        z = original.objective_value
        assert abs(permuted.objective_value - z) <= 2 * GAP_TOL * z
        x, w = np.empty(len(variables)), np.empty(len(source))
        x[variables], w[source] = permuted.primal_x, permuted.dual.weights
        assert optimal_claim(problem_terms(s), [x], [w]).holds[0]
