import dataclasses

import numpy as np
import pytest

from gpchoice import (
    GpDomainError,
    build_dual,
    log_dual_objective,
    make_problem,
    solve,
    solve_dual,
    standardize,
)
from gpchoice.dual import _block_sums, _log_dual_objective, _reduced_hessian
from gpchoice.solver import (
    Status,
    _null_space,
    _project_onto_equalities,
)
from helpers import (
    EX1_W,
    EX1_Z,
    EX2_W,
    EX2_Z,
    example1_problem,
    example2_problem,
    random_feasible_gp,
)

EX1_ROWS = np.array(
    [
        [1.0, 1.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 1.0, 0.0],
        [0.0, -3.0, 1.0, 0.0, 1.0],
    ]
)
EX2_ROWS = np.array(
    [
        [1, 1, 1, 1, 0, 0, 0],
        [1, 0, 0, 0, -3, 0, -1],
        [0, 1, 0, 0, 0, 2, -1],
        [0, 0, 1, 0, 0, 0, -1],
        [0, 0, 0, 1, -2, -2, 0],
    ],
    dtype=float,
)


class TestBuildDual:
    def test_example1_equality_rows(self):
        d = build_dual(standardize(example1_problem()))
        np.testing.assert_array_equal(d.equality_matrix, EX1_ROWS)
        np.testing.assert_array_equal(d.equality_rhs, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(d.term_coefficients, [1, 3, 1, 1, 1])
        assert d.block_sizes == (3, 2)
        # only the terms are stored; the equality system is derived from them
        names = [f.name for f in dataclasses.fields(d)]
        assert names == ["term_coefficients", "block_index", "exponent_matrix"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.equality_matrix = EX1_ROWS

    def test_example2_equality_rows(self):
        d = build_dual(standardize(example2_problem()))
        np.testing.assert_array_equal(d.equality_matrix, EX2_ROWS)
        np.testing.assert_array_equal(
            d.term_coefficients, [1, 10, 4, 2, 1, 1, 100]
        )
        assert d.block_sizes == (4, 2, 1)

    def test_single_term_objective_gives_unit_normality_and_zero_rows(self):
        d = build_dual(standardize(make_problem([(7.0, (0.0, 0.0))])))
        np.testing.assert_array_equal(
            d.equality_matrix, [[1.0], [0.0], [0.0]]
        )
        np.testing.assert_array_equal(d.equality_rhs, [1.0, 0.0, 0.0])

    def test_weight_labels(self):
        d = build_dual(standardize(example1_problem()))
        assert d.weight_labels() == ("w01", "w02", "w03", "w11", "w12")

    def test_residual_at_reference_weights_example1(self):
        d = build_dual(standardize(example1_problem()))
        residual = d.equality_matrix @ np.array(EX1_W) - d.equality_rhs
        assert np.max(np.abs(residual)) <= 2e-6

    @pytest.mark.parametrize(
        "objective, constraints, where",
        [
            ([(1, (1,)), (1, (-1,))], [([], 1.0)], "constraint 0"),
            ([(1, (1,)), (1, (-1,))], [([(1, (1,))], 2.0), ([], 1.0)], "constraint 1"),
            ([], [([(1, (1,))], 1.0)], "objective"),
        ],
    )
    def test_empty_posynomial_is_a_domain_error(self, objective, constraints, where):
        s = standardize(make_problem(objective, constraints, variable_names=["x"]))
        with pytest.raises(GpDomainError, match=f"^{where} has no terms$"):
            build_dual(s)
        with pytest.raises(GpDomainError, match=where):
            solve(s)

    @pytest.mark.parametrize("coefficient", [0.0, -1.0, float("inf"), float("nan")])
    def test_coefficient_outside_the_positive_doubles_is_a_domain_error(self, coefficient):
        # a constraint coefficient of 0 ended ITERATION_LIMIT after numpy
        # warned "divide by zero encountered in log"
        s = standardize(make_problem([(1, (1,)), (1, (-1,))], [([(coefficient, (1,))], 1.0)]))
        with pytest.raises(GpDomainError, match="^term 2: coefficient .* is not finite and "
                                                "positive$"):
            build_dual(s)
        with pytest.raises(GpDomainError, match="term 2"):
            solve(s)

    def test_residual_at_reference_weights_example2(self):
        d = build_dual(standardize(example2_problem()))
        residual = d.equality_matrix @ np.array(EX2_W) - d.equality_rhs
        assert np.max(np.abs(residual)) <= 2e-6


def _degree_of_difficulty(g) -> int:
    """K - n - 1: terms less variables less one; may be negative."""
    d = build_dual(standardize(g))
    return d.term_count - d.variable_count - 1


def _dual_value(d, w) -> float:
    """The dual objective, exp of its log."""
    return float(np.exp(log_dual_objective(d, w)[0]))


class TestDegreeOfDifficulty:
    def test_example1(self):
        assert _degree_of_difficulty(example1_problem()) == 2

    def test_example2(self):
        assert _degree_of_difficulty(example2_problem()) == 2

    def test_constant_objective(self):
        g = make_problem([(3.0, ())], variable_names=[])
        assert _degree_of_difficulty(g) == 0


class TestDualObjective:
    def test_example1_value_at_reference_weights(self):
        d = build_dual(standardize(example1_problem()))
        assert _dual_value(d, EX1_W) == pytest.approx(EX1_Z, abs=1e-3)

    def test_example2_value_at_reference_weights(self):
        d = build_dual(standardize(example2_problem()))
        assert _dual_value(d, EX2_W) == pytest.approx(EX2_Z, abs=1e-3)

    def test_two_term_balance_gives_arithmetic_geometric_bound(self):
        d = build_dual(standardize(make_problem([(1.0, (1.0,)), (1.0, (-1.0,))])))
        assert _dual_value(d, (0.5, 0.5)) == pytest.approx(2.0, rel=1e-15)

    def test_negative_weight_is_rejected(self):
        d = build_dual(standardize(example1_problem()))
        with pytest.raises(GpDomainError):
            _dual_value(d, (-0.1, 0.5, 0.6, 0.4, 1.6))

    def test_zero_weights_contribute_unit_factors(self):
        d = build_dual(standardize(example1_problem()))
        w = np.array([0.5, 0.25, 0.25, 0.0, 0.0])
        expected = (1 / 0.5) ** 0.5 * (3 / 0.25) ** 0.25 * (1 / 0.25) ** 0.25
        assert _dual_value(d, w) == pytest.approx(expected, rel=1e-12)


class TestLogDualObjective:
    def test_matches_log_of_reference_value(self):
        d = build_dual(standardize(example1_problem()))
        value, _ = log_dual_objective(d, EX1_W)
        assert value == pytest.approx(np.log(EX1_Z), abs=1e-4)

    def test_zero_constraint_block_contributes_nothing(self):
        d = build_dual(standardize(example1_problem()))
        w_zero = np.array([0.5, 0.25, 0.25, 0.0, 0.0])
        w_obj_only = np.array([0.5, 0.25, 0.25])
        d_obj = build_dual(
            standardize(
                make_problem([(1, (-1, 0)), (3, (0, -3)), (1, (1, 1))])
            )
        )
        v1, _ = log_dual_objective(d, w_zero)
        v2, _ = log_dual_objective(d_obj, w_obj_only)
        assert v1 == pytest.approx(v2, rel=1e-15)

    def test_exp_of_log_matches_product_form(self):
        rng = np.random.default_rng(42)
        d = build_dual(standardize(example2_problem()))
        c = d.term_coefficients
        for _ in range(25):
            w = rng.uniform(0.05, 2.0, d.term_count)
            value, _ = log_dual_objective(d, w)
            # prod_k (c_k / w_k)^w_k * prod_i lambda_i^lambda_i
            product = float(np.prod((c / w) ** w))
            for i in range(1, len(d.block_sizes)):
                lam = w[d.block_index == i].sum()
                product *= lam**lam
            assert np.exp(value) == pytest.approx(product, rel=1e-12)

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        for s in (standardize(example1_problem()), standardize(example2_problem())):
            d = build_dual(s)
            for _ in range(10):
                w = rng.uniform(0.1, 2.0, d.term_count)
                _, grad = log_dual_objective(d, w)
                h = 1e-6
                for k in range(d.term_count):
                    wp, wm = w.copy(), w.copy()
                    wp[k] += h
                    wm[k] -= h
                    fd = (log_dual_objective(d, wp)[0]
                          - log_dual_objective(d, wm)[0]) / (2 * h)
                    assert grad[k] == pytest.approx(fd, abs=1e-5)


def _feasible_weight_samples(d, rng, count):
    """Dual-feasible weights built by null-space perturbation of the optimum."""
    import scipy.linalg

    ds = solve_dual(d)
    if ds.status is not Status.OPTIMAL:
        return []
    nullsp = scipy.linalg.null_space(d.equality_matrix)
    out = [ds.weights]
    for _ in range(count):
        direction = nullsp @ rng.normal(size=nullsp.shape[1])
        step = 1.0
        shrinking = direction < 0
        if shrinking.any():
            positive = ds.weights[shrinking] > 1e-12
            if positive.any():
                step = min(
                    1.0,
                    0.5
                    * float(
                        np.min(
                            ds.weights[shrinking][positive]
                            / -direction[shrinking][positive]
                        )
                    ),
                )
        w = np.maximum(ds.weights + step * direction, 0.0)
        w = _project_onto_equalities(d.equality_matrix, d.equality_rhs, w)
        if np.min(w) >= 0.0:
            out.append(w)
    return out


def test_weak_duality_on_random_problems():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 15:
        g = random_feasible_gp(rng)
        s = standardize(g)
        d = build_dual(s)
        samples = _feasible_weight_samples(d, rng, 4)
        if not samples:
            continue
        from gpchoice import evaluate

        for _ in range(4):
            x = np.exp(rng.uniform(-0.4, 0.4, s.variable_count))
            if all(evaluate(p, x) <= 1.0 for p in s.constraints):
                primal = evaluate(s.objective, x)
                for w in samples:
                    assert (
                        np.max(np.abs(d.equality_matrix @ w - d.equality_rhs))
                        <= 1e-10
                    )
                    assert _dual_value(d, w) <= primal * (1.0 + 1e-9)
                checked += 1


def test_log_dual_is_midpoint_concave_on_feasible_segments():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        g = random_feasible_gp(rng)
        d = build_dual(standardize(g))
        samples = _feasible_weight_samples(d, rng, 6)
        if len(samples) < 3:
            continue
        for w1, w2 in zip(samples[1:], samples[2:]):
            mid = 0.5 * (w1 + w2)
            v1, _ = log_dual_objective(d, w1)
            v2, _ = log_dual_objective(d, w2)
            vm, _ = log_dual_objective(d, mid)
            assert vm >= 0.5 * (v1 + v2) - 1e-9
        checked += 1


def _random_program(rng, sizes):
    """A dual with random terms in blocks of the given sizes, objective first."""

    def terms(count):
        return [
            (float(10.0 ** rng.uniform(-1.0, 1.0)), tuple(rng.uniform(-2.0, 2.0, 2)))
            for _ in range(count)
        ]

    cons = [(terms(size), 1.0) for size in sizes[1:]]
    return build_dual(standardize(make_problem(terms(sizes[0]), cons)))


# 0, 1 and 2 constraint blocks; blocks of 3 or more terms, which np.add.reduceat
# alone adds in another order than sum(), and of 8 or more, which sum() pairs
BLOCK_SIZES = [(3,), (9,), (2, 1), (1, 3), (4, 9), (2, 3, 2), (3, 1, 12)]


def _slices(d):
    starts = np.cumsum((0,) + d.block_sizes)
    return [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]


def _loop_log_dual_objective(d, w):
    """The log dual and its gradient block by block: the kernels' reference."""
    c = d.term_coefficients
    with np.errstate(divide="ignore"):
        logw = np.log(w)
        logc = np.log(c)
        pos = w > 0.0
        value = float(np.sum(w[pos] * (logc[pos] - logw[pos])))
        grad = logc - logw - 1.0
        for sl in _slices(d)[1:]:
            lam = float(w[sl].sum())
            if lam > 0.0:
                value += lam * np.log(lam)
                grad[sl] += np.log(lam) + 1.0
            else:
                grad[sl] = np.inf
    return value, grad


def _loop_log_dual_hessian(d, w):
    """The Hessian block by block: the kernel's reference."""
    h = np.diag(-1.0 / w)
    for sl in _slices(d)[1:]:
        lam = float(w[sl].sum())
        h[sl, sl] += 1.0 / lam
    return h


def _full_hessian(d, w):
    """The Hessian of the log dual: the reduced one on the basis I."""
    eye = np.eye(d.term_count)
    return _reduced_hessian(eye, d._layout.member, _block_sums(d, w), w)


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _positive_weights(rng, k):
    w = 10.0 ** rng.uniform(-12.0, 1.0, k)
    w[rng.random(k) < 0.1] = 1e-150  # the Newton loop's weight floor
    return w


def _siblings(rng, d, count):
    """count duals with d's terms and coefficients scaled row by row, and
    their log coefficients as one (count, K) array."""
    factors = 10.0 ** rng.uniform(-1.0, 1.0, (count, d.term_count))
    coefficients = d.term_coefficients * factors
    duals = [dataclasses.replace(d, term_coefficients=c) for c in coefficients]
    return duals, np.log(coefficients)


def _assert_rows_match_the_loops(d, batch, rng):
    """Every row of the batched kernels equals the block loops on its own
    dual, bit for bit; batch is a (B, K) weight array."""
    duals, log_c = _siblings(rng, d, len(batch))
    value, grad, logw, lam = _log_dual_objective(d, batch, log_c)
    sums = _block_sums(d, batch)
    assert value.shape == (len(batch),) and grad.shape == batch.shape
    for b, (sibling, w) in enumerate(zip(duals, batch)):
        ref_value, ref_grad = _loop_log_dual_objective(sibling, w)
        with np.errstate(divide="ignore"):
            ref_logw = np.log(w)
        assert _bits(value[b], grad[b], logw[b]) == _bits(ref_value, ref_grad, ref_logw)
        ref_sums = [float(w[sl].sum()) for sl in _slices(d)]
        assert _bits(sums[b], lam[b]) == _bits(ref_sums, ref_sums)
    if batch.all():  # at B = I the batched Hessian is the entrywise loop's
        eye = np.eye(d.term_count)
        hess = _reduced_hessian(eye, d._layout.member, lam, batch)
        for h, w in zip(hess, batch):
            assert _bits(h) == _bits(_loop_log_dual_hessian(d, w))


class TestKernelsMatchBlockLoops:
    """The vectorized kernels add in the block loops' order, bit for bit,
    on one weight vector and on every row of a (B, K) stack of them."""

    @pytest.mark.parametrize("sizes", BLOCK_SIZES)
    def test_positive_weights(self, sizes):
        rng = np.random.default_rng(sum(sizes) * 31 + len(sizes))
        d = _random_program(rng, sizes)
        for _ in range(40):
            w = _positive_weights(rng, d.term_count)
            value, grad, logw, _ = _log_dual_objective(d, w)
            assert _bits(value, grad, logw) == _bits(
                *_loop_log_dual_objective(d, w), np.log(w)
            )
            hess = _full_hessian(d, w)
            assert _bits(hess) == _bits(_loop_log_dual_hessian(d, w))
        for count in (1, 2, 7):
            batch = np.array([_positive_weights(rng, d.term_count)
                              for _ in range(count)])
            _assert_rows_match_the_loops(d, batch, rng)

    @pytest.mark.parametrize("sizes", BLOCK_SIZES)
    def test_zero_weights(self, sizes):
        rng = np.random.default_rng(sum(sizes) * 17 + len(sizes))
        d = _random_program(rng, sizes)
        blocks = _slices(d)
        for trial in range(40):
            w = _positive_weights(rng, d.term_count)
            w[rng.random(d.term_count) < 0.3] = 0.0
            if trial % 2 and len(blocks) > 1:
                w[blocks[1 + trial % (len(blocks) - 1)]] = 0.0  # an emptied block
            if w.all():
                w[0] = 0.0
            value, grad = log_dual_objective(d, w)
            ref_value, ref_grad = _loop_log_dual_objective(d, w)
            assert _bits(value, grad) == _bits(ref_value, ref_grad)
            assert np.all(np.isposinf(grad[w == 0.0]))
        # zero weights in some rows of a batch, positive ones in the others
        batch = np.array([_positive_weights(rng, d.term_count) for _ in range(6)])
        batch[1::2][rng.random((3, d.term_count)) < 0.3] = 0.0
        batch[1, blocks[-1]] = 0.0
        _assert_rows_match_the_loops(d, batch, rng)


class TestReducedHessian:
    """The Hessian assembled on a basis B equals B^T H B."""

    @pytest.mark.parametrize("sizes", [(2, 3, 2), (3, 1, 4), (2, 2, 2, 2), (4, 9, 1)])
    def test_matches_the_projected_full_hessian(self, sizes):
        rng = np.random.default_rng(sum(sizes) * 13 + len(sizes))
        d = _random_program(rng, sizes)
        a = d.equality_matrix
        nullsp = _null_space(a)
        for trial in range(40):
            w = 10.0 ** rng.uniform(-3.0, 1.0, d.term_count)
            basis = nullsp
            if trial % 2:
                # the null space of [A; I_active], the face of up to
                # nullity - 2 weights at the 1e-12 boundary: the kernel takes
                # any basis, not just a null space of A
                count = int(rng.integers(1, nullsp.shape[1] - 1))
                active = rng.choice(d.term_count, count, replace=False)
                w[active] = 1e-12
                basis = _null_space(np.vstack([a, np.eye(d.term_count)[active]]))
            assert basis.shape[1] > 0
            lam = _log_dual_objective(d, w)[3]
            got = _reduced_hessian(basis, d._layout.member @ basis, lam, w)
            want = basis.T @ _full_hessian(d, w) @ basis
            # entries that cancel to near zero carry the rounding of their
            # largest terms, so the error is measured on the scale of the
            # largest entry
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            # a (B, K) stack: each row's reduced Hessian, bit for bit
            batch = w * 10.0 ** rng.uniform(-1.0, 1.0, (5, d.term_count))
            lams = _block_sums(d, batch)
            sums = d._layout.member @ basis
            got = _reduced_hessian(basis, sums, lams, batch)
            assert got.shape == (5, basis.shape[1], basis.shape[1])
            for h, row_lam, row in zip(got, lams, batch):
                want = _reduced_hessian(basis, sums, row_lam, row)
                assert _bits(h) == _bits(want)


class TestLogDualHessian:
    """The full Hessian of the log dual, _reduced_hessian on the basis I."""

    @pytest.mark.parametrize("sizes", [(3,), (2, 3), (3, 2, 4)])
    def test_matches_central_differences_of_the_gradient(self, sizes):
        rng = np.random.default_rng(len(sizes))
        d = _random_program(rng, sizes)
        h = 1e-6
        for _ in range(10):
            w = rng.uniform(0.2, 2.0, d.term_count)
            hess = _full_hessian(d, w)
            for k in range(d.term_count):
                wp, wm = w.copy(), w.copy()
                wp[k] += h
                wm[k] -= h
                fd = log_dual_objective(d, wp)[1] - log_dual_objective(d, wm)[1]
                fd /= 2 * h
                np.testing.assert_allclose(hess[:, k], fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("sizes", [(3,), (2, 3), (3, 2, 4)])
    def test_is_symmetric(self, sizes):
        rng = np.random.default_rng(5 + len(sizes))
        d = _random_program(rng, sizes)
        hess = _full_hessian(d, _positive_weights(rng, d.term_count))
        np.testing.assert_array_equal(hess, hess.T)
