"""Concave maximization of the log dual over its affine set, primal recovery.

The dual of a posynomial GP maximizes a concave function over
{A w = e1, w >= 0}.  We parameterize the affine set through an orthonormal
null-space basis and run a damped Newton ascent with a fraction-to-boundary
safeguard; equality residuals stay at rounding level because iterates never
leave the affine set, and every pass stays strictly inside its program.  Each
step runs the dual's vectorized kernels and assembles the reduced Hessian
directly on the null-space basis.  A plain Newton pass, the fast pass, runs
from the start and ends at its first boundary touch; an interior stationary
point is accepted outright (global by concavity).  A zero weight at the
optimum marks an inactive term, so a boundary optimum is the interior optimum
of a smaller dual.  A fast pass that ends on the boundary guesses its face:
every constraint block holding a boundary weight is slack, so all its weights
are zero (complementary slackness; Duffin, Peterson and Zener, Geometric
Programming, 1967).  One plain pass solves the program without those blocks
from its system's own start, and the guess stands where the x recovered from
it and the zero-padded weights certify on the full problem's terms: dropping a
constraint relaxes the primal, and a relaxed optimum that meets the dropped
constraint is optimal (Boyd, Kim, Vandenberghe and Hassibi, A tutorial on
geometric programming, 2007).  Where the guess fails, the fast pass may have
locked onto a suboptimal face, and a log-barrier continuation from the start
rides the central path to the optimal face.  Each barrier stage that ends
centred hands the next stage a prediction along the central path's tangent,
cut short of the boundary: a weight that is zero at the optimum sits near
mu / v on the path, and from the last centre Newton could only about halve it
per iteration after mu drops.  Predictions are not Newton iterations and do
not count toward _MAX_ITERATIONS.  The weights the barrier leaves near zero
(single weights, and every block of an inactive constraint) are dropped, the
iterate is projected onto the reduced equalities, the plain pass finishes
there, and the dropped weights are padded with zeros; a projection that is not
strictly positive ends the dual ITERATION_LIMIT where the barrier left it.
This reduction and the face guess share one helper and differ only in their
start.  All passes of one dual share _MAX_ITERATIONS.  When the equality
system leaves no freedom (an empty null space, as with degree of difficulty
zero) its single solution is the answer.

The start point is the projection of equal block weights onto the affine
set, else one pass of alternating projections (POCS) toward the interior,
else the support point: one non-negative least-squares solve decides
whether {A w = b, w >= 0} is empty, its residual the witness, and only a
nonempty set goes on to one LP that finds a feasible point positive on
every weight some feasible point can make positive.  Weights that LP leaves
at zero are zero at every feasible point; they are dropped and the dual is
re-solved on the rest.  The start and the null space depend only on the
equality system, which the exponents and blocks of the terms fix, so they
are computed once per system and shared, through a bounded cache, by every
dual with that system.  Duals that differ only in their coefficients are
solved as one batch, a row of a (B, K) weight array each, and each row ends
bit for bit as it would alone; solve_dual is the batch of one.  Linear algebra is numpy
only (an SVD null space; a Newton step from one symmetric eigendecomposition
of the reduced Hessian, its eigenvalues floored so that the step always
ascends), so importing the package does not load scipy;
scipy.optimize's nnls and linprog are imported on first use by the support
point.

The primal minimizer is recovered from optimal weights through the log-linear
relations: objective terms satisfy term_value = w_0t * Z, and terms of an
active constraint block satisfy term_value = w_it / lambda_i.  Rows of a
batch with the same such terms share one multi-column least-squares solve;
solve_dual, recover_primal and solve are each the batch of one.  solve
reports OPTIMAL only where certificate.optimal_claim holds at the recovered
x and the dual weights, a check from the problem's terms alone.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .dual import (
    DualProgram,
    _block_sums,
    _check_weights,
    _equality_system,
    _log_dual_objective,
    _reduced_hessian,
    block_lambdas,
    build_dual,
)
from .certificate import FEASIBILITY_TOL, Terms, optimal_claim
from .certificate import GAP_TOL, VIOLATION_TOL  # noqa: F401 (read from solver too)
from .posynomial import StandardGp

# log value beyond which the dual is declared unbounded (exp would overflow)
_LOG_VALUE_UNBOUNDED = 350.0
# after the barrier, a constraint block with lambda at or below this is
# inactive (the barrier leaves inactive blocks near 1e-9 and active ones
# above 1e-3), and a single weight at or below _DROPPED_WEIGHT is zero at the
# optimum; both are dropped from the program before its last pass
_INACTIVE_LAMBDA = 1e-6
_DROPPED_WEIGHT = 1e-8
# a plain Newton pass ends at a weight this small; recovery ignores its term
_BOUNDARY_WEIGHT = 1e-12
# trial weights are floored here, far below _BOUNDARY_WEIGHT, so that rounding
# to zero keeps the log dual finite without affecting any contract
_WEIGHT_FLOOR = 1e-150
# equality systems whose start is kept; the shipped problems have 10 in all
_START_CACHE_SIZE = 256
# Newton iterations of one dual, shared by all its passes
_MAX_ITERATIONS = 10_000
# largest projected gradient entry at which a dual is stationary; at 1e-8 the
# x recovered from stress problem 1522 misses VIOLATION_TOL by 4e-10
_STATIONARITY_TOL = 1e-10


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class ReconstructionError(RuntimeError):
    """Primal recovery system is inconsistent beyond tolerance."""


@dataclass(frozen=True)
class DualSolution:
    status: Status
    weights: np.ndarray
    lambdas: np.ndarray
    objective_value: float
    equality_residual: float
    stationarity: float
    iterations: int

    def __post_init__(self):
        self.weights.flags.writeable = False
        self.lambdas.flags.writeable = False


@dataclass(frozen=True)
class KktResiduals:
    equality: float
    stationarity: float
    primal_feasibility: float


@dataclass(frozen=True)
class SolveReport:
    status: Status
    primal_x: tuple[float, ...] | None
    dual: DualSolution
    objective_value: float | None
    duality_gap: float | None
    kkt_residuals: KktResiduals | None


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a, as columns.

    Keeps the rank rule of scipy.linalg.null_space: singular values above
    max(s) * eps * max(a.shape) count toward the rank.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.max(s, initial=0.0) * np.finfo(float).eps * max(a.shape)
    rank = int(np.sum(s > tol))
    return vh[rank:].T


def _project_onto_equalities(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    delta, *_ = np.linalg.lstsq(a, b - a @ w, rcond=None)
    return w + delta


def _projected_norm(basis: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Largest entry of grad projected onto the span of basis's columns, per row."""
    projected = np.matvec(basis, np.matvec(basis.T, grad))
    return np.maximum.reduce(np.abs(projected), axis=-1)


def _support_point(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Feasible point of {A w = b, w >= 0} with the largest support; None if empty.

    Non-negative least squares (Lawson and Hanson, Solving Least Squares
    Problems, 1974, ch. 23) decides emptiness: its active-set method ends
    finitely at the w >= 0 nearest to solving A w = b, and a residual above
    1e-8 proves the set empty (y = A w - b has A^T y >= 0 and b^T y < 0,
    a Farkas witness).  Otherwise one LP (Freund, Roundy and Todd, 1985)
    finds the support: maximize sum(t) subject to A w = b tau, t <= w,
    0 <= t <= 1, w >= 0, tau >= 1.  Scaling (w, tau) up lets t_k reach 1 on
    every weight that some feasible point makes positive, so the support is
    {t > 1/2}; off it the weights are zero at every feasible point.
    """
    from scipy.optimize import linprog, nnls  # only this fallback needs scipy

    try:
        w, _ = nnls(a, b)
    except RuntimeError:  # past its iteration cap; the LP decides
        pass
    else:
        if np.max(np.abs(a @ w - b)) > 1e-8:
            return None
    m, k = a.shape
    c = np.concatenate([np.zeros(k), -np.ones(k), [0.0]])
    a_eq = np.hstack([a, np.zeros((m, k)), -b[:, None]])
    a_ub = np.hstack([-np.eye(k), np.eye(k), np.zeros((k, 1))])  # t - w <= 0
    bounds = [(0.0, None)] * k + [(0.0, 1.0)] * k + [(1.0, None)]
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq, b_eq=np.zeros(m),
        bounds=bounds, method="highs",
    )
    if not res.success:
        return None
    support = res.x[k:2 * k] > 0.5
    w = np.zeros(k)
    # linprog meets the equalities only to its own tolerance
    w[support] = _project_onto_equalities(
        a[:, support], b, res.x[:k][support] / res.x[-1]
    )
    return w


def _pocs_interior(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, margin: float
) -> np.ndarray | None:
    """Alternate projections between {A w = b} and {w >= margin}."""
    pinv = np.linalg.pinv(a)
    particular = pinv @ b
    for _ in range(60):
        w = np.maximum(w, margin)
        w = w - pinv @ (a @ w) + particular
        if np.min(w) >= 0.5 * margin:
            return w
    return None


# w: start point, None when {A w = b, w >= 0} is empty or support is set;
# support: the weights some feasible point makes positive, if not all
_Start = namedtuple("_Start", "w nullsp support")


def _system_key(d: DualProgram) -> tuple:
    """d's exponents and blocks, which fix its equality system, as a key."""
    arrays = (d.exponent_matrix, d.block_index)
    return tuple((x.shape, x.dtype.str, x.tobytes()) for x in arrays)


def _dual_start(d: DualProgram) -> _Start:
    """The start of d's equality system, computed once per _system_key."""
    return _equality_start(*_system_key(d))


@lru_cache(maxsize=_START_CACHE_SIZE)
def _equality_start(exponent_key, block_key) -> _Start:
    """Start point and null space of {A w = b, w >= 0}, read from the key alone."""
    exponents, block = (
        np.frombuffer(data, dtype).reshape(shape)
        for shape, dtype, data in (exponent_key, block_key)
    )
    a, b, block_sizes = _equality_system(exponents, block)
    w = _project_onto_equalities(a, b, 1.0 / np.array(block_sizes, dtype=float)[block])
    if np.max(np.abs(a @ w - b)) > 1e-8:
        return _Start(None, None, None)  # A w = b has no solution
    nullsp, support = _null_space(a), None
    if nullsp.shape[1] == 0:  # the affine set is the single point w
        w = np.maximum(w, 0.0) if np.min(w) >= -1e-9 else None
    else:
        if np.min(w) < 1e-6:
            w = _pocs_interior(a, b, w, 1e-2)
            if w is None:
                w = _support_point(a, b)
        if w is not None and (w > 0.0).all():
            w = _project_onto_equalities(a, b, w)
        elif w is not None:  # the rest are zero at every feasible point
            w, support = None, w > 0.0
    # lru_cache is thread-safe; what it keeps is shared, hence read-only
    for arr in (arr for arr in (w, nullsp, support) if arr is not None):
        arr.flags.writeable = False
    return _Start(w, nullsp, support)


def _reduced_program(d: DualProgram, keep: np.ndarray) -> DualProgram:
    """The program over the kept weights; emptied constraint blocks vanish."""
    live = np.bincount(d.block_index[keep], minlength=len(d.block_sizes)) > 0
    renumber = np.cumsum(live) - live[0]  # the objective block stays block 0
    return DualProgram(
        term_coefficients=d.term_coefficients[keep],
        block_index=renumber[d.block_index[keep]],
        exponent_matrix=d.exponent_matrix[keep],
    )


def _pad(
    d: DualProgram, keep: np.ndarray, inner: list[DualSolution]
) -> list[DualSolution]:
    """inner, solved over d's kept weights, with the rest of d's weights zero."""
    weights = np.zeros((len(inner), d.term_count))
    weights[:, keep] = [ds.weights for ds in inner]
    rows = zip(inner, weights, block_lambdas(d, weights))
    return [replace(ds, weights=w, lambdas=lam) for ds, w, lam in rows]


def _newton_step(hu: np.ndarray, gu: np.ndarray) -> np.ndarray:
    """Newton ascent direction, the eigenvalues of -hu floored.

    -hu is positive semidefinite up to rounding, the log dual being concave;
    the floor, 1e-12 * max(1, max|eigenvalue|) (Nocedal and Wright, Numerical
    Optimization, 2006, 3.4), makes the step finite and ascending (gu @ step
    > 0 for nonzero gu) for every finite symmetric hu, or each of a stack.
    It calls the gufunc under numpy.linalg.eigh, whose checks outcost the work.
    """
    lam, vec = _umath_linalg.eigh_lo((hu + hu.mT) / -2.0, signature="d->dd")
    scale = np.maximum.reduce(np.abs(lam), axis=-1, keepdims=True)
    floor = 1e-12 * np.maximum(1.0, scale)
    return np.matvec(vec, np.matvec(vec.mT, gu) / np.maximum(lam, floor))


def _failure(d: DualProgram, status: Status, iterations: int = 0) -> DualSolution:
    return DualSolution(status, np.zeros(d.term_count), np.zeros(d.constraint_count),
                        float("nan"), float("inf"), float("inf"), iterations)


def _finish(
    d: DualProgram, log_c: np.ndarray, nullsp: np.ndarray, w: np.ndarray,
    status: list[Status], iterations: list[int],
) -> list[DualSolution]:
    """The DualSolution of each row of w (B, K), with its row of log_c; an
    OPTIMAL row that misses FEASIBILITY_TOL or _STATIONARITY_TOL ends
    ITERATION_LIMIT."""
    residual = np.abs(np.matvec(d.equality_matrix, w) - d.equality_rhs).max(axis=1)
    value, grad = _log_dual_objective(d, _check_weights(d, w, len(w)), log_c)[:2]
    # at a maximizer inside the program the gradient vanishes on its null space
    stationarity = _projected_norm(nullsp, grad)
    rows = zip(status, w.copy(), block_lambdas(d, w), np.exp(value).tolist(),
               residual.tolist(), stationarity.tolist(), iterations)
    out = []
    for st, weights, lambdas, z, res, stat, n in rows:
        if st is Status.OPTIMAL and (res > FEASIBILITY_TOL or stat > _STATIONARITY_TOL):
            st = Status.ITERATION_LIMIT
        out.append(DualSolution(st, weights, lambdas, z, res, stat, n))
    return out


def _barrier_eval(
    d: DualProgram, w: np.ndarray, mu: float, log_c: np.ndarray | None = None
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(raw log dual value, barrier-augmented value, its gradient, block sums)."""
    # Newton starts inside and floors steps at _WEIGHT_FLOOR: no weight check
    raw, grad, logw, lam = _log_dual_objective(d, w, log_c)
    if mu == 0.0:
        return raw, raw, grad, lam
    return raw, raw + mu * np.add.reduce(logw, axis=-1), grad + mu / w, lam


def _boundary_fraction(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Per row, the longest step along dw, at most 1, that keeps w strictly
    positive: 0.9995 of the fraction to the boundary."""
    # -w / dw, exactly, where dw < 0, and inf elsewhere (w > 0)
    ratio = np.where(dw < 0.0, w, np.inf) / np.abs(dw)
    return np.minimum(1.0, 0.9995 * np.minimum.reduce(ratio, axis=-1))


def _newton_phase(
    d: DualProgram, log_c: np.ndarray, nullsp: np.ndarray, basis_sums: np.ndarray,
    w: np.ndarray, mu: float, tol: float, max_iterations: list[int],
) -> tuple[np.ndarray, list[Status], list[int]]:
    """Damped Newton ascent of the (optionally barrier-augmented) log dual.

    Each row of w (B, K) is a dual of d's equality system with its row of
    log_c, and has its own line search, end and iteration count (at most its
    max_iterations); the rows share the null-space basis B, basis_sums (B's
    sums over each constraint block) and one stacked eigh per iteration.  The
    barrier keeps iterates inside; with mu = 0 a row ends at its first weight
    at or below _BOUNDARY_WEIGHT.  Returns end weights, statuses and counts.
    """
    end, used = np.empty_like(w), [0] * len(w)
    status = [Status.ITERATION_LIMIT] * len(w)
    rows, limits, stuck = list(range(len(w))), list(max_iterations), []  # live rows
    raw, value, grad, lam = _barrier_eval(d, w, mu, log_c)
    for k in itertools.count(1):
        gu = np.matvec(nullsp.T, grad)
        # _projected_norm, from gu
        norms = np.maximum.reduce(np.abs(np.matvec(nullsp, gu)), axis=1).tolist()
        low = np.minimum.reduce(w, axis=1).tolist() if mu == 0.0 else None
        live = []
        for i, (j, r) in enumerate(zip(rows, raw.tolist())):
            # past its budget or with no progress a row ends at k - 1, else at
            # k: unbounded, at the boundary of a plain pass, or stationary
            if k > limits[i] or i in stuck:
                used[j] = k - 1
            elif r > _LOG_VALUE_UNBOUNDED:
                status[j], used[j] = Status.UNBOUNDED, k
            elif low is not None and low[i] <= _BOUNDARY_WEIGHT:
                used[j] = k
            elif norms[i] <= tol:
                status[j], used[j] = Status.OPTIMAL, k
            else:
                live.append(i)
                continue
            end[j] = w[i]
        if not live:
            break
        if len(live) < len(rows):
            w, raw, value, grad, lam, log_c, gu = (
                x[live] for x in (w, raw, value, grad, lam, log_c, gu)
            )
            rows, limits, norms = ([x[i] for i in live] for x in (rows, limits, norms))

        du = _newton_step(_reduced_hessian(nullsp, basis_sums, lam, w, mu), gu)
        slopes, values = np.vecdot(gu, du).tolist(), value.tolist()
        dw = np.matvec(nullsp, du)
        step = _boundary_fraction(w, dw)
        # each row halves its step until it takes its trial; a taken row's
        # trial comes out the same at every later halving
        taken, stuck = [False] * len(w), []  # stuck: no progress at all
        for _ in range(60):
            trial = np.maximum(w + step[:, None] * dw, _WEIGHT_FLOOR)
            evaluated = _barrier_eval(d, trial, mu, log_c)
            t_norms, sizes, t_values = None, step.tolist(), evaluated[1].tolist()
            for i, (size, t_value) in enumerate(zip(sizes, t_values)):
                if taken[i]:
                    continue
                predicted = 1e-4 * size * slopes[i]
                # once the predicted gain sinks below value resolution,
                # sufficient decrease cannot be observed; judge trial steps
                # by stationarity instead
                if predicted > 1e-13 * (1.0 + abs(values[i])):
                    taken[i] = t_value >= values[i] + predicted
                    continue
                if t_norms is None:
                    t_norms = _projected_norm(nullsp, evaluated[2]).tolist()
                taken[i] = t_norms[i] < norms[i]
            if all(taken):
                break
            step = np.where(taken, step, 0.5 * step)
        else:  # the rows that found no progress stay at w, and end
            stuck = [i for i, t in enumerate(taken) if not t]
            trial = np.where(np.array(taken)[:, None], trial, w)
            evaluated = _barrier_eval(d, trial, mu, log_c)
        w, (raw, value, grad, lam) = trial, evaluated

    return end, status, used


# continuation schedule for the interior barrier; the central path guides
# iterates to the optimal face before any weight is allowed to hit zero
_BARRIER_SCHEDULE = (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def _tangent_prediction(
    d: DualProgram, nullsp: np.ndarray, w: np.ndarray, mu: float, mu_next: float
) -> np.ndarray:
    """Rows of w, centred at mu, moved along the central path's tangent to mu_next.

    Differentiating B^T grad phi_mu(w) = 0, for the barrier-augmented log
    dual phi_mu and w = w0 + B u, gives du/dmu = (-H_u)^{-1} B^T (1 / w),
    with H_u the reduced Hessian of phi_mu (Fiacco and McCormick, Nonlinear
    Programming: Sequential Unconstrained Minimization Techniques, 1968,
    ch. 5).  The step is cut by _boundary_fraction, so the prediction stays
    strictly inside the program and on its affine set.
    """
    hu = _reduced_hessian(nullsp, d._layout.member @ nullsp, _block_sums(d, w), w, mu)
    du = _newton_step(hu, np.matvec(nullsp.T, 1.0 / w))
    dw = (mu_next - mu) * np.matvec(nullsp, du)
    return w + _boundary_fraction(w, dw)[:, None] * dw


def solve_dual(d: DualProgram) -> DualSolution:
    """Maximize the log dual objective over {A w = e1, w >= 0}.

    Returns a DualSolution whose status is OPTIMAL when the equality residual
    is at most FEASIBILITY_TOL and the projected-gradient stationarity measure
    at most _STATIONARITY_TOL, INFEASIBLE when the feasible set is empty,
    UNBOUNDED when the objective grows without bound along the feasible set,
    and ITERATION_LIMIT otherwise, including when the Newton passes together
    reach _MAX_ITERATIONS.
    """
    return _solve_duals(d, d.term_coefficients[None])[0]


def _guessed_faces(d: DualProgram, w: np.ndarray) -> np.ndarray:
    """The weights each row of w (B, K), ended at the boundary, keeps on the
    face it guesses: every constraint block holding a weight at or below
    _BOUNDARY_WEIGHT is slack, so all its weights are zero at the optimum
    (complementary slackness).  A row with such a weight in the objective
    block has no face to guess, and keeps none."""
    touched = _block_sums(d, (w <= _BOUNDARY_WEIGHT) * 1.0) > 0.0
    touched[touched[:, 0]] = True
    return ~touched[:, d.block_index]


def _solve_duals(d: DualProgram, coefficients: np.ndarray) -> list[DualSolution]:
    """solve_dual of d at each row of coefficients (B, K), as one batch: duals
    of d's equality system that differ only in their terms' coefficients.

    Each row runs the fast pass, then, if that ends on the boundary, one pass
    on the face it guesses (_guessed_faces), kept where it certifies, then
    the barrier from the start and one pass on the face the barrier leaves."""
    start, nullsp, support = _dual_start(d)
    if support is not None:
        inner = _reduced_program(d, support), coefficients[:, support]
        return _pad(d, support, _solve_duals(*inner))
    if start is None:
        return [_failure(d, Status.INFEASIBLE) for _ in coefficients]
    log_c = np.log(coefficients)
    w = start[None].repeat(len(log_c), axis=0)
    if nullsp.shape[1] == 0:  # the affine set is the single point start
        return _finish(d, log_c, nullsp, w, [Status.OPTIMAL] * len(w), [0] * len(w))
    budget = _MAX_ITERATIONS
    out: list[DualSolution | None] = [None] * len(log_c)
    spent = [0] * len(log_c)  # iterations of each dual so far

    def phase(rows, w, mu, cap, program=d, nullsp=nullsp, keep=slice(None)):
        """_newton_phase of these rows, capped; the rows, end weights and
        statuses of all but the UNBOUNDED rows, which fail."""
        ends, status, used = _newton_phase(
            program, log_c[rows][:, keep], nullsp, program._layout.member @ nullsp,
            w, mu, max(mu, _STATIONARITY_TOL),
            [min(cap, budget - spent[j]) for j in rows],
        )
        for j, st, n in zip(rows, status, used):
            spent[j] += n
            if st is Status.UNBOUNDED:
                out[j] = _failure(d, st, spent[j])
        going = [i for i, st in enumerate(status) if st is not Status.UNBOUNDED]
        if len(going) == len(rows):
            return rows, ends, status
        return [rows[i] for i in going], ends[going], [status[i] for i in going]

    def finish(rows, w, status, program=d, nullsp=nullsp, keep=slice(None)):
        """_finish these rows of a last pass over program, d's kept weights."""
        if not rows:
            return
        ends = _finish(program, log_c[rows][:, keep], nullsp, w, status,
                       [spent[j] for j in rows])
        for j, ds in zip(rows, ends if program is d else _pad(d, keep, ends)):
            out[j] = ds

    def on_faces(rows, keeps, w=None):
        """One plain pass of each row over its face, the program of its kept
        weights, one batch per face, finished there and padded.  Where w is
        None a pass starts at the face system's own start, capped like the
        fast pass, and a face whose start is missing or has forced zeros runs
        none; else it starts at the row of w projected onto the face, and a
        projection that is not finite and strictly positive ends it at w."""
        groups: dict[bytes, list[int]] = {}
        for i, keep in enumerate(keeps):
            groups.setdefault(keep.tobytes(), []).append(i)
        for group in groups.values():
            keep, g_rows = keeps[group[0]], [rows[i] for i in group]
            program, g_nullsp, cap = d, nullsp, budget
            if not keep.all():
                program = _reduced_program(d, keep)
            if w is None:
                g_w, g_nullsp, support = _dual_start(program)
                if g_w is None or support is not None:
                    continue
                g_w, cap = g_w[None].repeat(len(group), axis=0), 200
            elif keep.all():
                g_w = w[group]
            else:
                a, b = program.equality_matrix, program.equality_rhs
                g_nullsp = _null_space(a)
                g_w = w[group][:, keep]
                g_w = np.array([_project_onto_equalities(a, b, v) for v in g_w])
                inside = ((g_w > 0.0) & (g_w < np.inf)).all(axis=1)
                outside = np.flatnonzero(~inside)
                finish([g_rows[i] for i in outside], w[group][outside],
                       [Status.ITERATION_LIMIT] * len(outside))
                g_rows, g_w = [j for j, ok in zip(g_rows, inside) if ok], g_w[inside]
            if g_rows:
                finish(*phase(g_rows, g_w, 0.0, cap, program, g_nullsp, keep),
                       program, g_nullsp, keep)

    # fast path: plain Newton from the interior start, ended at its first
    # boundary touch; an interior stationary point is the global maximum by
    # concavity, so it can be accepted outright
    rows, ends, status = phase(list(range(len(w))), w, 0.0, 200)
    done = [i for i, st in enumerate(status) if st is Status.OPTIMAL]
    finish([rows[i] for i in done], ends[done], [Status.OPTIMAL] * len(done))

    # a row that ended at the boundary guesses the face it reached: the
    # constraint blocks holding its boundary weights are slack, so the optimum
    # is the interior one of the program without them; the guess is kept
    # where it certifies on d's terms
    touched = np.flatnonzero(np.minimum.reduce(ends, axis=1) <= _BOUNDARY_WEIGHT)
    if len(touched):
        keeps = _guessed_faces(d, ends[touched])
        guessed = np.flatnonzero(keeps.any(axis=1))
        on_faces([rows[i] for i in touched[guessed]], keeps[guessed])
        faced = [rows[i] for i in touched if out[rows[i]] is not None]
        if faced:  # _recover and the certificate read the padded weights
            solutions = [out[j] for j in faced]
            reports = _certify(d, coefficients[faced], solutions, _recover)
            for j, report in zip(faced, reports):
                if report.status is not Status.OPTIMAL:
                    out[j] = None
    rows = [j for j, ds in enumerate(out) if ds is None]
    w = w[rows]

    # the rows left had no face to guess or guessed a wrong one: aggressive
    # early steps can lock onto a suboptimal face; rerun from the start with
    # barrier continuation, whose central path reaches the optimal face
    # before any weight hits zero; a stage that ends centred hands the next
    # one its tangent prediction, which is no Newton iteration and so not
    # counted
    for mu, mu_next in zip(_BARRIER_SCHEDULE, _BARRIER_SCHEDULE[1:] + (None,)):
        if not rows:
            return out
        rows, w, status = phase(rows, w, mu, 60)
        centred = [i for i, st in enumerate(status) if st is Status.OPTIMAL]
        if mu_next is not None and centred:
            w = w.copy()  # the phase's end weights stay as it returned them
            w[centred] = _tangent_prediction(d, nullsp, w[centred], mu, mu_next)
    if not rows:
        return out

    # the barrier leaves the weights that are zero at the optimum near its
    # last mu; on their face the optimum is interior to the program without
    # them, so drop them (normality keeps the objective block) and finish
    # there with the fast path's pass
    inactive = _block_sums(d, w) <= _INACTIVE_LAMBDA
    on_faces(rows, (w > _DROPPED_WEIGHT) & ~inactive[:, d.block_index], w)
    return out


def _recover(
    d: DualProgram, coefficients: np.ndarray, solutions: Sequence[DualSolution]
) -> list[np.ndarray | ReconstructionError]:
    """recover_primal of d at each row of coefficients, each with its optimal
    dual: x, or the ReconstructionError it raises.  The rows whose terms
    enter the same relations share one multi-column least-squares solve."""
    if d.variable_count == 0:
        return [np.empty(0) for _ in solutions]
    w = np.array([ds.weights for ds in solutions])
    z = np.array([[ds.objective_value] for ds in solutions])
    # each term's block weight sum, 1 on the objective block; the terms of an
    # inactive constraint relate nothing (complementary slackness)
    lam = np.array([(1.0, *ds.lambdas) for ds in solutions])[:, d.block_index]
    active = (w > _BOUNDARY_WEIGHT) & (lam > _BOUNDARY_WEIGHT)
    share = w * z  # w / lambda on constraint terms
    np.divide(w, lam, out=share, where=active & (d.block_index > 0))
    # w * z underflows to 0 with z, and then has no log to fit
    lost = (active & (share == 0.0)).any(axis=1)
    out = [None] * len(w)
    groups: dict[bytes, list[int]] = {}
    for i, mask in enumerate(active):
        if lost[i]:
            out[i] = ReconstructionError(f"w * z underflows at dual value {z[i, 0]}")
        else:
            groups.setdefault(mask.tobytes(), []).append(i)
    for group in groups.values():
        mask = active[group[0]]
        matrix = d.exponent_matrix[mask]
        target = np.log(share[group][:, mask]) - np.log(coefficients[group][:, mask])
        y = np.linalg.lstsq(matrix, target.T, rcond=None)[0].T
        residual = np.abs(np.matvec(matrix, y) - target).max(axis=1, initial=0.0)
        with np.errstate(over="ignore", under="ignore"):
            x = np.exp(y)
        inside = (np.isfinite(x) & (x > 0.0)).all(axis=1).tolist()
        for i, res, ok, row in zip(group, residual.tolist(), inside, x):
            out[i] = row if ok and res <= 1e-6 else ReconstructionError(
                f"log-linear recovery system inconsistent (residual {res:.3e})"
                if res > 1e-6 else "recovered x = exp(y) overflows or underflows")
    return out


def recover_primal(s: StandardGp, ds: DualSolution) -> np.ndarray:
    """Recover the primal point from near-optimal dual weights.

    Solves, in least squares over y = log x, the stacked log-linear relations
    of objective terms and of terms in active constraint blocks; weights at or
    below _BOUNDARY_WEIGHT contribute no equation.  Raises ReconstructionError
    when w z underflows to 0 on an objective term, when the residual of the
    stacked system exceeds 1e-6 or when x = exp(y) leaves the doubles.
    """
    d = build_dual(s)
    x = _recover(d, d.term_coefficients[None], [ds])[0]
    if isinstance(x, ReconstructionError):
        raise x
    return x


def _certify(
    d: DualProgram, coefficients: np.ndarray, solutions: Sequence[DualSolution],
    recover,
) -> list[SolveReport]:
    """Recover x from each optimal dual by recover, which maps its arguments
    as _recover does; a row is OPTIMAL where certificate.optimal_claim holds
    at x and the dual's weights, and reports that claim's f_0(x), violation
    and gap.  There is one solve per dual: a row whose claim fails ends
    ITERATION_LIMIT."""
    reports = []
    for ds in solutions:  # an optimal dual's row is ITERATION_LIMIT until certified
        status = Status.ITERATION_LIMIT if ds.status is Status.OPTIMAL else ds.status
        reports.append(SolveReport(status, None, ds, None, None, None))
    optimal = [i for i, ds in enumerate(solutions) if ds.status is Status.OPTIMAL]
    if not optimal:
        return reports
    points = recover(d, coefficients[optimal], [solutions[i] for i in optimal])
    found = [(i, x) for i, x in zip(optimal, points)
             if not isinstance(x, ReconstructionError)]
    if not found:
        return reports
    rows, x = [i for i, _ in found], np.array([x for _, x in found])
    terms = Terms(coefficients[rows], d.exponent_matrix, d.block_index)
    check = optimal_claim(terms, x, [solutions[i].weights for i in rows])
    for i, point, primal, worst, gap, holds in zip(rows, x.tolist(), *check):
        ds = solutions[i]
        kkt = KktResiduals(ds.equality_residual, ds.stationarity, worst)
        status = Status.OPTIMAL if holds else Status.ITERATION_LIMIT
        reports[i] = SolveReport(status, tuple(point), ds, primal, gap, kkt)
    return reports


def solve(s: StandardGp) -> SolveReport:
    """Full dual-based solve: build dual, maximize, recover, check the gap."""
    d = build_dual(s)
    ds = solve_dual(d)

    def recover(_d, _coefficients, solutions):  # the batch of one, by name
        try:
            return [recover_primal(s, *solutions)]
        except ReconstructionError as e:
            return [e]

    return _certify(d, d.term_coefficients[None], [ds], recover)[0]


def _solve_rows(d: DualProgram, coefficients: np.ndarray) -> list[SolveReport]:
    """solve of d's problem at each row of coefficients (B, K), as one batch."""
    return _certify(d, coefficients, _solve_duals(d, coefficients), _recover)
