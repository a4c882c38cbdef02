"""Concave maximization of the log dual over its affine set, primal recovery.

The dual of a posynomial GP maximizes a concave function over
{A w = e1, w >= 0}.  We parameterize the affine set through an orthonormal
null-space basis and run a damped Newton ascent with a fraction-to-boundary
safeguard; equality residuals stay at rounding level because iterates never
leave the affine set.  Each step runs the dual's vectorized kernels and
assembles the reduced Hessian directly on the face basis; a face of active
bounds is tracked only once a weight reaches boundary_eps.  An interior
stationary point is accepted outright (global by concavity).  When the
maximum lies on the boundary, a log-barrier continuation rides the central
path to the optimal face, since plain Newton can lock onto a suboptimal face.
The barrier leaves the weights of an inactive constraint near its last mu
rather than at zero; if the final pass stalls there, those blocks are dropped
and the reduced dual is re-solved.  When the equality system leaves no
freedom (an empty null space, as with degree of difficulty zero) its single
solution is the answer.

The start point is the projection of equal block weights onto the affine
set, else one pass of alternating projections (POCS) toward the interior,
else one LP that finds a feasible point positive on every weight some
feasible point can make positive.  Weights that LP leaves at zero are zero
at every feasible point; they are dropped and the dual is re-solved on the
rest.  The start and the null space depend only on the equality system,
which exponent values alone fix, so they are computed once per system and
shared, through a bounded cache, by every dual with that system.  Linear
algebra is numpy only (an SVD null space; a Newton step that runs a
Cholesky factorization only as its definiteness test, then one solve), so
importing the package does not load scipy; scipy.optimize.linprog is
imported on first use by that one LP.

The primal minimizer is recovered from optimal weights through the log-linear
relations: objective terms satisfy term_value = w_0t * Z, and terms of an
active constraint block satisfy term_value = w_it / lambda_i.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dual import (
    DualProgram,
    _log_dual_objective,
    _reduced_hessian,
    block_lambdas,
    build_dual,
    log_dual_objective,
)
from .posynomial import GpDomainError, StandardGp, evaluate

# log value beyond which the dual is declared unbounded (exp would overflow)
_LOG_VALUE_UNBOUNDED = 350.0
# a stalled constraint block with lambda at or below this is inactive: the
# barrier leaves inactive blocks near 1e-9 and active ones above 1e-3
_INACTIVE_LAMBDA = 1e-6
# solve() certifies an OPTIMAL result only within these: the relative gap
# between the recovered primal value and the dual value, and the largest
# constraint violation f_i(x) - 1 at the recovered x
GAP_TOL = 1e-6
VIOLATION_TOL = 1e-8
# weights may converge to a boundary face; flooring them far below
# boundary_eps keeps the Hessian finite without affecting any contract
_WEIGHT_FLOOR = 1e-150
# equality systems whose start is kept; the shipped problems have 10 in all
_START_CACHE_SIZE = 256


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class ReconstructionError(RuntimeError):
    """Primal recovery system is inconsistent beyond tolerance."""


@dataclass(frozen=True)
class SolverSettings:
    feasibility_tol: float = 1e-10
    stationarity_tol: float = 1e-8
    boundary_eps: float = 1e-12
    max_iterations: int = 10_000

    def __post_init__(self):
        for name in ("feasibility_tol", "stationarity_tol", "boundary_eps"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise GpDomainError(f"{name} must be finite and positive")
        n = self.max_iterations
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n <= 0:
            raise GpDomainError("max_iterations must be a positive int")


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


def _face_basis(a: np.ndarray, nullsp: np.ndarray, active) -> np.ndarray:
    """Null space of the equalities together with the active bounds w_k = 0."""
    if active is None or not active.any():
        return nullsp
    return _null_space(np.vstack([a, np.eye(active.size)[active]]))


def _face_norm(face_basis: np.ndarray, grad: np.ndarray, active) -> float:
    """Largest entry of grad projected onto the face, off its active bounds.

    active masks the weights frozen at their bound, or is None when none is.
    """
    if face_basis.shape[1] == 0:
        return 0.0
    if active is not None:
        if active.all():
            return 0.0
        # frozen coordinates leave the face; a zero weight has gradient +inf,
        # which would turn the projection into inf * 0 = nan
        grad = np.where(active, 0.0, grad)
    proj = np.abs(face_basis @ (face_basis.T @ grad))
    return float((proj if active is None else proj[~active]).max())


def _support_point(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Feasible point of {A w = b, w >= 0} with the largest support; None if empty.

    One LP (Freund, Roundy and Todd, 1985): maximize sum(t) subject to
    A w = b tau, t <= w, 0 <= t <= 1, w >= 0, tau >= 1.  Scaling (w, tau)
    up lets t_k reach 1 on every weight that some feasible point makes
    positive, so the support is {t > 1/2}; off it the weights are zero at
    every feasible point.
    """
    from scipy.optimize import linprog  # only this fallback needs scipy

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


def _dual_start(d: DualProgram) -> _Start:
    """The start of d's equality system, computed once for every dual sharing it."""
    arrays = (d.equality_matrix, d.equality_rhs, d.block_index)
    keys = ((x.shape, x.dtype.str, x.tobytes()) for x in arrays)
    return _equality_start(*keys, d.block_sizes)


@lru_cache(maxsize=_START_CACHE_SIZE)
def _equality_start(a_key, b_key, block_key, block_sizes) -> _Start:
    """Start point and null space of {A w = b, w >= 0}, read from the key alone."""
    a, b, block = (
        np.frombuffer(data, dtype).reshape(shape)
        for shape, dtype, data in (a_key, b_key, block_key)
    )
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
    sizes = np.bincount(d.block_index[keep], minlength=len(d.block_sizes)).tolist()
    blocks = [0] + [i for i in range(1, len(sizes)) if sizes[i]]
    renumber = np.zeros(len(sizes), dtype=int)
    renumber[blocks] = np.arange(len(blocks))
    return DualProgram(
        term_coefficients=d.term_coefficients[keep].copy(),
        block_index=renumber[d.block_index[keep]],
        exponent_matrix=d.exponent_matrix[keep].copy(),
        equality_matrix=d.equality_matrix[:, keep].copy(),
        equality_rhs=d.equality_rhs.copy(),
        block_sizes=tuple(sizes[i] for i in blocks),
    )


def _solve_on_support(
    d: DualProgram, keep: np.ndarray, settings: SolverSettings, iterations: int = 0
) -> DualSolution:
    """Re-solve the dual over the kept weights and pad the rest with zeros."""
    inner = solve_dual(_reduced_program(d, keep), settings)
    weights = np.zeros(d.term_count)
    weights[keep] = inner.weights
    return _finish(d, weights, settings, inner.status, iterations + inner.iterations)


def _drop_inactive_blocks(
    d: DualProgram, ds: DualSolution, settings: SolverSettings
) -> DualSolution:
    """Re-solve without the constraint blocks whose lambda collapsed.

    The barrier leaves the weights of an inactive constraint near its last
    mu, above boundary_eps, so they are never frozen and stationarity stalls
    near one.  Dropping those blocks and padding the reduced optimum with
    zeros settles them on the face; ds is kept unless that gives OPTIMAL.
    solve() certifies the result against the full problem.
    """
    inactive = 1 + np.flatnonzero(ds.lambdas <= _INACTIVE_LAMBDA)
    if inactive.size == 0:
        return ds
    keep = ~np.isin(d.block_index, inactive)
    padded = _solve_on_support(d, keep, settings, ds.iterations)
    return padded if padded.status is Status.OPTIMAL else ds


def _newton_step(hu: np.ndarray, gu: np.ndarray) -> np.ndarray:
    """Ascent direction from the (negative definite) reduced Hessian."""
    neg = -(hu + hu.T) / 2.0
    if not np.isfinite(neg).all():
        return gu  # steepest ascent fallback
    ridge, matrix = 0.0, neg
    for _ in range(6):
        try:
            # the factorization only tests definiteness: on systems of a few
            # unknowns one solve costs less than two on the factor
            np.linalg.cholesky(matrix)
            return np.linalg.solve(matrix, gu)
        except np.linalg.LinAlgError:
            ridge = max(10.0 * ridge, 1e-12 * max(1.0, float(np.abs(neg).max())))
            matrix = neg + ridge * np.eye(len(gu))
    return gu


def _failure(d: DualProgram, status: Status, iterations: int = 0) -> DualSolution:
    return DualSolution(
        status=status,
        weights=np.zeros(d.term_count),
        lambdas=np.zeros(d.constraint_count),
        objective_value=float("nan"),
        equality_residual=float("inf"),
        stationarity=float("inf"),
        iterations=iterations,
    )


def _finish(
    d: DualProgram,
    w: np.ndarray,
    settings: SolverSettings,
    status: Status,
    iterations: int,
) -> DualSolution:
    a, b = d.equality_matrix, d.equality_rhs
    residual = float(np.max(np.abs(a @ w - b)))
    value, grad = log_dual_objective(d, w)
    # the gradient projected onto the face w lives on (the equalities and the
    # bounds at or below boundary_eps) vanishes off the bounds at a maximizer
    active = w <= settings.boundary_eps
    face = _face_basis(a, _dual_start(d).nullsp, active)
    stationarity = _face_norm(face, grad, active)
    if status is Status.OPTIMAL and (
        residual > settings.feasibility_tol
        or stationarity > settings.stationarity_tol
    ):
        status = Status.ITERATION_LIMIT
    return DualSolution(
        status=status,
        weights=w,
        lambdas=block_lambdas(d, w),
        objective_value=float(np.exp(value)),
        equality_residual=residual,
        stationarity=stationarity,
        iterations=iterations,
    )


def _barrier_eval(
    d: DualProgram, w: np.ndarray, mu: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(raw log dual value, barrier-augmented value, its gradient, block sums)."""
    # Newton starts inside and floors steps at _WEIGHT_FLOOR: no weight check
    raw, grad, logw, lam = _log_dual_objective(d, w)
    if mu == 0.0:
        return raw, raw, grad, lam
    return raw, raw + mu * float(logw.sum()), grad + mu / w, lam


def _newton_phase(
    d: DualProgram,
    a: np.ndarray,
    b: np.ndarray,
    nullsp: np.ndarray,
    w: np.ndarray,
    settings: SolverSettings,
    mu: float,
    tol: float,
    max_iterations: int,
    stop_at_boundary: bool = False,
) -> tuple[np.ndarray, Status, int]:
    """Damped Newton ascent of the (optionally barrier-augmented) log dual.

    With mu > 0 iterates stay strictly interior.  With mu = 0 weights at
    boundary_eps are frozen and Newton works on the open face, which keeps
    the huge -1/w curvatures of frozen coordinates out of the reduced
    Hessian; stop_at_boundary ends the pass there instead.  The reduced
    Hessian is assembled on the face basis B from B's sums over each
    constraint block, computed once per face.
    """
    raw, value, grad, lam = _barrier_eval(d, w, mu)
    status = Status.ITERATION_LIMIT
    iterations = 0
    member = d._layout.member
    face_key: tuple[int, ...] | None = None
    # the stationarity of w on face_key when a plateau trial has measured it
    known_norm: float | None = None
    for iterations in range(1, max_iterations + 1):
        if raw > _LOG_VALUE_UNBOUNDED:
            return w, Status.UNBOUNDED, iterations

        active, key = None, ()
        if mu == 0.0 and w.min() <= settings.boundary_eps:
            if stop_at_boundary:
                return w, status, iterations
            active = w <= settings.boundary_eps
            key = tuple(np.flatnonzero(active))
        if key != face_key:
            face_key, known_norm = key, None
            face_basis = _face_basis(a, nullsp, active)
            face_sums = member @ face_basis

        gu = face_basis.T @ grad
        if known_norm is not None:
            stationarity = known_norm
        elif active is None:  # _face_norm's projection, from gu
            stationarity = float(np.abs(face_basis @ gu).max())
        else:
            stationarity = _face_norm(face_basis, grad, active)
        if stationarity <= tol or face_basis.shape[1] == 0:
            status = Status.OPTIMAL
            break
        hu = _reduced_hessian(face_basis, face_sums, lam, w, mu)
        du = _newton_step(hu, gu)
        if float(gu @ du) <= 0.0:
            du = gu

        accepted = False
        # the Newton direction can be ruined by near-boundary curvature;
        # plain ascent along the gradient still makes progress there
        for direction in (du, gu):
            slope = float(gu @ direction)
            if slope <= 0.0:
                continue
            dw = face_basis @ direction
            step = 1.0
            shrinking = dw < 0.0
            if shrinking.any():
                step = min(
                    step, 0.9995 * float((-w[shrinking] / dw[shrinking]).min())
                )
            # once the predicted gain sinks below value resolution,
            # sufficient decrease cannot be observed; judge trial steps by
            # stationarity instead
            plateau = 1e-13 * (1.0 + abs(value))
            for _ in range(60):
                trial = np.maximum(w + step * dw, _WEIGHT_FLOOR)
                if trial.min() > 0.0:
                    t_raw, t_value, t_grad, t_lam = _barrier_eval(d, trial, mu)
                    predicted = 1e-4 * step * slope
                    t_norm = None
                    if predicted > plateau:
                        ok = t_value >= value + predicted
                    else:
                        t_norm = _face_norm(face_basis, t_grad, active)
                        ok = t_norm < stationarity
                    if ok:
                        w, raw, value, grad, lam = trial, t_raw, t_value, t_grad, t_lam
                        known_norm = t_norm
                        accepted = True
                        break
                step *= 0.5
            if accepted:
                break
        if not accepted:
            break  # no further progress at floating precision

    return w, status, iterations


# continuation schedule for the interior barrier; the central path guides
# iterates to the optimal face before any weight is allowed to hit zero
_BARRIER_SCHEDULE = (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def solve_dual(d: DualProgram, settings: SolverSettings | None = None) -> DualSolution:
    """Maximize the log dual objective over {A w = e1, w >= 0}.

    Returns a DualSolution whose status is OPTIMAL when the equality residual
    and the projected-gradient stationarity measure meet the settings,
    INFEASIBLE when the feasible set is empty, UNBOUNDED when the objective
    grows without bound along the feasible set, and ITERATION_LIMIT otherwise.
    """
    settings = settings or SolverSettings()
    start = _dual_start(d)
    if start.support is not None:
        return _solve_on_support(d, start.support, settings)
    if start.w is None:
        return _failure(d, Status.INFEASIBLE)
    a, b, nullsp, w = d.equality_matrix, d.equality_rhs, start.nullsp, start.w
    if nullsp.shape[1] == 0:
        return _finish(d, w, settings, Status.OPTIMAL, 0)  # the single point

    # fast path: plain Newton from the interior start, ended once a weight
    # reaches boundary_eps; an interior stationary point is the global
    # maximum by concavity, so it can be accepted outright
    w_fast, status, used = _newton_phase(
        d, a, b, nullsp, w, settings,
        mu=0.0, tol=settings.stationarity_tol, max_iterations=200,
        stop_at_boundary=True,
    )
    iterations = used
    if status is Status.UNBOUNDED:
        return _failure(d, Status.UNBOUNDED, iterations)
    if status is Status.OPTIMAL:
        return _finish(d, w_fast, settings, status, iterations)

    # the fast path touched the boundary, where aggressive early steps can
    # lock onto a suboptimal face; rerun with barrier continuation, whose
    # central path reaches the optimal face before any weight hits zero
    for mu in _BARRIER_SCHEDULE:
        w, status, used = _newton_phase(
            d, a, b, nullsp, w, settings,
            mu=mu, tol=max(mu, settings.stationarity_tol),
            max_iterations=60,
        )
        iterations += used
        if status is Status.UNBOUNDED:
            return _failure(d, Status.UNBOUNDED, iterations)

    w, status, used = _newton_phase(
        d, a, b, nullsp, w, settings,
        mu=0.0, tol=settings.stationarity_tol,
        max_iterations=max(60, settings.max_iterations - iterations),
    )
    iterations += used
    if status is Status.UNBOUNDED:
        return _failure(d, Status.UNBOUNDED, iterations)
    result = _finish(d, w, settings, status, iterations)
    if result.status is not Status.OPTIMAL:
        return _drop_inactive_blocks(d, result, settings)
    return result


def recover_primal(
    s: StandardGp, ds: DualSolution, settings: SolverSettings | None = None
) -> np.ndarray:
    """Recover the primal point from near-optimal dual weights.

    Solves, in least squares over y = log x, the stacked log-linear relations
    of objective terms and of terms in active constraint blocks; weights at or
    below boundary_eps contribute no equation.  Raises ReconstructionError
    when the residual of the stacked system exceeds 1e-6 or when exp(y)
    overflows.
    """
    settings = settings or SolverSettings()
    d = build_dual(s)
    w = ds.weights
    z = ds.objective_value
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for k, i in enumerate(d.block_index.tolist()):
        if w[k] <= settings.boundary_eps:
            continue
        if i and ds.lambdas[i - 1] <= settings.boundary_eps:
            continue  # inactive constraint, complementary slackness
        rows.append(d.exponent_matrix[k])
        share = w[k] / ds.lambdas[i - 1] if i else w[k] * z
        rhs.append(np.log(share) - np.log(d.term_coefficients[k]))

    n = s.variable_count
    if n == 0:
        return np.empty(0)
    matrix = np.array(rows).reshape(len(rows), n)
    target = np.array(rhs)
    y, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    residual = float(np.max(np.abs(matrix @ y - target))) if len(rhs) else 0.0
    if residual > 1e-6:
        raise ReconstructionError(
            f"log-linear recovery system inconsistent (residual {residual:.3e})"
        )
    with np.errstate(over="ignore"):
        x = np.exp(y)
    if not np.all(np.isfinite(x)):
        raise ReconstructionError("recovered point overflows (x = exp(y) is inf)")
    return x


def _certify(s: StandardGp, ds: DualSolution, settings: SolverSettings) -> SolveReport:
    """Recover x from an optimal dual and check the gap and primal feasibility."""
    if ds.status is not Status.OPTIMAL:
        return SolveReport(ds.status, None, ds, None, None, None)
    try:
        x = recover_primal(s, ds, settings)
    except ReconstructionError:
        return SolveReport(Status.ITERATION_LIMIT, None, ds, None, None, None)

    primal = evaluate(s.objective, x)
    gap = abs(primal - ds.objective_value) / primal
    worst = 0.0
    for posy in s.constraints:
        worst = max(worst, evaluate(posy, x) - 1.0)
    residuals = KktResiduals(
        equality=ds.equality_residual,
        stationarity=ds.stationarity,
        primal_feasibility=max(0.0, worst),
    )
    status = Status.OPTIMAL
    if gap > GAP_TOL or worst > VIOLATION_TOL:
        status = Status.ITERATION_LIMIT
    return SolveReport(
        status=status,
        primal_x=tuple(float(v) for v in x),
        dual=ds,
        objective_value=float(primal),
        duality_gap=float(gap),
        kkt_residuals=residuals,
    )


def solve(s: StandardGp, settings: SolverSettings | None = None) -> SolveReport:
    """Full dual-based solve: build dual, maximize, recover, check the gap.

    A dual optimum that only just meets stationarity_tol can recover an x
    that misses the certificate by a hair; such a result is re-solved once
    at stationarity_tol / 100 and kept if that certifies.
    """
    settings = settings or SolverSettings()
    d = build_dual(s)
    report = _certify(s, solve_dual(d, settings), settings)
    if report.status is Status.ITERATION_LIMIT and report.primal_x is not None:
        tight = replace(settings, stationarity_tol=settings.stationarity_tol / 100)
        retry = _certify(s, solve_dual(d, tight), tight)
        if retry.status is Status.OPTIMAL:
            return retry
    return report
