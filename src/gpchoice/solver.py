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
optimum marks an inactive term (complementary slackness; Duffin, Peterson and
Zener, Geometric Programming, 1967), so a boundary optimum is the interior
optimum of a smaller dual, its face.  One face step finds it: the weights an
iterate leaves near zero (single weights, and every block of an inactive
constraint) are dropped, the iterate is projected onto the reduced
equalities, one plain pass runs there, and the dropped weights are padded
with zeros; a projection that is not strictly positive ends the row
ITERATION_LIMIT where the iterate was.  A fast pass that ends short of the
optimum, on the boundary or with no ascent left, takes the face step from its
end, and the face stands where the x recovered from it and the zero-padded
weights certify on the full problem's terms: dropping a constraint relaxes
the primal, and a relaxed optimum that meets the dropped constraint is
optimal (Boyd, Kim, Vandenberghe and Hassibi, A tutorial on geometric
programming, 2007).  Where it fails, the fast pass may have locked onto a
suboptimal face, and a log-barrier continuation from the start rides the
central path to the optimal face.  Each barrier stage that ends centred
hands the next stage a prediction along the central path's tangent, cut
short of the boundary: a weight that is zero at the optimum sits near mu / v
on the path, and from the last centre Newton could only about halve it per
iteration after mu drops.  Predictions are not Newton iterations and do not
count toward _MAX_ITERATIONS.  The barrier's last iterate takes the face step
too.  All passes of one dual share _MAX_ITERATIONS.  When the equality
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
dual with that system.  Duals are solved as one batch, a row of a (B, K)
weight array each, and each row ends bit for bit as it would alone;
solve_dual is the batch of one.  Duals that differ only in their
coefficients share an equality system, and its start and null space.  The
systems of one call share one block layout (so K and the kernels' block
sums) and variable count: a template's selectors change the values in its
slots, never which terms sit in which posynomial.  The fast pass takes
more: the duals of the call's systems that share a nullity r are one
batch, each row from its own system's start and with its own null-space
basis, stacked (B, r, K) in C order so that each row's basis is laid out,
and rounds, as it does alone.  The Newton kernels read the exponents only
through the basis.  The rows the fast pass ends OPTIMAL are finished as
the same batch, each row's equality residual taken against its own
system's matrix; what stays per system is the start and, for a row that
ends the fast pass short of the optimum, all that follows: it goes on in
its own system from where the fast pass left it.  The call's solutions
come back as one batch, in call order, held as columns (_Duals): status
codes, weights, lambdas, dual values, equality residuals, stationarity and
iteration counts; a row's DualSolution is built only when the row is read.
Linear algebra is numpy only (an SVD
null space; a Newton step from one symmetric eigendecomposition of the
reduced Hessian, its eigenvalues floored so that the step always ascends),
so importing the package does not load scipy; scipy.optimize's nnls and
linprog are imported on first use by the support point.

The primal minimizer is recovered from optimal weights through the log-linear
relations: objective terms satisfy term_value = w_0t * Z, and terms of an
active constraint block satisfy term_value = w_it / lambda_i.  The rows of
one call are recovered and certified as one batch: rows of one system with
the same such terms share one multi-column least-squares solve, whose
points come back as one (B, n) array, nan on the rows that fail, and one
certificate.optimal_claim call, with one exponent matrix per row, checks
them all; solve_dual, recover_primal and solve are each the batch of one.
solve reports OPTIMAL only where that claim holds at the recovered x and the
dual weights, a check from the problem's terms alone.  The certified batch
holds its statuses and claims as columns too (_Reports), and a row's
SolveReport is built only when the row is read, field for field as a
report built at once would be.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
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
from .certificate import FEASIBILITY_TOL, Optimality, Terms, optimal_claim
from .certificate import GAP_TOL, VIOLATION_TOL  # noqa: F401 (read from solver too)
from .posynomial import StandardGp

# log value beyond which the dual is declared unbounded (exp would overflow)
_LOG_VALUE_UNBOUNDED = 350.0
# in the face step, a constraint block with lambda at or below this is
# inactive (the barrier leaves inactive blocks near 1e-9 and active ones
# above 1e-3), and a single weight at or below _DROPPED_WEIGHT is zero at the
# optimum; both are dropped from the program before the step's pass
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


# a status column holds each row's Status as its index here
_STATUSES = tuple(Status)
_CODE = {status: code for code, status in enumerate(_STATUSES)}


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


@dataclass(eq=False)
class _Duals:
    """The duals of a batch as columns: status codes (_STATUSES), weights
    (B, K), lambdas (B, m), dual values, equality residuals, stationarity
    and iteration counts (B,).  A row's DualSolution, which holds views of
    its weights and lambdas, is built when the row is read; rows iterate by
    __getitem__, up to its IndexError."""

    status: np.ndarray
    weights: np.ndarray
    lambdas: np.ndarray
    objective_value: np.ndarray
    equality_residual: np.ndarray
    stationarity: np.ndarray
    iterations: np.ndarray

    @classmethod
    def of(cls, solutions: Sequence[DualSolution]) -> _Duals:
        """The batch of DualSolutions made apart, stacked."""
        rows = ((_CODE[ds.status], ds.weights, ds.lambdas, ds.objective_value,
                 ds.equality_residual, ds.stationarity, ds.iterations) for ds in solutions)
        return cls(*map(np.array, zip(*rows)))

    @classmethod
    def joined(cls, parts: Sequence[tuple[list[int], _Duals]], b: int) -> _Duals:
        """The rows of parts, each (its rows of a batch of b, their duals),
        in row order."""
        if len(parts) == 1 and parts[0][0] == list(range(b)):
            return parts[0][1]
        order = np.empty(b, dtype=int)
        order[np.concatenate([rows for rows, _ in parts])] = np.arange(b)
        return cls(*(np.concatenate([getattr(duals, f.name) for _, duals in parts])[order]
                     for f in fields(cls)))

    def take(self, rows: slice | list[int]) -> _Duals:
        """The duals at rows, a slice or a list of rows."""
        return _Duals(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __getitem__(self, i: int) -> DualSolution:
        return DualSolution(_STATUSES[self.status.item(i)], self.weights[i], self.lambdas[i],
                            self.objective_value.item(i), self.equality_residual.item(i),
                            self.stationarity.item(i), self.iterations.item(i))

    def __len__(self) -> int:
        return len(self.status)


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


@dataclass(eq=False)
class _Reports:
    """The SolveReports of a batch as columns: status codes (_STATUSES),
    the duals, the rows whose dual is optimal (optimal, ascending), the x
    recovered from each (nan where recovery fails, at the positions in
    failures) and their optimal claim (None when no row has an x).  A row's
    SolveReport is built when the row is read, as by _Duals."""

    status: np.ndarray
    duals: _Duals
    optimal: list[int]
    x: np.ndarray | None
    failures: dict[int, ReconstructionError] | None
    claim: Optimality | None

    def __getitem__(self, i: int) -> SolveReport:
        ds, status = self.duals[i], _STATUSES[self.status.item(i)]
        k = bisect_left(self.optimal, i)
        if self.claim is None or i not in self.optimal[k:k + 1] or k in self.failures:
            return SolveReport(status, None, ds, None, None, None)
        kkt = KktResiduals(ds.equality_residual, ds.stationarity, self.claim.violation[k])
        return SolveReport(status, tuple(self.x[k].tolist()), ds, self.claim.objective[k],
                           self.claim.gap[k], kkt)

    def optimum(self) -> np.ndarray:
        """f_0(x) of each OPTIMAL row, nan on the rest."""
        out = np.full(len(self.status), np.nan)
        out[self.optimal] = self.claim.objective if self.claim else np.nan
        out[self.status != _CODE[Status.OPTIMAL]] = np.nan
        return out


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
    """Largest entry of grad projected onto the span of basis's columns, per
    row; basis (K, r) is shared, or (B, K, r) holds one per row."""
    projected = np.matvec(basis, np.matvec(basis.mT, grad))
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


def _pad(d: DualProgram, keep: np.ndarray, inner: _Duals) -> _Duals:
    """inner, solved over d's kept weights, with the rest of d's weights zero."""
    weights = np.zeros((len(inner), d.term_count))
    weights[:, keep] = inner.weights
    return replace(inner, weights=weights, lambdas=block_lambdas(d, weights))


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
    d: DualProgram, log_c: np.ndarray, bases: np.ndarray, equalities: np.ndarray,
    w: np.ndarray, status: list[Status], iterations: list[int],
) -> _Duals:
    """The duals of the rows of w (B, K), each with d's block layout and its
    row of log_c, null-space basis and equality matrix: bases (K, r) and
    equalities (n + 1, K) are shared, or (B, K, r) and (B, n + 1, K) hold
    one per row.  An OPTIMAL row that misses FEASIBILITY_TOL or
    _STATIONARITY_TOL ends ITERATION_LIMIT."""
    residual = np.maximum.reduce(np.abs(np.matvec(equalities, w) - d.equality_rhs), axis=1)
    value, grad = _log_dual_objective(d, _check_weights(d, w, len(w)), log_c)[:2]
    # at a maximizer inside the program the gradient vanishes on its null space
    stationarity = _projected_norm(bases, grad)
    with np.errstate(over="ignore"):  # a pass out of budget may end past exp's range
        z = np.exp(value)
    rows = zip(status, residual.tolist(), stationarity.tolist())
    codes = [_CODE[Status.ITERATION_LIMIT if st is Status.OPTIMAL and (
        res > FEASIBILITY_TOL or stat > _STATIONARITY_TOL) else st] for st, res, stat in rows]
    return _Duals(np.array(codes), w.copy(), block_lambdas(d, w), z, residual, stationarity,
                  np.array(iterations, dtype=int))


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
    d: DualProgram, log_c: np.ndarray, bases: np.ndarray, basis_sums: np.ndarray,
    w: np.ndarray, mu: float, tol: float, max_iterations: list[int],
) -> tuple[np.ndarray, list[Status], list[int]]:
    """Damped Newton ascent of the (optionally barrier-augmented) log dual.

    Each row of w (B, K) is a dual with d's block layout, its row of log_c
    and its own null-space basis, a slice of bases (B, K, r): the .mT view of
    a C-ordered (B, r, K) stack, so that each slice is laid out as
    _null_space returns it.  basis_sums (B, m, r) holds each basis's sums
    over each constraint block.  A row has its own line search, end and
    iteration count (at most its max_iterations); the rows share one stacked
    eigh per iteration.  The barrier keeps iterates inside; with mu = 0 a row
    ends at its first weight at or below _BOUNDARY_WEIGHT.  Returns end
    weights, statuses and counts.
    """
    end, used = np.empty_like(w), [0] * len(w)
    status = [Status.ITERATION_LIMIT] * len(w)
    rows, limits, stuck = list(range(len(w))), list(max_iterations), []  # live rows
    raw, value, grad, lam = _barrier_eval(d, w, mu, log_c)
    for k in itertools.count(1):
        gu = np.matvec(bases.mT, grad)
        # _projected_norm, from gu
        norms = np.maximum.reduce(np.abs(np.matvec(bases, gu)), axis=1).tolist()
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
            w, raw, value, grad, lam, log_c, gu, basis_sums = (
                x[live] for x in (w, raw, value, grad, lam, log_c, gu, basis_sums)
            )
            bases = bases.mT[live].mT  # compacted in the stack's own C order
            rows, limits, norms = ([x[i] for i in live] for x in (rows, limits, norms))

        du = _newton_step(_reduced_hessian(bases, basis_sums, lam, w, mu), gu)
        slopes, values = np.vecdot(gu, du).tolist(), value.tolist()
        dw = np.matvec(bases, du)
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
                    t_norms = _projected_norm(bases, evaluated[2]).tolist()
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
    return _solve_duals([(d, d.term_coefficients[None])])[0]


def _solve_duals(systems: Sequence[tuple[DualProgram, np.ndarray]]) -> _Duals:
    """solve_dual of each program d at each of its rows of coefficients
    (B, K): per system, the duals of d's equality system that differ only in
    their terms' coefficients.  Every system of one call has one block
    layout and variable count, else ValueError; the duals come back as one
    batch, in call order.

    The rows of every system with an interior start run the fast pass as one
    batch per nullity, each row from its own system's start and on its own
    null-space basis, and the rows it ends OPTIMAL are finished as one batch.
    The rest is per system (_settle): a row that ends short of the optimum
    takes the face step from its end, kept where it certifies, then the
    barrier from the start and the face step from the barrier's end.  A
    system with forced zeros is solved over the rest of its weights, as a
    call of its own."""
    layout, variables = systems[0][0].block_index, systems[0][0].variable_count
    if any(d.variable_count != variables or not np.array_equal(d.block_index, layout)
           for d, _ in systems[1:]):
        raise ValueError("the systems of one call must share one block layout "
                         "and variable count")
    edges = [0, *itertools.accumulate(len(coefficients) for _, coefficients in systems)]
    parts: list[tuple[list[int], _Duals]] = []  # the call's rows and their duals
    fast: dict[int, list] = {}  # fast pass batches, by nullity
    for s, (d, coefficients) in enumerate(systems):
        start, nullsp, support = _dual_start(d)
        rows, n = list(range(edges[s], edges[s + 1])), len(coefficients)
        if support is not None:
            inner = _reduced_program(d, support), coefficients[:, support]
            parts.append((rows, _pad(d, support, _solve_duals([inner]))))
        elif start is None:
            parts.append((rows, _Duals.of([_failure(d, Status.INFEASIBLE) for _ in rows])))
        elif nullsp.shape[1] == 0:  # the affine set is the single point start
            parts.append((rows, _finish(d, np.log(coefficients), nullsp, d.equality_matrix,
                                        start[None].repeat(n, 0), [Status.OPTIMAL] * n,
                                        [0] * n)))
        else:
            fast.setdefault(nullsp.shape[1], []).append((s, start, nullsp))

    # fast path: plain Newton from the interior start, ended at its first
    # boundary touch; an interior stationary point is the global maximum by
    # concavity, so it can be accepted outright
    d = systems[0][0]  # the layout and the kernels are shared
    for group in fast.values():
        counts = [len(systems[s][1]) for s, _, _ in group]
        pick = np.repeat(np.arange(len(group)), counts)
        rows = [j for s, _, _ in group for j in range(edges[s], edges[s + 1])]
        coefficients = np.concatenate([systems[s][1] for s, _, _ in group])
        log_c = np.log(coefficients)
        # (B, r, K) in C order: each row's basis.mT is laid out as its own
        # _null_space's, so every row keeps the bits it gets alone
        stack = np.array([nullsp.T for _, _, nullsp in group])[pick]
        sums = np.array([d._layout.member @ nullsp for _, _, nullsp in group])[pick]
        w = np.array([start for _, start, _ in group])[pick]
        ends, status, used = _newton_phase(
            d, log_c, stack.mT, sums, w, 0.0, _STATIONARITY_TOL,
            [min(200, _MAX_ITERATIONS)] * len(w),
        )
        done = [i for i, st in enumerate(status) if st is Status.OPTIMAL]
        if done:
            # every row done, as most often: views, not copies
            picked = slice(None) if len(done) == len(status) else done
            equalities = np.array([systems[s][0].equality_matrix for s, _, _ in group])
            parts.append(([rows[i] for i in done], _finish(
                d, log_c[picked], stack[picked].mT, equalities[pick[picked]],
                ends[picked], [status[i] for i in done], [used[i] for i in done])))
        edges_in = [0, *itertools.accumulate(counts)]
        for (s, start, nullsp), i, j in zip(group, edges_in, edges_in[1:]):
            short = [k for k in range(i, j) if status[k] is not Status.OPTIMAL]
            if short:
                parts.append(([rows[k] for k in short], _settle(
                    systems[s][0], coefficients[short], log_c[short], start, nullsp,
                    ends[short], [status[k] for k in short], [used[k] for k in short],
                )))
    return _Duals.joined(parts, edges[-1])


def _settle(
    d: DualProgram, coefficients: np.ndarray, log_c: np.ndarray, start: np.ndarray,
    nullsp: np.ndarray, ends: np.ndarray, status: list[Status], used: list[int],
) -> _Duals:
    """The duals of d's rows of coefficients whose fast pass from start ended
    short of the optimum, at ends with these statuses and iteration counts."""
    budget, b = _MAX_ITERATIONS, len(log_c)
    parts: list[tuple[list[int], _Duals]] = []  # the rows ended so far, and their duals
    spent = [0] * b  # iterations of each dual so far

    def record(rows, ends, status, used):
        """Count the iterations of a pass over these rows; the rows, end
        weights and statuses of all but the UNBOUNDED rows, which fail."""
        for j, n in zip(rows, used):
            spent[j] += n
        going = [i for i, st in enumerate(status) if st is not Status.UNBOUNDED]
        if len(going) == len(rows):
            return rows, ends, status
        failed = [j for j, st in zip(rows, status) if st is Status.UNBOUNDED]
        parts.append((failed, _Duals.of([_failure(d, Status.UNBOUNDED, spent[j])
                                         for j in failed])))
        return [rows[i] for i in going], ends[going], [status[i] for i in going]

    def phase(rows, w, mu, cap, program=d, nullsp=nullsp, keep=slice(None)):
        """record of _newton_phase of these rows, capped."""
        stack = nullsp.T[None].repeat(len(rows), axis=0)
        sums = (program._layout.member @ nullsp)[None].repeat(len(rows), axis=0)
        return record(rows, *_newton_phase(
            program, log_c[rows][:, keep], stack.mT, sums, w, mu,
            max(mu, _STATIONARITY_TOL), [min(cap, budget - spent[j]) for j in rows],
        ))

    def finish(rows, w, status, program=d, nullsp=nullsp, keep=slice(None)):
        """_finish these rows of a last pass over program, d's kept weights."""
        if not rows:
            return
        ends = _finish(program, log_c[rows][:, keep], nullsp, program.equality_matrix,
                       w, status, [spent[j] for j in rows])
        parts.append((rows, ends if program is d else _pad(d, keep, ends)))

    def on_faces(rows, w, cap):
        """One plain pass of each row of w over its face, capped: the program
        without the weights the row leaves near zero (single weights at or
        below _DROPPED_WEIGHT, and every block whose lambda is at or below
        _INACTIVE_LAMBDA), one batch per face, finished there and padded.  A
        pass starts at the row projected onto its face's equalities, or at the
        row itself where nothing is dropped; a projection that is not finite
        and strictly positive ends the row ITERATION_LIMIT at w."""
        inactive = _block_sums(d, w) <= _INACTIVE_LAMBDA
        keeps = (w > _DROPPED_WEIGHT) & ~inactive[:, d.block_index]
        groups: dict[bytes, list[int]] = {}
        for i, keep in enumerate(keeps):
            groups.setdefault(keep.tobytes(), []).append(i)
        for group in groups.values():
            keep, g_rows, g_w = keeps[group[0]], [rows[i] for i in group], w[group]
            program, g_nullsp = d, nullsp
            if not keep.all():
                program = _reduced_program(d, keep)
                a, b = program.equality_matrix, program.equality_rhs
                g_nullsp = _null_space(a)
                g_w = np.array([_project_onto_equalities(a, b, v) for v in g_w[:, keep]])
                inside = ((g_w > 0.0) & (g_w < np.inf)).all(axis=1)
                outside = np.flatnonzero(~inside)
                finish([g_rows[i] for i in outside], w[group][outside],
                       [Status.ITERATION_LIMIT] * len(outside))
                g_rows, g_w = [j for j, ok in zip(g_rows, inside) if ok], g_w[inside]
            if g_rows:
                finish(*phase(g_rows, g_w, 0.0, cap, program, g_nullsp, keep),
                       program, g_nullsp, keep)

    # the fast pass left each row short of the optimum, on the boundary or
    # with no ascent left: it takes the face step from where it ended, capped
    # like the fast pass; the face it reaches is kept where it certifies on
    # d's terms: dropping a constraint relaxes the primal, and a relaxed
    # optimum that meets the dropped constraint is optimal
    rows, ends, _ = record(list(range(b)), ends, status, used)
    on_faces(rows, ends, 200)
    # _recover and the certificate read the padded weights; the UNBOUNDED
    # rows make no claim
    settled = _Duals.joined(parts, b)
    certified = _certify(_terms(d, coefficients), np.zeros(b, dtype=int), settled,
                         _recover).status
    rows = [j for j in rows if certified[j] != _CODE[Status.OPTIMAL]]
    if not rows:
        return settled
    kept = sorted(set(range(b)) - set(rows))
    parts[:] = [(kept, settled.take(kept))] if kept else []
    w = start[None].repeat(len(rows), axis=0)

    # the rows left failed their face step: aggressive early steps can lock
    # onto a suboptimal face; rerun from the start with barrier continuation,
    # whose central path reaches the optimal face before any weight hits
    # zero; a stage that ends centred hands the next one its tangent
    # prediction, which is no Newton iteration and so not counted
    for mu, mu_next in zip(_BARRIER_SCHEDULE, _BARRIER_SCHEDULE[1:] + (None,)):
        if not rows:
            return _Duals.joined(parts, b)
        rows, w, status = phase(rows, w, mu, 60)
        centred = [i for i, st in enumerate(status) if st is Status.OPTIMAL]
        if mu_next is not None and centred:
            w = w.copy()  # the phase's end weights stay as it returned them
            w[centred] = _tangent_prediction(d, nullsp, w[centred], mu, mu_next)

    # the barrier leaves the weights that are zero at the optimum near its
    # last mu: the face step finishes there with the rest of the budget
    on_faces(rows, w, budget)
    return _Duals.joined(parts, b)


def _terms(d: DualProgram, coefficients: np.ndarray) -> Terms:
    """d's terms at each row of coefficients (B, K), each with d's exponents."""
    exponents = d.exponent_matrix[None].repeat(len(coefficients), axis=0)
    return Terms(coefficients, exponents, d.block_index)


def _recover(
    t: Terms, system: np.ndarray, w: np.ndarray, z: np.ndarray, lambdas: np.ndarray
) -> tuple[np.ndarray, dict[int, ReconstructionError]]:
    """recover_primal at each row of t, with its optimal dual's weights w
    (B, K), value z (B,) and lambdas (B, m): the points x (B, n), nan on
    each row whose recovery fails, and the ReconstructionError each such row
    raises, by row.  The rows of one system (equal entries of system, which
    share their exponents) whose terms enter the same relations share one
    multi-column least-squares solve."""
    x, z = np.full((len(w), t.exponents.shape[-1]), np.nan), z[:, None]
    if t.exponents.shape[-1] == 0:
        return x, {}
    # each term's block weight sum, 1 on the objective block; the terms of an
    # inactive constraint relate nothing (complementary slackness)
    lam = np.concatenate((np.ones_like(z), lambdas), axis=1)[:, t.blocks]
    active = (w > _BOUNDARY_WEIGHT) & (lam > _BOUNDARY_WEIGHT)
    share = w * z  # w / lambda on constraint terms
    np.divide(w, lam, out=share, where=active & (t.blocks > 0))
    # w * z underflows to 0 with z, and then has no log to fit
    lost = np.logical_or.reduce(active & (share == 0.0), axis=1)
    failures = {i: ReconstructionError(f"w * z underflows at dual value {v}")
                for i, (v, gone) in enumerate(zip(z[:, 0].tolist(), lost.tolist())) if gone}
    left = (~lost).nonzero()[0]
    while left.size:  # the rows of one system and active set
        first, mask = system[left[0]], active[left[0]]
        same = (system[left] == first) & np.logical_and.reduce(active[left] == mask, axis=1)
        group, left = left[same], left[~same]
        matrix = t.exponents[group[0]][mask]
        target = np.log(share[group][:, mask]) - np.log(t.coefficients[group][:, mask])
        # the gufunc under numpy.linalg.lstsq, at its rcond, whose checks
        # outcost the work; like lstsq, a failed SVD raises
        rcond = np.finfo(float).eps * max(matrix.shape)
        with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="raise"):
            y = _umath_linalg.lstsq(matrix, target.T, rcond, signature="ddd->ddid")[0].T
            points = np.exp(y)
        # y is inf where the relations ask for an x beyond the doubles (a
        # subnormal exponent, say); its residual is then nan, from inf * 0
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.maximum.reduce(np.abs(np.matvec(matrix, y) - target), axis=1,
                                         initial=0.0)
        inside = np.logical_and.reduce(np.isfinite(points) & (points > 0.0), axis=1)
        x[group] = points
        for i, res, ok in zip(group.tolist(), residual.tolist(), inside.tolist()):
            if not ok or not res <= 1e-6:
                x[i] = np.nan
                failures[i] = ReconstructionError(
                    f"log-linear recovery system inconsistent (residual {res:.3e})"
                    if res > 1e-6 else "recovered x = exp(y) overflows or underflows")
    return x, failures


def recover_primal(s: StandardGp, ds: DualSolution) -> np.ndarray:
    """Recover the primal point from near-optimal dual weights.

    Solves, in least squares over y = log x, the stacked log-linear relations
    of objective terms and of terms in active constraint blocks; weights at or
    below _BOUNDARY_WEIGHT contribute no equation.  Raises ReconstructionError
    when w z underflows to 0 on an objective term, when the residual of the
    stacked system exceeds 1e-6 or when x = exp(y) leaves the doubles.
    """
    d = build_dual(s)
    x, failures = _recover(_terms(d, d.term_coefficients[None]), np.zeros(1, dtype=int),
                           ds.weights[None], np.array([ds.objective_value]), ds.lambdas[None])
    if failures:
        raise failures[0]
    return x[0]


def _certify(t: Terms, system: np.ndarray, duals: _Duals, recover) -> _Reports:
    """Recover x from each optimal dual by recover, which maps its arguments
    as _recover does; a row is OPTIMAL where certificate.optimal_claim holds
    at x and the dual's weights, and reports that claim's f_0(x), violation
    and gap.  There is one solve per dual: a row whose claim fails ends
    ITERATION_LIMIT, as does an optimal dual's row with no x (uncertified)."""
    optimal = (duals.status == _CODE[Status.OPTIMAL]).nonzero()[0]
    status = duals.status.copy()
    status[optimal] = _CODE[Status.ITERATION_LIMIT]
    x = failures = claim = None
    if optimal.size:
        # every row optimal, as most often: views, not copies
        rows = slice(None) if optimal.size == len(status) else optimal
        terms = Terms(t.coefficients[rows], t.exponents[rows], t.blocks)
        w = duals.weights[rows]
        x, failures = recover(terms, system[rows], w, duals.objective_value[rows],
                              duals.lambdas[rows])
        if len(failures) < optimal.size:  # a row with no x claims nothing
            claim = optimal_claim(terms, x, w)
            status[optimal[claim.holds]] = _CODE[Status.OPTIMAL]
    return _Reports(status, duals, optimal.tolist(), x, failures, claim)


def solve(s: StandardGp) -> SolveReport:
    """Full dual-based solve: build dual, maximize, recover, check the gap."""
    d = build_dual(s)
    ds = solve_dual(d)

    def recover(*_):  # the batch of one, by name
        try:
            return recover_primal(s, ds)[None], {}
        except ReconstructionError as e:
            return np.full((1, d.variable_count), np.nan), {0: e}

    coefficients = d.term_coefficients[None]
    return _certify(_terms(d, coefficients), np.zeros(1, dtype=int), _Duals.of([ds]),
                    recover)[0]


def _solve_rows(systems: Sequence[tuple[DualProgram, np.ndarray]]) -> _Reports:
    """solve of each program d's problem at each of its rows of coefficients
    (B, K), as one batch (_solve_duals, so one block layout and variable
    count), recovered and certified together: the reports of every row, in
    call order."""
    duals = _solve_duals(systems)
    counts = [len(coefficients) for _, coefficients in systems]
    pick = np.repeat(np.arange(len(systems)), counts)
    exponents = np.array([d.exponent_matrix for d, _ in systems])[pick]
    coefficients = np.concatenate([coefficients for _, coefficients in systems])
    terms = Terms(coefficients, exponents, systems[0][0].block_index)
    return _certify(terms, pick, duals, _recover)
