"""Concave maximization of the log dual over its affine set, primal recovery.

The dual of a posynomial GP maximizes a concave function over
{A w = e1, w >= 0}.  We parameterize the affine set through an orthonormal
null-space basis and run Newton ascent, each step cut to 0.9995 of the way
to the boundary and tried once; equality residuals stay at rounding level
because iterates never leave the affine set, and the pass stays strictly
inside the program.  Each step runs the dual's vectorized kernels and
assembles the reduced Hessian directly on the null-space basis.  This plain
Newton pass, the fast pass, runs from the start and ends at its first
boundary touch: a step that puts a weight at or below _BOUNDARY_WEIGHT is
taken as it is, with no ascent test, and the row ends there.  Any other
step must ascend, by Armijo's test or, where its predicted gain is below
value resolution, to a smaller projected gradient; a row whose step does
not ends at the point before it.  An interior stationary point is accepted
outright (global by concavity).  When the equality system leaves no
freedom (an empty null space, as with degree of difficulty zero) its
single solution is the answer.

A dual whose fast pass ends short of the optimum, on the boundary or before
a step that does not ascend, goes on to one interior-point method on the log
primal (Kortanek, Xu and Ye, An infeasible interior-point algorithm for
solving primal and dual geometric programs, Math. Prog. 76, 1997; Boyd, Kim,
Vandenberghe and Hassibi, A tutorial on geometric programming, 2007): Newton
on y = log x, slacks u >= 0 and multipliers lambda for min F_0(y) s.t.
F_i(y) + u_i = 0, with F_b the log-sum-exp of block b's terms at y.  Its
weights w are lambda_b times each block's softmax, so its dual residual is
w's orthogonality residual, and its point is x = exp(y), read from the
iterate, not recovered from w.  Each iteration solves one (n + m) square
system in (dy, dlambda), du eliminated, whose first block is the
lambda-weighted sum of the blocks' log-sum-exp Hessians.  Its centring is
Mehrotra's, raised to (1 - alpha)^3 where the affine step's length alpha is
cut short, and its line search is Armijo's on the norm of the residuals
(r_d, r_p, lambda u), the merit function of an infeasible path-following
method (S. Wright, Primal-Dual Interior-Point Methods, 1997, ch. 6); no
step moves a log x by more than _IPM_STEP, and a trial's slack u_i takes
its constraint's own -F_i(y) where that is at least 0.8 of u_i, so that
F_i's curvature along the step leaves no primal residual there.  Each
iterate is evaluated once: the accepted trial's residuals are the next
iteration's.  It starts from the fast pass's end (y from the log-linear
relations of the end weights above _BOUNDARY_WEIGHT, so that the weights a
touch zeroes start inactive, lambda their block sums) or cold at y = 0,
lambda = 1, whichever has the smaller residuals, with u = -F(y) and
every lambda_i and u_i lifted to at least that point's largest dual
residual or violation, so that no complementarity pair starts below the
infeasibility it must outlast, and ends OPTIMAL where every residual is at
most _IPM_TOL.  A row whose constraint weights make a ray is UNBOUNDED
(the dual has a start): projected onto orthogonality, they are a witness
that certificate.infeasible_claim accepts, so no x in the doubles meets
every constraint within VIOLATION_TOL, the tolerance of the optimal claim.
The method tests for one every _RAY_EVERY iterations and where it ends.
A row that runs out of iterations, or whose line search finds no decrease,
with no ray, ends ITERATION_LIMIT where the fast pass left it.  The fast
pass and the method are each capped at _PASS_ITERATIONS, so one dual takes
at most _MAX_ITERATIONS = 2 _PASS_ITERATIONS Newton iterations.

The start point is the projection of equal block weights onto the affine
set.  Where that leaves a weight below 1e-6, one non-negative least-squares
solve (numpy, _nnls) first decides whether {A w = b, w >= 0} is empty, its
residual the witness; a nonempty set goes on to one pass of alternating
projections (POCS) toward the interior, and where that fails to the support
point: a feasible point positive on every weight some feasible point can
make positive, found by one more _nnls solve on the cone {A w = tau b, w >=
0, tau >= 0} per weight that no point found yet makes positive.  Weights
that it leaves at zero are zero at every feasible point; they are dropped
and the dual is re-solved on the rest.  A set that _nnls cannot decide
(past its iteration cap) and POCS cannot start has no start, as has one
whose support a cone solve cannot decide; the duals of such a set end
ITERATION_LIMIT in 0 iterations, undecided, where those of a set proven
empty end INFEASIBLE.  The start and the null space
depend only on the equality system, which the exponents and blocks of the
terms fix, so they are computed once per program and kept on it
(DualProgram._start) for every solve of that program.  Duals are solved as
one batch, a row of a (B, K) weight array each, and each row ends bit for bit
as it would alone; solve_dual is the batch of one.  Duals that differ only
in their coefficients share an equality system, and its start and null
space.  The systems of one call share one block layout (so K and the
kernels' block sums) and variable count: a template's selectors change the
values in its slots, never which terms sit in which posynomial.  The fast
pass takes more: the duals of the call's systems that share a nullity r are
one batch, each row from its own system's start and with its own null-space
basis, stacked (B, r, K) in C order so that each row's basis is laid out,
and rounds, as it does alone.  The Newton kernels read the exponents only
through the basis.  The fast pass evaluates the log dual by its kernel for
positive weights (dual._positive_log_dual), which skips the general
function's check for zero weights: from a start inside the program, with
steps floored at _WEIGHT_FLOOR, only a nan weight could fail it, and a batch
with one takes the general function.  Each point is evaluated once: the rows
the fast pass ends OPTIMAL are finished as the same batch from its last
evaluation of each, the log dual value, stationarity and block sums at the
row's end, and only each row's equality residual is taken anew, against its
own system's matrix.  What stays per system is the start, and per row the
interior-point method.  A call's (program, coefficient rows) pairs are a
_Batch.  On its first solve it checks the shared layout and builds,
read-only, what every solve of it reads of its systems alone: each system's
route (forced zeros, no start, a single point or the fast pass), each
fast-pass batch's rows, coefficients and their log, stacked bases and their
block sums, start weights and equality matrices, and each row's system and
terms for certification.  A batch solved again, as the seeds' batch that
selectors keeps with a model's compile, builds none of them again; nothing a
solve computes is kept.  The call's solutions come back as one batch, in
call order, held as columns (_Duals): status codes, weights, lambdas, dual
values, equality residuals, stationarity (the projected gradient of the log
dual, or on an interior-point row the largest entry of its dual residual),
iteration counts and y; a row's DualSolution is built only when the row is
read.  The linear algebra is numpy only (an SVD null space; a fast-pass Newton step
from one symmetric eigendecomposition of the reduced Hessian, its
eigenvalues floored so that the step always ascends; least squares, which
NNLS's solves use too; the method's LU solve): the package needs no scipy.
The per-row paths call numpy.linalg's gufuncs directly, whose checks
outcost the work on systems this small, with numpy's rcond and edge cases:
x = 0 where a least-squares system has no rows, LinAlgError where an SVD
fails, and nan where the LU solve meets a singular matrix, where
np.linalg.solve raises.

The primal minimizer of a fast-pass row is recovered from optimal weights
through the log-linear relations: objective terms satisfy term_value = w_0t
* Z, and terms of an active constraint block satisfy term_value = w_it /
lambda_i.  The rows of one call are recovered and certified as one batch:
rows of one system with the same such terms are one group, the columns of
one least-squares solve, and the groups of one shape (relations, rows) are
one stacked solve, each matrix's bit for bit as alone; the points come
back as one (B, n) array, nan on the rows that fail, and one
certificate.optimal_claim call, with one exponent matrix per row, checks
them all; solve_dual, recover_primal and solve are each the batch of one.
solve reports OPTIMAL only where that claim holds at x and the dual
weights, a check from the problem's terms alone.  The certified batch holds
its statuses and claims as columns too (_Reports), and a row's SolveReport
is built only when the row is read, field for field as a report built at
once would be.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .dual import (
    DualProgram,
    _check_weights,
    _log_dual_objective,
    _positive_log_dual,
    _reduced_hessian,
    block_lambdas,
    build_dual,
)
from .certificate import FEASIBILITY_TOL, Optimality, Terms, infeasible_claim, optimal_claim
from .certificate import GAP_TOL  # noqa: F401 (read from solver)
from .posynomial import StandardGp

# log value beyond which the fast pass declares the dual unbounded (exp
# would overflow)
_LOG_VALUE_UNBOUNDED = 350.0
# the fast pass ends at a weight this small; recovery ignores its term
_BOUNDARY_WEIGHT = 1e-12
# trial weights are floored here, far below _BOUNDARY_WEIGHT, so that rounding
# to zero keeps the log dual finite without affecting any contract
_WEIGHT_FLOOR = 1e-150
# the cap of the fast pass, and of the interior-point method after it
_PASS_ITERATIONS = 200
# Newton iterations of one dual, both passes included
_MAX_ITERATIONS = 2 * _PASS_ITERATIONS
# the interior-point method ends where every residual (w's orthogonality,
# F_i + u_i and lambda_i u_i) is at most _IPM_TOL, so that its gaps sit with
# the fast pass's, far inside GAP_TOL; no step moves a log x by more than
# _IPM_STEP, a trust radius for the Newton steps that a saturated softmax
# makes arbitrarily long (no tested status is lost at radii from 3 to 20)
_IPM_TOL = 1e-12
_IPM_STEP = 10.0
# largest projected gradient entry at which a dual is stationary; at 1e-8 the
# x recovered from stress problem 1522 misses VIOLATION_TOL by 4e-10
_STATIONARITY_TOL = 1e-10
# the interior-point method tests for a ray every _RAY_EVERY iterations, as
# well as where it ends
_RAY_EVERY = 10
_EPS = np.finfo(float).eps


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
    # log x of the interior-point method's end, on its rows alone
    y: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.weights, self.lambdas, self.y):
            if arr is not None:
                arr.flags.writeable = False


@dataclass(eq=False)
class _Duals:
    """The duals of a batch as columns: status codes (_STATUSES), weights
    (B, K), lambdas (B, m), dual values, equality residuals, stationarity
    and iteration counts (B,), and y (B, n), nan on the rows without one.
    A row's DualSolution, which holds views of its weights, lambdas and y, is
    built when the row is read; rows iterate by __getitem__, up to its
    IndexError."""

    status: np.ndarray
    weights: np.ndarray
    lambdas: np.ndarray
    objective_value: np.ndarray
    equality_residual: np.ndarray
    stationarity: np.ndarray
    iterations: np.ndarray
    y: np.ndarray

    @classmethod
    def of(cls, solutions: Sequence[DualSolution], n: int) -> _Duals:
        """The batch of DualSolutions made apart, over n variables, stacked."""
        rows = ((_CODE[ds.status], ds.weights, ds.lambdas, ds.objective_value,
                 ds.equality_residual, ds.stationarity, ds.iterations,
                 np.full(n, np.nan) if ds.y is None else ds.y) for ds in solutions)
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

    def __getitem__(self, i: int) -> DualSolution:
        y = None if np.isnan(self.y[i]).all() else self.y[i]
        return DualSolution(_STATUSES[self.status.item(i)], self.weights[i], self.lambdas[i],
                            self.objective_value.item(i), self.equality_residual.item(i),
                            self.stationarity.item(i), self.iterations.item(i), y)

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


def _linalg_error(*_):
    """Raise numpy.linalg's error.  numpy.linalg runs each gufunc under
    np.errstate(all="ignore", invalid="call", call=...), and a gufunc flags
    invalid where LAPACK fails, and only there."""
    raise np.linalg.LinAlgError("LAPACK did not converge")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a, b, rcond=None)[0] for float a (m, k) and b (m,) or
    (m, p), p > 0, bit for bit: the gufunc under it, at its rcond, with its
    x = 0 where m == 0 and its LinAlgError where the SVD fails.  A stack a
    (G, m, k), b (G, m, p) gives each matrix's solution as alone: the gufunc
    solves each in the same LAPACK workspace."""
    with np.errstate(all="ignore", invalid="call", call=_linalg_error):
        x = _umath_linalg.lstsq(a, b[:, None] if b.ndim == 1 else b,
                                _EPS * max(a.shape[-2:]), signature="ddd->ddid")[0]
    if a.shape[-2] == 0:
        x[...] = 0.0
    return x[:, 0] if b.ndim == 1 else x


def _norm(v: np.ndarray) -> float:
    """The 2-norm of the float vector v, as np.linalg.norm computes it."""
    return np.sqrt(v @ v)


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a, as columns.

    Keeps the rank rule of scipy.linalg.null_space: singular values above
    max(s) * eps * max(a.shape) count toward the rank.  It calls the gufunc
    under np.linalg.svd(a, full_matrices=True).
    """
    with np.errstate(all="ignore", invalid="call", call=_linalg_error):
        _, s, vh = _umath_linalg.svd_f(a, signature="d->ddd")
    tol = np.maximum.reduce(s, initial=0.0) * _EPS * max(a.shape)
    return vh[np.count_nonzero(s > tol):].T


def _project_onto_equalities(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w + _lstsq(a, b - a @ w)


def _projected_norm(basis: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Largest entry of grad projected onto the span of basis's columns, per
    row; basis (K, r) is shared, or (B, K, r) holds one per row."""
    projected = np.matvec(basis, np.matvec(basis.mT, grad))
    return np.maximum.reduce(np.abs(projected), axis=-1)


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The w >= 0 nearest to solving A w = b, by Lawson and Hanson's
    active-set method (Solving Least Squares Problems, 1974, ch. 23); None
    past 3 K least-squares solves, scipy's cap.

    The free weight with the largest gain, A^T (b - A w), joins the passive
    set P, and w becomes the least-squares solution s over P; a weight that
    s does not make positive as it joins gains only by rounding and stays
    out until w moves.  Where s leaves another passive weight at or below
    zero, w steps toward s as far as w >= 0 allows and the weight that step
    zeroes leaves P.  At the end A_P^T r = 0 and A^T r <= tol for r = b -
    A w, so y = -r has A^T y >= -tol and b^T y = -|r|^2: a residual above
    rounding is a Farkas witness that {A w = b, w >= 0} is empty."""
    k = a.shape[1]
    w, (passive, out), solved = np.zeros(k), np.zeros((2, k), dtype=bool), True
    tol = 10.0 * _EPS * max(a.shape) * np.maximum.reduce(np.abs(a), axis=None, initial=1.0)
    for _ in range(3 * k):
        if solved:  # w solves P: the weight with the largest gain joins it
            gain = np.where(passive | out, -np.inf, a.T @ (b - a @ w))
            j = np.argmax(gain)
            if gain[j] <= tol:
                return w
            passive[j] = True
        s = np.zeros(k)
        s[passive] = _lstsq(a[:, passive], b)
        if solved and s[j] <= 0.0:  # j gains only by rounding: out until w moves
            passive[j], out[j] = False, True
            continue
        solved = (s[passive] > 0.0).all()
        if solved:
            w, out[:] = s, False
        else:  # toward s, to the first passive weight it zeroes
            ratio = np.where(passive & (s <= 0.0), w, np.inf) / np.abs(w - s)
            i = np.argmin(ratio)
            w = np.maximum(w + ratio[i] * (s - w), 0.0)
            w[i] = 0.0
            passive &= w > 0.0
    return None


def _support_point(a: np.ndarray, b: np.ndarray, nearest: np.ndarray) -> np.ndarray | None:
    """Feasible point of the nonempty {A w = b, w >= 0}, of which nearest is
    a point, with the largest support; None where an _nnls solve runs out.

    w_j is positive at some feasible point exactly where the cone {A w = tau
    b, w >= 0, tau >= 0} holds a point with w_j = 1 (one with tau = 0 is a
    ray of the set), which one _nnls solve of [[A, -b], [e_j^T, 0]] (w, tau)
    = (0, 1) finds or refutes.  Each point found, scaled to tau <= 1, is
    added to (nearest, 1), so the sum (W, T) has A W = T b: W / T is
    feasible, and positive on every weight found.  A weight above 1e-9 T is
    positive already and skips its solve; the weights at or below it at the
    end, rounding on a forced zero among them, are zero at every feasible
    point.
    """
    m, k = a.shape
    cone, rhs, total = np.zeros((m + 1, k + 1)), np.zeros(m + 1), np.append(nearest, 1.0)
    cone[:m, :k], cone[:m, k], rhs[m] = a, -b, 1.0
    for j in range(k):
        if total[j] <= 1e-9 * total[k]:
            cone[m] = np.arange(k + 1) == j
            point = _nnls(cone, rhs)
            if point is None:
                return None
            if np.maximum.reduce(np.abs(cone @ point - rhs)) <= 1e-8:
                total += point / max(point[k], 1.0)
    support, w = total[:k] > 1e-9 * total[k], np.zeros(k)
    w[support] = _project_onto_equalities(a[:, support], b, total[:k][support] / total[k])
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
        if np.minimum.reduce(w) >= 0.5 * margin:
            return w
    return None


# w: start point, None when {A w = b, w >= 0} is empty or undecided or
# support is set; nullsp: A's null space, None when the set is proven empty,
# so that a start with a null space but neither w nor support is undecided;
# support: the weights some feasible point makes positive, if not all
_Start = namedtuple("_Start", "w nullsp support")


def _equality_start(d: DualProgram) -> _Start:
    """Start point and null space of d's {A w = b, w >= 0}; d._start keeps them."""
    a, b, block = d.equality_matrix, d.equality_rhs, d.block_index
    w = _project_onto_equalities(a, b, 1.0 / np.array(d.block_sizes, dtype=float)[block])
    if np.maximum.reduce(np.abs(a @ w - b)) > 1e-8:
        return _Start(None, None, None)  # A w = b has no solution
    nullsp, support = _null_space(a), None
    if nullsp.shape[1] == 0:  # the affine set is the single point w
        if not np.minimum.reduce(w) >= -1e-9:  # a negative (or nan) weight
            return _Start(None, None, None)
        w = np.maximum(w, 0.0)
    else:
        if np.minimum.reduce(w) < 1e-6:
            # NNLS decides emptiness first: a residual above 1e-8 proves it
            nearest = _nnls(a, b)
            if nearest is not None and np.maximum.reduce(np.abs(a @ nearest - b)) > 1e-8:
                return _Start(None, None, None)
            w = _pocs_interior(a, b, w, 1e-2)
            if w is None and nearest is not None:  # else undecided, or started
                w = _support_point(a, b, nearest)
        if w is not None and (w > 0.0).all():
            w = _project_onto_equalities(a, b, w)
        elif w is not None:  # the rest are zero at every feasible point
            w, support = None, w > 0.0
    # every solve of the program reads them: read-only
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
    floor = 1e-12 * np.maximum.reduce(np.abs(lam), axis=-1, keepdims=True, initial=1.0)
    return np.matvec(vec, np.matvec(vec.mT, gu) / np.maximum(lam, floor))


def _failure(d: DualProgram, status: Status, iterations: int = 0) -> DualSolution:
    return DualSolution(status, np.zeros(d.term_count), np.zeros(d.constraint_count),
                        float("nan"), float("inf"), float("inf"), iterations)


def _finish(
    d: DualProgram, value: np.ndarray, stationarity: np.ndarray, sums: np.ndarray,
    equalities: np.ndarray, w: np.ndarray, status: list[Status], iterations: list[int],
) -> _Duals:
    """The duals of the rows of w (B, K), each with d's block layout, its
    log dual value, stationarity (_projected_norm of the gradient on its
    null space, which vanishes at a maximizer inside the program) and block
    sums, objective first, at its row of w, and its equality matrix:
    equalities (n + 1, K) is shared, or (B, n + 1, K) holds one per row.  An
    OPTIMAL row that misses FEASIBILITY_TOL or _STATIONARITY_TOL ends
    ITERATION_LIMIT."""
    residual = np.maximum.reduce(np.abs(np.matvec(equalities, w) - d.equality_rhs), axis=1)
    with np.errstate(over="ignore"):  # a pass out of budget may end past exp's range
        z = np.exp(value)
    rows = zip(status, residual.tolist(), stationarity.tolist())
    codes = [_CODE[Status.ITERATION_LIMIT if st is Status.OPTIMAL and (
        res > FEASIBILITY_TOL or stat > _STATIONARITY_TOL) else st] for st, res, stat in rows]
    return _Duals(np.array(codes), w.copy(), sums[:, 1:], z, residual, stationarity,
                  np.array(iterations, dtype=int), np.full((len(w), d.variable_count), np.nan))


def _boundary_fraction(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Per row, the longest step along dw, at most 1, that keeps w strictly
    positive: 0.9995 of the fraction to the boundary."""
    # -w / dw, exactly, where dw < 0, and inf elsewhere (w > 0)
    ratio = np.where(dw < 0.0, w, np.inf) / np.abs(dw)
    return np.minimum(1.0, 0.9995 * np.minimum.reduce(ratio, axis=-1, initial=np.inf))


def _newton_phase(
    d: DualProgram, log_c: np.ndarray, bases: np.ndarray, basis_sums: np.ndarray,
    w: np.ndarray, max_iterations: int,
) -> tuple[np.ndarray, list[Status], list[int], tuple[np.ndarray, ...]]:
    """The fast pass: Newton ascent of the log dual, one trial a step (the
    Newton step, cut to 0.9995 of the way to the boundary), each row ended
    at its first weight at or below _BOUNDARY_WEIGHT.  A step with such a
    weight is taken untested; the next status check ends its row there.
    Any other step is tested at the next status check, which computes the
    projected gradient at the trial anyway: it must pass Armijo's test or,
    where its predicted gain is below value resolution, lower the projected
    gradient.  A step that fails ends its row at the point before it, to be
    taken on by the interior-point method.

    Each row of w (B, K) is a dual with d's block layout, its row of log_c
    and its own null-space basis, a slice of bases (B, K, r): the .mT view of
    a C-ordered (B, r, K) stack, so that each slice is laid out as
    _null_space returns it.  basis_sums (B, m, r) holds each basis's sums
    over each constraint block.  A row has its own ascent test, end and
    iteration count (at most max_iterations); the rows share one stacked
    eigh per iteration.  Returns end weights, statuses and counts, and the
    last evaluation at each end: log dual values, stationarity
    (_projected_norm) and block sums, objective first, nan on the rows that
    end before a step that fails.
    """
    b = len(w)
    end, used, status = np.empty_like(w), [0] * b, [Status.ITERATION_LIMIT] * b
    at_value, at_norm = [np.nan] * b, [np.nan] * b
    at_sums = np.full((b, len(d.block_sizes)), np.nan)
    rows, stack = list(range(b)), bases.mT  # live rows; stack (B, r, K)
    for k in itertools.count(1):
        lows = np.minimum.reduce(w, axis=1).tolist()  # each row's least weight
        # from an interior start, with steps floored at _WEIGHT_FLOOR, every
        # weight is positive save a nan (from an eigh that fails, say): only
        # then, or at a start that is not interior, the general branch runs
        evaluate = _positive_log_dual if all(x > 0.0 for x in lows) else _log_dual_objective
        value, grad, _, lam = evaluate(d, w, log_c)
        gu = np.matvec(stack, grad)
        # _projected_norm, from gu
        norms = np.maximum.reduce(np.abs(np.matvec(bases, gu)), axis=1).tolist()
        values, live = value.tolist(), []
        for i, (j, v) in enumerate(zip(rows, values)):
            # a step off the boundary that does not ascend ends its row
            # before it, at k - 1
            if k > 1 and lows[i] > _BOUNDARY_WEIGHT and not (
                    v >= last_v[i] + gains[i] if gains[i] > 1e-13 * (1.0 + abs(last_v[i]))
                    else norms[i] < last_norms[i]):
                used[j], end[j] = k - 1, last_w[i]
                continue
            # past its budget a row ends at k - 1, else at k: unbounded, at the
            # boundary, or stationary
            if k > max_iterations:
                used[j] = k - 1
            elif v > _LOG_VALUE_UNBOUNDED:
                status[j], used[j] = Status.UNBOUNDED, k
            elif lows[i] <= _BOUNDARY_WEIGHT:
                used[j] = k
            elif norms[i] <= _STATIONARITY_TOL:
                status[j], used[j] = Status.OPTIMAL, k
            else:
                live.append(i)
                continue
            end[j], at_value[j], at_norm[j], at_sums[j] = w[i], v, norms[i], lam[i]
        if not live:
            break
        if len(live) < len(rows):
            keep = np.array(live)
            w, lam, log_c, gu, basis_sums, stack = (
                x.take(keep, 0) for x in (w, lam, log_c, gu, basis_sums, stack)
            )
            bases = stack.mT  # compacted in the stack's own C order
            rows, values, norms = ([x[i] for i in live] for x in (rows, values, norms))

        du = _newton_step(_reduced_hessian(bases, basis_sums, lam, w), gu)
        dw = np.matvec(bases, du)
        step = _boundary_fraction(w, dw)
        # one trial a step, tested at the next status check
        gains = (1e-4 * step * np.vecdot(gu, du)).tolist()
        last_w, last_v, last_norms = w, values, norms
        w = np.maximum(w + step[:, None] * dw, _WEIGHT_FLOOR)

    return end, status, used, (np.array(at_value), np.array(at_norm), at_sums)


# a batch's plan (_Batch._plan): its row count, the routes of the systems off
# the fast pass, (rows, system, route), route the reduced _Batch of a system
# with forced zeros, the failure Status of one with no start, or None for a
# single point; and one fast-pass _Group per nullity
_Plan = namedtuple("_Plan", "size routes groups")
# a fast-pass batch: its rows of the call and each row's program, coefficients
# (B, K) and their log, null-space bases stacked (B, r, K) in C order and their
# block sums (B, m, r), start weights (B, K) and equality matrices (B, n + 1, K)
_Group = namedtuple("_Group", "rows programs coefficients log_c stack sums w equalities")


class _Batch(tuple):
    """(program, coefficient rows (B, K)) per system, a batch of
    _solve_duals or _solve_rows: each row a dual of its system's program at
    those coefficients.  What every solve of the batch reads of its systems
    alone is built on its first use and kept, read-only: the routing of its
    systems and the fast pass's arrays (_plan), and its rows' systems and
    terms (_terms), which _certify reads.  Nothing a solve computes is kept."""

    @cached_property
    def _plan(self) -> _Plan:
        """The routes of the systems and the fast pass's groups; ValueError
        where two systems differ in block layout or variable count."""
        d, edges = self[0][0], [0, *itertools.accumulate(len(c) for _, c in self)]
        if any(p.variable_count != d.variable_count or p.block_index is not d.block_index
               and not np.array_equal(p.block_index, d.block_index) for p, _ in self[1:]):
            raise ValueError("the systems of one call must share one block layout "
                             "and variable count")
        routes, fast = [], {}  # fast: the systems of the fast pass, by nullity
        for s, (p, coefficients) in enumerate(self):
            (start, nullsp, support), route = p._start, None  # None: a single point
            if support is not None:  # solved over the rest of its weights
                route = _Batch([(_reduced_program(p, support), coefficients[:, support])])
                route[0][1].flags.writeable = False
            elif start is None:  # proven empty, or undecided where it has a null space
                route = Status.INFEASIBLE if nullsp is None else Status.ITERATION_LIMIT
            elif nullsp.shape[1]:
                fast.setdefault(nullsp.shape[1], []).append(s)
                continue
            routes.append((list(range(edges[s], edges[s + 1])), s, route))
        groups = []
        for group in fast.values():
            pick = np.repeat(np.arange(len(group)), [len(self[s][1]) for s in group])
            coefficients = np.concatenate([self[s][1] for s in group])
            # (B, r, K) in C order: each row's basis.mT is laid out as its own
            # _null_space's, so every row keeps the bits it gets alone, and so
            # does each system's member @ nullsp in the one stacked product
            programs = [self[s][0] for s in group]
            stack = np.array([p._start.nullsp.T for p in programs])
            groups.append(_Group(
                [j for s in group for j in range(edges[s], edges[s + 1])],
                [programs[i] for i in pick.tolist()], coefficients, np.log(coefficients),
                stack.take(pick, 0), (d._layout.member @ stack.mT).take(pick, 0),
                np.array([p._start.w for p in programs]).take(pick, 0),
                np.array([p.equality_matrix for p in programs]).take(pick, 0)))
            for arr in groups[-1][2:]:
                arr.flags.writeable = False
        return _Plan(edges[-1], routes, groups)

    @cached_property
    def _terms(self) -> tuple[Terms, np.ndarray]:
        """The rows' Terms, each with its system's exponents, and each row's
        system."""
        pick = np.repeat(np.arange(len(self)), [len(c) for _, c in self])
        terms = Terms(np.concatenate([c for _, c in self]),
                      np.array([d.exponent_matrix for d, _ in self])[pick], self[0][0].block_index)
        for arr in (pick, *terms):
            arr.flags.writeable = False
        return terms, pick


def solve_dual(d: DualProgram) -> DualSolution:
    """Maximize the log dual objective over {A w = e1, w >= 0}.

    Returns a DualSolution whose status is OPTIMAL when the equality residual
    is at most FEASIBILITY_TOL and the projected-gradient stationarity measure
    at most _STATIONARITY_TOL, or where the interior-point method after the
    fast pass converges (its y then on the solution), INFEASIBLE when the
    feasible set is empty, UNBOUNDED when the objective grows without bound
    along the feasible set, and ITERATION_LIMIT otherwise, including when
    the Newton iterations reach _PASS_ITERATIONS in both or _MAX_ITERATIONS,
    or when _nnls runs past its cap and leaves the set undecided.
    """
    return _solve_duals([(d, d.term_coefficients[None])])[0]


def _solve_duals(systems: Sequence[tuple[DualProgram, np.ndarray]]) -> _Duals:
    """solve_dual of each program d at each of its rows of coefficients
    (B, K): per system, the duals of d's equality system that differ only in
    their terms' coefficients.  Every system of one call has one block
    layout and variable count, else ValueError; the duals come back as one
    batch, in call order.  systems is a _Batch, which keeps the arrays that
    every solve of it reads (_Batch._plan), or is wrapped in one for this
    call.

    The rows of every system with an interior start run the fast pass as one
    batch per nullity, each row from its own system's start and on its own
    null-space basis, and the rows it ends OPTIMAL are finished as one batch.
    A row that ends short of the optimum goes on alone, from its end, by
    _interior_point in its own system; an UNBOUNDED one fails.  A system with
    forced zeros is solved over the rest of its weights, as a call of its
    own, on the reduced batch its plan keeps."""
    batch = systems if isinstance(systems, _Batch) else _Batch(systems)
    parts: list[tuple[list[int], _Duals]] = []  # the call's rows and their duals
    for rows, s, route in batch._plan.routes:
        d, coefficients = batch[s]
        if isinstance(route, _Batch):  # forced zeros
            parts.append((rows, _pad(d, d._start.support, _solve_duals(route))))
        elif route is not None:  # no start: every row fails with status route
            parts.append((rows, _Duals.of([_failure(d, route) for _ in rows], d.variable_count)))
        else:  # the affine set is the single point start
            (start, nullsp, _), n = d._start, len(rows)
            w = start[None].repeat(n, 0)
            value, grad, _, sums = _log_dual_objective(d, _check_weights(d, w, n),
                                                       np.log(coefficients))
            parts.append((rows, _finish(d, value, _projected_norm(nullsp, grad), sums,
                                        d.equality_matrix, w, [Status.OPTIMAL] * n, [0] * n)))

    # fast path: plain Newton from the interior start, ended at its first
    # boundary touch; an interior stationary point is the global maximum by
    # concavity, so it can be accepted outright
    d = batch[0][0]  # the layout and the kernels are shared
    for g in batch._plan.groups:
        ends, status, used, at_end = _newton_phase(
            d, g.log_c, g.stack.mT, g.sums, g.w, min(_PASS_ITERATIONS, _MAX_ITERATIONS),
        )
        done = [i for i, st in enumerate(status) if st is Status.OPTIMAL]
        if done:  # finished from the fast pass's last evaluation of each
            # every row done, as most often: views, not copies
            picked = slice(None) if len(done) == len(status) else done
            parts.append(([g.rows[i] for i in done], _finish(
                d, *(x[picked] for x in at_end), g.equalities[picked], ends[picked],
                [status[i] for i in done], [used[i] for i in done])))
        short = [i for i, st in enumerate(status) if st is not Status.OPTIMAL]
        if short:  # each goes on alone in its own system
            parts.append(([g.rows[i] for i in short], _Duals.of([
                _failure(d, status[i], used[i]) if status[i] is Status.UNBOUNDED
                else _interior_point(g.programs[i], g.coefficients[i],
                                     g.programs[i]._start.nullsp, ends[i], used[i])
                for i in short
            ], d.variable_count)))
    return _Duals.joined(parts, batch._plan.size)


def _interior_point(
    d: DualProgram, c: np.ndarray, nullsp: np.ndarray, end: np.ndarray, used: int
) -> DualSolution:
    """The dual of d at coefficients c (K,) by the interior-point method on
    the log primal, warm-started from the weights end at which the fast
    pass, on the null-space basis nullsp, stopped short of the optimum after
    used iterations.  An OPTIMAL dual carries the method's y.  A row is
    UNBOUNDED where its constraint weights give a witness that
    certificate.infeasible_claim accepts (_is_ray): no x in the doubles
    meets every constraint within VIOLATION_TOL.  That is tested every
    _RAY_EVERY iterations and where the method ends; a row out of
    iterations, or whose line search finds no decrease, is otherwise
    ITERATION_LIMIT at end."""
    e, blocks, n, m = d.exponent_matrix, d.block_index, d.variable_count, d.constraint_count
    log_c, offsets = np.log(c), np.cumsum((0, *d.block_sizes[:-1]))
    # Newton's system, filled in place each iteration; its lower right block
    # is -U / Lambda, whose zeros are -0.0 as from -np.diag
    kkt = np.full((n + m, n + m), -0.0)

    def shares(y):
        """Each F_b(y) and each term's share p of its block, which depend on
        y alone; nan where y leaves exp's range."""
        s = log_c + e @ y
        top = np.maximum.reduceat(s, offsets)
        ex = np.exp(s - top[blocks])
        total = np.add.reduceat(ex, offsets)
        return top + np.log(total), ex / total[blocks]

    def residuals(lam, u, f, p):
        """The residuals (r_d, r_p, lambda u) at lam and u, with F and the
        shares p at y, and the weights lambda_b p."""
        w = np.concatenate(([1.0], lam))[blocks] * p
        return np.concatenate((w @ e, f[1:] + u, lam * u)), w

    def begin(y, lam):
        """The residual norm, y, lambda and slacks u = -F_i(y), every lambda_i
        and u_i lifted to at least the largest dual residual or violation at
        y, so that no complementarity pair starts below the infeasibility;
        then F and p at y, and the residuals and weights there."""
        f, p = shares(y)
        r = residuals(lam, lam, f, p)[0]
        lift = max(np.maximum.reduce(np.abs(r[:n]), initial=_BOUNDARY_WEIGHT),
                   np.maximum.reduce(f[1:], initial=0.0))
        lam, u = np.maximum(lam, lift), np.maximum(-f[1:], lift)
        r, w = residuals(lam, u, f, p)
        return _norm(r), y, lam, u, f, p, r, w

    # trial points may leave exp's range and lambda u the doubles' range:
    # their residuals are then nan or inf, and the line search passes them by
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # warm start: y from the end weights' log-linear relations, as _recover
        # reads them, lambda their block sums; the cold start y = 0, lambda = 1
        # where its residuals are smaller, or y is not finite
        value, _, _, sums = _log_dual_objective(d, end, log_c)
        shift = np.concatenate(([value], -np.log(sums[1:])))
        active = (end > _BOUNDARY_WEIGHT) & (sums[blocks] > _BOUNDARY_WEIGHT)
        target = np.log(end) - log_c + shift[blocks]
        y = _lstsq(e[active], target[active])
        cold = begin(np.zeros(n), np.ones(m))
        starts = [begin(y, sums[1:]), cold] if np.isfinite(y).all() else [cold]
        norm, y, lam, u, f, p, r, w = min(starts, key=lambda start: start[0])

        budget, k = min(_PASS_ITERATIONS, _MAX_ITERATIONS - used), 0
        while True:
            if np.maximum.reduce(np.abs(r), initial=0.0) <= _IPM_TOL:
                z = float(np.exp(_log_dual_objective(d, w, log_c)[0]))  # w may hold 0s
                residual = float(np.max(np.abs(d.equality_matrix @ w - d.equality_rhs)))
                return DualSolution(Status.OPTIMAL, w, block_lambdas(d, w), z, residual,
                                    float(np.max(np.abs(r[:n]), initial=0.0)), used + k, y)
            if k == budget:
                break
            # a ray (see below) found at every _RAY_EVERY-th iteration ends
            # the row at once
            if k % _RAY_EVERY == 0 < k and _is_ray(d, c, w):
                return _failure(d, Status.UNBOUNDED, used + k)
            k += 1
            # Newton's system in (dy, dlam), du eliminated: [H, J^T; J, -U / Lambda],
            # with H the lambda-weighted sum of the blocks' log-sum-exp Hessians
            g = np.add.reduceat(p[:, None] * e, offsets, axis=0)
            np.subtract((e.T * w) @ e, (g.T * np.concatenate(([1.0], lam))) @ g, out=kkt[:n, :n])
            kkt[:n, n:], kkt[n:, :n] = g[1:].T, g[1:]
            np.fill_diagonal(kkt[n:, n:], -(u / lam))

            def direction(r_c):
                """(dy, dlam, du) of Newton's step whose complementarity row is
                u dlam + lambda du = r_c; nan where no finite step solves it.
                It calls the gufunc under np.linalg.solve, which gives nan
                where that raises LinAlgError."""
                rhs = np.concatenate((-r[:n], -r[n:n + m] - r_c / lam))
                step = _umath_linalg.solve1(kkt, rhs, signature="dd->d")
                if not np.isfinite(step).all() and np.isfinite(kkt).all():
                    step = _lstsq(kkt, rhs)  # a free variable
                return step[:n], step[n:], (r_c - u * step[n:]) / lam

            # centring: Mehrotra's sigma from the affine step's complementarity,
            # raised to (1 - its length)^3 where that step is cut short
            _, dlam, du = direction(-lam * u)
            mu, pairs = lam @ u / max(m, 1), np.concatenate((lam, u))
            step = _boundary_fraction(pairs, np.concatenate((dlam, du)))
            sigma = ((lam + step * dlam) @ (u + step * du) / max(m, 1) / mu) ** 3 if mu else 0.0
            dy, dlam, du = direction(max(sigma, (1.0 - step) ** 3) * mu - lam * u)
            step = _boundary_fraction(pairs, np.concatenate((dlam, du)))
            step = min(step, _IPM_STEP / np.maximum.reduce(np.abs(dy), initial=_IPM_STEP))
            # backtrack until the residual norm drops (Armijo); a trial slack
            # takes its constraint's own -F_i where that is at least 0.8 of
            # it, so that the curvature of F_i along dy leaves no primal
            # residual there; the accepted trial's residuals carry over
            for _ in range(60):
                y_t, lam_t, u_t = y + step * dy, lam + step * dlam, u + step * du
                f_t, p_t = shares(y_t)
                u_t = np.where(-f_t[1:] >= 0.8 * u_t, -f_t[1:], u_t)
                r_t, w_t = residuals(lam_t, u_t, f_t, p_t)
                norm_t = _norm(r_t)
                if norm_t <= (1.0 - 0.01 * step) * norm:
                    break
                step *= 0.5
            else:
                break
            y, lam, u, f, p, r, w, norm = y_t, lam_t, u_t, f_t, p_t, r_t, w_t, norm_t
        # the constraint weights of a row whose lambda grows without bound
        # approach a ray: then no x in the doubles meets every constraint, and
        # the dual, which has a start, is unbounded
        if _is_ray(d, c, w):
            return _failure(d, Status.UNBOUNDED, used + k)
        value, grad, _, sums = _log_dual_objective(d, _check_weights(d, end[None], 1),
                                                   log_c[None])
        return _finish(d, value, _projected_norm(nullsp, grad), sums, d.equality_matrix,
                       end[None], [Status.ITERATION_LIMIT], [used + k])[0]


def _is_ray(d: DualProgram, c: np.ndarray, w: np.ndarray) -> bool:
    """certificate.infeasible_claim on d's constraint terms at coefficients c
    (K), with the witness nu: w's constraint weights, moved onto
    orthogonality by the least relative change and scaled to sum to one."""
    a, on = d.equality_matrix, d.block_index > 0
    nu = np.where(on, w, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = nu * (1.0 + _lstsq(a * nu, -(a @ nu)))
        nu = nu / nu.sum()
    return infeasible_claim(Terms(c, d.exponent_matrix, d.block_index), nu[on])


def _recover(
    t: Terms, system: np.ndarray, w: np.ndarray, z: np.ndarray, lambdas: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, dict[int, ReconstructionError]]:
    """recover_primal at each row of t, with its optimal dual's weights w
    (B, K), value z (B,), lambdas (B, m) and y (B, n), nan on the rows
    without one: the points x (B, n), nan on each row whose recovery fails,
    and the ReconstructionError each such row raises, by row.  A row with a
    y is at exp(y); the other rows of one system (equal entries of system,
    which share their exponents) whose terms enter the same relations are
    one group, whose rows are the columns of one least-squares solve.  The
    groups of one shape (relations, rows) are one stacked solve, each
    matrix's bit for bit as alone; a batch whose rows all have a y fits
    nothing."""
    n = t.exponents.shape[-1]
    if n == 0:
        return np.full((len(w), 0), np.nan), {}
    y, z, failures = y.copy(), z[:, None], {}
    fit = np.isnan(y[:, 0])  # the rows without the method's y
    if fit.any():
        # each term's block weight sum, 1 on the objective block; the terms of
        # an inactive constraint relate nothing (complementary slackness)
        lam = np.concatenate((np.ones_like(z), lambdas), axis=1)[:, t.blocks]
        active = (w > _BOUNDARY_WEIGHT) & (lam > _BOUNDARY_WEIGHT)
        share = w * z  # w / lambda on constraint terms
        np.divide(w, lam, out=share, where=active & (t.blocks > 0))
        # w * z underflows to 0 with z, and then has no log to fit
        lost = np.logical_or.reduce(active & (share == 0.0), axis=1) & fit
        failures = {i: ReconstructionError(f"w * z underflows at dual value {z.item(i)}")
                    for i in lost.nonzero()[0].tolist()}
        codes, masks = system.tolist(), active.tolist()
        groups: dict[tuple, list[int]] = {}  # the rows of one system and active set
        for i in (~lost & fit).nonzero()[0].tolist():
            groups.setdefault((codes[i], *masks[i]), []).append(i)
        shapes: dict[tuple[int, int], list[list[int]]] = {}  # the groups of one shape
        for group in groups.values():
            shapes.setdefault((sum(masks[group[0]]), len(group)), []).append(group)
        for (relations, columns), stack in shapes.items():
            rows = np.array(stack)  # (G, columns)
            # each group's active terms, ascending, (G, relations)
            terms = active[rows[:, 0]].nonzero()[1].reshape(len(stack), relations)
            matrices = t.exponents[rows[:, :1], terms]  # (G, relations, n)
            at = rows[..., None], terms[:, None]  # (G, columns, relations)
            target = np.log(share[at]) - np.log(t.coefficients[at])
            y[rows] = _lstsq(matrices, target.mT).mT
            # y is inf where the relations ask for an x beyond the doubles (a
            # subnormal exponent, say); its residual is then nan, from inf * 0
            with np.errstate(over="ignore", invalid="ignore"):
                residual = np.maximum.reduce(
                    np.abs(np.matvec(matrices[:, None], y[rows]) - target), axis=-1, initial=0.0)
            failures |= {rows.item(j): ReconstructionError(
                f"log-linear recovery system inconsistent (residual {residual.item(j):.3e})")
                for j in (residual > 1e-6).ravel().nonzero()[0].tolist()}
    with np.errstate(over="ignore", under="ignore"):
        x = np.exp(y)
    inside = np.logical_and.reduce(np.isfinite(x) & (x > 0.0), axis=1)
    failures |= {i: ReconstructionError("recovered x = exp(y) overflows or underflows")
                 for i in (~inside).nonzero()[0].tolist() if i not in failures}
    if failures:  # most often no row fails
        x[list(failures)] = np.nan
    return x, failures


def recover_primal(s: StandardGp, ds: DualSolution) -> np.ndarray:
    """Recover the primal point from near-optimal dual weights.

    Solves, in least squares over y = log x, the stacked log-linear relations
    of objective terms and of terms in active constraint blocks; weights at or
    below _BOUNDARY_WEIGHT contribute no equation.  A dual that carries its
    own y, the interior-point method's, gives x = exp(y) instead.  Raises
    ReconstructionError when w z underflows to 0 on an objective term, when
    the residual of the stacked system exceeds 1e-6 or when x = exp(y) leaves
    the doubles.
    """
    d = build_dual(s)
    y = np.full((1, d.variable_count), np.nan) if ds.y is None else ds.y[None]
    t = Terms(d.term_coefficients[None], d.exponent_matrix[None], d.block_index)  # a batch of one
    x, failures = _recover(t, np.zeros(1, dtype=int), ds.weights[None],
                           np.array([ds.objective_value]), ds.lambdas[None], y)
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
                              duals.lambdas[rows], duals.y[rows])
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

    t = Terms(d.term_coefficients[None], d.exponent_matrix[None], d.block_index)
    return _certify(t, np.zeros(1, dtype=int), _Duals.of([ds], d.variable_count), recover)[0]


def _solve_rows(systems: Sequence[tuple[DualProgram, np.ndarray]]) -> _Reports:
    """solve of each program d's problem at each of its rows of coefficients
    (B, K), as one batch (_solve_duals, so one block layout and variable
    count), recovered and certified together, on the rows' systems and terms
    that a _Batch keeps (_Batch._terms): the reports of every row, in call
    order."""
    batch = systems if isinstance(systems, _Batch) else _Batch(systems)
    duals = _solve_duals(batch)
    return _certify(*batch._terms, duals, _recover)
