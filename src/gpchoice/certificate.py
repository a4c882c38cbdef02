"""Solver-free certificates of a standard-form GP's status, from its data alone.

Weak duality (Duffin, Peterson and Zener, Geometric Programming, 1967; Boyd
and Vandenberghe, Convex Optimization, 2004, 5.8): weights w >= 0 meeting
normality (the objective block sums to one) and orthogonality
(sum_k w_k a_k = 0) bound every feasible f_0 below by
v(w) = exp sum_k w_k log(c_k lambda_b(k) / w_k), with lambda_b(k) the weight
sum of term k's constraint block (1 on the objective) and terms with w_k = 0
adding nothing.  The theorem of alternatives: multipliers nu >= 0 on the
constraint terms give prod_i f_i(x)^lambda_i >= exp(S + delta . log x) at
every x (weighted AM-GM), with S = sum_k nu_k log(c_k lambda_i / nu_k) and
delta = sum_k nu_k a_k, so where delta = 0 a positive S leaves no x with
every f_i(x) <= 1.  A floating-point nu leaves delta at rounding level, not
0; every positive finite double has |log x| <= _LOG_RANGE, so S -
_LOG_RANGE |delta|_1 bounds the exponent over every x in the doubles.
Neither check solves a thing.

An optimal claim holds within fixed tolerances: GAP_TOL = 1e-8 on the
relative gap, VIOLATION_TOL = 1e-8 on each constraint and FEASIBILITY_TOL =
1e-10 on each dual equation.  The solver's optimal reports sit well inside
the gap bound (the worst gap of the 2000-problem stress sweep is 4.9e-11),
so the claim proves each optimum to 1e-8.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .posynomial import StandardGp, _block, _sum_monomials

# an optimal claim holds within these: the relative gap between f_0(x) and
# v(w), the largest constraint violation f_i(x) - 1, and each normality and
# orthogonality equation of w
GAP_TOL = 1e-8
VIOLATION_TOL = 1e-8
FEASIBILITY_TOL = 1e-10
# no positive finite double is farther from 1 in log than the smallest,
# math.ulp(0.0): a fact of the number format, about 744.4
_LOG_RANGE = -math.log(math.ulp(0.0))

# a standard-form GP's terms, objective block first: coefficients (K,) or one
# row per claim (B, K), exponents (K, n) or one matrix per claim (B, K, n),
# blocks (K,), i on constraint i
Terms = namedtuple("Terms", "coefficients exponents blocks")
# one list entry per claim: f_0(x), the worst violation max(0, max_i f_i(x) - 1),
# the gap |f_0(x) - v(w)| / f_0(x) and if the claim holds; nan where x is no point
Optimality = namedtuple("Optimality", "objective violation gap holds")


def problem_terms(s: StandardGp) -> Terms:
    """The Terms of s, read apart from dual.build_dual, so that a test can
    check a solve against terms the solver did not build."""
    posynomials = (s.objective, *s.constraints)
    pairs = [(i, t) for i, p in enumerate(posynomials) for t in p.terms]
    exponents = np.array([t.exponents for _, t in pairs], dtype=float)
    return Terms(np.array([t.coefficient for _, t in pairs]),
                 exponents.reshape(len(pairs), s.variable_count),
                 np.array([i for i, _ in pairs]))


def optimal_claim(t: Terms, x, w) -> Optimality:
    """Check, row by row, that x (B, n) is optimal with dual weights w (B, K).

    The terms' coefficients and exponents are shared by every row, or hold
    one row each.  A row holds when its x is finite and positive (and x has
    n columns), its w is finite and nonnegative and meets normality and
    orthogonality within FEASIBILITY_TOL, no f_i(x) exceeds 1 by more than
    VIOLATION_TOL, and f_0(x) is within GAP_TOL of v(w), relative.  Each
    row's exponent matrix is read through its plan (_plan): per block, each
    term's index and its nonzero (variable, exponent) pairs, built once per
    distinct matrix and kept, so that a search that claims on the same
    matrices call after call reads each once.  Each f_i(x) is summed over
    its block by evaluate's routine, in Python floats, so that it equals
    evaluate's value bit for bit.
    """
    w, x = np.asarray(w, dtype=float), np.asarray(x, dtype=float)
    coefficients = np.asarray(t.coefficients, dtype=float)
    exponents, blocks = np.asarray(t.exponents, dtype=float), t.blocks
    starts = (0, *itertools.accumulate(np.bincount(blocks).tolist()))
    # the dual side, in one pass over the batch; each row's orthogonality
    # sums alone, as it does in a batch of one
    lowest = np.minimum.reduce(w, axis=1).tolist()
    lam = np.add.reduceat(w, starts[:-1], axis=1)
    normality = lam[:, 0].tolist()
    orthogonality = np.maximum.reduce(np.abs(np.vecmat(w, exponents)), axis=1,
                                      initial=0.0).tolist()
    lam[:, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.log(coefficients * lam[:, blocks] / w)
        dual_value = np.exp(np.add.reduce(w * ratio, axis=1, where=w > 0.0)).tolist()
    # the primal side, each posynomial at each row's x, when x is a point,
    # summed over the plan of the row's exponent matrix
    rows = coefficients.tolist()
    if coefficients.ndim == 1:
        rows = itertools.repeat(rows)
    matrices = itertools.repeat(exponents) if exponents.ndim == 2 else exponents
    positive = []  # one entry per row when x has one point per row
    if x.shape == (len(w), exponents.shape[-1]):
        positive = np.logical_and.reduce((x > 0.0) & (x < np.inf), axis=1).tolist()
    nan = math.nan
    out = [(nan, nan, nan, False)] * len(w)
    for i, (xs, row, ok, matrix) in enumerate(zip(x.tolist(), rows, positive, matrices)):
        if not ok:
            continue
        plan = _plan(matrix.shape, matrix.tobytes(), starts)
        try:
            primal, *values = [_sum_monomials(row, block, xs) for block in plan]
            gap = abs(primal - dual_value[i]) / primal
        except (OverflowError, ZeroDivisionError):  # beyond the doubles: no claim
            continue
        worst = max([0.0, *(value - 1.0 for value in values)])
        # each test fails on nan; max skips a nan value, so the sum checks it
        holds = (lowest[i] >= 0.0 and abs(normality[i] - 1.0) <= FEASIBILITY_TOL
                 and orthogonality[i] <= FEASIBILITY_TOL and gap <= GAP_TOL
                 and worst <= VIOLATION_TOL and sum(values) < math.inf)
        out[i] = (primal, worst, gap, holds)
    return Optimality(*map(list, zip(*out))) if out else Optimality([], [], [], [])


@lru_cache(maxsize=256)
def _plan(shape: tuple[int, int], data: bytes, starts: tuple[int, ...]) -> tuple:
    """The plan of the float exponent matrix of this shape and these bytes,
    its blocks starting at starts: per block, posynomial._block of its rows.
    lru_cache shares plans between calls; they are tuples."""
    powers = np.frombuffer(data).reshape(shape).tolist()
    return tuple([_block(powers[a:b], a) for a, b in zip(starts, starts[1:])])


def infeasible_claim(t: Terms, nu) -> bool:
    """True when nu, one multiplier per constraint term in order, proves that
    no x in the doubles meets every constraint within VIOLATION_TOL, the
    tolerance optimal_claim allows: nu is finite and nonnegative and
    S - _LOG_RANGE |delta|_1 > sum(nu) log1p(VIOLATION_TOL), with
    delta = sum_k nu_k a_k, S = sum_k nu_k log(c_k lambda_i / nu_k) and
    lambda_i the sum of nu over constraint i's terms.  By weighted AM-GM,
    sum_i lambda_i log f_i(x) >= S + delta . log x at every x, and each
    |log x_j| is at most _LOG_RANGE, so some f_i(x) exceeds
    1 + VIOLATION_TOL."""
    nu, on = np.asarray(nu, dtype=float), t.blocks > 0
    coefficients, exponents, blocks = t.coefficients[on], t.exponents[on], t.blocks[on]
    if nu.shape != blocks.shape or not (np.isfinite(nu) & (nu >= 0.0)).all():
        return False
    lam, live = np.bincount(blocks, weights=nu)[blocks], nu > 0.0
    value = nu[live] @ np.log(coefficients[live] * lam[live] / nu[live])
    slack = _LOG_RANGE * np.abs(nu @ exponents).sum()
    return bool(value - slack > nu.sum() * math.log1p(VIOLATION_TOL))
