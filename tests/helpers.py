"""Shared builders and reference values for the test suite."""

from dataclasses import replace
from pathlib import Path

import numpy as np

from gpchoice import GpProblem, Posynomial, make_problem

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"

# first shipped example: min c*x1^p + 3/x2^3 + x1*x2  s.t.  a*x1 + x2 <= 1
EX1_Z = 11.01098
EX1_X = (0.2069792, 0.7930208)
EX1_W = (0.4387805, 0.5463127, 0.01490681, 0.4238737, 1.624031)

# second shipped example: min c*x1 + 10*x2 + 4*x3 + 2*x4
#   s.t.  a*x1^p*x4^-2 + x2^2*x4^-2 <= 1,  100/(x1*x2*x3) <= 1
EX2_Z = 50.60611
EX2_X = (16.86890, 1.405717, 4.217114, 1.405791)
EX2_W = (0.3333372, 0.2777762, 0.3333285, 0.05555811, 0.2903339e-05,
         0.02777615, 0.3333285)


def example1_problem(c=1.0, p=-1.0, a=1.0) -> GpProblem:
    return make_problem(
        objective=[(c, (p, 0)), (3, (0, -3)), (1, (1, 1))],
        constraints=[([(a, (1, 0)), (1, (0, 1))], 1.0)],
    )


def example2_problem(c=1.0, p=-3.0, a=1.0) -> GpProblem:
    return make_problem(
        objective=[
            (c, (1, 0, 0, 0)),
            (10, (0, 1, 0, 0)),
            (4, (0, 0, 1, 0)),
            (2, (0, 0, 0, 1)),
        ],
        constraints=[
            ([(a, (p, 0, 0, -2)), (1, (0, 2, 0, -2))], 1.0),
            ([(100, (-1, -1, -1, 0))], 1.0),
        ],
    )


def random_feasible_gp(rng) -> GpProblem:
    """Small random GP, feasible by construction at a known interior point.

    Coefficients land in [0.1, 10], exponents in [-3, 3], at most six terms
    over at most three variables.  One all-positive and one all-negative
    exponent row in the objective pull the minimizer toward a bounded box.
    """
    n = int(rng.integers(1, 4))
    t0 = int(rng.integers(2, 4))
    m = int(rng.integers(1, 3))

    def coeff():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    obj = [(coeff(), rng.uniform(0.3, 2.5, n)), (coeff(), rng.uniform(-2.5, -0.3, n))]
    for _ in range(t0 - 2):
        obj.append((coeff(), rng.uniform(-3.0, 3.0, n)))

    budget = 6 - len(obj)
    cons = []
    x_bar = np.exp(rng.uniform(-0.3, 0.3, n))
    for _ in range(m):
        k = int(rng.integers(1, min(2, budget) + 1)) if budget > 0 else 0
        if k == 0:
            break
        budget -= k
        terms = [(coeff(), rng.uniform(-3.0, 3.0, n)) for _ in range(k)]
        value_at_bar = sum(c * np.prod(x_bar ** np.asarray(e)) for c, e in terms)
        bound = value_at_bar * (1.0 + rng.uniform(0.3, 2.0))
        cons.append((terms, bound))
    return make_problem(obj, cons)


def first_term_split(g: GpProblem) -> GpProblem:
    """g with its first objective term split into two equal halves: the same
    problem, so the same status and optimum, written with a duplicate
    monomial."""
    first, *rest = g.objective.terms
    half = replace(first, coefficient=first.coefficient / 2)
    return replace(g, objective=Posynomial((half, half, *rest)))


def primal_infeasible_gp(rng) -> GpProblem:
    """Small random GP that is infeasible by construction.

    Its constraints are c1*x^a <= 1, half the time with one more term, and
    c2*x^-a <= 1 with c1*c2 > 1: multiplied together the two chosen terms
    give c1*c2 <= 1.  infeasibility_witness_holds checks this with
    multipliers (1, 1) on term 0 of each constraint.  The objective is
    random, as in random_feasible_gp.
    """
    n = int(rng.integers(1, 4))

    def coeff():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    obj = [(coeff(), rng.uniform(0.3, 2.5, n)), (coeff(), rng.uniform(-2.5, -0.3, n))]
    for _ in range(int(rng.integers(0, 2))):
        obj.append((coeff(), rng.uniform(-3.0, 3.0, n)))
    a = rng.uniform(-3.0, 3.0, n)
    c1 = coeff()
    c2 = float(10.0 ** rng.uniform(0.01, 1.0)) / c1  # log(c1*c2) > 0
    first = [(c1, a)]
    if rng.integers(0, 2):
        first.append((coeff(), rng.uniform(-3.0, 3.0, n)))
    return make_problem(obj, [(first, 1.0), ([(c2, -a)], 1.0)])


def free_variable_gp(rng) -> GpProblem:
    """Small random GP over (x, y) whose y is free at the optimum.

    min a*x + b/x subject to sum_k c_k*y0^-e_k*y^e_k <= sum_k c_k / u, with
    u in [0.3, 0.9] and y0 != 1.  At y = y0 the constraint is sum_k c_k, so
    y0 is strictly feasible; x appears in the objective only, so the optimum
    is z = 2*sqrt(a*b) at x = sqrt(b/a), with y anywhere feasible.
    """

    def coeff():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    a, b = coeff(), coeff()
    y0 = float(np.exp(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)))
    c = [coeff() for _ in range(int(rng.integers(1, 4)))]
    e = rng.uniform(-3.0, 3.0, len(c))
    terms = [(ck * y0 ** -ek, (0.0, ek)) for ck, ek in zip(c, e)]
    bound = sum(c) / rng.uniform(0.3, 0.9)
    return make_problem([(a, (1.0, 0.0)), (b, (-1.0, 0.0))], [(terms, bound)])


def infeasibility_witness_holds(g: GpProblem, terms, multipliers) -> bool:
    """True when the multipliers prove g has no feasible point, solver-free.

    Take one term c_i*x^a_i of each constraint, with bound b_i, and
    multipliers mu_i >= 0.  Each term is at most its posynomial, so
    (c_i/b_i)*x^a_i <= 1 at any feasible x, and so is their product
    raised to mu_i.  If sum mu_i*a_i = 0 and sum mu_i*log(c_i/b_i) > 0 that
    product is a constant above 1: no x is feasible.
    """
    mu = np.asarray(multipliers, dtype=float)
    chosen = [posy.terms[t] for (posy, _), t in zip(g.constraints, terms, strict=True)]
    exponents = np.array([m.exponents for m in chosen])
    log_c = np.log([m.coefficient / b for m, (_, b) in zip(chosen, g.constraints)])
    return bool((mu >= 0.0).all() and not (mu @ exponents).any() and mu @ log_c > 0.0)
