"""Posynomial programs: term/problem containers, evaluation, standard form.

A posynomial is a finite sum of monomials c * prod_j x_j**e_j with c > 0 and
real exponents e_j, defined over strictly positive variables.  A problem in
generalized form carries per-constraint bounds b_i > 0; dividing every
coefficient of constraint i by b_i yields the standard form with all bounds
equal to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class GpDomainError(ValueError):
    """An argument left the domain of a posynomial operation."""


@dataclass(frozen=True)
class Monomial:
    """One product term: coefficient * prod_j x_j**exponents[j]."""

    coefficient: float
    exponents: tuple[float, ...]


@dataclass(frozen=True)
class Posynomial:
    terms: tuple[Monomial, ...]

    @property
    def term_count(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class GpProblem:
    """min objective(x) subject to constraint_i(x) <= bound_i, x > 0."""

    variable_names: tuple[str, ...]
    objective: Posynomial
    constraints: tuple[tuple[Posynomial, float], ...]


@dataclass(frozen=True)
class StandardGp:
    """Same shape as GpProblem with every constraint bound fixed to one."""

    variable_names: tuple[str, ...]
    objective: Posynomial
    constraints: tuple[Posynomial, ...]

    @property
    def variable_count(self) -> int:
        return len(self.variable_names)

    @property
    def term_count(self) -> int:
        return self.objective.term_count + sum(c.term_count for c in self.constraints)


def make_posynomial(terms: Iterable[tuple[float, Sequence[float]]]) -> Posynomial:
    """Build a Posynomial from (coefficient, exponents) pairs."""
    return Posynomial(
        tuple(Monomial(float(c), tuple(float(e) for e in exps)) for c, exps in terms)
    )


def make_problem(
    objective: Iterable[tuple[float, Sequence[float]]],
    constraints: Iterable[tuple[Iterable[tuple[float, Sequence[float]]], float]] = (),
    variable_names: Sequence[str] | None = None,
) -> GpProblem:
    """Convenience constructor from plain (coefficient, exponents) data."""
    obj = make_posynomial(objective)
    cons = tuple((make_posynomial(ts), float(b)) for ts, b in constraints)
    if variable_names is None:
        n = len(obj.terms[0].exponents) if obj.terms else 0
        variable_names = [f"x{j + 1}" for j in range(n)]
    return GpProblem(tuple(variable_names), obj, cons)


def evaluate(p: Posynomial, x: Sequence[float]) -> float:
    """Evaluate a posynomial at a strictly positive point.

    Raises GpDomainError when x has the wrong arity for any term or any
    component is non-positive or non-finite.
    """
    xs = [float(v) for v in x]
    for t in p.terms:
        if len(t.exponents) != len(xs):
            raise GpDomainError(
                f"point has {len(xs)} components, posynomial expects {len(t.exponents)}"
            )
    for j, v in enumerate(xs):
        if not math.isfinite(v) or v <= 0.0:
            raise GpDomainError(f"x[{j}] = {v!r} is not a finite positive number")
    return _sum_monomials([t.coefficient for t in p.terms],
                          _block(t.exponents for t in p.terms), xs)


def _block(exponents: Iterable[Sequence[float]], first: int = 0) -> tuple:
    """The block of these exponent rows, numbered from first: each term's
    index and its nonzero (variable, exponent) pairs in variable order, as
    tuples, which a block kept and shared needs."""
    return tuple([(k, tuple([(j, e) for j, e in enumerate(row) if e != 0.0]))
                  for k, row in enumerate(exponents, first)])


def _sum_monomials(coefficients: Sequence[float], block: tuple, xs) -> float:
    """Sum over the block's terms (k, pairs) of coefficients[k] times
    xs[j]**e for each pair, multiplied left to right, the terms added to 0.0
    one by one, in Python floats: numpy's power differs from ** in the last
    bit.  Every caller that needs a posynomial's value bit for bit sums it
    here."""
    total = 0.0
    for k, pairs in block:
        prod = coefficients[k]
        for j, e in pairs:
            prod *= xs[j] ** e
        total += prod
    return total


def standardize(g: GpProblem) -> StandardGp:
    """Divide every constraint coefficient by its bound; bounds become one.

    The feasible set is unchanged: f_i(x) <= b_i iff f_i(x)/b_i <= 1.
    """
    scaled = []
    for i, (posy, bound) in enumerate(g.constraints):
        if not math.isfinite(bound) or bound <= 0.0:
            raise GpDomainError(f"constraint {i}: bound {bound!r} must be positive")
        scaled.append(
            Posynomial(
                tuple(Monomial(t.coefficient / bound, t.exponents) for t in posy.terms)
            )
        )
    return StandardGp(g.variable_names, g.objective, tuple(scaled))

