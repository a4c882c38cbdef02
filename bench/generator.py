"""Seeded generator of random GPs that are feasible by construction.

This is the benchmark's own copy of the stress generator, so that a change
to the program or its tests cannot change the workload.  It draws from the
random stream in exactly the order of ``tests/helpers.random_feasible_gp``;
``bench/test_bench.py`` checks that both yield the same problems.

A problem is returned as plain data, ``(objective, constraints)``, where
``objective`` is a tuple of ``(coefficient, exponents)`` terms and
``constraints`` a tuple of ``(terms, bound)`` pairs, all in Python floats.
"""

from __future__ import annotations

import hashlib

import numpy as np

Term = tuple[float, tuple[float, ...]]
RawProblem = tuple[tuple[Term, ...], tuple[tuple[tuple[Term, ...], float], ...]]


def random_feasible_gp(rng: np.random.Generator) -> RawProblem:
    """Small random GP, feasible at a known interior point x_bar.

    Coefficients lie in [0.1, 10], exponents in [-3, 3], with at most six
    terms over at most three variables.  One all-positive and one
    all-negative exponent row in the objective pull the minimizer toward a
    bounded box.
    """
    n = int(rng.integers(1, 4))
    t0 = int(rng.integers(2, 4))
    m = int(rng.integers(1, 3))

    def coeff() -> float:
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    def term(c: float, exps: np.ndarray) -> Term:
        return (c, tuple(float(e) for e in exps))

    obj = [
        term(coeff(), rng.uniform(0.3, 2.5, n)),
        term(coeff(), rng.uniform(-2.5, -0.3, n)),
    ]
    for _ in range(t0 - 2):
        obj.append(term(coeff(), rng.uniform(-3.0, 3.0, n)))

    budget = 6 - len(obj)
    cons = []
    x_bar = np.exp(rng.uniform(-0.3, 0.3, n))
    for _ in range(m):
        k = int(rng.integers(1, min(2, budget) + 1)) if budget > 0 else 0
        if k == 0:
            break
        budget -= k
        terms = [term(coeff(), rng.uniform(-3.0, 3.0, n)) for _ in range(k)]
        value_at_bar = sum(c * np.prod(x_bar ** np.asarray(e)) for c, e in terms)
        bound = value_at_bar * (1.0 + rng.uniform(0.3, 2.0))
        cons.append((tuple(terms), float(bound)))
    return tuple(obj), tuple(cons)


def random_problems(seed: int, count: int) -> list[RawProblem]:
    """The first ``count`` problems of the stream seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return [random_feasible_gp(rng) for _ in range(count)]


def digest(items) -> str:
    """SHA-256 over the repr of an ordered input sequence (floats repr exactly)."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()
