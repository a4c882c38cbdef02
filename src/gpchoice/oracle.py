"""Brute-force verification oracle: exhaustive log-space grid search.

Independent of the dual solver on purpose.  The search covers
y_j in [-L, L] with y = log x on a uniform grid, keeps the best point whose
constraints hold to within 1e-9, and refines twice on a shrinking box around
the incumbent.  Intended for cross-checking solver output on problems with
few variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posynomial import GpDomainError, Posynomial, StandardGp

_FEASIBILITY_SLACK = 1e-9
_MAX_GRID_POINTS = 40_000_000
# searches on a shrinking box around the incumbent, after the first grid
_REFINEMENTS = 2


class NoFeasiblePointError(RuntimeError):
    """No grid point satisfied every constraint."""


@dataclass(frozen=True)
class OracleResult:
    x: tuple[float, ...]
    value: float


def _posy_arrays(p: Posynomial) -> tuple[np.ndarray, np.ndarray]:
    coeffs = np.array([t.coefficient for t in p.terms])
    exps = np.array([t.exponents for t in p.terms], dtype=float)
    return coeffs, exps


def _values_on_grid(coeffs: np.ndarray, exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # pts holds log-space points row-wise; term values are exp(E y + log c)
    return np.exp(pts @ exps.T + np.log(coeffs)).sum(axis=1)


def brute_force_oracle(
    s: StandardGp,
    box_log_halfwidth: float,
    grid_points_per_dim: int,
) -> OracleResult:
    """Best feasible grid point of a standard-form GP, with grid refinement.

    Raises NoFeasiblePointError when the initial grid contains no feasible
    point, and GpDomainError for dimensions or grids too large to enumerate.
    """
    n = s.variable_count
    if n == 0 or n > 4:
        raise GpDomainError(f"grid oracle supports 1..4 variables, got {n}")
    if grid_points_per_dim < 2:
        raise GpDomainError("need at least two grid points per dimension")
    if grid_points_per_dim**n > _MAX_GRID_POINTS:
        raise GpDomainError("grid too large to enumerate")
    if box_log_halfwidth <= 0.0:
        raise GpDomainError("box_log_halfwidth must be positive")

    obj = _posy_arrays(s.objective)
    cons = [_posy_arrays(p) for p in s.constraints]

    half = float(box_log_halfwidth)
    center = np.zeros(n)
    best_y: np.ndarray | None = None
    best_value = np.inf

    for _ in range(_REFINEMENTS + 1):
        axes = [
            np.clip(
                np.linspace(center[j] - half, center[j] + half, grid_points_per_dim),
                -box_log_halfwidth,
                box_log_halfwidth,
            )
            for j in range(n)
        ]
        pts = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        feasible = np.ones(pts.shape[0], dtype=bool)
        for coeffs, exps in cons:
            feasible &= _values_on_grid(coeffs, exps, pts) <= 1.0 + _FEASIBILITY_SLACK
        if not feasible.any():
            if best_y is None:
                raise NoFeasiblePointError(
                    "no feasible grid point in the search box"
                )
            half = 2.0 * (2.0 * half / (grid_points_per_dim - 1))
            continue
        values = _values_on_grid(*obj, pts[feasible])
        idx = int(np.argmin(values))
        if values[idx] < best_value:
            best_value = float(values[idx])
            best_y = pts[feasible][idx]
        center = best_y
        half = 2.0 * (2.0 * half / (grid_points_per_dim - 1))

    assert best_y is not None
    return OracleResult(x=tuple(np.exp(best_y)), value=best_value)
