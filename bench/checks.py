"""Correctness checks of program outputs against recorded references.

Every check returns a list of failure strings; an empty list means the
operation succeeded.  The references in ``references.json`` were recorded
from the seed commit with ``bench/record_references.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

REFERENCES = Path(__file__).resolve().parent / "references.json"

# README's reproduction tolerances on z: 1e-4 for example 1, 1e-3 for example 2
Z_TOLERANCE = {"example1": 1e-4, "example2": 1e-3}
GAP_LIMIT = 1e-6
VIOLATION_LIMIT = 1e-8


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_fixture(fixture: str, ref: dict, status: str, chosen: dict | None,
                  z: float | None) -> list[str]:
    """Status, chosen bits ({set: "bits"}) and z against the reference."""
    out = []
    if status != ref["status"]:
        out.append(f"{fixture}: status {status}, expected {ref['status']}")
        return out
    if chosen != ref["chosen"]:
        out.append(f"{fixture}: chosen {chosen}, expected {ref['chosen']}")
    if z is None or not abs(z - ref["z"]) <= Z_TOLERANCE[fixture.split("_")[0]]:
        out.append(f"{fixture}: z {z}, expected {ref['z']}")
    return out


def check_assignments(fixture: str, ref: dict, statuses: list[str]) -> list[str]:
    if statuses != ref["assignments"]:
        wrong = sum(a != b for a, b in zip(statuses, ref["assignments"]))
        return [f"{fixture}: {wrong} assignment statuses differ "
                f"({len(statuses)} reported, {len(ref['assignments'])} expected)"]
    return []


def _posy_value(terms, x: np.ndarray) -> float:
    return sum(c * float(np.prod(x ** np.asarray(e))) for c, e in terms)


def check_optimal(problem, x, dual_value: float) -> list[str]:
    """Independent gap and feasibility check of an OPTIMAL stress result."""
    objective, constraints = problem
    x = np.asarray(x, dtype=float)
    if x.shape != (len(objective[0][1]),) or not np.all(np.isfinite(x)) or np.any(x <= 0):
        return [f"primal point {x.tolist()} is not a positive point of the right size"]
    primal = _posy_value(objective, x)
    gap = abs(primal - dual_value) / primal
    violation = max((_posy_value(t, x) / b - 1.0 for t, b in constraints), default=0.0)
    out = []
    if not gap <= GAP_LIMIT:
        out.append(f"gap {gap:.3e} above {GAP_LIMIT}")
    if not violation <= VIOLATION_LIMIT:
        out.append(f"constraint violation {violation:.3e} above {VIOLATION_LIMIT}")
    return out


def primal_ray(problem) -> np.ndarray | None:
    """A ray v with E_obj v <= -1 and E_con v <= 0, verified, or None.

    Along x = x_bar * exp(t v) every objective term decays to zero while no
    constraint term grows, so on a problem feasible at x_bar the infimum is
    zero and is not attained.
    """
    objective, constraints = problem
    e_obj = np.array([e for _, e in objective], dtype=float)
    e_con = np.array([e for terms, _ in constraints for _, e in terms], dtype=float)
    e_con = e_con.reshape(-1, e_obj.shape[1])
    a_ub = np.vstack([e_obj, e_con])
    b_ub = np.concatenate([-np.ones(len(e_obj)), np.zeros(len(e_con))])
    res = linprog(np.zeros(e_obj.shape[1]), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * e_obj.shape[1], method="highs")
    if not res.success:
        return None
    v = res.x
    if np.all(e_obj @ v <= -1.0 + 1e-9) and np.all(e_con @ v <= 1e-9):
        return v
    return None
