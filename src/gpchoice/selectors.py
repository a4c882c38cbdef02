"""Discrete candidate selection through binary selector polynomials.

A candidate set of size k (1 <= k <= 8) is addressed by two bits for k <= 4
and three bits otherwise.  Each candidate owns one bit pattern; the selector
polynomial sums candidate * indicator(pattern) products, so every admissible
pattern resolves to exactly one candidate.  Patterns excluded for
k in {3, 5, 6, 7} are exactly those violating the published consistency
constraints for that size; for k = 4 and k = 8 the published constraint would
make the last candidate unreachable and is dropped, so all patterns are
admissible.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dual import build_dual, log_dual_objective
from .posynomial import GpDomainError, GpProblem, StandardGp, make_problem, standardize
from .solver import GAP_TOL, SolverSettings, SolveReport, Status, solve

BitPattern = tuple[int, ...]

# per size: bit patterns in candidate order; candidate i binds to PATTERNS[k][i]
PATTERNS: dict[int, tuple[BitPattern, ...]] = {
    1: ((0, 0),),
    2: ((1, 0), (0, 0)),
    3: ((1, 0), (0, 1), (0, 0)),
    4: ((1, 0), (0, 1), (0, 0), (1, 1)),
    5: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 1, 1)),
    6: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
    7: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0)),
    8: (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 0),
        (1, 1, 1),
    ),
}


class Role(str, enum.Enum):
    OBJECTIVE_COEFFICIENT = "objective_coefficient"
    CONSTRAINT_COEFFICIENT = "constraint_coefficient"
    EXPONENT = "exponent"


COEFFICIENT_ROLES = (Role.OBJECTIVE_COEFFICIENT, Role.CONSTRAINT_COEFFICIENT)


@dataclass(frozen=True)
class CandidateSet:
    name: str
    role: Role
    candidates: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.candidates) <= 8:
            raise GpDomainError(
                f"set {self.name!r}: {len(self.candidates)} candidates, "
                "supported sizes are 1..8"
            )

    @property
    def size(self) -> int:
        return len(self.candidates)

    @property
    def bit_count(self) -> int:
        return 2 if self.size <= 4 else 3


@dataclass(frozen=True)
class SetRef:
    """Placeholder slot naming the candidate set that fills it."""

    name: str


Slot = float | SetRef


@dataclass(frozen=True)
class TermTemplate:
    coefficient: Slot
    exponents: tuple[Slot, ...]


@dataclass(frozen=True)
class ChoiceGp:
    """GP template whose coefficient/exponent slots may reference candidate sets."""

    variable_names: tuple[str, ...]
    objective: tuple[TermTemplate, ...]
    constraints: tuple[tuple[tuple[TermTemplate, ...], float], ...]
    sets: tuple[CandidateSet, ...]

    def set_named(self, name: str) -> CandidateSet:
        for cs in self.sets:
            if cs.name == name:
                return cs
        raise GpDomainError(f"unknown candidate set {name!r}")


class ExpansionRejected(Exception):
    """A selected value cannot appear where the template places it."""


def valid_assignments(cset: CandidateSet) -> tuple[BitPattern, ...]:
    """Admissible bit patterns, ordered so pattern i selects candidate i."""
    return PATTERNS[cset.size]


def is_valid_assignment(cset: CandidateSet, bits: Sequence[int]) -> bool:
    return tuple(bits) in PATTERNS[cset.size]


def selector_polynomial(cset: CandidateSet, bits: Sequence[int]) -> float:
    """Evaluate the size-k selector polynomial at an admissible bit pattern.

    The polynomial is sum_i a_i * prod_b (z_b if pattern_ib else 1 - z_b);
    at an admissible pattern exactly one product is one and the rest vanish.
    """
    bits = tuple(int(b) for b in bits)
    if not is_valid_assignment(cset, bits):
        raise GpDomainError(
            f"set {cset.name!r}: bit pattern {bits} is not admissible for "
            f"{cset.size} candidates"
        )
    total = 0.0
    for value, pattern in zip(cset.candidates, PATTERNS[cset.size]):
        prod = 1.0
        for z, p in zip(bits, pattern):
            prod *= z if p else (1 - z)
        total += value * prod
    return total


def case_constraint_violations(k: int, bits: Sequence[int]) -> tuple[str, ...]:
    """Published consistency constraints violated by a bit pattern.

    Sizes 4 and 8 carry no constraints here: the published ones would make
    the all-ones candidate unreachable and are dropped.
    """
    if not 1 <= k <= 8:
        raise GpDomainError(f"unsupported candidate count {k}")
    z = [int(b) for b in bits]
    out: list[str] = []
    if k == 3 and z[0] + z[1] > 1:
        out.append("z1 + z2 <= 1")
    if k == 5:
        for name, value in (
            ("z1*z2*(1-z3) = 0", z[0] * z[1] * (1 - z[2])),
            ("z2*z3*(1-z1) = 0", z[1] * z[2] * (1 - z[0])),
            ("z1*z3*(1-z2) = 0", z[0] * z[2] * (1 - z[1])),
        ):
            if value != 0:
                out.append(name)
    if k == 6:
        if z[0] * z[1] * z[2] != 0:
            out.append("z1*z2*z3 = 0")
        if (1 - z[0]) * (1 - z[1]) * (1 - z[2]) != 0:
            out.append("(1-z1)*(1-z2)*(1-z3) = 0")
    if k == 7 and z[0] * z[1] * z[2] != 0:
        out.append("z1*z2*z3 = 0")
    return tuple(out)


def _resolve(slot: Slot, cg: ChoiceGp, values: Mapping[str, float]) -> float:
    if isinstance(slot, SetRef):
        return values[slot.name]
    return float(slot)


def resolve_choice(
    cg: ChoiceGp, choice: Mapping[str, Sequence[int]]
) -> dict[str, float]:
    """Selected value of every candidate set under a choice of bit patterns."""
    values: dict[str, float] = {}
    for cs in cg.sets:
        if cs.name not in choice:
            raise GpDomainError(f"no bit pattern given for set {cs.name!r}")
        values[cs.name] = selector_polynomial(cs, choice[cs.name])
    return values


def expand(cg: ChoiceGp, choice: Mapping[str, Sequence[int]]) -> GpProblem:
    """Replace every slot by its selected value, producing a plain GpProblem.

    Raises ExpansionRejected when a coefficient slot resolves to a
    non-positive value (no posynomial exists for that choice).
    """
    values = resolve_choice(cg, choice)

    def build_terms(templates: tuple[TermTemplate, ...], where: str):
        out = []
        for t, tpl in enumerate(templates):
            coeff = _resolve(tpl.coefficient, cg, values)
            if coeff <= 0.0:
                raise ExpansionRejected(
                    f"{where} term {t}: coefficient resolves to {coeff}"
                )
            exps = tuple(_resolve(e, cg, values) for e in tpl.exponents)
            out.append((coeff, exps))
        return out

    objective = build_terms(cg.objective, "objective")
    constraints = [
        (build_terms(templates, f"constraint {i}"), bound)
        for i, (templates, bound) in enumerate(cg.constraints)
    ]
    return make_problem(objective, constraints, cg.variable_names)


def validate_choice_gp(cg: ChoiceGp) -> list[str]:
    """Structural diagnostics for a template; empty list means well formed."""
    out: list[str] = []
    names = [cs.name for cs in cg.sets]
    if len(set(names)) != len(names):
        out.append("candidate set names are not unique")
    for cs in cg.sets:
        if cs.role in COEFFICIENT_ROLES:
            for v in cs.candidates:
                if v < 0.0:
                    out.append(
                        f"set {cs.name!r}: negative coefficient candidate {v}"
                    )

    referenced: set[str] = set()

    def check_slot(slot: Slot, where: str, coefficient: bool) -> None:
        if not isinstance(slot, SetRef):
            return
        referenced.add(slot.name)
        if slot.name not in names:
            out.append(f"{where}: reference to undefined set {slot.name!r}")
            return
        role = cg.set_named(slot.name).role
        if coefficient and role not in COEFFICIENT_ROLES:
            out.append(f"{where}: set {slot.name!r} with role {role.value} "
                       "used as a coefficient")
        if not coefficient and role is not Role.EXPONENT:
            out.append(f"{where}: set {slot.name!r} with role {role.value} "
                       "used as an exponent")

    def check_terms(templates, where):
        for t, tpl in enumerate(templates):
            check_slot(tpl.coefficient, f"{where} term {t}", coefficient=True)
            for j, e in enumerate(tpl.exponents):
                check_slot(e, f"{where} term {t} exponent {j}", coefficient=False)

    check_terms(cg.objective, "objective")
    for i, (templates, _) in enumerate(cg.constraints):
        check_terms(templates, f"constraint {i}")
    for name in names:
        if name not in referenced:
            out.append(f"set {name!r} is never referenced")
    return out


@dataclass(frozen=True)
class AssignmentOutcome:
    bits: tuple[BitPattern, ...]  # one pattern per set, in declared order
    values: tuple[float, ...]
    status: str  # Status value or "rejected"
    objective_value: float | None


@dataclass(frozen=True)
class ChoiceSolveReport:
    status: Status
    report: SolveReport | None
    chosen_bits: tuple[tuple[str, BitPattern], ...] | None
    chosen_values: tuple[tuple[str, float], ...] | None
    solved: int
    rejected: int
    assignments: tuple[AssignmentOutcome, ...] | None

    def chosen_value(self, name: str) -> float:
        assert self.chosen_values is not None
        return dict(self.chosen_values)[name]


def _bit_string(combo: tuple[BitPattern, ...]) -> str:
    return "".join(str(b) for bits in combo for b in bits)


# objective values within this relative distance are tied
_TIE_WINDOW = 1e-9
# solve() certifies z against the expansion's own dual value D with a gap of
# at most GAP_TOL, and D is at least any sibling bound B, so z >= B / (1 +
# GAP_TOL).  Skipping needs that floor beyond the tie window above the
# incumbent, z > incumbent / (1 - _TIE_WINDOW): then the expansion can
# neither win nor tie.
_PRUNE_LOG_MARGIN = math.log1p(GAP_TOL) - math.log1p(-_TIE_WINDOW)

Sibling = tuple[np.ndarray, np.ndarray]  # equality matrix, optimal weights


def _seed_combos(
    cg: ChoiceGp, pattern_lists: Sequence[tuple[BitPattern, ...]]
) -> list[tuple[BitPattern, ...]]:
    """One combination per exponent assignment, at the smallest positive
    candidate of every coefficient set.

    The optimal value never decreases as a coefficient grows, so these are
    the best expansions of their exponent assignments.
    """
    per_set: list[tuple[BitPattern, ...]] = []
    for cs, patterns in zip(cg.sets, pattern_lists):
        if cs.role is Role.EXPONENT:
            first = {}  # one pattern per distinct value
            for value, bits in zip(cs.candidates, patterns):
                first.setdefault(value, bits)
            per_set.append(tuple(first.values()))
        else:
            positive = [
                (v, bits) for v, bits in zip(cs.candidates, patterns) if v > 0.0
            ]
            if not positive:
                return []  # every expansion is rejected
            per_set.append((min(positive)[1],))
    return list(itertools.product(*per_set))


def _cannot_win(s: StandardGp, sibling: Sibling | None, incumbent: float) -> bool:
    """Weak-duality test against an optimal sibling with the same equalities.

    The sibling's weights are feasible for this expansion's dual, so their
    dual value here bounds this expansion's optimum from below.
    """
    if sibling is None or not 0.0 < incumbent < math.inf:
        return False
    matrix, weights = sibling
    d = build_dual(s)
    if not np.array_equal(d.equality_matrix, matrix):
        return False
    bound, _ = log_dual_objective(d, weights)
    return bound > math.log(incumbent) + _PRUNE_LOG_MARGIN


def solve_choice(
    cg: ChoiceGp,
    settings: SolverSettings | None = None,
    *,
    combination_cap: int = 10**6,
    keep_assignments: bool = False,
) -> ChoiceSolveReport:
    """Enumerate all admissible bit patterns, solve each expansion, keep the best.

    The winner is the minimum-objective optimal expansion; objective values
    within 1e-9 relative are tied and resolved toward the lexicographically
    smallest concatenated bit string.  Expansions whose selected coefficients
    are non-positive are rejected and counted.  Overall status is INFEASIBLE
    when no expansion solves to optimality.

    Expansions that cannot win are skipped unsolved.  Exponent values fix
    the dual's equality matrix (standardize never merges terms), so the
    optimal weights of a solved sibling with the same exponent values are
    dual feasible and, by weak duality, bound the optimum from below.  An
    expansion is skipped when that bound exceeds the lowest optimal z so far
    by more than the tie window plus solve()'s 1e-6 certified gap.  Each
    exponent assignment is first solved at its smallest positive
    coefficients, which gives a strong incumbent early.  With
    keep_assignments every expansion is solved, since the table reports
    every z.  ``solved`` counts the non-rejected combinations, skipped ones
    included.
    """
    problems = validate_choice_gp(cg)
    if problems:
        raise GpDomainError("invalid template: " + "; ".join(problems))
    settings = settings or SolverSettings()

    total = 1
    for cs in cg.sets:
        total *= cs.size
    if total > combination_cap:
        raise GpDomainError(
            f"{total} assignment combinations exceed the cap of {combination_cap}"
        )

    cache: dict[tuple[float, ...], tuple[str, float | None, SolveReport | None]] = {}
    prune = not keep_assignments
    incumbent = math.inf  # lowest optimal z solved so far
    siblings: dict[tuple[float, ...], Sibling] = {}  # by exponent values

    def evaluate_combo(combo: tuple[BitPattern, ...]):
        nonlocal incumbent
        choice = {cs.name: bits for cs, bits in zip(cg.sets, combo)}
        values = tuple(selector_polynomial(cs, choice[cs.name]) for cs in cg.sets)
        if values in cache:
            return values, cache[values]
        try:
            expanded = expand(cg, choice)
        except ExpansionRejected:
            outcome = ("rejected", None, None)
        else:
            s = standardize(expanded)
            key = tuple(
                v for cs, v in zip(cg.sets, values) if cs.role is Role.EXPONENT
            )
            if prune and _cannot_win(s, siblings.get(key), incumbent):
                outcome = ("pruned", None, None)
            else:
                report = solve(s, settings)
                outcome = (report.status.value, report.objective_value, report)
                if prune and report.status is Status.OPTIMAL:
                    incumbent = min(incumbent, report.objective_value)
                    siblings.setdefault(
                        key, (build_dual(s).equality_matrix, report.dual.weights)
                    )
        cache[values] = outcome
        return values, outcome

    outcomes: list[AssignmentOutcome] = []
    best: tuple[float, str, tuple[BitPattern, ...], SolveReport] | None = None
    last_report: SolveReport | None = None
    solved = 0
    rejected = 0

    pattern_lists = [valid_assignments(cs) for cs in cg.sets]
    if prune:
        for combo in _seed_combos(cg, pattern_lists):
            evaluate_combo(combo)
    for combo in itertools.product(*pattern_lists) if cg.sets else [()]:
        values, (status_str, z, report) = evaluate_combo(combo)
        if status_str == "rejected":
            rejected += 1
        else:
            solved += 1
            last_report = report
        if keep_assignments:
            outcomes.append(AssignmentOutcome(combo, values, status_str, z))
        if status_str == Status.OPTIMAL.value and report is not None:
            assert z is not None
            bit_str = _bit_string(combo)
            if best is None:
                best = (z, bit_str, combo, report)
            else:
                best_z = best[0]
                tied = abs(z - best_z) <= _TIE_WINDOW * max(abs(z), abs(best_z))
                if (not tied and z < best_z) or (tied and bit_str < best[1]):
                    best = (z, bit_str, combo, report)

    kept = tuple(outcomes) if keep_assignments else None
    if best is None:
        if total == 1 and last_report is not None:
            # degenerate enumeration behaves exactly like a plain solve
            return ChoiceSolveReport(
                last_report.status, last_report, None, None, solved, rejected, kept
            )
        return ChoiceSolveReport(
            Status.INFEASIBLE, None, None, None, solved, rejected, kept
        )
    _, _, combo, report = best
    chosen_bits = tuple((cs.name, bits) for cs, bits in zip(cg.sets, combo))
    chosen_values = tuple(
        (cs.name, selector_polynomial(cs, bits)) for cs, bits in zip(cg.sets, combo)
    )
    return ChoiceSolveReport(
        Status.OPTIMAL, report, chosen_bits, chosen_values, solved, rejected, kept
    )
