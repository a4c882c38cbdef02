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
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .certificate import FEASIBILITY_TOL, GAP_TOL
from .dual import DualProgram, build_dual, log_dual_objective
from .posynomial import GpDomainError, GpProblem, make_problem, standardize
from .solver import SolveReport, Status
from .solver import _project_onto_equalities, _solve_rows

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
    8: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0),
        (1, 1, 1)),
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


def _resolve(slot: Slot, values: Mapping[str, float]) -> float:
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
    return _expanded(cg, resolve_choice(cg, choice))


def _expanded(cg: ChoiceGp, values: Mapping[str, float]) -> GpProblem:
    """expand at the selected value of every set, by name."""

    def build_terms(templates: tuple[TermTemplate, ...], where: str):
        out = []
        for t, tpl in enumerate(templates):
            coeff = _resolve(tpl.coefficient, values)
            if coeff <= 0.0:
                raise ExpansionRejected(
                    f"{where} term {t}: coefficient resolves to {coeff}"
                )
            exps = tuple(_resolve(e, values) for e in tpl.exponents)
            out.append((coeff, exps))
        return out

    posys = [(build_terms(ts, where), bound) for where, ts, bound in _sections(cg)]
    return make_problem(posys[0][0], posys[1:], cg.variable_names)


def _sections(cg: ChoiceGp):
    """(label, term templates, bound) of the objective, then each constraint:
    the term order of expand, standardize and build_dual alike."""
    yield "objective", cg.objective, None
    for i, (templates, bound) in enumerate(cg.constraints):
        yield f"constraint {i}", templates, bound


def validate_choice_gp(cg: ChoiceGp) -> list[str]:
    """Every value problem of a template; an empty list means each expansion
    is a posynomial GP (a non-positive coefficient candidate is rejected at
    expansion instead).  Parsed files and plain problems are checked here too.
    """
    n = len(cg.variable_names)
    out: list[str] = []
    if len(set(cg.variable_names)) != n:
        out.append("variable names are not unique")
    roles = {cs.name: cs.role for cs in cg.sets}
    if len(roles) != len(cg.sets):
        out.append("candidate set names are not unique")
    for cs in cg.sets:
        for v in cs.candidates:
            if not math.isfinite(v):
                out.append(f"set {cs.name!r}: candidate {v} is not finite")
            elif cs.role in COEFFICIENT_ROLES and v < 0.0:
                out.append(f"set {cs.name!r}: negative coefficient candidate {v}")

    referenced: set[str] = set()

    def check_slot(slot: Slot, where: str, coefficient: bool) -> None:
        if not isinstance(slot, SetRef):
            if not math.isfinite(slot):
                out.append(f"{where}: literal {slot} is not finite")
            elif coefficient and slot <= 0.0:
                out.append(f"{where}: literal coefficient {slot} is not positive")
            return
        referenced.add(slot.name)
        role = roles.get(slot.name)
        if role is None:
            out.append(f"{where}: reference to undefined set {slot.name!r}")
        elif coefficient and role not in COEFFICIENT_ROLES:
            out.append(f"{where}: set {slot.name!r} with role {role.value} "
                       "used as a coefficient")
        elif not coefficient and role is not Role.EXPONENT:
            out.append(f"{where}: set {slot.name!r} with role {role.value} "
                       "used as an exponent")

    for where, templates, bound in _sections(cg):
        if not templates:
            out.append(f"{where}: has no terms")
        for t, tpl in enumerate(templates):
            if len(tpl.exponents) != n:
                out.append(f"{where} term {t}: {len(tpl.exponents)} exponents "
                           f"for {n} variables")
            check_slot(tpl.coefficient, f"{where} term {t}", coefficient=True)
            for j, e in enumerate(tpl.exponents):
                check_slot(e, f"{where} term {t} exponent {j}", coefficient=False)
        if bound is not None and not 0.0 < bound < math.inf:
            out.append(f"{where}: bound {bound} is not finite and positive")
    for name in roles:
        if name not in referenced:
            out.append(f"set {name!r} is never referenced")
    return out


def as_choice_gp(model: ChoiceGp | GpProblem) -> ChoiceGp:
    """View any model as a template (plain problems get no sets)."""
    if isinstance(model, ChoiceGp):
        return model

    def templates(posy):
        return tuple(TermTemplate(t.coefficient, t.exponents) for t in posy.terms)

    constraints = tuple((templates(posy), b) for posy, b in model.constraints)
    return ChoiceGp(model.variable_names, templates(model.objective), constraints, ())


def validate(g: GpProblem) -> list[str]:
    """Invariant violations of a plain problem; an empty list means well formed.

    Diagnostics only: nothing is raised here.
    """
    return validate_choice_gp(as_choice_gp(g))


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


# objective values within this relative distance are tied
_TIE_WINDOW = 1e-9
# solve_choice refuses a template with more assignment combinations
_COMBINATION_CAP = 10**6
# solve() certifies z against the expansion's own dual value D with a gap of
# at most GAP_TOL, and D is at least any bound B: a log dual value at weights
# feasible for the expansion's equality system, whether they are a sibling's
# optimal weights (_Skeleton) or another system's projected onto it
# (_Template).  So z >= B / (1 + GAP_TOL).  Skipping needs that floor beyond
# the tie window above the incumbent, z > incumbent / (1 - _TIE_WINDOW): then
# the expansion can neither win nor tie.
_PRUNE_LOG_MARGIN = math.log1p(GAP_TOL) - math.log1p(-_TIE_WINDOW)

Combo = tuple[int, ...]  # one candidate index per set, in declared order
Evaluated = tuple[AssignmentOutcome, SolveReport | None]


@dataclass(frozen=True)
class _Skeleton:
    """Dual feasible weights of one expansion, compiled to bound its siblings.

    Exponent values fix the dual's equality matrix, so weights w feasible for
    one expansion are feasible for every sibling with the same exponent
    values: the expansion's optimal weights, or for a seed skipped by
    _Template its projected ones.  At w the log dual is linear in log c, and
    a coefficient set scales all of its terms alike, so a sibling with
    coefficient values v' has log dual base + sum_s W_s (log v'_s - log v_s)
    there, W_s the weight on set s's terms: by weak duality an O(K) lower
    bound on its optimum.  _Template.skeleton builds each one.
    """

    base: float  # log dual value at w of the expansion itself
    weight: tuple[float, ...]  # W_s >= 0, one per coefficient set
    log_value: tuple[float, ...]  # log v_s, one per coefficient set

    def bound(self, log_values: Sequence[float]) -> float:
        steps = zip(self.weight, log_values, self.log_value)
        return self.base + sum(w * (new - old) for w, new, old in steps)


@dataclass(frozen=True)
class _Template:
    """A template's dual, compiled once, whose set slots take any values.

    Exponent values fix the equality system; coefficient values fix the
    standardized coefficients, a constraint term's over its bound as in
    standardize, of one expansion (at) or of a batch of siblings
    (coefficients).  The least-squares correction w' = w + A'^+ (b - A'w) of
    another system's optimal weights w is dual feasible for a seed with
    equality matrix A' when w' >= 0 and A'w' = b within FEASIBILITY_TOL;
    its log dual value is then a lower bound on the seed's optimum by weak
    duality (bound).
    """

    dual: DualProgram  # with every slot at 1.0; at fills a copy of the slots
    exponent_slots: dict[int, tuple[list[int], list[int]]]  # set: terms, variables
    coefficient_slots: dict[int, list[int]]  # set: terms, in set order
    bounds: np.ndarray  # per term, its constraint's bound; 1.0 in the objective

    @classmethod
    def of(cls, cg: ChoiceGp) -> _Template:
        index = {cs.name: i for i, cs in enumerate(cg.sets)}
        dual = build_dual(standardize(_expanded(cg, dict.fromkeys(index, 1.0))))
        exponents: dict[int, tuple[list[int], list[int]]] = {}
        # validate_choice_gp has every coefficient set fill a coefficient slot
        coefficients: dict[int, list[int]] = {
            i: [] for i, cs in enumerate(cg.sets) if cs.role in COEFFICIENT_ROLES
        }
        templates = (t for _, ts, _ in _sections(cg) for t in ts)
        for k, tpl in enumerate(templates):
            if isinstance(tpl.coefficient, SetRef):
                coefficients[index[tpl.coefficient.name]].append(k)
            for j, e in enumerate(tpl.exponents):
                if isinstance(e, SetRef):
                    terms, variables = exponents.setdefault(index[e.name], ([], []))
                    terms.append(k)
                    variables.append(j)
        bounds = np.array([1.0, *(b for _, b in cg.constraints)])[dual.block_index]
        return cls(dual, exponents, coefficients, bounds)

    def at(self, values: Sequence[float]) -> DualProgram:
        """The dual at these values, one per set."""
        exponents = self.dual.exponent_matrix.copy()
        for i, slot in self.exponent_slots.items():
            exponents[slot] = values[i]
        coefficients = self.coefficients(np.array([values]))[0]
        return replace(self.dual, exponent_matrix=exponents,
                       term_coefficients=coefficients)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """(B, K) standardized term coefficients at each row of values (B, S)."""
        out = self.dual.term_coefficients[None].repeat(len(values), axis=0)
        for i, terms in self.coefficient_slots.items():
            out[:, terms] = values[:, i, None] / self.bounds[terms]
        return out

    def skeleton(self, values: Sequence[float], weights, base: float) -> _Skeleton:
        """The skeleton of dual feasible weights, with log dual value base,
        at these values, one per set."""
        if len(weights) != self.dual.term_count:
            raise ValueError(f"{len(weights)} weights for {self.dual.term_count} terms")
        slots = self.coefficient_slots
        weight = (sum(float(weights[k]) for k in terms) for terms in slots.values())
        return _Skeleton(base, tuple(weight), tuple(math.log(values[i]) for i in slots))

    def bound(
        self, values: Sequence[float], weights
    ) -> tuple[float, np.ndarray] | None:
        """The best log dual value over the given optimal weight vectors
        projected onto the equality system of the seed with these values,
        with its weights; None when no projection is dual feasible there."""
        seed = self.at(values)
        a, b = seed.equality_matrix, seed.equality_rhs[:, None]
        w = _project_onto_equalities(a, b, np.array(weights).T)  # one column each
        residual = np.abs(a @ w - b).max(axis=0)
        kept = w.T[(w >= 0.0).all(axis=0) & (residual <= FEASIBILITY_TOL)]
        bounds = ((log_dual_objective(seed, v)[0], v) for v in kept)
        return max(bounds, key=lambda pair: pair[0], default=None)


def _search(cg: ChoiceGp, table, coefficient_sets, template, evaluate) -> None:
    """Evaluate every expansion that may win or tie, one at a time.

    Each exponent assignment has a seed: its expansion at the smallest
    positive value of every coefficient set.  Seeds go in product order.  A
    seed is bounded first by the optimal weights of the seeds solved before
    it, projected onto its equality system by the call's template; it is
    solved only when that bound misses the margin, and skipped otherwise,
    with the projected weights as its skeleton.  Then every choice of its
    coefficient sets' distinct positive values is bounded by the
    assignment's skeleton and solved only when the bound misses the margin.
    Each solve is evaluate's batch of one, as the margin tightens after it.
    """
    choices = []  # per set: distinct values, each at its smallest pattern
    for i, cs in enumerate(cg.sets):
        first: dict[float, int] = {}
        for j in sorted(range(cs.size), key=lambda j: PATTERNS[cs.size][j]):
            first.setdefault(table[i][j], j)
        if i in coefficient_sets:
            first = dict(sorted(item for item in first.items() if item[0] > 0.0))
        choices.append(list(first.values()))
    skeletons: dict[Combo, _Skeleton] = {}  # by seed
    limit = math.inf  # log of the lowest optimal z so far, plus the margin

    def visit(seed: Combo, picks: Sequence[int]) -> SolveReport | None:
        """The expansion's report when it is solved to a positive optimum."""
        nonlocal limit
        combo = dict(zip(coefficient_sets, picks))
        log_values = [math.log(table[i][j]) for i, j in combo.items()]
        sk = skeletons.get(seed)
        if sk and sk.bound(log_values) > limit:
            return None
        pick = tuple(combo.get(i, j) for i, j in enumerate(seed))
        [(outcome, report)] = evaluate([pick])
        z = outcome.objective_value
        if outcome.status != Status.OPTIMAL.value or z <= 0.0:
            return None
        limit = min(limit, math.log(z) + _PRUNE_LOG_MARGIN)
        if seed not in skeletons:
            base, w = math.log(report.dual.objective_value), report.dual.weights
            skeletons[seed] = template.skeleton(outcome.values, w, base)
        return report

    firsts = (c[:1] if i in coefficient_sets else c for i, c in enumerate(choices))
    seeds = list(itertools.product(*firsts))
    optimal = []  # the weights of every seed solved to a positive optimum
    for seed in seeds:
        if optimal:
            values = [t[j] for t, j in zip(table, seed)]
            base, w = template.bound(values, optimal) or (-math.inf, None)
            if base > limit:
                skeletons[seed] = template.skeleton(values, w, base)
                continue
        report = visit(seed, [seed[i] for i in coefficient_sets])
        if report:
            optimal.append(report.dual.weights)
    for seed in seeds:
        for picks in itertools.product(*(choices[i] for i in coefficient_sets)):
            visit(seed, picks)


def checked_choice_gp(model: ChoiceGp | GpProblem) -> ChoiceGp:
    """as_choice_gp(model); raises GpDomainError when solve_choice cannot
    enumerate it: an invalid template, or more combinations than the cap."""
    cg = as_choice_gp(model)
    problems = validate_choice_gp(cg)
    if problems:
        raise GpDomainError("invalid template: " + "; ".join(problems))
    total = math.prod(cs.size for cs in cg.sets)
    if total > _COMBINATION_CAP:
        raise GpDomainError(
            f"{total} assignment combinations exceed the cap of {_COMBINATION_CAP}"
        )
    return cg


def solve_choice(
    model: ChoiceGp | GpProblem, *, keep_assignments: bool = False
) -> ChoiceSolveReport:
    """Enumerate all admissible bit patterns, solve each expansion, keep the best.

    The winner is the minimum-objective optimal expansion; objective values
    within 1e-9 relative are tied and resolved toward the lexicographically
    smallest concatenated bit string.  Expansions whose selected coefficients
    are non-positive are rejected and counted.  An expansion that ends
    ITERATION_LIMIT blocks the winner unless its dual value, a lower bound on
    its optimum, exceeds the winner's z beyond the tie window; then the
    status is ITERATION_LIMIT, with no choice and the report of the blocking
    expansion with the lowest dual value (then the smallest bit string).
    With no optimal expansion the status is the one every solved expansion
    shares, else INFEASIBLE.  A plain problem is a template with no sets
    (as_choice_gp): its one expansion is solved and reported as solve does.

    Pattern i selects candidate i, so the values come from a table built
    once.  The template's dual is compiled once (_Template); every
    expansion is solved on a program filled from it, the siblings that share
    an equality system as one batch (solver._solve_rows), and equal value
    tuples once, at their smallest pattern per set.  Expansions that weak
    duality proves can neither win nor tie are skipped unsolved (_search,
    _Skeleton, _Template.bound); keep_assignments solves them all, in one
    batch per system, as its table reports every z.  ``solved`` counts the
    non-rejected combinations, skipped ones included.
    """
    cg = checked_choice_gp(model)
    total = math.prod(cs.size for cs in cg.sets)
    names = [cs.name for cs in cg.sets]
    table = [
        tuple(selector_polynomial(cs, p) for p in PATTERNS[cs.size]) for cs in cg.sets
    ]
    coefficient_sets = [
        i for i, cs in enumerate(cg.sets) if cs.role is not Role.EXPONENT
    ]
    exponent_sets = [i for i, cs in enumerate(cg.sets) if cs.role is Role.EXPONENT]
    # an expansion is rejected exactly when a coefficient set selects v <= 0
    solved = math.prod(
        sum(v > 0.0 for v in values) if i in coefficient_sets else len(values)
        for i, values in enumerate(table)
    )
    template = _Template.of(cg)
    cache: dict[tuple[float, ...], Evaluated] = {}

    patterns = [PATTERNS[cs.size] for cs in cg.sets]

    def bits_of(combo: Combo) -> tuple[BitPattern, ...]:
        return tuple(map(tuple.__getitem__, patterns, combo))

    def evaluate(combos: Sequence[Combo]) -> list[Evaluated]:
        """The row and report of each combination's value tuple.  A tuple not
        yet cached is solved at its first combination here, in the batch of
        its exponent values, which fix its equality system (the table holds
        no -0.0: selector_polynomial adds to 0.0)."""
        tuples = [tuple(map(tuple.__getitem__, table, combo)) for combo in combos]
        systems: dict[tuple[float, ...], dict[tuple[float, ...], Combo]] = {}
        for combo, values in zip(combos, tuples):
            if values in cache:
                continue
            if all(values[i] > 0.0 for i in coefficient_sets):
                key = tuple(values[i] for i in exponent_sets)
                systems.setdefault(key, {}).setdefault(values, combo)
            else:
                row = AssignmentOutcome(bits_of(combo), values, "rejected", None)
                cache[values] = row, None
        for batch in systems.values():
            rows = np.array(list(batch))
            coefficients = template.coefficients(rows)
            reports = _solve_rows(template.at(rows[0]), coefficients)
            for (values, combo), report in zip(batch.items(), reports):
                # a row that is not OPTIMAL may carry f_0 at an infeasible x
                z = report.objective_value if report.status is Status.OPTIMAL else None
                row = AssignmentOutcome(bits_of(combo), values, report.status.value, z)
                cache[values] = row, report
        return [cache[values] for values in tuples]

    if keep_assignments:
        combos = list(itertools.product(*(range(cs.size) for cs in cg.sets)))
        rows = [  # each at its own bit patterns
            AssignmentOutcome(bits_of(combo), first.values, first.status,
                              first.objective_value)
            for combo, (first, _) in zip(combos, evaluate(combos))
        ]
    else:
        _search(cg, table, coefficient_sets, template, evaluate)
        rows = [first for first, _ in cache.values()]

    def bit_str(row: AssignmentOutcome) -> str:
        return "".join(str(b) for bits in row.bits for b in bits)

    best: tuple[float, str, AssignmentOutcome] | None = None
    for row in rows:
        z = row.objective_value
        if row.status != Status.OPTIMAL.value or z is None:
            continue
        tied = best and abs(z - best[0]) <= _TIE_WINDOW * max(abs(z), abs(best[0]))
        if best and not tied and not z < best[0]:
            continue
        if not best or not tied or bit_str(row) < best[1]:
            best = (z, bit_str(row), row)

    # a stalled expansion's dual value bounds its optimum from below (weak
    # duality); unless it clears the winner beyond the tie window, that
    # expansion may win, and the verdict is ITERATION_LIMIT
    ceiling = best[0] / (1.0 - _TIE_WINDOW) if best else math.inf
    blocking = [
        (cache[row.values][1].dual.objective_value, bit_str(row), row.values)
        for row in rows if row.status == Status.ITERATION_LIMIT.value
    ]
    blocking = [b for b in blocking if not b[0] > ceiling]
    kept, rejected = tuple(rows) if keep_assignments else None, total - solved
    chosen = None, None
    if blocking:
        status, report = Status.ITERATION_LIMIT, cache[min(blocking)[2]][1]
    elif best:
        status, row = Status.OPTIMAL, best[2]
        report = cache[row.values][1]
        chosen = tuple(zip(names, row.bits)), tuple(zip(names, row.values))
    else:  # every solved expansion is INFEASIBLE or UNBOUNDED
        reports = [report for _, report in cache.values() if report is not None]
        statuses = {report.status for report in reports}
        status = statuses.pop() if len(statuses) == 1 else Status.INFEASIBLE
        report = reports[0] if len(reports) == 1 else None  # as a plain solve
    return ChoiceSolveReport(status, report, *chosen, solved, rejected, kept)
