"""Discrete candidate selection through binary selector polynomials.

A candidate set of size k (1 <= k <= 8) is addressed by two bits for k <= 4
and three bits otherwise.  Each candidate owns one bit pattern; the selector
polynomial sums candidate * indicator(pattern) products, so every admissible
pattern resolves to exactly one candidate.  Patterns excluded for
k in {3, 5, 6, 7} are exactly those violating the published consistency
constraints for that size; for k = 4 and k = 8 the published constraint would
make the last candidate unreachable and is dropped, so all patterns are
admissible.

solve_choice enumerates the expansions of a template.  The pruned search
solves them in two solver batches: every exponent assignment's seed, then
every expansion that weak duality does not prove can neither win nor tie.
Keep-all solves every admissible combination in one solver batch and keeps
its table as arrays from the assignment grid to the certificate: the grid of selected values, the rejection mask, the grouping
into equality systems and each row's status and z are arrays, and a
per-row report is built only for the expansion the result reports.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .certificate import GAP_TOL
from .dual import DualProgram, build_dual
from .posynomial import GpDomainError, GpProblem, make_problem, standardize
from .solver import SolveReport, Status
from .solver import _CODE, _STATUSES, _Reports, _solve_rows

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


def _selected_values(cset: CandidateSet) -> tuple[float, ...]:
    """selector_polynomial at each admissible pattern in order, bit for bit:
    pattern i selects candidate i, and + 0.0 reads -0.0 as 0.0."""
    return tuple(v + 0.0 for v in cset.candidates)


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
    non-positive value (no posynomial exists for that choice), and
    GpDomainError when a constraint coefficient over its bound leaves the
    doubles (standardize could not divide it).
    """
    return _expanded(cg, resolve_choice(cg, choice))


def _expanded(cg: ChoiceGp, values: Mapping[str, float]) -> GpProblem:
    """expand at the selected value of every set, by name."""

    def build_terms(templates: tuple[TermTemplate, ...], where: str, bound):
        out, scaled = [], bound is not None and 0.0 < bound < math.inf
        for t, tpl in enumerate(templates):
            coeff = _resolve(tpl.coefficient, values)
            if coeff <= 0.0:
                raise ExpansionRejected(
                    f"{where} term {t}: coefficient resolves to {coeff}"
                )
            if scaled and not 0.0 < coeff / bound < math.inf:
                raise GpDomainError(f"{where} term {t}: coefficient {coeff} over "
                                    f"bound {bound} leaves the doubles")
            exps = tuple(_resolve(e, values) for e in tpl.exponents)
            out.append((coeff, exps))
        return out

    posys = [(build_terms(ts, where, bound), bound) for where, ts, bound in _sections(cg)]
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
    candidates = {cs.name: cs.candidates for cs in cg.sets}
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
        scaled = bound is not None and 0.0 < bound < math.inf  # standardize divides by it
        for t, tpl in enumerate(templates):
            if len(tpl.exponents) != n:
                out.append(f"{where} term {t}: {len(tpl.exponents)} exponents "
                           f"for {n} variables")
            check_slot(tpl.coefficient, f"{where} term {t}", coefficient=True)
            for j, e in enumerate(tpl.exponents):
                check_slot(e, f"{where} term {t} exponent {j}", coefficient=False)
            slot = tpl.coefficient
            for v in candidates.get(slot.name, ()) if isinstance(slot, SetRef) else (slot,):
                if scaled and 0.0 < v < math.inf and not 0.0 < v / bound < math.inf:
                    out.append(f"{where} term {t}: coefficient {v} over bound {bound} "
                               "leaves the doubles")
        if bound is not None and not scaled:
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
# at most GAP_TOL, and D is at least any bound B: a dual value at weights
# feasible for the expansion's equality system, such as its seed's optimal
# weights (_Skeleton).  So z >= B / (1 + GAP_TOL).  Skipping needs that floor
# beyond the tie window above the incumbent, z > incumbent / (1 - _TIE_WINDOW):
# then the expansion can neither win nor tie.
_PRUNE_LOG_MARGIN = math.log1p(GAP_TOL) - math.log1p(-_TIE_WINDOW)

Combo = tuple[int, ...]  # one candidate index per set, in declared order
# an expansion's status value, its z when OPTIMAL, and its batch and row there
Evaluated = tuple[str, float | None, _Reports, int]


@dataclass(frozen=True)
class _Skeleton:
    """Dual feasible weights of one expansion, compiled to bound its siblings.

    Exponent values fix the dual's equality matrix, so weights w feasible for
    one expansion are feasible for every sibling with the same exponent
    values, such as the expansion's optimal weights.  At w the log dual is
    linear in log c, and a coefficient set scales all of its terms alike, so
    a sibling with coefficient values v' has log dual
    base + sum_s W_s (log v'_s - log v_s) there, W_s the weight on set s's
    terms: by weak duality an O(K) lower bound on its optimum.  _Template.skeleton builds each one.
    """

    base: float  # log dual value at w of the expansion itself
    weight: tuple[float, ...]  # W_s >= 0, one per coefficient set
    log_value: tuple[float, ...]  # log v_s, one per coefficient set

    def bound(self, log_values) -> float | np.ndarray:
        """The bound at the coefficient sets' log values (C,), or at each
        row of (P, C)."""
        return self.base + np.subtract(log_values, self.log_value) @ self.weight


@dataclass(frozen=True)
class _Template:
    """A template's dual, compiled once, whose set slots take any values.

    Exponent values fix the equality system; coefficient values fix the
    standardized coefficients, a constraint term's over its bound as in
    standardize, of one expansion (at) or of a batch of siblings
    (coefficients).  A solved expansion's weights compile to the skeleton
    that bounds its siblings (skeleton).
    """

    dual: DualProgram  # with every slot at a placeholder; at fills a copy of the slots
    exponent_slots: dict[int, tuple[list[int], list[int]]]  # set: terms, variables
    coefficient_slots: dict[int, list[int]]  # set: terms, in set order
    bounds: np.ndarray  # per term, its constraint's bound; 1.0 in the objective

    @classmethod
    def of(cls, cg: ChoiceGp) -> _Template:
        index = {cs.name: i for i, cs in enumerate(cg.sets)}
        # each set's slots at its smallest positive candidate, which
        # validation admits over every bound (at overwrites the slots)
        placeholders = {cs.name: min((v for v in cs.candidates if v > 0.0), default=1.0)
                        for cs in cg.sets}
        dual = build_dual(standardize(_expanded(cg, placeholders)))
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


def _search(
    cg: ChoiceGp, table, coefficient_sets, template, evaluate
) -> list[AssignmentOutcome]:
    """Evaluate every expansion that may win or tie, in two batches; the row
    of each, at the bit patterns it is first evaluated at.

    Each exponent assignment has a seed: its expansion at the smallest
    positive value of every coefficient set.  The first batch holds every
    seed, in product order.  A pick is one choice of the coefficient sets'
    distinct positive values for a seed; a seed solved to a positive
    optimum bounds its picks by its skeleton, and a pick whose bound
    exceeds the lowest seed z by the margin is skipped.  The second batch
    holds the rest, every pick of a seed with no skeleton included.  A
    pick's coefficients are at least its seed's, so its optimum is at least
    its seed's: solved one at a time, the picks of a seed with a skeleton
    could lower the limit by a gap's rounding at most.
    """
    choices = []  # per set: distinct values, each at its smallest pattern
    for i, cs in enumerate(cg.sets):
        first: dict[float, int] = {}
        for j in sorted(range(cs.size), key=lambda j: PATTERNS[cs.size][j]):
            first.setdefault(table[i][j], j)
        if i in coefficient_sets:
            first = dict(sorted(item for item in first.items() if item[0] > 0.0))
        choices.append(list(first.values()))
    rows: dict[tuple[float, ...], AssignmentOutcome] = {}  # by value tuple
    patterns = [PATTERNS[cs.size] for cs in cg.sets]

    def solve(picks: list[Combo]) -> list[Evaluated]:
        values = [tuple(map(tuple.__getitem__, table, pick)) for pick in picks]
        out = evaluate(values)
        for pick, v, (status, z, _, _) in zip(picks, values, out):
            if v not in rows:
                rows[v] = AssignmentOutcome(tuple(map(tuple.__getitem__, patterns, pick)),
                                            v, status, z)
        return out

    firsts = (c[:1] if i in coefficient_sets else c for i, c in enumerate(choices))
    seeds = list(itertools.product(*firsts))
    skeletons: dict[Combo, _Skeleton] = {}  # by seed
    limit = math.inf  # log of the lowest optimal seed z, plus the margin
    for seed, (_, z, batch, k) in zip(seeds, solve(seeds)):
        if z is not None and z > 0.0:  # z is set on OPTIMAL rows alone
            limit = min(limit, math.log(z) + _PRUNE_LOG_MARGIN)
            base, w = math.log(batch.duals.objective_value.item(k)), batch.duals.weights[k]
            skeletons[seed] = template.skeleton([t[j] for t, j in zip(table, seed)], w, base)
    # each pick's candidate of every coefficient set (C, P), in product order
    counts = [len(choices[i]) for i in coefficient_sets]
    shape = len(counts), math.prod(counts)
    grid = np.indices(counts).reshape(shape)
    for c, i in enumerate(coefficient_sets):
        grid[c] = np.array(choices[i])[grid[c]]
    logs = np.log([np.array(table[i])[p] for i, p in zip(coefficient_sets, grid)])
    logs = logs.reshape(shape).T  # (P, C)
    picks = []
    for seed in seeds:
        sk = skeletons.get(seed)
        keep = ~(sk.bound(logs) > limit) if sk else np.ones(shape[1], dtype=bool)
        kept = np.array(seed)[:, None].repeat(keep.sum(), axis=1)
        kept[coefficient_sets] = grid[:, keep]
        picks += map(tuple, kept.T.tolist())
    solve(picks)
    return list(rows.values())


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


def _keep_all(table, coefficient_sets, exponent_sets, template):
    """Every combination of the value table at its own bit patterns, in
    product order: the rows, z (nan where not OPTIMAL), the stalled rows, and
    the reports of one _solve_rows batch with each row's place in it (-1
    where rejected).

    A combination is rejected when a coefficient set selects v <= 0.  Equal
    value tuples are solved once; the tuples that share exponent values,
    which fix the equality system, are one system, and systems and their
    tuples enter the batch in the order they are first seen.  Tuples are
    told apart by integer codes: per set, each candidate stands for the
    first with its value (the table holds no -0.0)."""
    sizes = [len(values) for values in table]
    total = math.prod(sizes)
    pick = np.indices(sizes).reshape(len(sizes), total)  # each set's candidate
    grid = np.array([np.array(values)[p] for values, p in zip(table, pick)])
    same = [np.array([values.index(v) for v in values])[p] for values, p in zip(table, pick)]
    live = np.flatnonzero(~(grid[coefficient_sets] <= 0.0).any(axis=0))

    def first_seen(sets):  # per live row, the first live row of its values in sets
        code = np.zeros(total, dtype=int)
        for i in sets:
            code = code * sizes[i] + same[i]
        _, first, inverse = np.unique(code[live], return_index=True, return_inverse=True)
        return first[inverse]

    status, z, at = np.full(total, len(Status)), np.full(total, np.nan), np.full(total, -1)
    batch = None  # no row is live
    if live.size:
        tuples, systems = first_seen(range(len(sizes))), first_seen(exponent_sets)
        seen = np.flatnonzero(tuples == np.arange(live.size))
        order = seen[np.lexsort((seen, systems[seen]))]  # the batch's rows, in order
        at[live[order]] = np.arange(order.size)
        at[live] = at[live[tuples]]
        values = grid.reshape(len(sizes), total)[:, live[order]].T
        groups = np.split(values, np.flatnonzero(np.diff(systems[order])) + 1)
        batch = _solve_rows([(template.at(g[0]), template.coefficients(g)) for g in groups])
        status[live], z[live] = batch.status[at[live]], batch.optimum()[at[live]]
    objective = z.astype(object)
    objective[np.isnan(z)] = None
    labels = np.array([*(st.value for st in _STATUSES), "rejected"], dtype=object)[status]
    patterns = itertools.product(*(PATTERNS[size] for size in sizes))
    rows = list(map(AssignmentOutcome, patterns, itertools.product(*table), labels.tolist(),
                    objective.tolist()))
    stalled = np.flatnonzero(status == _CODE[Status.ITERATION_LIMIT]).tolist()
    return rows, z, stalled, batch, at


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
    expansion is solved on a program filled from it (solver._solve_rows),
    and equal value tuples once, at their smallest pattern per set.  The
    pruned search makes two solver calls, one system per value tuple: the
    seeds, then the expansions that they do not prove, by weak duality, can
    neither win nor tie; the rest are skipped unsolved (_search,
    _Skeleton).  keep_assignments solves them all in one call, the siblings
    that share an equality system as one system (the systems of a template
    share one block layout), whose fast pass is one batch for all systems
    of one nullity, as its table reports every z.  Keep-all holds its table
    as arrays (_keep_all): the value grid, the rejection mask, the grouping
    into systems and each row's status and z.  Either way each row's status
    and z are read from its batch's columns, and a report is built for the
    reported expansion alone.
    ``solved`` counts the non-rejected combinations, skipped ones included.
    """
    cg = checked_choice_gp(model)
    total = math.prod(cs.size for cs in cg.sets)
    names = [cs.name for cs in cg.sets]
    table = [_selected_values(cs) for cs in cg.sets]
    coefficient_sets = [
        i for i, cs in enumerate(cg.sets) if cs.role is not Role.EXPONENT
    ]
    exponent_sets = [i for i, cs in enumerate(cg.sets) if cs.role is Role.EXPONENT]
    # an expansion is rejected exactly when a coefficient set selects v <= 0
    solved = math.prod(
        sum(v > 0.0 for v in values) if i in coefficient_sets else len(values)
        for i, values in enumerate(table)
    )
    template = _Template.of(cg) if solved else None  # unread when all are rejected
    if keep_assignments:  # each combination at its own bit patterns
        rows, z, stalled, batch, at = _keep_all(table, coefficient_sets, exponent_sets,
                                                template)

        def read(i: int) -> SolveReport:  # the report of rows[i]
            return batch[at[i]]

        def dual_value(i: int) -> float:
            return batch.duals.objective_value.item(at[i])
    else:
        cache: dict[tuple[float, ...], Evaluated] = {}

        def evaluate(picks: list[tuple[float, ...]]) -> list[Evaluated]:
            """The expansion at each value tuple; the tuples not seen before
            are solved as one batch, one system per tuple."""
            new = [values for values in dict.fromkeys(picks) if values not in cache]
            if new:
                batch = _solve_rows([(template.at(r), template.coefficients(r[None]))
                                     for r in np.array(new)])
                z = batch.optimum().tolist()  # nan where not OPTIMAL
                for k, values in enumerate(new):
                    status = _STATUSES[batch.status.item(k)].value
                    cache[values] = status, None if math.isnan(z[k]) else z[k], batch, k
            return [cache[values] for values in picks]

        rows = _search(cg, table, coefficient_sets, template, evaluate)
        z = np.array([math.nan if r.objective_value is None else r.objective_value
                      for r in rows])
        stalled = [i for i, r in enumerate(rows) if r.status == Status.ITERATION_LIMIT.value]

        def read(i: int) -> SolveReport:
            _, _, batch, k = cache[rows[i].values]
            return batch[k]

        def dual_value(i: int) -> float:
            _, _, batch, k = cache[rows[i].values]
            return batch.duals.objective_value.item(k)

    # bits compare as their concatenated bit strings do: every row has the
    # same pattern length per set.  The scan takes the OPTIMAL rows in order
    # (z >= 0; nan elsewhere), and a row moves the best only when its z is
    # at most best / (1 - window).  After the row with the lowest z so far the
    # best is at most that z / (1 - window), and each later move raises it by
    # that factor at most, so a row whose z exceeds the lowest z before it
    # times (1 - window)^-(N + 2) leaves the best as it is, and is skipped
    best: tuple[float, BitPattern, int] | None = None
    lowest = np.fmin.accumulate(np.concatenate(([math.inf], z)))[:-1]
    zs = z.tolist()
    for i in (z <= lowest * (1.0 - _TIE_WINDOW) ** -(len(z) + 2)).nonzero()[0].tolist():
        tied = best and abs(zs[i] - best[0]) <= _TIE_WINDOW * max(abs(zs[i]), abs(best[0]))
        if best and not tied and not zs[i] < best[0]:
            continue
        if not best or not tied or rows[i].bits < best[1]:
            best = (zs[i], rows[i].bits, i)

    # a stalled expansion's dual value bounds its optimum from below (weak
    # duality); unless it clears the winner beyond the tie window, that
    # expansion may win, and the verdict is ITERATION_LIMIT
    ceiling = best[0] / (1.0 - _TIE_WINDOW) if best else math.inf
    blocking = [(dual_value(i), rows[i].bits, i) for i in stalled]
    blocking = [b for b in blocking if not b[0] > ceiling]
    kept, rejected = tuple(rows) if keep_assignments else None, total - solved
    chosen = None, None
    if blocking:
        status, report = Status.ITERATION_LIMIT, read(min(blocking)[2])
    elif best:
        status, row, report = Status.OPTIMAL, rows[best[2]], read(best[2])
        chosen = tuple(zip(names, row.bits)), tuple(zip(names, row.values))
    else:  # every solved expansion is INFEASIBLE or UNBOUNDED
        live = [i for i, row in enumerate(rows) if row.status != "rejected"]
        statuses = {rows[i].status for i in live}
        status = Status(statuses.pop()) if len(statuses) == 1 else Status.INFEASIBLE
        # as a plain solve
        report = read(live[0]) if len({rows[i].values for i in live}) == 1 else None
    return ChoiceSolveReport(status, report, *chosen, solved, rejected, kept)
