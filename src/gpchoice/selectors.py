"""Discrete candidate selection through binary selector polynomials.

A candidate set of size k (1 <= k <= 8) is addressed by two bits for k <= 4
and three bits otherwise.  Each candidate owns one bit pattern; the selector
polynomial sums candidate * indicator(pattern) products, so every admissible
pattern resolves to exactly one candidate.  Patterns excluded for
k in {3, 5, 6, 7} are exactly those violating the published consistency
constraints for that size; for k = 4 and k = 8 the published constraint would
make the last candidate unreachable and is dropped, so all patterns are
admissible.

solve_choice enumerates the expansions of a template.  An expansion depends
on its selected values alone, so both modes work on one array table of the
distinct value tuples, each with its status, z and place in a solver batch.
Keep-all solves every tuple in one solver batch and expands the table into
one row per combination.  The pruned search solves them in two solver
batches: every exponent assignment's seed, then every tuple that weak
duality does not prove can neither win nor tie.  A report is built only for
the expansion the result reports.

What depends on the template alone, its validation, the table, the
template's dual, one dual program per equality system and the seeds' solver
batch, is compiled once per model object and kept on it (ChoiceGp._compiled,
read-only; a plain problem keeps its view, GpProblem._choice_gp) where the
model can be hashed; each call checks the combination cap and solves.  Each
program keeps its system's solver start, and the seeds' batch the solver
arrays its first solve builds (solver._Batch), so a model computes each
start, and prepares its seeds, once, however often it is solved.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .certificate import GAP_TOL
from .dual import DualProgram, build_dual
from .posynomial import GpDomainError, GpProblem, make_problem, standardize
from .solver import SolveReport, Status
from .solver import _CODE, _STATUSES, _Batch, _Reports, _solve_rows

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

    @cached_property
    def _compiled(self) -> _Compiled:
        """solve_choice's compile of this template, kept as long as the model
        is; solve_choice makes it only where hash(self) succeeds, and once it
        is kept reads it without hashing again."""
        return _Compiled.of(self)

    def __getstate__(self) -> dict:
        # a copy or an unpickled model compiles its own
        return {k: v for k, v in vars(self).items() if k != "_compiled"}


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
    the all-ones candidate unreachable and are dropped.  Raises GpDomainError
    unless bits has k's pattern length, 2 for k <= 4 and 3 otherwise, each
    bit 0 or 1.
    """
    if not 1 <= k <= 8:
        raise GpDomainError(f"unsupported candidate count {k}")
    z = [int(b) for b in bits if b in (0, 1)]
    if len(z) != len(bits) or len(z) != len(PATTERNS[k][0]):
        raise GpDomainError(f"bits {tuple(bits)!r}: {k} candidates take "
                            f"{len(PATTERNS[k][0])} bits, each 0 or 1")
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
# weights (_Template.bound).  So z >= B / (1 + GAP_TOL).  Skipping needs that
# floor beyond the tie window above the incumbent, z > incumbent / (1 - _TIE_WINDOW):
# then the expansion can neither win nor tie.
_PRUNE_LOG_MARGIN = math.log1p(GAP_TOL) - math.log1p(-_TIE_WINDOW)


@dataclass(frozen=True)
class _Template:
    """A template's dual, compiled once, whose set slots take any values.

    Exponent values fix the equality system; coefficient values fix the
    standardized coefficients, a constraint term's over its bound as in
    standardize, of one expansion (at) or of a batch of siblings
    (coefficients).  A solved expansion's optimal weights bound the optimum
    of each sibling with its exponent values (bound).
    """

    dual: DualProgram  # with every slot at a placeholder; at fills a copy of the slots
    exponent_slots: np.ndarray  # (3, E): each slot's term, variable and set
    coefficient_slots: np.ndarray  # (2, C): each slot's term and set, in term order
    bounds: np.ndarray  # per term, its constraint's bound; 1.0 in the objective

    @classmethod
    def of(cls, cg: ChoiceGp) -> _Template:
        index = {cs.name: i for i, cs in enumerate(cg.sets)}
        # each set's slots at its smallest positive candidate, which
        # validation admits over every bound (at overwrites the slots)
        placeholders = {cs.name: min((v for v in cs.candidates if v > 0.0), default=1.0)
                        for cs in cg.sets}
        dual = build_dual(standardize(_expanded(cg, placeholders)))
        templates = [t for _, ts, _ in _sections(cg) for t in ts]
        exponents = [(k, j, index[e.name]) for k, tpl in enumerate(templates)
                     for j, e in enumerate(tpl.exponents) if isinstance(e, SetRef)]
        coefficients = [(k, index[tpl.coefficient.name]) for k, tpl in enumerate(templates)
                        if isinstance(tpl.coefficient, SetRef)]
        bounds = np.array([1.0, *(b for _, b in cg.constraints)])[dual.block_index]
        out = cls(dual, np.array(exponents, dtype=int).reshape(-1, 3).T,
                  np.array(coefficients, dtype=int).reshape(-1, 2).T, bounds)
        # a compiled template is shared by every call on its model
        for arr in (out.exponent_slots, out.coefficient_slots, out.bounds):
            arr.flags.writeable = False
        return out

    def at(self, values: Sequence[float]) -> DualProgram:
        """A new program: the dual at these values, one per set."""
        exponents = self.dual.exponent_matrix.copy()
        terms, variables, sets = self.exponent_slots
        exponents[terms, variables] = np.asarray(values, dtype=float)[sets]
        return replace(self.dual, exponent_matrix=exponents,
                       term_coefficients=self.coefficients(np.array([values]))[0])

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """(B, K) standardized term coefficients at each row of values (B, S)."""
        out = self.dual.term_coefficients[None].repeat(len(values), axis=0)
        terms, sets = self.coefficient_slots
        out[:, terms] = values[:, sets] / self.bounds[terms]
        return out

    def bound(self, weights: np.ndarray, log_duals: np.ndarray, values: np.ndarray,
              siblings: np.ndarray, seed: np.ndarray) -> np.ndarray:
        """Each sibling's lower bound on its log optimum, from a solved
        expansion with its exponent values, its seed: the seeds' optimal
        weights (Q, K), log dual values (Q,) and values (Q, S), and each
        sibling's values (P, S) and seed, a row of those (P,).

        Exponent values fix the equality matrix, so the weights are feasible
        for the sibling too.  At fixed weights the log dual is linear in
        log c, and a coefficient set scales all of its terms alike, so the
        sibling's log dual there is log_dual + sum_s W_s (log v'_s - log v_s),
        W_s the weight on set s's terms, summed once per seed: by weak
        duality a lower bound.
        """
        if weights.shape[-1] != self.dual.term_count:
            raise ValueError(f"{weights.shape[-1]} weights for {self.dual.term_count} terms")
        terms, sets = self.coefficient_slots
        weight = np.zeros((values.shape[1], len(weights)))  # W_s by set, per seed
        for k, s in zip(terms.tolist(), sets.tolist()):  # in slot order, as np.add.at (slower)
            weight[s] += weights[:, k]
        sets = np.flatnonzero(np.bincount(sets))  # np.unique, without numpy.ma
        steps = np.log(siblings.T[sets] / values.T[sets].take(seed, axis=1))
        return log_duals[seed] + (steps * weight[sets].take(seed, axis=1)).sum(axis=0)


def checked_choice_gp(model: ChoiceGp | GpProblem) -> ChoiceGp:
    """as_choice_gp(model); raises GpDomainError when solve_choice cannot
    enumerate it: an invalid template, or more combinations than the cap."""
    cg = as_choice_gp(model)
    problems = validate_choice_gp(cg)
    if problems:
        raise GpDomainError("invalid template: " + "; ".join(problems))
    _check_cap(math.prod(cs.size for cs in cg.sets))
    return cg


def _check_cap(total: int) -> None:
    if total > _COMBINATION_CAP:
        raise GpDomainError(
            f"{total} assignment combinations exceed the cap of {_COMBINATION_CAP}"
        )


# the tuples of a _solve_rows batch in the order of its rows, and the batch,
# (program, coefficient rows) per system
_Tuples = tuple[np.ndarray, _Batch]


@dataclass(frozen=True)
class _Compiled:
    """What solve_choice reads of a valid template alone, its arrays
    read-only: the table of distinct value tuples, the template's dual, the
    pruned search's seeds with their solver batch, and one program per
    equality system, the seed's, on which every call solves that system's
    tuples, so that the program's start is computed once.  The seeds' batch
    (solver._Batch) builds its solver arrays on the model's first call and
    keeps them for every later one; keep-all's batch and a second pruned
    batch, which can be far larger, are built per call and dropped.  Per
    set: the value at each pattern, its distinct values (a coefficient set's
    positive ones alone) in the order of their first candidates, each one's
    smallest pattern, and each candidate's position among them (-1:
    rejected)."""

    names: tuple[str, ...]
    candidates: tuple[tuple[float, ...], ...]  # per set, its value at each pattern
    sizes: tuple[int, ...]  # per set, its distinct values
    smallest: tuple[tuple[BitPattern, ...], ...]
    position: tuple[tuple[int, ...], ...]
    pick: np.ndarray  # (S, count): each tuple's value positions
    grid: np.ndarray  # (count, S): each tuple's values
    system: np.ndarray  # (count,): each tuple's exponent positions, as one code
    # None where every tuple is rejected (count 0), as is all that follows
    template: _Template | None
    seeds: np.ndarray | None  # each system's tuple at every coefficient set's smallest value
    seed: np.ndarray | None  # (count,): each tuple's seed
    programs: tuple[DualProgram, ...] | None  # per system code, its seed's program
    seed_batch: _Tuples | None  # batch(seeds), its solver arrays built on its first solve

    @classmethod
    def of(cls, cg: ChoiceGp) -> _Compiled:
        checked_choice_gp(cg)
        candidates = tuple(_selected_values(cs) for cs in cg.sets)
        values, smallest, position = [], [], []
        for cs, table in zip(cg.sets, candidates):
            values.append([v for v in dict.fromkeys(table)
                           if v > 0.0 or cs.role is Role.EXPONENT])
            position.append(tuple(values[-1].index(v) if v in values[-1] else -1
                                  for v in table))
            first: dict[float, BitPattern] = {}  # each value's smallest pattern
            for pattern, v in sorted(zip(PATTERNS[cs.size], table)):
                first.setdefault(v, pattern)
            smallest.append(tuple(first[v] for v in values[-1]))
        sizes = [len(v) for v in values]
        count = math.prod(sizes)
        pick = np.indices(sizes).reshape(len(sizes), count)
        offsets = np.array(list(itertools.accumulate(sizes, initial=0))[:-1], dtype=int)
        grid = np.array([v for vs in values for v in vs])[pick.T + offsets]
        system = np.zeros(count, dtype=int)
        for i, cs in enumerate(cg.sets):
            if cs.role is Role.EXPONENT:
                system = system * sizes[i] + pick[i]
        template = seeds = seed = programs = None
        if count:
            template = _Template.of(cg)
            coefficient_sets = [i for i, cs in enumerate(cg.sets) if cs.role is not Role.EXPONENT]
            lowest = [values[i].index(min(values[i])) for i in coefficient_sets]
            seeds = (pick[coefficient_sets].T == lowest).all(axis=1).nonzero()[0]
            seed = seeds[system]  # ascending, the seeds come in system order
            seeds.flags.writeable = seed.flags.writeable = False
            programs = tuple(map(template.at, grid[seeds]))
        for arr in (pick, grid, system):
            arr.flags.writeable = False
        out = cls(tuple(cs.name for cs in cg.sets), candidates, tuple(sizes),
                  tuple(smallest), tuple(position), pick, grid, system, template, seeds,
                  seed, programs, None)
        return replace(out, seed_batch=out.batch(seeds)) if count else out

    def batch(self, tuples: np.ndarray) -> _Tuples:
        """These tuples as one _solve_rows batch (solver._Batch): the tuples
        that share exponent values, which fix the equality system, are one
        system, on that system's program, systems in the order first seen."""
        systems: dict[int, list[int]] = {}
        for t, code in zip(tuples.tolist(), self.system[tuples].tolist()):
            systems.setdefault(code, []).append(t)
        batch = []
        for code, ts in systems.items():
            rows = self.template.coefficients(self.grid[ts])
            rows.flags.writeable = False
            batch.append((self.programs[code], rows))
        order = np.array([t for ts in systems.values() for t in ts])
        order.flags.writeable = False
        return order, _Batch(batch)


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

    An expansion depends on its value tuple alone, so both modes work on
    one table of the distinct value tuples: per set its distinct values (a
    coefficient set's positive ones alone) in the order of their first
    candidates, so the tuples, in product order, come in the order a loop
    over the combinations first sees them.  Each tuple stands at the
    smallest pattern per set among its values' candidates, and holds its
    status, z and place in a solver batch.  The template is compiled once
    per model object (_Compiled, kept as ChoiceGp._compiled, a plain
    problem's on its view, GpProblem._choice_gp, where the model can be
    hashed, else made afresh for the call; a call finds a kept compile
    before it hashes the model): validation, the table, the template's dual
    (_Template), one program per equality system, which keeps that system's
    start, and the seeds' solver batch, which keeps the solver arrays its
    first solve builds.  Each call checks the combination cap, solves its
    batches and certifies every row.  A call of run solves tuples as one
    _solve_rows batch: the tuples that share exponent values, which fix the
    equality system, are one system, solved on the compile's program for
    it.  keep_assignments runs every
    tuple, and expands the table into one row per combination at its own
    bit patterns.  The pruned search runs the seeds, each system's tuple at
    the smallest value of every coefficient set, then every tuple that the
    bound from its seed's optimal weights (_Template.bound), computed for
    all tuples at once, does not prove can neither win nor tie; the rest
    are skipped unsolved.  A report is built for the reported
    expansion alone.  ``solved`` counts the non-rejected combinations,
    skipped ones included.
    """
    # a compile kept on the model, or on a plain problem's view of it: the
    # model could be hashed when it compiled, and its frozen fields are as then
    table = vars(vars(model).get("_choice_gp", model)).get("_compiled")
    if table is None:
        try:
            hash(model)
        except TypeError:  # a field that can change between calls: compiled for this call
            table = _Compiled.of(as_choice_gp(model))
        else:  # compiled now, and kept as above
            cg = model._choice_gp if isinstance(model, GpProblem) else as_choice_gp(model)
            table = cg._compiled
    total = math.prod(map(len, table.candidates))
    _check_cap(total)  # per call: the cap may have fallen since the compile
    names, smallest, pick, grid = table.names, table.smallest, table.pick, table.grid
    count = len(grid)
    codes, batch, row = np.full((3, count), -1)  # status code, -1 while unsolved
    z = np.full(count, math.nan)  # nan where not OPTIMAL
    reports: list[_Reports] = []

    def run(tuples: np.ndarray, systems: _Batch) -> None:
        """Solve a batch of the table (_Compiled.batch) in one _solve_rows call."""
        out = _solve_rows(systems)
        codes[tuples], z[tuples] = out.status, out.optimum()
        batch[tuples], row[tuples] = len(reports), np.arange(len(tuples))
        reports.append(out)

    if count and keep_assignments:
        run(*table.batch(np.arange(count)))
    elif count:
        run(*table.seed_batch)
        # a tuple's coefficients are at least its seed's, so its optimum is
        # at least its seed's (up to a gap's rounding): the seeds set the
        # limit.  A seed solved to a positive optimum bounds its system's
        # tuples.
        seeds, seed = table.seeds, table.seed
        live = seeds[z[seeds] > 0.0]
        bounded = (z[seed] > 0.0).nonzero()[0]
        unsolved = codes < 0
        if len(bounded):
            duals = reports[0].duals
            bound = table.template.bound(duals.weights[row[live]],
                                         np.log(duals.objective_value[row[live]]),
                                         grid[live], grid[bounded],
                                         np.searchsorted(live, seed[bounded]))
            unsolved[bounded[bound > math.log(z[live].min()) + _PRUNE_LOG_MARGIN]] = False
        if unsolved.any():
            run(*table.batch(unsolved.nonzero()[0]))

    def bits(t: int) -> tuple[BitPattern, ...]:
        return tuple(map(tuple.__getitem__, smallest, pick[:, t].tolist()))

    def read(t: int) -> SolveReport:
        return reports[batch[t]][row[t]]

    # bits compare as their concatenated bit strings do: every tuple has the
    # same pattern length per set.  The scan takes the OPTIMAL tuples in order
    # (z >= 0; nan elsewhere), and a tuple moves the best only when its z is
    # at most best / (1 - window).  After the tuple with the lowest z so far
    # the best is at most that z / (1 - window), and each later move raises it
    # by that factor at most, so a tuple whose z exceeds the lowest z before
    # it times (1 - window)^-(N + 2) leaves the best as it is, and is skipped
    best: tuple[float, tuple[BitPattern, ...], int] | None = None
    lowest = np.fmin.accumulate(np.concatenate(([math.inf], z)))[:-1]
    zs = z.tolist()
    for t in (z <= lowest * (1.0 - _TIE_WINDOW) ** -(count + 2)).nonzero()[0].tolist():
        tied = best and abs(zs[t] - best[0]) <= _TIE_WINDOW * max(abs(zs[t]), abs(best[0]))
        if best and not tied and not zs[t] < best[0]:
            continue
        if not best or not tied or bits(t) < best[1]:
            best = (zs[t], bits(t), t)

    # a stalled expansion's dual value bounds its optimum from below (weak
    # duality); unless it clears the winner beyond the tie window, that
    # expansion may win, and the verdict is ITERATION_LIMIT
    ceiling = best[0] / (1.0 - _TIE_WINDOW) if best else math.inf
    stalled = (codes == _CODE[Status.ITERATION_LIMIT]).nonzero()[0].tolist()
    blocking = [(reports[batch[t]].duals.objective_value.item(row[t]), bits(t), t)
                for t in stalled]
    blocking = [b for b in blocking if not b[0] > ceiling]
    chosen = None, None
    if blocking:
        status, report = Status.ITERATION_LIMIT, read(min(blocking)[2])
    elif best:
        status, report = Status.OPTIMAL, read(best[2])
        chosen = tuple(zip(names, best[1])), tuple(zip(names, grid[best[2]].tolist()))
    else:  # every solved expansion is INFEASIBLE or UNBOUNDED
        statuses = set(codes[codes >= 0].tolist())
        status = _STATUSES[statuses.pop()] if len(statuses) == 1 else Status.INFEASIBLE
        report = read(0) if count == 1 else None  # as a plain solve
    solved = math.prod(sum(k >= 0 for k in at) for at in table.position)
    kept = None
    if keep_assignments:  # each combination, in product order, reads its tuple
        candidates = table.candidates
        combos = np.indices(list(map(len, candidates))).reshape(len(candidates), total)
        tuple_of, live = np.zeros(total, dtype=int), np.ones(total, dtype=bool)
        for i, size in enumerate(table.sizes):
            at = np.take(table.position[i], combos[i])
            tuple_of, live = tuple_of * size + at, live & (at >= 0)
        label, objective = np.full(total, len(Status)), np.full(total, math.nan)
        label[live], objective[live] = codes[tuple_of[live]], z[tuple_of[live]]
        objectives = objective.astype(object)
        objectives[np.isnan(objective)] = None
        labels = np.array([*(st.value for st in _STATUSES), "rejected"], dtype=object)[label]
        patterns = itertools.product(*(PATTERNS[len(c)] for c in candidates))
        kept = tuple(map(AssignmentOutcome, patterns, itertools.product(*candidates),
                         labels.tolist(), objectives.tolist()))
    return ChoiceSolveReport(status, report, *chosen, solved, total - solved, kept)
