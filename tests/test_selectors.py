import copy
import functools
import hashlib
import itertools
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gpchoice.selectors
import gpchoice.solver
from gpchoice import (
    CandidateSet,
    ChoiceGp,
    ExpansionRejected,
    GpDomainError,
    GpProblem,
    Role,
    SetRef,
    Status,
    TermTemplate,
    as_choice_gp,
    build_dual,
    case_constraint_violations,
    expand,
    log_dual_objective,
    parse_problem,
    resolve_choice,
    selector_polynomial,
    solve,
    solve_choice,
    standardize,
    valid_assignments,
    validate_choice_gp,
)
from helpers import (
    PROBLEM_DIR,
    batch_arrays,
    example1_problem,
    report_columns,
    stalled_choice_gp,
)


def cset(values, role=Role.EXPONENT, name="s"):
    return CandidateSet(name, role, tuple(float(v) for v in values))


class TestSelectorPolynomial:
    def test_three_candidates_middle_pattern(self):
        assert selector_polynomial(cset([5, 1, 3]), (0, 1)) == 1.0

    def test_eight_candidates_all_ones_selects_last(self):
        s = cset([5, 1, 3, 4, 6, 2, 1, 2])
        assert selector_polynomial(s, (1, 1, 1)) == 2.0

    def test_five_candidates_all_zeros_selects_fourth(self):
        assert selector_polynomial(cset([5, 1, 3, 4, 6]), (0, 0, 0)) == 4.0

    def test_inadmissible_pattern_is_rejected(self):
        with pytest.raises(GpDomainError):
            selector_polynomial(cset([5, 1, 3]), (1, 1))
        with pytest.raises(GpDomainError):
            selector_polynomial(cset([5, 1, 3, 4, 6, 2, 1]), (1, 1, 1))


class TestValidAssignments:
    def test_three_candidates_exclude_double_ones(self):
        assert set(valid_assignments(cset([1, 2, 3]))) == {(1, 0), (0, 1), (0, 0)}

    def test_four_candidates_admit_every_pattern(self):
        assert len(valid_assignments(cset([1, 2, 3, 4]))) == 4

    def test_five_candidates_by_enumeration_against_constraints(self):
        # independent route: keep exactly the patterns without violations
        allowed = [
            bits
            for bits in itertools.product((0, 1), repeat=3)
            if not case_constraint_violations(5, bits)
        ]
        assert sorted(valid_assignments(cset([1, 2, 3, 4, 5]))) == sorted(allowed)

    def test_seven_candidates_exclude_only_all_ones(self):
        patterns = valid_assignments(cset([1, 2, 3, 4, 5, 6, 7]))
        assert len(patterns) == 7
        assert (1, 1, 1) not in patterns

    def test_eight_candidates_admit_every_pattern(self):
        assert len(valid_assignments(cset(range(1, 9)))) == 8

    def test_small_sizes(self):
        assert valid_assignments(cset([4.0])) == ((0, 0),)
        assert valid_assignments(cset([4.0, 9.0])) == ((1, 0), (0, 0))

    def test_size_outside_range_is_rejected(self):
        with pytest.raises(GpDomainError):
            CandidateSet("s", Role.EXPONENT, tuple(float(i) for i in range(9)))
        with pytest.raises(GpDomainError):
            CandidateSet("s", Role.EXPONENT, ())


class TestCaseConstraints:
    @pytest.mark.parametrize("k", [3, 5, 6, 7])
    def test_exclusion_matches_published_constraints(self, k):
        bits_len = 2 if k <= 4 else 3
        valid = set(valid_assignments(cset(range(1, k + 1))))
        for bits in itertools.product((0, 1), repeat=bits_len):
            violations = case_constraint_violations(k, bits)
            if bits in valid:
                assert violations == ()
            else:
                assert violations

    @pytest.mark.parametrize("k", [4, 8])
    def test_corrected_sizes_have_no_constraints(self, k):
        bits_len = 2 if k <= 4 else 3
        for bits in itertools.product((0, 1), repeat=bits_len):
            assert case_constraint_violations(k, bits) == ()

    # short, long and non-binary patterns alike
    @pytest.mark.parametrize("k, bits", [
        (5, (1, 0)), (3, (1,)), (1, ()), (7, (1, 1, 1, 1)), (4, (0, 0, 0)),
        (3, (2, 0)), (8, (1, 0, -1)), (2, (0.5, 0)),
    ])
    def test_a_pattern_of_the_wrong_length_or_not_binary_is_refused(self, k, bits):
        with pytest.raises(GpDomainError, match=f"{k} candidates take {2 if k <= 4 else 3} bits"):
            case_constraint_violations(k, bits)


@given(
    st.integers(1, 8),
    st.lists(st.floats(-50.0, 50.0), min_size=8, max_size=8),
)
def test_selection_is_a_bijection_onto_candidate_positions(k, pool):
    s = cset(pool[:k])
    selected = [selector_polynomial(s, bits) for bits in valid_assignments(s)]
    assert selected == list(s.candidates)


@pytest.mark.parametrize("k", range(1, 9))
def test_selected_values_are_the_selector_polynomial_bit_for_bit(k):
    # solve_choice's value table reads each candidate + 0.0 in place of the
    # polynomial at its pattern; signed zeros, subnormals and the largest
    # doubles give the same bits either way
    special = (-0.0, 0.0, 1e-320, -1e-320, 5e-324, 1e308, -1e308, 2.5, -3.0)
    rng = np.random.default_rng(k)
    sets = [cset(rng.choice(special, k)) for _ in range(200)]
    sets += [cset([v] * k) for v in special]
    for s in sets:
        polynomial = [selector_polynomial(s, bits) for bits in valid_assignments(s)]
        assert [v.hex() for v in gpchoice.selectors._selected_values(s)] == [
            v.hex() for v in polynomial
        ]


def simple_choice_gp(candidates=(2.0, 1.0, 3.0)):
    return ChoiceGp(
        variable_names=("x1",),
        objective=(
            TermTemplate(SetRef("c"), (1.0,)),
            TermTemplate(1.0, (-1.0,)),
        ),
        constraints=(),
        sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, candidates),),
    )


class TestExpand:
    def test_example1_choice_resolves_to_fixed_constants(self):
        cg = parse_problem(PROBLEM_DIR / "example1_case1.json")
        choice = {"c": (0, 1), "p": (1, 0), "a": (0, 1)}
        assert resolve_choice(cg, choice) == {"c": 1.0, "p": -1.0, "a": 1.0}
        expanded = expand(cg, choice)
        assert expanded == example1_problem(c=1.0, p=-1.0, a=1.0)

    def test_singleton_sets_reproduce_the_template(self):
        cg = ChoiceGp(
            variable_names=("x1",),
            objective=(TermTemplate(SetRef("c"), (1.0,)),),
            constraints=(),
            sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (4.0,)),),
        )
        expanded = expand(cg, {"c": (0, 0)})
        assert expanded.objective.terms[0].coefficient == 4.0

    def test_zero_coefficient_candidate_is_rejected(self):
        cg = simple_choice_gp(candidates=(0.0, 1.0, 3.0))
        with pytest.raises(ExpansionRejected):
            expand(cg, {"c": (1, 0)})

    def test_missing_assignment_is_rejected(self):
        with pytest.raises(GpDomainError):
            expand(simple_choice_gp(), {})


class TestValidateChoiceGp:
    def test_undefined_reference(self):
        cg = ChoiceGp(
            variable_names=("x1",),
            objective=(TermTemplate(SetRef("ghost"), (1.0,)),),
            constraints=(),
            sets=(),
        )
        assert any("ghost" in v for v in validate_choice_gp(cg))

    def test_unreferenced_set(self):
        cg = ChoiceGp(
            variable_names=("x1",),
            objective=(TermTemplate(1.0, (1.0,)),),
            constraints=(),
            sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 2.0)),),
        )
        assert any("never referenced" in v for v in validate_choice_gp(cg))

    def test_role_misuse_is_flagged(self):
        cg = ChoiceGp(
            variable_names=("x1",),
            objective=(TermTemplate(SetRef("p"), (1.0,)),),
            constraints=(),
            sets=(CandidateSet("p", Role.EXPONENT, (1.0, 2.0)),),
        )
        assert any("coefficient" in v for v in validate_choice_gp(cg))

    def test_negative_coefficient_candidate_is_flagged(self):
        cg = simple_choice_gp(candidates=(-1.0, 1.0, 3.0))
        assert any("negative" in v for v in validate_choice_gp(cg))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_coefficient_candidate_is_flagged(self, bad):
        # inf * 0 = nan in the selector polynomial poisoned every assignment,
        # c = 2 included, and the choice ended INFEASIBLE
        cg = simple_choice_gp(candidates=(2.0, bad))
        assert any("not finite" in v for v in validate_choice_gp(cg))
        with pytest.raises(GpDomainError, match="invalid template"):
            solve_choice(cg)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_candidate_is_flagged(self, bad):
        # used to raise LinAlgError from the dual solver
        cg = ChoiceGp(
            variable_names=("x1",),
            objective=(TermTemplate(1.0, (SetRef("p"),)), TermTemplate(1.0, (-1.0,))),
            constraints=(),
            sets=(CandidateSet("p", Role.EXPONENT, (1.0, bad)),),
        )
        assert any("not finite" in v for v in validate_choice_gp(cg))
        with pytest.raises(GpDomainError, match="invalid template"):
            solve_choice(cg)

    @pytest.mark.parametrize(
        "coefficient, exponent, message",
        [(1.0, math.nan, "not finite"), (math.inf, 1.0, "not finite"),
         (0.0, 1.0, "not positive"), (-2.0, 1.0, "not positive")],
    )
    def test_bad_literal_slots_are_flagged(self, coefficient, exponent, message):
        cg = ChoiceGp(
            variable_names=("x1",),
            objective=(
                TermTemplate(SetRef("c"), (1.0,)),
                TermTemplate(coefficient, (-exponent,)),
            ),
            constraints=(),
            sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 2.0)),),
        )
        assert any(message in v for v in validate_choice_gp(cg))
        with pytest.raises(GpDomainError, match="invalid template"):
            solve_choice(cg)

    @pytest.mark.parametrize(
        "variables, objective, constraints, message",
        [
            # a ragged term used to reach numpy ("inhomogeneous shape")
            (("x1", "x2"), ((1.0, 1.0), (-1.0,)), (), "1 exponents for 2 variables"),
            (("x1",), ((1.0,), (-1.0,)), ((((1.0,),), 0.0),),
             "bound 0.0 is not finite and positive"),
            (("x1",), ((1.0,), (-1.0,)), ((((1.0,),), math.nan),),
             "bound nan is not finite and positive"),
            (("x", "x"), ((1.0, 1.0), (-1.0, -1.0)), (), "variable names are not unique"),
            (("x1",), (), (), "objective: has no terms"),
            (("x1",), ((1.0,), (-1.0,)), (((), 1.0),), "constraint 0: has no terms"),
        ],
        ids=["ragged", "zero-bound", "nan-bound", "duplicate-names", "empty-objective",
             "empty-constraint"],
    )
    def test_malformed_model_is_flagged(self, variables, objective, constraints, message):
        def terms(exponent_rows):
            return tuple(TermTemplate(1.0, row) for row in exponent_rows)

        cg = ChoiceGp(
            variable_names=variables,
            objective=terms(objective),
            constraints=tuple((terms(rows), b) for rows, b in constraints),
            sets=(),
        )
        assert any(message in v for v in validate_choice_gp(cg))
        errors = []
        for _ in range(2):  # a template that fails to compile keeps nothing
            with pytest.raises(GpDomainError, match="invalid template") as error:
                solve_choice(cg)
            errors.append(str(error.value))
        assert errors[0] == errors[1] and "_compiled" not in vars(cg)


class TestSolveChoice:
    def test_matches_independent_enumeration(self):
        cg = parse_problem(PROBLEM_DIR / "example1_case1.json")
        result = solve_choice(cg)

        best = None
        for combo in itertools.product(
            *[valid_assignments(s) for s in cg.sets]
        ):
            choice = {s.name: bits for s, bits in zip(cg.sets, combo)}
            try:
                expanded = expand(cg, choice)
            except ExpansionRejected:
                continue
            report = solve(standardize(expanded))
            if report.status is Status.OPTIMAL:
                if best is None or report.objective_value < best[0]:
                    best = (report.objective_value, combo)
        assert best is not None
        assert result.report.objective_value == pytest.approx(best[0], rel=1e-9)
        assert tuple(bits for _, bits in result.chosen_bits) == best[1]

    def test_single_combination_degenerates_to_plain_solve(self):
        cg = ChoiceGp(
            variable_names=("x1",),
            objective=(
                TermTemplate(SetRef("c"), (1.0,)),
                TermTemplate(1.0, (-1.0,)),
            ),
            constraints=(),
            sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0,)),),
        )
        result = solve_choice(cg)
        direct = solve(standardize(expand(cg, {"c": (0, 0)})))
        assert result.status is direct.status
        assert result.report.objective_value == direct.objective_value

    def test_equal_values_break_ties_toward_smallest_bit_string(self):
        result = solve_choice(simple_choice_gp(candidates=(2.0, 2.0, 2.0)))
        assert dict(result.chosen_bits)["c"] == (0, 0)

    def test_rejected_expansions_are_counted(self):
        result = solve_choice(simple_choice_gp(candidates=(0.0, 1.0, 3.0)))
        assert result.rejected == 1
        assert result.solved == 2
        assert result.status is Status.OPTIMAL
        assert dict(result.chosen_values)["c"] == 1.0

    def test_objective_scaling_keeps_the_chosen_assignment(self):
        def common_factor_gp(candidates):
            # the set multiplies every objective term: min c*(x + 1/x) = 2c
            return ChoiceGp(
                variable_names=("x1",),
                objective=(
                    TermTemplate(SetRef("c"), (1.0,)),
                    TermTemplate(SetRef("c"), (-1.0,)),
                ),
                constraints=(),
                sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, candidates),),
            )

        base = solve_choice(common_factor_gp((3.0, 1.0, 2.0)))
        scaled = solve_choice(common_factor_gp((15.0, 5.0, 10.0)))
        assert dict(base.chosen_bits) == dict(scaled.chosen_bits)
        ratio = scaled.report.objective_value / base.report.objective_value
        assert ratio == pytest.approx(5.0, rel=1e-9)

    def test_combination_cap_is_enforced(self, monkeypatch):
        cg = parse_problem(PROBLEM_DIR / "example1_case1.json")
        solved = parse_problem(PROBLEM_DIR / "example1_case1.json")
        assert solve_choice(solved).status is Status.OPTIMAL
        # every call reads the cap, on a model compiled before it fell too
        monkeypatch.setattr(gpchoice.selectors, "_COMBINATION_CAP", 26)
        for model in (cg, solved):
            with pytest.raises(GpDomainError, match="27 assignment combinations exceed"):
                solve_choice(model)

    def test_no_optimal_expansion_is_infeasible(self):
        cg = ChoiceGp(
            variable_names=("x1", "x2"),
            objective=(TermTemplate(SetRef("c"), (1.0, 1.0)),),
            constraints=(((TermTemplate(1.0, (1.0, 1.0)),), 1.0),),
            sets=(CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 2.0)),),
        )
        result = solve_choice(cg)
        assert result.status is Status.INFEASIBLE
        assert result.report is None

    def test_assignment_table_collects_every_combination(self):
        cg = parse_problem(PROBLEM_DIR / "example1_case1.json")
        result = solve_choice(cg, keep_assignments=True)
        assert len(result.assignments) == 27
        statuses = {a.status for a in result.assignments}
        assert statuses == {"optimal"}


def _same_choice_result(pruned, exhaustive):
    assert pruned.status is exhaustive.status
    assert pruned.chosen_bits == exhaustive.chosen_bits
    assert pruned.chosen_values == exhaustive.chosen_values
    assert (pruned.solved, pruned.rejected) == (exhaustive.solved, exhaustive.rejected)
    if exhaustive.report is None:
        assert pruned.report is None
        return
    assert pruned.report.objective_value == exhaustive.report.objective_value
    assert pruned.report.primal_x == exhaustive.report.primal_x
    assert np.array_equal(pruned.report.dual.weights, exhaustive.report.dual.weights)


def candidates(pool, max_size):
    # drawn from a small pool, so duplicate candidates (exact ties) are
    # common; zero comes last because Hypothesis favours early entries, and
    # most draws should have expansions that are not rejected
    return st.lists(st.sampled_from(pool), min_size=1, max_size=max_size).map(
        lambda values: tuple(float(v) for v in values)
    )


@st.composite
def small_choice_gps(draw):
    """min c*x1^p + k*x2^-3 + x1*x2  s.t.  a*x1 + x2^q <= 1,  b*x1 <= B.

    A zero c, a or b is rejected; the second constraint is often inactive,
    so its candidates tie up to rounding.
    """
    k = draw(st.sampled_from([0.5, 1.0, 3.0]))
    loose = draw(st.sampled_from([2.0, 100.0]))
    sets = (
        CandidateSet("c", Role.OBJECTIVE_COEFFICIENT,
                     draw(candidates([1, 2, 0.5, 5, 0], 3))),
        CandidateSet("p", Role.EXPONENT, draw(candidates([-1, -2, -3, -0.5], 3))),
        CandidateSet("a", Role.CONSTRAINT_COEFFICIENT,
                     draw(candidates([1, 2, 4, 0], 3))),
        CandidateSet("q", Role.EXPONENT, draw(candidates([1, 0.5, 2], 2))),
        CandidateSet("b", Role.CONSTRAINT_COEFFICIENT,
                     draw(candidates([1, 3, 0], 2))),
    )
    return ChoiceGp(
        variable_names=("x1", "x2"),
        objective=(
            TermTemplate(SetRef("c"), (SetRef("p"), 0.0)),
            TermTemplate(k, (0.0, -3.0)),
            TermTemplate(1.0, (1.0, 1.0)),
        ),
        constraints=(
            ((TermTemplate(SetRef("a"), (1.0, 0.0)),
              TermTemplate(1.0, (0.0, SetRef("q")))), 1.0),
            ((TermTemplate(SetRef("b"), (1.0, 0.0)),), loose),
        ),
        sets=sets,
    )


def _scanned_winner(rows):
    """The winner by a scan over the table in order: the lowest z, a z
    within 1e-9 relative of the best so far tied with it and resolved
    toward the smaller concatenated bit string."""
    best = None
    for row in rows:
        z = row.objective_value
        if row.status != Status.OPTIMAL.value:
            continue
        tied = best and abs(z - best[0]) <= 1e-9 * max(abs(z), abs(best[0]))
        bits = "".join(str(b) for pattern in row.bits for b in pattern)
        if not best or (not tied and z < best[0]) or (tied and bits < best[1]):
            best = (z, bits, row)
    return best and best[2]


@given(small_choice_gps())
def test_pruned_enumeration_matches_exhaustive(cg):
    exhaustive = solve_choice(cg, keep_assignments=True)
    _same_choice_result(solve_choice(cg), exhaustive)
    # the table's winner is the scan's, row by row over every combination
    if exhaustive.status is Status.OPTIMAL:
        winner = _scanned_winner(exhaustive.assignments)
        assert exhaustive.chosen_bits == tuple(zip([cs.name for cs in cg.sets], winner.bits))


def test_expansions_tied_with_the_incumbent_are_solved():
    # b only scales an inactive constraint, so both b values give the same z
    # to rounding; the tie goes to b = 3 (bits 00), which is not the seed's
    # smallest coefficient b = 1 (bits 10)
    cg = ChoiceGp(
        variable_names=("x1",),
        objective=(TermTemplate(SetRef("c"), (1.0,)), TermTemplate(1.0, (-1.0,))),
        constraints=(((TermTemplate(SetRef("b"), (1.0,)),), 100.0),),
        sets=(
            CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 2.0)),
            CandidateSet("b", Role.CONSTRAINT_COEFFICIENT, (1.0, 3.0)),
        ),
    )
    pruned = solve_choice(cg)
    _same_choice_result(pruned, solve_choice(cg, keep_assignments=True))
    assert pruned.chosen_values == (("c", 1.0), ("b", 3.0))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_rows(monkeypatch):
    """Per _solve_rows call, the number of coefficient rows of each system."""
    batches = []
    original = gpchoice.selectors._solve_rows

    def solve_rows(systems):
        batches.append([len(coefficients) for _, coefficients in systems])
        return original(systems)

    monkeypatch.setattr(gpchoice.selectors, "_solve_rows", solve_rows)
    return batches


# the seeds of each fixture, in sorted file order: one per exponent assignment
FIXTURE_SEEDS = (3, 4, 4, 5, 5, 5, 3, 4, 3, 4, 3, 3)


def test_pruning_skips_most_fixture_solves(monkeypatch):
    # both modes solve every expansion through _solve_rows, expanding none
    batches = _count_rows(monkeypatch)
    expands = _count_calls(monkeypatch, gpchoice.selectors, "expand")
    fixtures = sorted(PROBLEM_DIR.glob("*.json"))
    assert len(fixtures) == 12
    models = [parse_problem(path) for path in fixtures]
    pruned = [solve_choice(cg) for cg in models]
    # the pruned search solves each fixture's seeds, 46 in all, as one batch
    # of one-row systems, and the bounds from its seeds' optimal weights
    # skip every other expansion
    assert batches == [[1] * seeds for seeds in FIXTURE_SEEDS]
    batches.clear()
    exhaustive = [solve_choice(cg, keep_assignments=True) for cg in models]
    # keep-all solves 1002 expansions over 46 equality systems, every system
    # of a fixture in one call
    systems = [rows for call in batches for rows in call]
    assert (sum(systems), len(systems), len(batches)) == (1002, 46, 12)
    assert expands == []
    for p, e in zip(pruned, exhaustive):
        _same_choice_result(p, e)


def test_keep_all_finishes_and_certifies_each_fixture_in_one_batch(monkeypatch):
    # keep-all solves each fixture's systems in one fast-pass batch, and
    # finishes and certifies that batch with one call each, 12 in all, where
    # one call per equality system would make 46
    claims, finishes = [], []
    original_claim = gpchoice.solver.optimal_claim
    original_finish = gpchoice.solver._finish

    def claim(terms, x, w):
        claims.append(len(w))
        return original_claim(terms, x, w)

    def finish(d, log_c, *args):
        finishes.append(len(log_c))
        return original_finish(d, log_c, *args)

    monkeypatch.setattr(gpchoice.solver, "optimal_claim", claim)
    monkeypatch.setattr(gpchoice.solver, "_finish", finish)
    models = [parse_problem(path) for path in sorted(PROBLEM_DIR.glob("*.json"))]
    for cg in models:
        solve_choice(cg, keep_assignments=True)
    assert (len(claims), sum(claims)) == (12, 1002)
    assert (len(finishes), sum(finishes)) == (12, 1002)
    claims.clear()
    for cg in models:
        solve_choice(cg)
    # the pruned search solves, and certifies, each fixture's seeds as one
    # batch
    assert claims == list(FIXTURE_SEEDS)


def _report_fields(report) -> tuple:
    """Every field of a SolveReport and of its DualSolution, arrays by bytes."""
    d = report.dual
    floats = (report.primal_x, report.objective_value, report.duality_gap,
              report.kkt_residuals, d.objective_value, d.equality_residual, d.stationarity)
    return (report.status, d.status, repr(floats), d.weights.tobytes(), d.lambdas.tobytes(),
            d.iterations)


def test_keep_all_rows_read_on_demand_equal_batches_of_one(monkeypatch):
    # keep-all holds each batch as columns and builds a row's report when it
    # is read; every row of the 12 fixtures reads as the same expansion
    # solved as a batch of one
    calls = []
    original = gpchoice.selectors._solve_rows

    def solve_rows(systems):
        calls.append((systems, original(systems)))
        return calls[-1][1]

    monkeypatch.setattr(gpchoice.selectors, "_solve_rows", solve_rows)
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        solve_choice(parse_problem(path), keep_assignments=True)
    rows = 0
    for systems, batch in calls:
        alone = [original([(d, c[None])])[0] for d, coefficients in systems
                 for c in coefficients]
        assert [_report_fields(r) for r in batch] == [_report_fields(r) for r in alone]
        rows += len(alone)
    assert (len(calls), rows) == (12, 1002)


def test_keep_all_first_seen_order(monkeypatch):
    # the batch's systems, and the rows of each, in the order a loop over the
    # combinations in product order first sees their exponent values and
    # value tuples
    seen = []
    monkeypatch.setattr(gpchoice.selectors, "_solve_rows",
                        lambda systems: seen.append(systems) or
                        gpchoice.solver._solve_rows(systems))
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        cg = parse_problem(path)
        solve_choice(cg, keep_assignments=True)
        exponents = [i for i, cs in enumerate(cg.sets) if cs.role is Role.EXPONENT]
        systems: dict = {}
        for choice in itertools.product(*(valid_assignments(cs) for cs in cg.sets)):
            values = tuple(resolve_choice(cg, dict(zip([cs.name for cs in cg.sets],
                                                       choice))).values())
            if all(values[i] > 0.0 for i in _coefficient_sets(cg)):
                key = tuple(values[i] for i in exponents)
                systems.setdefault(key, {})[values] = None
        template = gpchoice.selectors._Template.of(cg)
        batch, expected = seen[-1], [np.array(list(rows)) for rows in systems.values()]
        assert len(batch) == len(expected)
        for (d, coefficients), rows in zip(batch, expected):
            assert np.array_equal(d.exponent_matrix, template.at(rows[0]).exponent_matrix)
            assert np.array_equal(coefficients, template.coefficients(rows))


@pytest.mark.parametrize("kind, stalled", [("wrong winner", True), ("excluded", False)])
def test_keep_all_builds_reports_for_the_verdict_alone(monkeypatch, kind, stalled):
    # one SolveReport, KktResiduals and DualSolution per keep-all pass: the
    # winner's, or the blocking row's; 1002 of each were built for the 12
    # fixtures, and 2 here
    built = []
    for name in ("SolveReport", "KktResiduals", "DualSolution"):
        cls = getattr(gpchoice.solver, name)
        monkeypatch.setattr(gpchoice.solver, name,
                            lambda *args, _cls=cls: built.append(_cls) or _cls(*args))
    models = [parse_problem(path) for path in sorted(PROBLEM_DIR.glob("*.json"))]
    for cg in models:
        built.clear()
        result = solve_choice(cg, keep_assignments=True)
        assert result.status is Status.OPTIMAL
        assert sorted(cls.__name__ for cls in built) == [
            "DualSolution", "KktResiduals", "SolveReport"]
    built.clear()
    result = solve_choice(stalled_choice_gp(kind), keep_assignments=True)
    assert (result.status is Status.ITERATION_LIMIT) is stalled
    assert [cls.__name__ for cls in built].count("SolveReport") == 1


def _coefficient_sets(cg):
    return [i for i, cs in enumerate(cg.sets) if cs.role is not Role.EXPONENT]


def _expansions(cg):
    """(exponent values, values, standardized GP) for every combination whose
    coefficients are all positive, in product order."""
    coefficient_sets = _coefficient_sets(cg)
    for combo in itertools.product(*[valid_assignments(cs) for cs in cg.sets]):
        choice = {cs.name: bits for cs, bits in zip(cg.sets, combo)}
        values = [resolve_choice(cg, choice)[cs.name] for cs in cg.sets]
        if any(values[i] <= 0.0 for i in coefficient_sets):
            continue
        key = tuple(v for i, v in enumerate(values) if i not in coefficient_sets)
        yield key, values, standardize(expand(cg, choice))


def _assert_bounds_match_the_dual(cg, all_siblings):
    """_Template.bound against build_dual and log_dual_objective.

    Each expansion is bounded from the optimal expansions with its exponent
    values, all of them or only the first in product order, every pair a
    row of one stacked call that holds each optimal expansion once.
    """
    solved = {}
    template = gpchoice.selectors._Template.of(cg)
    expansions = list(_expansions(cg))
    for key, values, s in expansions:
        if all_siblings or key not in solved:
            report = solve(s)
            if report.status is Status.OPTIMAL:
                solved.setdefault(key, []).append((values, report.dual))
    seeds = [seed for key in solved for seed in solved[key]]
    firsts = dict(zip(solved, itertools.accumulate(map(len, solved.values()), initial=0)))
    pairs = [(firsts[key] + i, sibling, s) for key, sibling, s in expansions
             for i in range(len(solved.get(key, [])))]
    which, siblings, programs = zip(*pairs)
    bounds = template.bound(np.array([dual.weights for _, dual in seeds]),
                            np.log([dual.objective_value for _, dual in seeds]),
                            np.array([values for values, _ in seeds]), np.array(siblings),
                            np.array(which))
    for bound, i, s in zip(bounds, which, programs):
        expected, _ = log_dual_objective(build_dual(s), seeds[i][1].weights)
        assert bound == pytest.approx(expected, rel=1e-12)
    return len(pairs)


def test_bound_matches_the_dual_on_every_fixture():
    checked = 0
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        checked += _assert_bounds_match_the_dual(parse_problem(path), False)
    assert checked == 2574  # every fixture expansion has an optimal sibling


def scaled_bound_template():
    """c fills an objective and a constraint term; the constraint bound is 3."""
    return ChoiceGp(
        variable_names=("x1", "x2"),
        objective=(
            TermTemplate(SetRef("c"), (SetRef("p"), 0.0)),
            TermTemplate(2.0, (0.0, -1.0)),
            TermTemplate(1.0, (1.0, 1.0)),
        ),
        constraints=(
            ((TermTemplate(SetRef("c"), (1.0, 0.0)),
              TermTemplate(SetRef("a"), (0.0, SetRef("q")))), 3.0),
        ),
        sets=(
            CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 2.0, 0.5)),
            CandidateSet("p", Role.EXPONENT, (-1.0, -2.0)),
            CandidateSet("a", Role.CONSTRAINT_COEFFICIENT, (1.0, 4.0)),
            CandidateSet("q", Role.EXPONENT, (1.0, 0.5)),
        ),
    )


def test_bound_with_a_set_in_two_terms_and_a_scaled_bound():
    assert _assert_bounds_match_the_dual(scaled_bound_template(), True) == 4 * 6 * 6


def _distinct_expansions(cg):
    """(values, choice) of each distinct value tuple whose coefficients are
    all positive, at its first combination in product order."""
    coefficient_sets = _coefficient_sets(cg)
    seen = {}
    for combo in itertools.product(*[valid_assignments(cs) for cs in cg.sets]):
        choice = {cs.name: bits for cs, bits in zip(cg.sets, combo)}
        values = tuple(resolve_choice(cg, choice)[cs.name] for cs in cg.sets)
        if all(values[i] > 0.0 for i in coefficient_sets):
            seen.setdefault(values, choice)
    return list(seen.items())


def test_compiled_template_matches_each_expansions_dual():
    # solve_choice fills every dual from one compiled template: the same bytes
    # as expanding, standardizing and building it, bound division included
    models = [parse_problem(p) for p in sorted(PROBLEM_DIR.glob("*.json"))]
    checked = []
    for cg in (*models, scaled_bound_template()):
        expansions = _distinct_expansions(cg)
        template = gpchoice.selectors._Template.of(cg)
        rows = template.coefficients(np.array([values for values, _ in expansions]))
        for (values, choice), row in zip(expansions, rows):
            expected = build_dual(standardize(expand(cg, choice)))
            program = template.at(values)
            for got, want in ((row, expected.term_coefficients),
                              (program.term_coefficients, expected.term_coefficients),
                              (program.block_index, expected.block_index),
                              (program.exponent_matrix, expected.exponent_matrix)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
        checked.append(len(expansions))
    assert sum(checked[:-1]) == 1002
    assert checked[-1] == 3 * 2 * 2 * 2



def test_keep_all_reports_a_row_whose_point_underflows():
    # min x^0.01 + c / x^0.01 is optimal at x = c^50: 0 in doubles for
    # c = 1e-20, so that row ends ITERATION_LIMIT and its siblings solve
    cg = ChoiceGp(
        ("x",),
        (TermTemplate(1.0, (0.01,)), TermTemplate(SetRef("c"), (-0.01,))),
        (),
        (CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1e-20, 1e-3, 4.0)),),
    )
    result = solve_choice(cg, keep_assignments=True)
    rows = {row.values[0]: row for row in result.assignments}
    assert rows[1e-20].status == Status.ITERATION_LIMIT.value
    assert rows[1e-20].objective_value is None
    for c in (1e-3, 4.0):
        assert rows[c].status == Status.OPTIMAL.value
        assert rows[c].objective_value == pytest.approx(2.0 * c**0.5, rel=1e-9)
    # its dual value 2e-10 bounds its optimum below the others': no choice
    assert result.status is Status.ITERATION_LIMIT
    assert result.chosen_values is None
    assert result.report.dual.objective_value == pytest.approx(2e-10, rel=1e-9)
    _same_choice_result(solve_choice(cg), result)


@pytest.mark.filterwarnings("error")
def test_keep_all_reports_a_row_whose_dual_value_underflows():
    # min c x s.t. 1e-30 / x <= 1 is optimal at z = c * 1e-30: 0 in doubles
    # for c = 1e-300, so that row ends ITERATION_LIMIT in its batch, whose
    # other rows solve
    cg = ChoiceGp(
        ("x",),
        (TermTemplate(SetRef("c"), (1.0,)),),
        (((TermTemplate(1e-30, (-1.0,)),), 1.0),),
        (CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1e-300, 1.0, 2.0)),),
    )
    result = solve_choice(cg, keep_assignments=True)
    rows = {row.values[0]: row for row in result.assignments}
    assert rows[1e-300].status == Status.ITERATION_LIMIT.value
    assert rows[1e-300].objective_value is None
    for c in (1.0, 2.0):
        assert rows[c].status == Status.OPTIMAL.value
        assert rows[c].objective_value == pytest.approx(c * 1e-30, rel=1e-9)
    # its optimum 1e-330 is below the others', so it blocks the choice
    assert result.status is Status.ITERATION_LIMIT
    assert result.chosen_values is None
    assert result.report.dual.objective_value == 0.0


@pytest.mark.parametrize("kind, dual_value", [("wrong winner", 3.0),
                                              ("wrong infeasible", 2.0)])
def test_a_stalled_expansion_that_may_win_blocks_the_choice(kind, dual_value):
    # the stalled expansion with the lowest dual value is reported, as it
    # ends alone: set bits 10 select its candidate 0
    cg = stalled_choice_gp(kind)
    pruned = solve_choice(cg)
    _same_choice_result(pruned, solve_choice(cg, keep_assignments=True))
    assert pruned.status is Status.ITERATION_LIMIT
    assert pruned.chosen_bits is pruned.chosen_values is None
    assert pruned.report.status is Status.ITERATION_LIMIT
    assert pruned.report.dual.objective_value == pytest.approx(dual_value, rel=1e-9)
    alone = solve(standardize(expand(cg, {cg.sets[0].name: (1, 0)})))
    assert pruned.report.primal_x == alone.primal_x
    assert np.array_equal(pruned.report.dual.weights, alone.dual.weights)


def test_a_stalled_expansion_above_the_winner_is_excluded():
    cg = stalled_choice_gp("excluded")
    pruned = solve_choice(cg)
    exhaustive = solve_choice(cg, keep_assignments=True)
    _same_choice_result(pruned, exhaustive)
    assert [row.status for row in exhaustive.assignments] == [
        Status.ITERATION_LIMIT.value, Status.OPTIMAL.value
    ]
    assert pruned.status is Status.OPTIMAL
    assert pruned.chosen_values == (("q", -1.0),)
    assert pruned.report.objective_value == pytest.approx(
        2.0 * math.sqrt(11.0) + (1.0 + math.sqrt(5.0)) / 2.0, rel=1e-9
    )


@pytest.mark.parametrize("kind", ["wrong winner", "excluded"])
def test_a_stalled_row_carries_no_objective_value(kind):
    # the q = 0 row's recovered x = (1, 1) violates y + y^2 <= 1, so f_0
    # there is no primal value
    q0, q1 = solve_choice(stalled_choice_gp(kind), keep_assignments=True).assignments
    assert (q0.values, q0.status, q0.objective_value) == (
        (0.0,), Status.ITERATION_LIMIT.value, None
    )
    assert q1.status == Status.OPTIMAL.value and q1.objective_value > 0.0


def test_a_plain_problem_is_a_template_without_sets():
    g = example1_problem()
    result = solve_choice(g)
    assert (result.solved, result.rejected) == (1, 0)
    assert result.chosen_bits == result.chosen_values == ()
    assert result.report.objective_value == solve(standardize(g)).objective_value
    _same_choice_result(result, solve_choice(as_choice_gp(g), keep_assignments=True))


def _seeds(cg):
    """(choice, values) of every seed: the smallest positive value of each
    coefficient set with each distinct value of each exponent set."""
    options = []
    for cs in cg.sets:
        first = {}
        for bits in valid_assignments(cs):
            first.setdefault(selector_polynomial(cs, bits), bits)
        if cs.role is not Role.EXPONENT:
            smallest = min(v for v in first if v > 0.0)
            first = {smallest: first[smallest]}
        options.append(first.items())
    for combo in itertools.product(*options):
        yield ({cs.name: bits for cs, (_, bits) in zip(cg.sets, combo)},
               [v for v, _ in combo])


def test_template_fills_each_seeds_equality_matrix_as_build_dual_does():
    checked = 0
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        cg = parse_problem(path)
        template = gpchoice.selectors._Template.of(cg)
        for choice, values in _seeds(cg):
            expected = build_dual(standardize(expand(cg, choice))).equality_matrix
            filled = template.at(values).equality_matrix
            assert filled.shape == expected.shape
            assert filled.tobytes() == expected.tobytes()
            checked += 1
    assert checked == sum(FIXTURE_SEEDS)


def product_template(coefficients, exponents):
    """min c1*x1 + c2*x2 + c3/x1 + c4/x2 + c5*x1^p*x2: five coefficient sets
    and one exponent set; every dual weight is positive at the optimum."""
    names = ("c1", "c2", "c3", "c4", "c5")
    monomials = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    objective = tuple(
        TermTemplate(SetRef(name), exps) for name, exps in zip(names, monomials)
    ) + (TermTemplate(SetRef("c5"), (SetRef("p"), 1.0)),)
    sets = tuple(
        CandidateSet(name, Role.OBJECTIVE_COEFFICIENT, values)
        for name, values in zip(names, coefficients)
    ) + (CandidateSet("p", Role.EXPONENT, exponents),)
    return ChoiceGp(("x1", "x2"), objective, (), sets)


def test_bound_refuses_weights_of_the_wrong_length():
    cg = simple_choice_gp()
    report = solve(standardize(expand(cg, {"c": (1, 0)})))
    template = gpchoice.selectors._Template.of(cg)
    weights = report.dual.weights[None]
    assert weights.shape == (1, template.dual.term_count)
    rest = np.zeros(1), np.array([[1.0]]), np.array([[2.0]]), np.zeros(1, dtype=int)
    template.bound(weights, *rest)
    with pytest.raises(ValueError):
        template.bound(weights[:, 1:], *rest)


def test_bound_pruning_solves_a_fraction_of_a_large_product(monkeypatch):
    values = (3.0, 1.0, 5.0, 2.0, 8.0, 0.5, 6.0, 4.0)
    cg = product_template([values] * 5, (-2.0, -1.0, -3.0))
    batches = _count_rows(monkeypatch)
    expands = _count_calls(monkeypatch, gpchoice.selectors, "expand")
    result = solve_choice(cg)
    assert (result.solved, result.rejected) == (8**5 * 3, 0)
    assert result.status is Status.OPTIMAL
    assert result.chosen_values[:5] == tuple((f"c{k}", 0.5) for k in range(1, 6))
    # every value tuple of the 98304 is distinct; the three seeds are one
    # batch, and their O(K) bounds skip the rest, all unexpanded
    assert (batches, expands) == ([[1, 1, 1]], [])


def test_bound_pruning_matches_exhaustive_enumeration():
    # zero candidates are rejected, repeated ones tie exactly
    cg = product_template(
        [(2.0, 1.0, 0.0, 1.0), (1.0, 3.0, 2.0, 0.5), (1.0, 1.0, 2.0, 4.0),
         (0.5, 2.0, 0.0, 1.0), (2.0, 2.0)],
        (-1.0, -2.0),
    )
    pruned = solve_choice(cg)
    exhaustive = solve_choice(cg, keep_assignments=True)
    assert len(exhaustive.assignments) == 4**4 * 2 * 2
    _same_choice_result(pruned, exhaustive)


def _pruned_batches(cg):
    """solve_choice(cg), and the systems of each _solve_rows call it makes."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gpchoice.selectors, "_solve_rows",
                   lambda systems: calls.append(systems) or gpchoice.solver._solve_rows(systems))
        return solve_choice(cg), calls


def test_a_pruned_search_makes_at_most_two_solver_calls_on_every_fixture():
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        _, batches = _pruned_batches(parse_problem(path))
        assert 1 <= len(batches) <= 2


@st.composite
def product_templates(draw):
    """product_template with one to three candidates per set; zero
    candidates are rejected, repeated ones tie exactly."""
    coefficients = [draw(candidates([3, 1, 0.5, 2, 0], 3)) for _ in range(5)]
    return product_template(coefficients, draw(candidates([-1, -2, -3, -0.5], 3)))


@given(product_templates())
def test_a_pruned_search_makes_at_most_two_solver_calls(cg):
    pruned, batches = _pruned_batches(cg)
    assert len(batches) <= 2
    # the tuples that share exponent values are one system
    for call in batches:
        exponents = [d.exponent_matrix.tobytes() for d, _ in call]
        assert len(set(exponents)) == len(exponents)
    _same_choice_result(pruned, solve_choice(cg, keep_assignments=True))


def test_the_picks_of_a_seed_with_no_skeleton_are_the_second_batch(monkeypatch):
    # min c x^p: at p = 1 normality and orthogonality ask w = 1 and w = 0, so
    # that seed's dual is INFEASIBLE and it has no weights to bound its
    # picks; the p = 0 seed's optimal weights skip its own
    cg = ChoiceGp(("x",), (TermTemplate(SetRef("c"), (SetRef("p"),)),), (),
                  (cset([3.0, 1.0, 2.0], Role.OBJECTIVE_COEFFICIENT, "c"),
                   cset([0.0, 1.0], name="p")))
    calls = []
    monkeypatch.setattr(gpchoice.selectors, "_solve_rows",
                        lambda systems: calls.append(systems) or
                        gpchoice.solver._solve_rows(systems))
    pruned = solve_choice(cg)
    seeds, picks = ([(d.exponent_matrix.item(), c.item()) for d, rows in call for c in rows]
                    for call in calls)
    assert sorted(seeds) == [(0.0, 1.0), (1.0, 1.0)]  # (p, c) of each row
    assert sorted(picks) == [(1.0, 2.0), (1.0, 3.0)]
    exhaustive = solve_choice(cg, keep_assignments=True)
    assert [row.status for row in exhaustive.assignments if row.values[1] == 1.0] == [
        Status.INFEASIBLE.value] * 3
    _same_choice_result(pruned, exhaustive)
    assert pruned.chosen_values == (("c", 1.0), ("p", 0.0))


def _drawn_product_templates(count=300, seed=20261020):
    """A fixed list of product_templates from a fixed RNG: one to three
    candidates per coefficient set from 3, 1, 0.5, 2, 0, 1.5 and 4, and one
    to three exponent values from -1, -2, -3, -0.5 and 0, repeats allowed."""
    rng = np.random.default_rng(seed)

    def draw(pool):
        return tuple(rng.choice(pool, size=rng.integers(1, 4)).tolist())

    return [product_template([draw([3.0, 1.0, 0.5, 2.0, 0.0, 1.5, 4.0]) for _ in range(5)],
                             draw([-1.0, -2.0, -3.0, -0.5, 0.0]))
            for _ in range(count)]


def test_the_pruned_search_solves_the_pinned_tuples(monkeypatch):
    # which tuples the pruned search solves, and in which call and system,
    # hashed: a bound that lets through more or fewer tuples moves the digest
    # even where every winner stays the same
    digest, calls = hashlib.sha256(), []

    def solve_rows(systems):
        digest.update(b"call")
        calls[-1] += 1
        for d, coefficients in systems:
            digest.update(repr(coefficients.shape).encode())
            digest.update(d.exponent_matrix.tobytes())
            digest.update(coefficients.tobytes())
        return gpchoice.solver._solve_rows(systems)

    monkeypatch.setattr(gpchoice.selectors, "_solve_rows", solve_rows)
    for cg in _drawn_product_templates():
        calls.append(0)
        solve_choice(cg)
    # 93 templates reject every tuple; the seeds' bounds skip every other
    # tuple of the rest, so none makes a second call
    assert [calls.count(k) for k in range(3)] == [93, 207, 0]
    assert digest.hexdigest() == (
        "063f798e5c6e38f2deab802b0b1cff5b778320a37d17c14673bdd22c74aad76f")

def _solved_tuples(cg, keep):
    """solve_choice(cg, keep_assignments=keep), and the (status, z or None)
    of each value tuple that its solver calls solve, by value tuple, read
    in product_template's term layout; no tuple is solved twice."""
    solved = {}
    original = gpchoice.selectors._solve_rows

    def solve_rows(systems):
        out = original(systems)
        rows = [(*c[:5].tolist(), d.exponent_matrix[4, 0].item())
                for d, coefficients in systems for c in coefficients]
        for k, (values, z) in enumerate(zip(rows, out.optimum().tolist())):
            assert values not in solved
            status = gpchoice.solver._STATUSES[out.status[k]].value
            solved[values] = status, None if math.isnan(z) else z
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gpchoice.selectors, "_solve_rows", solve_rows)
        return solve_choice(cg, keep_assignments=keep), solved


@given(product_templates())
def test_every_combination_reads_its_value_tuple(cg):
    exhaustive, table = _solved_tuples(cg, keep=True)
    coefficient_sets = _coefficient_sets(cg)
    for row in exhaustive.assignments:
        if any(row.values[i] <= 0.0 for i in coefficient_sets):
            assert (row.status, row.objective_value) == ("rejected", None)
        else:
            assert (row.status, row.objective_value) == table[row.values]
    assert len(table) == len({row.values for row in exhaustive.assignments
                              if row.status != "rejected"})
    # the pruned search solves each tuple as keep-all does, z bit for bit
    _, solved = _solved_tuples(cg, keep=False)
    assert {values: table[values] for values in solved} == solved


def _choice_fields(result) -> tuple:
    """Every field of a ChoiceSolveReport: floats by repr, the report's
    arrays by bytes, every assignment row."""
    report = result.report and _report_fields(result.report)
    return (result.status, report, result.chosen_bits, repr(result.chosen_values),
            result.solved, result.rejected, repr(result.assignments))


def _spy(monkeypatch, target, name):
    """The first argument of each call to target.name from now on."""
    seen, original = [], getattr(target, name)

    def spy(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(target, name, staticmethod(spy) if isinstance(target, type) else spy)
    return seen


def _compiled_arrays(table):
    """Every array that a compiled template keeps: its table, its seeds and
    their batch with the solver arrays it prepared, the template's slots and
    dual, and each system's program with its equality system, block layout
    and start."""
    yield from (table.pick, table.grid, table.system, table.seeds, table.seed)
    order, systems = table.seed_batch
    yield order
    yield from (rows for _, rows in systems)
    yield from batch_arrays(systems)
    template = table.template
    yield from (template.exponent_slots, template.coefficient_slots, template.bounds)
    for d in (template.dual, *table.programs):
        yield from (d.term_coefficients, d.block_index, d.exponent_matrix)
    for d in table.programs:
        yield from (d.equality_matrix, d.equality_rhs, *d._layout)
        yield from (arr for arr in d._start if arr is not None)


@pytest.mark.parametrize("keep", [False, True], ids=["pruned", "keep-all"])
def test_a_model_compiles_once_and_reuse_equals_fresh(monkeypatch, keep):
    # solve_choice compiles a model once and keeps it on the object; a third
    # call reads as the first, and as a deep copy, which compiles its own
    templates = _spy(monkeypatch, gpchoice.selectors._Template, "of")
    validated = _spy(monkeypatch, gpchoice.selectors, "validate_choice_gp")
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        templates.clear()
        validated.clear()
        cg = parse_problem(path)
        results = [_choice_fields(solve_choice(cg, keep_assignments=keep)) for _ in range(3)]
        twin = copy.deepcopy(cg)
        assert "_compiled" in vars(cg) and "_compiled" not in vars(twin)
        results.append(_choice_fields(solve_choice(twin, keep_assignments=keep)))
        assert results[1:] == results[:1] * 3
        assert [id(m) for m in templates] == [id(m) for m in validated] == [id(cg), id(twin)]
        for arr in _compiled_arrays(vars(cg)["_compiled"]):
            assert not arr.flags.writeable
            if arr.size:
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 0


def test_a_plain_problem_compiles_once_per_object(monkeypatch):
    # a plain problem keeps its template view, and so the view's compile:
    # two calls on one object compile once and report alike; a copy and an
    # unpickled problem carry no view and compile their own
    compiled = _spy(monkeypatch, gpchoice.selectors._Compiled, "of")
    cg = parse_problem(PROBLEM_DIR / "example2_case3.json")
    g = expand(cg, {cs.name: valid_assignments(cs)[0] for cs in cg.sets})
    results = [_choice_fields(solve_choice(g)) for _ in range(2)]
    assert len(compiled) == 1 and results[1] == results[0]
    assert results[0][0] is Status.OPTIMAL
    for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert "_choice_gp" in vars(g) and "_choice_gp" not in vars(twin)
        assert _choice_fields(solve_choice(twin)) == results[0]
    assert len(compiled) == 3


@given(small_choice_gps())
def test_a_model_solved_twice_equals_a_copy_solved_once(cg):
    for keep in (False, True):
        twin = copy.deepcopy(cg)
        first, second = (_choice_fields(solve_choice(cg, keep_assignments=keep))
                         for _ in range(2))
        assert first == second == _choice_fields(solve_choice(twin, keep_assignments=keep))


def test_each_program_builds_its_layout_and_start_once(monkeypatch):
    # each system's program, the compile's, builds its start when the seeds'
    # batch first solves it; a call's kernels read the block layout of its
    # first system's program, system 0 in every batch here.  The second
    # batch, keep-all's batch and later calls build neither again
    layouts, starts, programs = [], [], []
    original = gpchoice.dual._Layout
    monkeypatch.setattr(gpchoice.dual, "_Layout",
                        lambda *args, **kwargs: layouts.append(1) or original(*args, **kwargs))
    start = gpchoice.solver._equality_start
    monkeypatch.setattr(gpchoice.solver, "_equality_start",
                        lambda d: starts.append(d) or start(d))
    monkeypatch.setattr(gpchoice.selectors, "_solve_rows",
                        lambda systems: programs.extend(d for d, _ in systems) or
                        gpchoice.solver._solve_rows(systems))
    tied = ChoiceGp(  # its pruned search solves a second batch
        variable_names=("x1",),
        objective=(TermTemplate(SetRef("c"), (1.0,)), TermTemplate(1.0, (-1.0,))),
        constraints=(((TermTemplate(SetRef("b"), (1.0,)),), 100.0),),
        sets=(
            CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 2.0)),
            CandidateSet("b", Role.CONSTRAINT_COEFFICIENT, (1.0, 3.0)),
        ),
    )
    models = [parse_problem(path) for path in sorted(PROBLEM_DIR.glob("*.json"))]
    for cg in [*models, tied]:
        calls, built = [], []
        layouts.clear()
        starts.clear()
        for keep in (False, True, False):
            programs.clear()
            solve_choice(cg, keep_assignments=keep)
            calls.append(len(programs))
            built.append(len(layouts))
            # the seeds' batch takes every system, in system order
            own = [id(d) for d in vars(cg)["_compiled"].programs]
            assert [id(d) for d in starts] == own
        assert built == [1, 1, 1]
        if cg is tied:
            # pruned: the seed's system, then again for the tied sibling;
            # keep-all: its one system
            assert calls == [2, 1, 2]


def test_a_model_that_cannot_be_hashed_compiles_every_call(monkeypatch):
    # a list may change between calls, so nothing is kept: each call
    # compiles, and follows the change
    templates = _spy(monkeypatch, gpchoice.selectors._Template, "of")
    objective = [TermTemplate(SetRef("c"), (1.0,)), TermTemplate(1.0, (-1.0,))]
    cg = ChoiceGp(("x",), objective, (),
                  (CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (2.0, 1.0)),))
    with pytest.raises(TypeError):
        hash(cg)
    assert solve_choice(cg).report.objective_value == pytest.approx(2.0, rel=1e-9)
    objective[1] = TermTemplate(4.0, (-1.0,))  # min x + 4 / x: 2 sqrt(4)
    assert solve_choice(cg).report.objective_value == pytest.approx(4.0, rel=1e-9)
    assert templates == [cg, cg] and "_compiled" not in vars(cg)


def test_a_second_call_does_not_hash_the_model(monkeypatch):
    # a compile kept on the model, or on a plain problem's view, is found
    # before the model is hashed: only the first call hashes it
    hashed = []
    for cls in (ChoiceGp, GpProblem):
        monkeypatch.setattr(cls, "__hash__", lambda self, _original=cls.__hash__:
                            hashed.append(self) or _original(self))
    cg = parse_problem(PROBLEM_DIR / "example2_case3.json")
    g = expand(cg, {cs.name: valid_assignments(cs)[0] for cs in cg.sets})
    for model in (cg, g):
        hashed.clear()
        first = _choice_fields(solve_choice(model))
        assert [m is model for m in hashed] == [True]
        hashed.clear()
        assert _choice_fields(solve_choice(model)) == first
        assert _choice_fields(solve_choice(model, keep_assignments=True))
        assert hashed == []


def _spy_prepared(monkeypatch, name):
    """Each solver._Batch whose cached property name is computed from now on."""
    seen, original = [], getattr(gpchoice.solver._Batch, name).func
    prop = functools.cached_property(lambda batch: seen.append(batch) or original(batch))
    prop.__set_name__(gpchoice.solver._Batch, name)
    monkeypatch.setattr(gpchoice.solver._Batch, name, prop)
    return seen


def test_a_model_prepares_its_seed_batch_once(monkeypatch):
    # the compile keeps the seeds' batch, whose first solve builds its solver
    # arrays (read-only: _compiled_arrays); later calls read them, and a
    # second pruned batch is built and prepared per call
    plans, terms = (_spy_prepared(monkeypatch, name) for name in ("_plan", "_terms"))
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        plans.clear()
        terms.clear()
        cg = parse_problem(path)
        results = [_choice_fields(solve_choice(cg)) for _ in range(3)]
        assert results[1:] == results[:1] * 2
        seeds = vars(cg)["_compiled"].seed_batch[1]
        assert [b is seeds for b in plans].count(True) == 1
        assert [b is seeds for b in terms].count(True) == 1
        assert len(plans) == len(terms) and len(plans) in (1, 4)  # two batches a call
        # a fast-pass group's six arrays and the terms' four
        assert len(list(batch_arrays(seeds))) >= 10


def _assert_kept_batches_solve_as_fresh(cg):
    """The seeds' and the keep-all batch of cg's compile, each solved twice,
    give byte for byte what a fresh list of the same pairs gives."""
    table = gpchoice.selectors._Compiled.of(cg)
    if table.seed_batch is None:  # every tuple rejected
        return
    for _, batch in (table.seed_batch, table.batch(np.arange(len(table.grid)))):
        fresh = report_columns(gpchoice.solver._solve_rows(list(batch)))
        for _ in range(2):
            assert report_columns(gpchoice.solver._solve_rows(batch)) == fresh
        assert "_plan" in vars(batch)


def test_kept_batches_solve_as_fresh_lists_on_every_fixture():
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        _assert_kept_batches_solve_as_fresh(parse_problem(path))


@given(product_templates())
def test_kept_product_template_batches_solve_as_fresh_lists(cg):
    _assert_kept_batches_solve_as_fresh(cg)


@given(small_choice_gps())
def test_kept_small_template_batches_solve_as_fresh_lists(cg):
    _assert_kept_batches_solve_as_fresh(cg)


def _held_batches(obj, seen):
    """Every solver._Batch that obj holds, through containers and the
    package's objects' attributes."""
    if id(obj) in seen or isinstance(obj, (type, np.ndarray, str, bytes, int, float)):
        return
    seen.add(id(obj))
    if isinstance(obj, gpchoice.solver._Batch):
        yield obj
    children = [*(obj.values() if isinstance(obj, dict) else ()),
                *(obj if isinstance(obj, (list, tuple)) else ()),
                *(vars(obj).values() if hasattr(obj, "__dict__") else ())]
    for child in children:
        yield from _held_batches(child, seen)


def test_a_keep_all_call_keeps_no_batch_but_the_seeds(monkeypatch):
    # keep-all's batch, which can reach _COMBINATION_CAP rows, and a second
    # pruned batch are built per call and dropped
    batches = _spy(monkeypatch, gpchoice.selectors, "_solve_rows")
    for path in sorted(PROBLEM_DIR.glob("*.json")):
        batches.clear()
        cg = parse_problem(path)
        solve_choice(cg)
        solve_choice(cg, keep_assignments=True)
        table = vars(cg)["_compiled"]
        assert len(batches) in (2, 3) and batches[-1] is not table.seed_batch[1]
        assert "_plan" in vars(batches[-1])  # prepared, then dropped
        held = list(_held_batches(cg, set()))
        assert len(held) == 1 and held[0] is table.seed_batch[1]


def test_threads_share_one_model_and_get_sequential_results():
    paths = sorted(PROBLEM_DIR.glob("*.json"))
    expected = [_choice_fields(solve_choice(parse_problem(path), keep_assignments=keep))
                for path in paths for keep in (False, True)]
    models = [parse_problem(path) for path in paths]  # not yet compiled
    results = {}

    def work(k):
        results[k] = [_choice_fields(solve_choice(cg, keep_assignments=keep))
                      for cg in models for keep in (False, True)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {k: expected for k in range(4)}
