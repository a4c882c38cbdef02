import math

import pytest
from hypothesis import given, strategies as st

from gpchoice import (
    GpDomainError,
    evaluate,
    make_posynomial,
    make_problem,
    standardize,
    validate,
)
from helpers import EX1_X, EX1_Z, EX2_X, example1_problem, example2_problem


class TestEvaluate:
    def test_zero_exponents_return_coefficient(self):
        p = make_posynomial([(7.0, (0.0, 0.0))])
        for x in ((1.0, 1.0), (0.3, 42.0), (5.0, 0.001)):
            assert evaluate(p, x) == 7.0

    def test_example1_objective_at_reported_minimizer(self):
        g = example1_problem(c=1.0, p=-1.0)
        assert evaluate(g.objective, EX1_X) == pytest.approx(EX1_Z, abs=1e-4)

    def test_example2_constraint_active_at_reported_minimizer(self):
        g = example2_problem()
        posy, _ = g.constraints[1]  # 100/(x1*x2*x3)
        assert evaluate(posy, EX2_X) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_points_outside_domain(self, bad):
        p = make_posynomial([(1.0, (1.0,))])
        with pytest.raises(GpDomainError):
            evaluate(p, (bad,))

    def test_rejects_wrong_arity(self):
        p = make_posynomial([(1.0, (1.0, 2.0))])
        with pytest.raises(GpDomainError):
            evaluate(p, (1.0,))

    def test_rejects_a_later_term_of_another_arity(self):
        # every term is checked, not the first alone
        p = make_posynomial([(1.0, (1.0,)), (1.0, (1.0, 2.0))])
        with pytest.raises(GpDomainError):
            evaluate(p, (1.0,))


class TestStandardize:
    def test_unit_bounds_leave_problem_unchanged(self):
        g = example1_problem()
        s = standardize(g)
        assert s.objective == g.objective
        assert s.constraints == (g.constraints[0][0],)

    def test_divides_coefficients_by_bound(self):
        g = make_problem(
            objective=[(1.0, (1.0, 0.0))],
            constraints=[([(3.0, (1.0, 0.0)), (1.0, (0.0, 1.0))], 6.0)],
        )
        s = standardize(g)
        coeffs = [t.coefficient for t in s.constraints[0].terms]
        assert coeffs == pytest.approx([0.5, 1.0 / 6.0], rel=1e-15)

    @pytest.mark.parametrize("bound", [0.0, -2.0, math.inf])
    def test_rejects_bad_bounds(self, bound):
        g = make_problem(
            objective=[(1.0, (1.0,))],
            constraints=[([(1.0, (1.0,))], bound)],
        )
        with pytest.raises(GpDomainError):
            standardize(g)


class TestValidate:
    def test_well_formed_problem_has_no_violations(self):
        assert validate(example1_problem()) == []
        assert validate(example2_problem()) == []

    def test_flags_negative_coefficient_with_term_position(self):
        g = make_problem([(1.0, (1.0,)), (-2.0, (0.0,))])
        violations = validate(g)
        assert len(violations) == 1
        assert "term 1" in violations[0]

    def test_flags_non_finite_exponent(self):
        g = make_problem([(1.0, (math.nan,))])
        assert len(validate(g)) == 1

    def test_flags_non_positive_bound(self):
        g = make_problem([(1.0, (1.0,))], [([(1.0, (1.0,))], 1.0)])
        bad = make_problem([(1.0, (1.0,))], [([(1.0, (1.0,))], -1.0)])
        assert validate(g) == []
        assert any("bound" in v for v in validate(bad))

    def test_flags_arity_mismatch(self):
        g = make_problem(
            [(1.0, (1.0, 2.0))], variable_names=["x1", "x2", "x3"]
        )
        assert any("exponents" in v for v in validate(g))


positive_coeff = st.floats(0.01, 100.0)
exponent = st.floats(-3.0, 3.0)
point_coord = st.floats(0.1, 10.0)


@st.composite
def posynomial_and_points(draw, n_points=1):
    n = draw(st.integers(1, 3))
    terms = draw(
        st.lists(
            st.tuples(positive_coeff, st.tuples(*[exponent] * n)),
            min_size=1,
            max_size=4,
        )
    )
    points = [
        tuple(draw(point_coord) for _ in range(n)) for _ in range(n_points)
    ]
    return make_posynomial(terms), points


@given(posynomial_and_points())
def test_increasing_a_coefficient_increases_the_value(data):
    posy, (x,) = data
    base = evaluate(posy, x)
    for t in range(len(posy.terms)):
        bumped = make_posynomial(
            [
                (m.coefficient + (1.0 if i == t else 0.0), m.exponents)
                for i, m in enumerate(posy.terms)
            ]
        )
        assert evaluate(bumped, x) > base


@given(posynomial_and_points(n_points=2), st.floats(0.05, 0.95))
def test_log_convexity_along_geometric_interpolation(data, theta):
    posy, (x, y) = data
    blend = tuple(a**theta * b ** (1.0 - theta) for a, b in zip(x, y))
    left = evaluate(posy, blend)
    right = evaluate(posy, x) ** theta * evaluate(posy, y) ** (1.0 - theta)
    assert left <= right * (1.0 + 1e-9)


@given(posynomial_and_points(), st.floats(0.01, 50.0))
def test_standardize_scales_constraint_values_exactly(data, bound):
    posy, (x,) = data
    terms = [(m.coefficient, m.exponents) for m in posy.terms]
    g = make_problem(objective=[(1.0, posy.terms[0].exponents)],
                     constraints=[(terms, bound)])
    s = standardize(g)
    raw = evaluate(g.constraints[0][0], x)
    scaled = evaluate(s.constraints[0], x)
    assert scaled == pytest.approx(raw / bound, rel=1e-12)
    # feasibility is preserved both ways
    assert (raw <= bound) == (scaled <= 1.0 + 1e-15 * abs(scaled))


@given(posynomial_and_points())
def test_standardize_preserves_feasibility_on_random_problems(data):
    posy, (x,) = data
    terms = [(m.coefficient, m.exponents) for m in posy.terms]
    value = evaluate(posy, x)
    for bound in (value * 0.9, value * 1.1):
        g = make_problem(objective=[(1.0, posy.terms[0].exponents)],
                         constraints=[(terms, bound)])
        s = standardize(g)
        assert (evaluate(g.constraints[0][0], x) <= bound * (1 + 1e-12)) == (
            evaluate(s.constraints[0], x) <= 1.0 + 1e-12
        )
