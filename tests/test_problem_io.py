import json

import pytest

import gpchoice
import gpchoice.problem_io
from gpchoice import (
    ChoiceGp,
    GpProblem,
    ProblemSemanticError,
    ProblemSyntaxError,
    as_choice_gp,
    parse_problem,
    parse_problem_text,
    serialize_problem,
)
from helpers import PROBLEM_DIR

ALL_FIXTURES = sorted(PROBLEM_DIR.glob("*.json"))

PLAIN_DOC = {
    "format": "gp-problem/1",
    "variables": ["x1", "x2"],
    "objective": [
        {"coefficient": 1, "exponents": {"x1": -1}},
        {"coefficient": 3, "exponents": {"x2": -3}},
        {"coefficient": 1, "exponents": {"x1": 1, "x2": 1}},
    ],
    "constraints": [
        {"terms": [
            {"coefficient": 1, "exponents": {"x1": 1}},
            {"coefficient": 1, "exponents": {"x2": 1}},
        ], "bound": 1}
    ],
}


def parse_doc(doc):
    return parse_problem_text(json.dumps(doc))


def test_fixture_directory_is_complete():
    names = {p.name for p in ALL_FIXTURES}
    expected = {
        f"example{e}_case{c}.json" for e in (1, 2) for c in range(1, 7)
    }
    assert expected <= names


def test_example1_case1_parses_to_three_sets_of_three():
    model = parse_problem(PROBLEM_DIR / "example1_case1.json")
    assert isinstance(model, ChoiceGp)
    assert [s.size for s in model.sets] == [3, 3, 3]
    assert [s.name for s in model.sets] == ["c", "p", "a"]


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_all_fixtures_parse_and_round_trip(path):
    model = parse_problem(path)
    doc = serialize_problem(model)
    again = parse_problem_text(json.dumps(doc))
    assert again == model


def test_plain_problem_round_trip():
    model = parse_doc(PLAIN_DOC)
    assert isinstance(model, GpProblem)
    doc = serialize_problem(model)
    assert parse_problem_text(json.dumps(doc)) == model


def test_as_choice_gp_wraps_plain_problems():
    model = parse_doc(PLAIN_DOC)
    cg = as_choice_gp(model)
    assert cg.sets == ()
    assert cg.variable_names == ("x1", "x2")


def test_empty_file_is_a_syntax_error():
    with pytest.raises(ProblemSyntaxError):
        parse_problem_text("")
    with pytest.raises(ProblemSyntaxError):
        parse_problem_text("   \n  ")


def test_malformed_json_reports_position():
    with pytest.raises(ProblemSyntaxError) as err:
        parse_problem_text('{"format": "gp-problem/1",,}', source="bad.json")
    assert "bad.json:1:" in str(err.value)


def test_top_level_must_be_an_object():
    with pytest.raises(ProblemSemanticError):
        parse_problem_text("[1, 2, 3]")


def test_unknown_field_is_rejected_by_name():
    doc = dict(PLAIN_DOC, banana=1)
    with pytest.raises(ProblemSemanticError) as err:
        parse_doc(doc)
    assert "banana" in str(err.value)


def test_a_repeated_key_is_rejected_by_name():
    # json.loads alone would keep the last value, the set reference
    text = json.dumps(PLAIN_DOC).replace(
        '"coefficient": 3,', '"coefficient": 99, "coefficient": {"set": "c"},', 1)
    assert text.count('"coefficient": 99') == 1
    with pytest.raises(ProblemSemanticError, match="x.json: key 'coefficient' appears more "
                                                   "than once"):
        parse_problem_text(text, source="x.json")


def test_wrong_format_tag_is_rejected():
    with pytest.raises(ProblemSemanticError):
        parse_doc(dict(PLAIN_DOC, format="gp-problem/999"))


def test_undefined_set_reference_names_the_set():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][0]["coefficient"] = {"set": "mystery"}
    with pytest.raises(ProblemSemanticError) as err:
        parse_doc(doc)
    assert "mystery" in str(err.value)


def test_unreferenced_set_is_rejected():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["candidate_sets"] = [
        {"name": "c", "role": "objective_coefficient", "values": [1, 2]}
    ]
    with pytest.raises(ProblemSemanticError) as err:
        parse_doc(doc)
    assert "never referenced" in str(err.value)


def test_negative_coefficient_candidate_is_rejected():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][0]["coefficient"] = {"set": "c"}
    doc["candidate_sets"] = [
        {"name": "c", "role": "objective_coefficient", "values": [1, -2]}
    ]
    with pytest.raises(ProblemSemanticError) as err:
        parse_doc(doc)
    assert "negative" in str(err.value)


def test_negative_literal_coefficient_is_rejected():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][0]["coefficient"] = -1
    with pytest.raises(ProblemSemanticError):
        parse_doc(doc)


def test_unknown_variable_in_exponents_is_rejected():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][0]["exponents"] = {"x9": 1}
    with pytest.raises(ProblemSemanticError) as err:
        parse_doc(doc)
    assert "x9" in str(err.value)


def test_bad_role_is_rejected():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][0]["coefficient"] = {"set": "c"}
    doc["candidate_sets"] = [{"name": "c", "role": "flavor", "values": [1, 2]}]
    with pytest.raises(ProblemSemanticError):
        parse_doc(doc)


def test_non_positive_bound_is_rejected():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["constraints"][0]["bound"] = 0
    with pytest.raises(ProblemSemanticError):
        parse_doc(doc)


def test_duplicate_variable_names_are_rejected():
    with pytest.raises(ProblemSemanticError):
        parse_doc(dict(PLAIN_DOC, variables=["x1", "x1"]))


def test_oversized_candidate_set_is_rejected():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][0]["coefficient"] = {"set": "c"}
    doc["candidate_sets"] = [
        {"name": "c", "role": "objective_coefficient", "values": list(range(1, 10))}
    ]
    with pytest.raises(ProblemSemanticError):
        parse_doc(doc)


def test_missing_bound_defaults_to_one():
    doc = json.loads(json.dumps(PLAIN_DOC))
    del doc["constraints"][0]["bound"]
    model = parse_doc(doc)
    assert model.constraints[0][1] == 1.0


def test_every_value_error_is_named_at_once():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][0]["coefficient"] = -1
    doc["constraints"][0]["bound"] = 0
    with pytest.raises(ProblemSemanticError) as err:
        parse_doc(doc)
    message = str(err.value)
    assert "objective term 0: literal coefficient -1.0 is not positive" in message
    assert "constraint 0: bound 0.0 is not finite and positive" in message


@pytest.mark.parametrize("where", ["coefficient", "exponent", "bound", "candidate"])
def test_json_nan_literal_is_rejected(where):
    doc = json.loads(json.dumps(PLAIN_DOC))
    if where == "coefficient":
        doc["objective"][0]["coefficient"] = float("nan")
    elif where == "exponent":
        doc["objective"][0]["exponents"]["x1"] = float("nan")
    elif where == "bound":
        doc["constraints"][0]["bound"] = float("nan")
    else:
        doc["objective"][0]["coefficient"] = {"set": "c"}
        doc["candidate_sets"] = [
            {"name": "c", "role": "objective_coefficient", "values": [1, float("nan")]}
        ]
    text = json.dumps(doc)
    assert "NaN" in text
    with pytest.raises(ProblemSemanticError, match="not finite"):
        parse_problem_text(text)


def test_integer_beyond_double_range_is_rejected_with_its_position():
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][1]["coefficient"] = 10**400
    text = json.dumps(doc)
    with pytest.raises(ProblemSemanticError,
                       match=r"objective\[1\]\.coefficient: integer is too large"):
        parse_problem_text(text)


def test_integer_beyond_the_digit_limit_is_rejected_with_the_limit():
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal longer than Python's int-string limit of 4300 digits
    doc = json.loads(json.dumps(PLAIN_DOC))
    doc["objective"][1]["coefficient"] = "HUGE"
    text = json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000)
    with pytest.raises(ProblemSemanticError, match=r"^huge\.json: an integer "
                       r"literal has more than 4300 digits$"):
        parse_problem_text(text, source="huge.json")


NOT_LISTS = pytest.mark.parametrize(
    "value", [5, None, {"terms": []}, "terms"], ids=["int", "null", "dict", "string"]
)


@NOT_LISTS
@pytest.mark.parametrize("field", ["constraints", "candidate_sets"])
def test_an_optional_list_field_that_is_not_a_list_is_rejected(field, value):
    doc = dict(PLAIN_DOC, **{field: value})
    message = rf"^p\.json\.{field}: expected a list$"
    with pytest.raises(ProblemSemanticError, match=message):
        parse_problem_text(json.dumps(doc), source="p.json")


@pytest.mark.parametrize("where", ["objective", "terms", "values"])
def test_a_required_list_field_that_is_not_a_list_names_itself(where):
    doc = json.loads(json.dumps(PLAIN_DOC))
    if where == "objective":
        doc["objective"] = 5
        expected = "p.json.objective"
    elif where == "terms":
        doc["constraints"][0]["terms"] = 5
        expected = "p.json.constraints[0].terms"
    else:
        doc["candidate_sets"] = [{"name": "c", "role": "exponent", "values": 5}]
        expected = "p.json.candidate_sets[0].values"
    with pytest.raises(ProblemSemanticError) as err:
        parse_problem_text(json.dumps(doc), source="p.json")
    assert str(err.value) == f"{expected}: expected a list"


def test_public_names_resolve():
    for name in gpchoice.__all__:
        assert hasattr(gpchoice, name), name
    assert gpchoice.problem_io.as_choice_gp is gpchoice.as_choice_gp
