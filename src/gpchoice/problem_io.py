"""Versioned problem-file format: parse and serialize GP models.

Files are JSON objects with explicit per-variable exponent maps; no
expression syntax.  Coefficient and exponent slots are either numeric
literals or references of the form {"set": "<name>"} into the declared
candidate sets.  Unknown fields and repeated keys are rejected so files
stay diffable and mistakes surface early.

The parser checks the document's shape only: JSON syntax, types, known and
required fields, the format tag, variable and role names.  The values (signs,
finiteness, uniqueness, shapes of the model) are checked by
validate_choice_gp, which reports every problem of a file at once.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from .posynomial import GpDomainError, GpProblem
from .selectors import (
    CandidateSet,
    ChoiceGp,
    Role,
    SetRef,
    Slot,
    TermTemplate,
    as_choice_gp,
    expand,
    validate_choice_gp,
)

FORMAT_TAG = "gp-problem/1"


class ProblemSyntaxError(Exception):
    """File is not well-formed JSON (or is empty)."""


class ProblemSemanticError(Exception):
    """File parses but violates the problem schema."""


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ProblemSemanticError(
            f"{where}: unknown field(s) {sorted(unknown)}"
        )
    missing = required - set(obj)
    if missing:
        raise ProblemSemanticError(f"{where}: missing field(s) {sorted(missing)}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemSemanticError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond double range
        raise ProblemSemanticError(
            f"{where}: integer is too large for a double"
        ) from None


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ProblemSemanticError(f"{where}: expected a list")
    return value


def _slot(value: Any, where: str) -> Slot:
    if isinstance(value, dict):
        _require_keys(value, {"set"}, {"set"}, where)
        if not isinstance(value["set"], str):
            raise ProblemSemanticError(f"{where}: set reference must be a string")
        return SetRef(value["set"])
    return _number(value, where)


def _term(obj: Any, variables: list[str], where: str) -> TermTemplate:
    if not isinstance(obj, dict):
        raise ProblemSemanticError(f"{where}: expected an object")
    _require_keys(obj, {"coefficient", "exponents"}, {"coefficient"}, where)
    coefficient = _slot(obj["coefficient"], f"{where}.coefficient")
    exponents = obj.get("exponents", {})
    if not isinstance(exponents, dict):
        raise ProblemSemanticError(f"{where}.exponents: expected an object")
    exps: list[Slot] = [0.0] * len(variables)
    for name, value in exponents.items():
        if name not in variables:
            raise ProblemSemanticError(
                f"{where}.exponents: unknown variable {name!r}"
            )
        exps[variables.index(name)] = _slot(value, f"{where}.exponents.{name}")
    return TermTemplate(coefficient, tuple(exps))


_ROLES = {r.value: r for r in Role}


def _candidate_set(obj: Any, where: str) -> CandidateSet:
    if not isinstance(obj, dict):
        raise ProblemSemanticError(f"{where}: expected an object")
    _require_keys(obj, {"name", "role", "values"}, {"name", "role", "values"}, where)
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise ProblemSemanticError(f"{where}.name: expected a non-empty string")
    if not isinstance(obj["role"], str) or obj["role"] not in _ROLES:
        raise ProblemSemanticError(
            f"{where}.role: {obj['role']!r} is not one of {sorted(_ROLES)}"
        )
    values = tuple(
        _number(v, f"{where}.values[{i}]")
        for i, v in enumerate(_list(obj["values"], f"{where}.values"))
    )
    try:
        return CandidateSet(obj["name"], _ROLES[obj["role"]], values)
    except GpDomainError as e:
        raise ProblemSemanticError(f"{where}.values: {e}") from None


def parse_problem_text(text: str, source: str = "<string>") -> ChoiceGp | GpProblem:
    """Parse a problem document; returns a plain GpProblem when no sets exist.

    Raises ProblemSyntaxError for malformed JSON and ProblemSemanticError for
    a key repeated in one object (JSON would keep its last value), a schema
    violation or, all listed together, invalid values; messages carry the
    offending location or key.
    """
    if not text.strip():
        raise ProblemSyntaxError(f"{source}: file is empty")

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for k in keys if keys.count(k) > 1)
            raise ProblemSemanticError(f"{source}: key {key!r} appears more than once "
                                       "in one object")
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise ProblemSyntaxError(
            f"{source}:{e.lineno}:{e.colno}: {e.msg}"
        ) from None
    except ValueError:  # an integer literal beyond Python's digit limit
        raise ProblemSemanticError(
            f"{source}: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(doc, dict):
        raise ProblemSemanticError(f"{source}: top level must be an object")

    _require_keys(
        doc,
        {"format", "name", "variables", "objective", "constraints", "candidate_sets"},
        {"format", "variables", "objective"},
        source,
    )
    if doc["format"] != FORMAT_TAG:
        raise ProblemSemanticError(
            f"{source}.format: expected {FORMAT_TAG!r}, got {doc['format']!r}"
        )
    variables = doc["variables"]
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) for v in variables)
    ):
        raise ProblemSemanticError(
            f"{source}.variables: expected a non-empty list of names"
        )
    objective = tuple(
        _term(t, variables, f"{source}.objective[{i}]")
        for i, t in enumerate(_list(doc["objective"], f"{source}.objective"))
    )

    constraints = []
    for i, obj in enumerate(_list(doc.get("constraints", []), f"{source}.constraints")):
        where = f"{source}.constraints[{i}]"
        if not isinstance(obj, dict):
            raise ProblemSemanticError(f"{where}: expected an object")
        _require_keys(obj, {"terms", "bound"}, {"terms"}, where)
        terms = tuple(
            _term(t, variables, f"{where}.terms[{j}]")
            for j, t in enumerate(_list(obj["terms"], f"{where}.terms"))
        )
        constraints.append((terms, _number(obj.get("bound", 1.0), f"{where}.bound")))

    sets = tuple(
        _candidate_set(s, f"{source}.candidate_sets[{i}]")
        for i, s in enumerate(
            _list(doc.get("candidate_sets", []), f"{source}.candidate_sets"))
    )
    cg = ChoiceGp(tuple(variables), objective, tuple(constraints), sets)
    problems = validate_choice_gp(cg)
    if problems:
        raise ProblemSemanticError(f"{source}: " + "; ".join(problems))
    return cg if sets else expand(cg, {})


def parse_problem(path: str | Path) -> ChoiceGp | GpProblem:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ProblemSyntaxError(f"{path}: not UTF-8 text") from None
    return parse_problem_text(text, source=str(path))


def serialize_problem(model: ChoiceGp | GpProblem) -> dict:
    """Document form of a model; parse(serialize(m)) reproduces m."""
    cg = as_choice_gp(model)
    variables = list(cg.variable_names)

    def slot_doc(slot: Slot):
        if isinstance(slot, SetRef):
            return {"set": slot.name}
        return slot

    def term_doc(t: TermTemplate):
        exps = {
            variables[j]: slot_doc(e)
            for j, e in enumerate(t.exponents)
            if isinstance(e, SetRef) or e != 0.0
        }
        return {"coefficient": slot_doc(t.coefficient), "exponents": exps}

    doc: dict = {"format": FORMAT_TAG, "variables": variables}
    doc["objective"] = [term_doc(t) for t in cg.objective]
    doc["constraints"] = [
        {"terms": [term_doc(t) for t in ts], "bound": b} for ts, b in cg.constraints
    ]
    if cg.sets:
        doc["candidate_sets"] = [
            {"name": s.name, "role": s.role.value, "values": list(s.candidates)}
            for s in cg.sets
        ]
    return doc
