"""The package's public surface: a new export is a decision, made here."""

import ast
from pathlib import Path

import gpchoice

PUBLIC = {
    # models, files and their errors
    "GpProblem", "StandardGp", "Posynomial", "Monomial", "GpDomainError",
    "make_posynomial", "make_problem", "evaluate", "standardize",
    "FORMAT_TAG", "parse_problem", "parse_problem_text", "serialize_problem",
    "ProblemSyntaxError", "ProblemSemanticError",
    # the dual and its solve
    "DualProgram", "build_dual", "log_dual_objective", "DualSolution",
    "SolveReport", "Status", "ReconstructionError", "solve_dual",
    "recover_primal", "solve",
    # certificates from the problem's terms alone
    "problem_terms", "optimal_claim", "infeasible_claim",
    # candidate sets, the paper's selector encoding, and the choice
    "CandidateSet", "Role", "SetRef", "TermTemplate", "ChoiceGp",
    "valid_assignments", "selector_polynomial", "case_constraint_violations",
    "resolve_choice", "expand", "ExpansionRejected", "as_choice_gp",
    "validate", "validate_choice_gp", "solve_choice", "ChoiceSolveReport",
    "AssignmentOutcome",
}


def test_all_is_the_listed_set():
    assert sorted(gpchoice.__all__) == gpchoice.__all__
    assert set(gpchoice.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(gpchoice, name)


def test_no_module_keeps_a_process_wide_cache():
    # what the package derives is kept on what it is derived from (a model,
    # its compile, a program or a batch) and goes with it: no functools cache
    for path in sorted(Path(gpchoice.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            assert not names & {"lru_cache", "cache"}, path.name
