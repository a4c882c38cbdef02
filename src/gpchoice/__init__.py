"""Posynomial geometric programming with discrete candidate selection.

Solves standard-form GPs through their linearly constrained dual and handles
problems whose coefficients or exponents are picked from small candidate sets
by enumerating binary selector assignments exactly.
"""

from types import ModuleType as _ModuleType

from .certificate import infeasible_claim, optimal_claim, problem_terms
from .dual import (
    DualProgram,
    build_dual,
    log_dual_objective,
)
from .posynomial import (
    GpDomainError,
    GpProblem,
    Monomial,
    Posynomial,
    StandardGp,
    evaluate,
    make_posynomial,
    make_problem,
    standardize,
)
from .problem_io import (
    FORMAT_TAG,
    ProblemSemanticError,
    ProblemSyntaxError,
    parse_problem,
    parse_problem_text,
    serialize_problem,
)
from .selectors import (
    AssignmentOutcome,
    CandidateSet,
    ChoiceGp,
    ChoiceSolveReport,
    ExpansionRejected,
    Role,
    SetRef,
    TermTemplate,
    as_choice_gp,
    case_constraint_violations,
    expand,
    resolve_choice,
    selector_polynomial,
    solve_choice,
    valid_assignments,
    validate,
    validate_choice_gp,
)
from .solver import (
    DualSolution,
    ReconstructionError,
    SolveReport,
    Status,
    recover_primal,
    solve,
    solve_dual,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
