"""Shared builders and reference values for the test suite."""

import copy
import dataclasses
import io
import json
import math
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from gpchoice import (
    CandidateSet,
    ChoiceGp,
    ExpansionRejected,
    GpDomainError,
    GpProblem,
    Posynomial,
    ProblemSemanticError,
    ProblemSyntaxError,
    Role,
    SetRef,
    StandardGp,
    Status,
    TermTemplate,
    as_choice_gp,
    expand,
    make_problem,
    optimal_claim,
    parse_problem,
    parse_problem_text,
    problem_terms,
    solve_choice,
    standardize,
)
from gpchoice.cli import main as cli_main
from gpchoice.selectors import PATTERNS, checked_choice_gp

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"

# first shipped example: min c*x1^p + 3/x2^3 + x1*x2  s.t.  a*x1 + x2 <= 1
EX1_Z = 11.01098
EX1_X = (0.2069792, 0.7930208)
EX1_W = (0.4387805, 0.5463127, 0.01490681, 0.4238737, 1.624031)

# second shipped example: min c*x1 + 10*x2 + 4*x3 + 2*x4
#   s.t.  a*x1^p*x4^-2 + x2^2*x4^-2 <= 1,  100/(x1*x2*x3) <= 1
EX2_Z = 50.60611
EX2_X = (16.86890, 1.405717, 4.217114, 1.405791)
EX2_W = (0.3333372, 0.2777762, 0.3333285, 0.05555811, 0.2903339e-05,
         0.02777615, 0.3333285)


def report_columns(reports) -> tuple:
    """Every column of a batch's solver._Reports: arrays by bytes, floats by
    repr, each failure by row and message."""
    duals, failures = reports.duals, reports.failures
    return (reports.status.tobytes(),
            *(getattr(duals, f.name).tobytes() for f in dataclasses.fields(duals)),
            reports.optimal, None if reports.x is None else reports.x.tobytes(),
            None if failures is None else [(k, str(e)) for k, e in failures.items()],
            repr(reports.claim))


def batch_arrays(batch):
    """Every array that a solver._Batch prepared and keeps: the fast pass's
    groups, its rows' terms and each reduced batch's coefficient rows and
    arrays, recursively; the caller's coefficient rows are not among them."""
    plan, terms = vars(batch).get("_plan"), vars(batch).get("_terms")
    if plan is not None:
        for group in plan.groups:
            yield from (arr for arr in group if isinstance(arr, np.ndarray))
        for _, _, route in plan.routes:
            if isinstance(route, tuple):  # a reduced batch
                yield from (rows for _, rows in route)
                yield from batch_arrays(route)
    if terms is not None:
        yield from (*terms[0], terms[1])


def example1_problem(c=1.0, p=-1.0, a=1.0) -> GpProblem:
    return make_problem(
        objective=[(c, (p, 0)), (3, (0, -3)), (1, (1, 1))],
        constraints=[([(a, (1, 0)), (1, (0, 1))], 1.0)],
    )


def example2_problem(c=1.0, p=-3.0, a=1.0) -> GpProblem:
    return make_problem(
        objective=[
            (c, (1, 0, 0, 0)),
            (10, (0, 1, 0, 0)),
            (4, (0, 0, 1, 0)),
            (2, (0, 0, 0, 1)),
        ],
        constraints=[
            ([(a, (p, 0, 0, -2)), (1, (0, 2, 0, -2))], 1.0),
            ([(100, (-1, -1, -1, 0))], 1.0),
        ],
    )


def random_feasible_gp(rng) -> GpProblem:
    """Small random GP, feasible by construction at a known interior point.

    Coefficients land in [0.1, 10], exponents in [-3, 3], at most six terms
    over at most three variables.  One all-positive and one all-negative
    exponent row in the objective pull the minimizer toward a bounded box.
    """
    n = int(rng.integers(1, 4))
    t0 = int(rng.integers(2, 4))
    m = int(rng.integers(1, 3))

    def coeff():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    obj = [(coeff(), rng.uniform(0.3, 2.5, n)), (coeff(), rng.uniform(-2.5, -0.3, n))]
    for _ in range(t0 - 2):
        obj.append((coeff(), rng.uniform(-3.0, 3.0, n)))

    budget = 6 - len(obj)
    cons = []
    x_bar = np.exp(rng.uniform(-0.3, 0.3, n))
    for _ in range(m):
        k = int(rng.integers(1, min(2, budget) + 1)) if budget > 0 else 0
        if k == 0:
            break
        budget -= k
        terms = [(coeff(), rng.uniform(-3.0, 3.0, n)) for _ in range(k)]
        value_at_bar = sum(c * np.prod(x_bar ** np.asarray(e)) for c, e in terms)
        bound = value_at_bar * (1.0 + rng.uniform(0.3, 2.0))
        cons.append((terms, bound))
    return make_problem(obj, cons)


def zero_difficulty_gp(rng) -> tuple[GpProblem, np.ndarray]:
    """Small random GP whose degree of difficulty is zero, with its dual point.

    K = n + 1 terms, some in the objective and the rest in one or two
    constraints with bound 1.  The dual weights w > 0 are drawn first, the
    objective block summing to 1; then the exponents a_k of every term but
    the last, in [-3, 3], and the last term's -sum_{k<K} w_k a_k / w_K, so
    that sum_k w_k a_k = 0.  The equality system is square and nonsingular,
    so w is the unique dual point and z* = prod_k (c_k / w_k)^w_k times
    prod_i lambda_i^lambda_i, lambda_i the weight sum of constraint i.
    Returns the problem and w in term order, objective terms first.
    """
    return _zero_difficulty(rng, lambda k: rng.uniform(0.5, 1.5, k))


def tiny_weight_gp(rng) -> tuple[GpProblem, np.ndarray]:
    """zero_difficulty_gp with optimal weights down to 1e-30, and its dual point.

    The first K - 1 weights are log-uniform in [1e-30, 1] before the
    objective block is scaled to sum to 1; the last, whose term's exponents
    close orthogonality, is uniform in [0.5, 1.5], so those exponents stay
    within a few units (a tiny last weight would give exponents near 1e30).
    The optimum keeps its closed form, z* = prod_k (c_k / w_k)^w_k times
    prod_i lambda_i^lambda_i.
    """
    return _zero_difficulty(rng, lambda k: np.append(
        10.0 ** rng.uniform(-30.0, 0.0, k - 1), rng.uniform(0.5, 1.5)))


def _zero_difficulty(rng, draw_weights) -> tuple[GpProblem, np.ndarray]:
    """The GP of zero_difficulty_gp at weights draw_weights(K), and those
    weights with the objective block scaled to sum to 1."""
    n = int(rng.integers(1, 4))
    k = n + 1
    t0 = int(rng.integers(1, k + 1))
    w = draw_weights(k)
    w[:t0] /= w[:t0].sum()
    exponents = rng.uniform(-3.0, 3.0, (k, n))
    exponents[-1] = -(w[:-1] @ exponents[:-1]) / w[-1]
    terms = [(float(10.0 ** rng.uniform(-1.0, 1.0)), e) for e in exponents]
    # the constraint terms split into one or two blocks
    split = t0 + int(rng.integers(1, k - t0 + 1)) if t0 < k else k
    blocks = [terms[t0:split], terms[split:]]
    return make_problem(terms[:t0], [(b, 1.0) for b in blocks if b]), w


def negative_difficulty_gp(rng) -> GpProblem:
    """Small random GP with K <= n terms and generic exponents in [-3, 3]:
    its dual equalities, n + 1 of them in K weights, have no solution."""
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, n + 1))
    t0 = int(rng.integers(1, k + 1))
    terms = [(float(10.0 ** rng.uniform(-1.0, 1.0)), rng.uniform(-3.0, 3.0, n))
             for _ in range(k)]
    return make_problem(terms[:t0], [(terms[t0:], 1.0)] if t0 < k else [])


def first_term_split(g: GpProblem) -> GpProblem:
    """g with its first objective term split into two equal halves: the same
    problem, so the same status and optimum, written with a duplicate
    monomial."""
    first, *rest = g.objective.terms
    half = replace(first, coefficient=first.coefficient / 2)
    return replace(g, objective=Posynomial((half, half, *rest)))


def primal_infeasible_gp(rng) -> GpProblem:
    """Small random GP that is infeasible by construction.

    Its constraints are c1*x^a <= 1, half the time with one more term, and
    c2*x^-a <= 1 with c1*c2 > 1: multiplied together the two chosen terms
    give c1*c2 <= 1.  certificate.infeasible_claim checks this with
    multipliers (1, 1) on term 0 of each constraint.  The objective is
    random, as in random_feasible_gp.
    """
    n = int(rng.integers(1, 4))

    def coeff():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    obj = [(coeff(), rng.uniform(0.3, 2.5, n)), (coeff(), rng.uniform(-2.5, -0.3, n))]
    for _ in range(int(rng.integers(0, 2))):
        obj.append((coeff(), rng.uniform(-3.0, 3.0, n)))
    a = rng.uniform(-3.0, 3.0, n)
    c1 = coeff()
    c2 = float(10.0 ** rng.uniform(0.01, 1.0)) / c1  # log(c1*c2) > 0
    first = [(c1, a)]
    if rng.integers(0, 2):
        first.append((coeff(), rng.uniform(-3.0, 3.0, n)))
    return make_problem(obj, [(first, 1.0), ([(c2, -a)], 1.0)])


def free_variable_gp(rng) -> GpProblem:
    """Small random GP over (x, y) whose y is free at the optimum.

    min a*x + b/x subject to sum_k c_k*y0^-e_k*y^e_k <= sum_k c_k / u, with
    u in [0.3, 0.9] and y0 != 1.  At y = y0 the constraint is sum_k c_k, so
    y0 is strictly feasible; x appears in the objective only, so the optimum
    is z = 2*sqrt(a*b) at x = sqrt(b/a), with y anywhere feasible.
    """

    def coeff():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    a, b = coeff(), coeff()
    y0 = float(np.exp(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)))
    c = [coeff() for _ in range(int(rng.integers(1, 4)))]
    e = rng.uniform(-3.0, 3.0, len(c))
    terms = [(ck * y0 ** -ek, (0.0, ek)) for ck, ek in zip(c, e)]
    bound = sum(c) / rng.uniform(0.3, 0.9)
    return make_problem([(a, (1.0, 0.0)), (b, (-1.0, 0.0))], [(terms, bound)])


def first_term_multipliers(s: StandardGp, multipliers) -> list[float]:
    """Multipliers on the constraint terms of s, in order: multipliers[i] on
    the first term of constraint i and 0 on the others."""
    nu = []
    for posy, mu in zip(s.constraints, multipliers, strict=True):
        nu += [float(mu)] + [0.0] * (posy.term_count - 1)
    return nu


def gate_sizing_chain(rng, n: int) -> GpProblem:
    """Simplified gate-sizing chain (Boyd, Kim, Vandenberghe and Hassibi, A
    tutorial on geometric programming, 2007, section 6) over x_1..x_n.

    min sum_i a_i*x_{i+1}/x_i + b/x_n + x_1 subject to sum_i c_i*x_i <= 3n
    and 1/x_i <= 1, with a_i, c_i in [0.5, 2] and b in [5, 20].  x = 1 is
    strictly feasible, as sum_i c_i <= 2n.
    """
    eye = np.eye(n)
    a, c = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n)
    b = float(rng.uniform(5.0, 20.0))
    objective = [(float(ai), eye[i + 1] - eye[i]) for i, ai in enumerate(a)]
    objective += [(b, -eye[-1]), (1.0, eye[0])]
    constraints = [([(float(ci), eye[i]) for i, ci in enumerate(c)], 3.0 * n)]
    constraints += [([(1.0, -eye[i])], 1.0) for i in range(n)]
    return make_problem(objective, constraints)


def stalled_choice_gp(kind: str) -> ChoiceGp:
    """A template over (x, y) subject to y + y^2 <= 1.  An expansion whose
    objective leaves y out ends ITERATION_LIMIT, as the free-variable
    problem does (ROADMAP item 1), at a dual value that bounds its optimum:

    - "wrong winner": min x + 1/x + y^q, q in {0, -1}.  q = 0 stalls at
      dual value 3, below the optimum 2 + (1 + sqrt 5) / 2 of q = -1.
    - "wrong infeasible": min c*x + 1/x, c in {1, 4}.  Both stall, at dual
      values 2 and 4.
    - "excluded": min x + 1/x + y^q + 10*x^q, q in {0, -1}.  q = 0 stalls at
      dual value 13, above the optimum 2 sqrt 11 + (1 + sqrt 5) / 2 of
      q = -1.
    """
    x, over_x = TermTemplate(1.0, (1.0, 0.0)), TermTemplate(1.0, (-1.0, 0.0))
    y_q = TermTemplate(1.0, (0.0, SetRef("q")))
    q = CandidateSet("q", Role.EXPONENT, (0.0, -1.0))
    objective, sets = {
        "wrong winner": ((x, over_x, y_q), (q,)),
        "wrong infeasible": (
            (TermTemplate(SetRef("c"), (1.0, 0.0)), over_x),
            (CandidateSet("c", Role.OBJECTIVE_COEFFICIENT, (1.0, 4.0)),),
        ),
        "excluded": ((x, over_x, y_q, TermTemplate(10.0, (SetRef("q"), 0.0))), (q,)),
    }[kind]
    y_terms = (TermTemplate(1.0, (0.0, 1.0)), TermTemplate(1.0, (0.0, 2.0)))
    return ChoiceGp(("x", "y"), objective, ((y_terms, 1.0),), sets)


def degenerate_minimax_gp(fixture: str) -> GpProblem:
    """The worst case over a fixture's optimal expansions (ROADMAP item 10).

    For every OPTIMAL keep-all row v of the fixture, with optimum z*(v),
    min t subject to f_0(x; v) / (z*(v) t) <= 1, and each distinct constraint
    of those expansions.  t* is about 1, and many blocks are active at once
    with small lambda: a degenerate dual.  random_minimax_gp with factor 1.
    """
    return random_minimax_gp(None, fixture)


def random_minimax_gp(rng, fixture: str) -> GpProblem:
    """degenerate_minimax_gp with each z*(v) divided by its own factor, drawn
    uniformly from [0.9, 1.1] by rng, row by row (ROADMAP item 2); rng None
    draws factor 1.  t* is then the largest factor's share of its row."""
    cg = parse_problem(PROBLEM_DIR / f"{fixture}.json")
    names = [cs.name for cs in cg.sets]
    constraints = {}  # (terms, bound): None, in first-seen order
    for row in solve_choice(cg, keep_assignments=True).assignments:
        if row.status != Status.OPTIMAL.value:
            continue
        g = expand(cg, dict(zip(names, row.bits)))
        z = row.objective_value / (1.0 if rng is None else float(rng.uniform(0.9, 1.1)))
        terms = ((m.coefficient / z, (*m.exponents, -1.0)) for m in g.objective.terms)
        constraints.setdefault((tuple(terms), 1.0), None)
        for posy, bound in g.constraints:
            terms = ((m.coefficient, (*m.exponents, 0.0)) for m in posy.terms)
            constraints.setdefault((tuple(terms), bound), None)
    n = len(cg.variable_names)
    return make_problem([(1.0, (0.0,) * n + (1.0,))], list(constraints),
                        (*cg.variable_names, "t"))


def large_coefficient_gp() -> GpProblem:
    """ROADMAP item 11's GP, whose optimum is attained: min x1 + 10 x2 + 4 x3
    + 2 x4 s.t. 3e21 x1^-2 x4^-2 + x2^2 x4^-2 <= 1 and 100 / (x1 x2 x3) <= 1.
    After the barrier, its iterate projected onto the reduced equalities is
    not strictly positive."""
    return make_problem(
        [(1.0, (1, 0, 0, 0)), (10.0, (0, 1, 0, 0)), (4.0, (0, 0, 1, 0)),
         (2.0, (0, 0, 0, 1))],
        [([(3e21, (-2, 0, 0, -2)), (1.0, (0, 2, 0, -2))], 1.0),
         ([(100.0, (-1, -1, -1, 0))], 1.0)],
    )


# what a CLI fuzz case puts in place of a value of a fixture (ROADMAP item 11)
FUZZ_VALUES = (None, True, False, 0, -1, 1e308, -1e308, 1e-320, math.nan, math.inf,
               "text", [], {}, [1], {"set": "undeclared"}, 10**400, -0.0)
# the exit codes of the CLI; 2 and 3 only for a file that validation rejects
CLI_EXITS = (0, 2, 3, 4, 5)


def _nodes(doc, path=()):
    """(path, value) of every value below doc, depth first; a path holds the
    keys and indices that lead to its value."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield (*path, key), value
        yield from _nodes(value, (*path, key))


def mutate_document(doc, rng: random.Random, count: int) -> tuple[object, list[str]]:
    """A deep copy of a problem document mutated count times, and each
    mutation as text.  A mutation replaces a value with one of FUZZ_VALUES,
    deletes a key or list entry, duplicates a list entry, or scales a number
    by 10^k for k in -40..40, by 0 or by -1."""
    doc, done = copy.deepcopy(doc), []
    for _ in range(count):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        kind = rng.choice(("replace", "delete", "duplicate", "scale"))
        if kind == "duplicate":
            chosen = [n for n in nodes if isinstance(n[1], list) and n[1]]
        elif kind == "scale":  # beyond 1e300 an int would not convert
            chosen = [n for n in nodes if type(n[1]) is float
                      or type(n[1]) is int and abs(n[1]) < 10**300]
        else:
            chosen = nodes
        if not chosen:
            kind, chosen = "replace", nodes
        path, value = rng.choice(chosen)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        where = "/".join(map(str, path))
        if kind == "replace":
            new = copy.deepcopy(rng.choice(FUZZ_VALUES))
            parent[path[-1]] = new
            done.append(f"replace {where} with {new!r:.40}")
        elif kind == "delete":
            del parent[path[-1]]
            done.append(f"delete {where}")
        elif kind == "duplicate":
            i = rng.randrange(len(value))
            value.insert(rng.randrange(len(value) + 1), copy.deepcopy(value[i]))
            done.append(f"duplicate {where}/{i}")
        else:
            factor = rng.choice((0, -1, 10.0 ** rng.randint(-40, 40)))
            parent[path[-1]] = value * factor
            done.append(f"scale {where} by {factor!r}")
    return doc, done


def fuzz_cases(seed: int, count: int):
    """count CLI fuzz cases drawn from seed, each (fixture name, file text,
    --assign values, mutations): a fixture mutated 1 to 3 times.  The
    assigns select every set of the fixture at its first pattern."""
    rng = random.Random(seed)
    paths = sorted(PROBLEM_DIR.glob("*.json"))
    for _ in range(count):
        path = rng.choice(paths)
        doc = json.loads(path.read_text())
        mutated, done = mutate_document(doc, rng, rng.randint(1, 3))
        assigns = [
            f"{cs['name']}={''.join(map(str, PATTERNS[len(cs['values'])][0]))}"
            for cs in doc["candidate_sets"]
        ]
        yield path.stem, json.dumps(mutated), assigns, done


def _refusal(model, command: str, assigns: Sequence[str]) -> int | None:
    """3 where validation of a parsed model rejects it for this command on
    its own, else None: solve's template check, or the expansion that dual
    selects with assigns (each name=bits)."""
    cg = as_choice_gp(model)
    try:
        if command.startswith("solve"):
            checked_choice_gp(cg)
        elif command == "dual":
            names = {cs.name for cs in cg.sets}
            choice = {name: tuple(map(int, bits))
                      for name, bits in (a.split("=") for a in assigns)}
            if set(choice) - names:
                return 3
            expand(cg, {cs.name: (0, 0) for cs in cg.sets if cs.size == 1} | choice)
    except (GpDomainError, ExpansionRejected):
        return 3
    return None


def _run_cli(argv: Sequence[str]):
    """cli.main(argv) in-process: its exit code, or the exception it raised,
    its stdout and the warnings it gave."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse
            code = e.code
        except Exception as e:  # noqa: BLE001 (any traceback is a fault)
            code = e
    return code, out.getvalue(), caught


def _claim_fault(model, report: dict) -> str | None:
    """Why an exit-0 solve report fails certificate.optimal_claim on the
    expansion its chosen bits name, or None when the claim holds."""
    if report["status"] != "optimal":
        return f"exit 0 with status {report['status']}"
    choice = {name: tuple(map(int, c["bits"])) for name, c in report["chosen"].items()}
    s = standardize(expand(as_choice_gp(model), choice))
    claim = optimal_claim(problem_terms(s), [report["x"]], [report["w"]])
    if not claim.holds[0]:
        return (f"exit 0, but the optimal claim fails: gap {claim.gap[0]:.3e}, "
                f"violation {claim.violation[0]:.3e}")
    return None


def cli_faults(text: str, path: Path, assigns: Sequence[str]) -> list[str]:
    """The faults of the CLI on a problem file of this text, written to path
    (ROADMAP item 11).  It runs validate, solve --format machine, the same
    with --all-assignments, and dual --format machine with assigns.  A fault
    is a traceback, a warning, an exit code outside CLI_EXITS, an exit code
    other than the one parsing or validation gives the file on its own (2 or
    3 exactly where they reject it), or an exit-0 solve report whose x and w
    fail the optimal claim on the expansion it names."""
    path.write_text(text, encoding="utf-8")
    try:
        model, refused = parse_problem_text(text), None
    except ProblemSyntaxError:
        model, refused = None, 2
    except ProblemSemanticError:
        model, refused = None, 3
    except Exception as e:  # noqa: BLE001 (the CLI would print its traceback)
        return [f"parse_problem_text: {type(e).__name__}: {e}"]
    commands = {
        "validate": ["validate"],
        "solve": ["solve", "--format", "machine"],
        "solve --all-assignments": ["solve", "--format", "machine", "--all-assignments"],
        "dual": ["dual", "--format", "machine", *(f"--assign={a}" for a in assigns)],
    }
    faults = []
    for command, argv in commands.items():
        code, out, caught = _run_cli([argv[0], str(path), *argv[1:]])
        expected = refused if model is None else _refusal(model, command, assigns)
        if isinstance(code, Exception):
            faults.append(f"{command}: {type(code).__name__}: {code}")
            continue
        faults += [f"{command}: {w.category.__name__}: {w.message}" for w in caught]
        if code not in CLI_EXITS:
            faults.append(f"{command}: exit {code}")
        elif (code in (2, 3) or expected is not None) and code != expected:
            faults.append(f"{command}: exit {code} where validation gives {expected}")
        elif code == 0 and command.startswith("solve"):
            fault = _claim_fault(model, json.loads(out))
            if fault:
                faults.append(f"{command}: {fault}")
    return faults
