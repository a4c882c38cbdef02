"""Command line interface: solve, dual, validate.

Exit codes: 0 solved to optimality (or validation passed), 2 unreadable or
malformed problem file or a usage error, 3 semantic violation, 4 infeasible
or unbounded, 5 solver did not converge (or a stalled expansion may beat the
winner).  The solver takes no options: its tolerances are constants.  Text
reports print numbers to 7 significant digits; machine reports are a single
JSON object, only ever emitted whole.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .dual import DualProgram, build_dual
from .posynomial import GpDomainError, GpProblem, standardize
from .problem_io import ProblemSemanticError, ProblemSyntaxError, parse_problem
from .selectors import (
    ChoiceGp,
    ChoiceSolveReport,
    ExpansionRejected,
    as_choice_gp,
    checked_choice_gp,
    expand,
    solve_choice,
)
from .solver import DualSolution, Status, solve_dual

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3
EXIT_NOT_SOLVED = 4
EXIT_NO_CONVERGENCE = 5


def _fmt(value: float) -> str:
    return format(value, ".7g")


def _fmt_all(values) -> str:
    return "  ".join(map(_fmt, values))


def _status_exit(status: Status, ds: DualSolution | None) -> int:
    """Exit code of a status; ITERATION_LIMIT also prints ds's residuals."""
    if status is Status.OPTIMAL:
        return EXIT_OK
    if status is not Status.ITERATION_LIMIT:
        return EXIT_NOT_SOLVED
    if ds is not None:
        sys.stderr.write(
            f"solver did not converge: equality residual {ds.equality_residual:.3e},"
            f" stationarity {ds.stationarity:.3e}\n"
        )
    return EXIT_NO_CONVERGENCE


def _equality_row_strings(d: DualProgram) -> list[str]:
    """Each equality row as text, such as "-w01 + 3*w02 = 0"."""
    labels = d.weight_labels()
    rows = []
    for row, rhs in zip(d.equality_matrix, d.equality_rhs):
        lhs = ""
        for coeff, label in zip(row, labels):
            if coeff != 0.0:
                sign = "-" if coeff < 0.0 else "+"
                scale = "" if abs(coeff) == 1.0 else f"{_fmt(abs(coeff))}*"
                # a leading "+" is dropped, a leading "-" takes no space
                lhs += f" {sign} " if lhs else sign.strip("+")
                lhs += scale + label
        rows.append(f"{lhs or '0'} = {_fmt(rhs)}")
    return rows


def _solve_document(
    result: ChoiceSolveReport, timing_ms: float, *, with_assignments: bool
) -> dict:
    report = result.report
    doc: dict = {"status": result.status.value}
    doc |= dict.fromkeys(("z", "x", "w", "lambda", "gap", "chosen"))
    if report is not None and report.status is Status.OPTIMAL:
        assert result.chosen_bits is not None and result.chosen_values is not None
        doc["z"] = report.objective_value
        doc["x"] = list(report.primal_x or ())
        doc["w"] = report.dual.weights.tolist()
        doc["lambda"] = report.dual.lambdas.tolist()
        doc["gap"] = report.duality_gap
        chosen = zip(result.chosen_bits, result.chosen_values)
        doc["chosen"] = {name: {"bits": "".join(map(str, bits)), "value": value}
                         for (name, bits), (_, value) in chosen}
    if with_assignments and result.assignments is not None:
        doc["assignments"] = [
            {
                "bits": ["".join(map(str, b)) for b in a.bits],
                "values": list(a.values),
                "status": a.status,
                "z": a.objective_value,
            }
            for a in result.assignments
        ]
    doc["timing_ms"] = timing_ms
    return doc


def _print_machine(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _print_solve_text(doc: dict, solved: int, rejected: int) -> None:
    out = [f"status: {doc['status']}"]
    if doc["z"] is not None:
        out.append(f"z: {_fmt(doc['z'])}")
        out.append(f"x: {_fmt_all(doc['x'])}")
        if doc["chosen"]:
            chosen = ", ".join(
                f"{name} = {_fmt(c['value'])} (bits {c['bits']})"
                for name, c in doc["chosen"].items()
            )
            out.append(f"chosen: {chosen}")
        out.append(f"w: {_fmt_all(doc['w'])}")
        if doc["lambda"]:
            out.append(f"lambda: {_fmt_all(doc['lambda'])}")
        out.append(f"duality gap: {_fmt(doc['gap'])}")
        out.append(f"solved: {solved}, rejected: {rejected}")
    if "assignments" in doc:
        out.append("assignments:")
        for row in doc["assignments"]:
            bits = " ".join(row["bits"])
            z = "-" if row["z"] is None else _fmt(row["z"])
            out.append(f"  [{bits}] {row['status']} z={z}")
    out.append(f"timing_ms: {doc['timing_ms']:.3f}")
    sys.stdout.write("\n".join(out) + "\n")


def _load(path: str) -> ChoiceGp | GpProblem | int:
    try:
        return parse_problem(path)
    except FileNotFoundError:
        sys.stderr.write(f"error: no such file: {path}\n")
        return EXIT_SYNTAX
    except OSError as e:  # a directory, say, or a file without read permission
        sys.stderr.write(f"error: cannot read {path}: {e.strerror}\n")
        return EXIT_SYNTAX
    except ProblemSyntaxError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SYNTAX
    except ProblemSemanticError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SEMANTIC


def _cmd_solve(args: argparse.Namespace) -> int:
    model = _load(args.problem)
    if isinstance(model, int):
        return model
    try:
        cg = checked_choice_gp(model)
    except GpDomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SEMANTIC
    started = time.perf_counter()
    result = solve_choice(cg, keep_assignments=args.all_assignments)
    timing_ms = (time.perf_counter() - started) * 1e3

    doc = _solve_document(result, timing_ms, with_assignments=args.all_assignments)
    if args.format == "machine":
        _print_machine(doc)
    else:
        _print_solve_text(doc, result.solved, result.rejected)
    return _status_exit(result.status, result.report and result.report.dual)


def _parse_assigns(pairs: Sequence[str]) -> dict[str, tuple[int, ...]] | None:
    out: dict[str, tuple[int, ...]] = {}
    for pair in pairs:
        name, sep, bits = pair.partition("=")
        if not sep or not name or not all(c in "01" for c in bits) or not bits:
            sys.stderr.write(f"error: bad --assign {pair!r}, expected name=bits\n")
            return None
        out[name] = tuple(int(c) for c in bits)
    return out


def _print_dual_text(doc: dict, labels: Sequence[str]) -> None:
    out = [f"status: {doc['status']}", "equality system:"]
    out.extend(f"  {row}" for row in doc["rows"])
    if doc["z"] is not None:
        out.append("weights:")
        out.extend(f"  {label} = {_fmt(v)}" for label, v in zip(labels, doc["w"]))
        if doc["lambda"]:
            out.append(f"lambda: {_fmt_all(doc['lambda'])}")
        out.append(f"dual value: {_fmt(doc['z'])}")
    out.append(f"timing_ms: {doc['timing_ms']:.3f}")
    sys.stdout.write("\n".join(out) + "\n")


def _cmd_dual(args: argparse.Namespace) -> int:
    model = _load(args.problem)
    if isinstance(model, int):
        return model
    cg = as_choice_gp(model)

    assigns = _parse_assigns(args.assign)
    if assigns is None:
        return EXIT_SEMANTIC
    unknown = set(assigns) - {cs.name for cs in cg.sets}
    if unknown:
        sys.stderr.write(f"error: --assign for unknown set(s) {sorted(unknown)}\n")
        return EXIT_SEMANTIC
    # only singleton sets may be left unassigned
    choice = {cs.name: (0, 0) for cs in cg.sets if cs.size == 1} | assigns
    try:
        problem = expand(cg, choice)
    except (GpDomainError, ExpansionRejected) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SEMANTIC

    started = time.perf_counter()
    d = build_dual(standardize(problem))
    ds = solve_dual(d)
    timing_ms = (time.perf_counter() - started) * 1e3

    doc: dict = {"status": ds.status.value, "z": None, "w": None, "lambda": None}
    if ds.status is Status.OPTIMAL:
        doc |= {"z": ds.objective_value, "w": ds.weights.tolist(),
                "lambda": ds.lambdas.tolist()}
    doc |= {"rows": _equality_row_strings(d), "timing_ms": timing_ms}
    if args.format == "machine":
        _print_machine(doc)
    else:
        _print_dual_text(doc, d.weight_labels())
    return _status_exit(ds.status, ds)


def _cmd_validate(args: argparse.Namespace) -> int:
    model = _load(args.problem)
    if isinstance(model, int):
        return model
    sys.stdout.write("ok\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpchoice",
        description="Posynomial geometric programming with discrete "
        "coefficient/exponent selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # arguments shared by the subcommands, each declared once
    file_p = argparse.ArgumentParser(add_help=False)
    file_p.add_argument("problem", help="path to a problem file")
    solver_p = argparse.ArgumentParser(add_help=False, parents=[file_p])
    solver_p.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="report format",
    )

    solve_p = sub.add_parser("solve", parents=[solver_p], help="solve a problem file")
    solve_p.add_argument(
        "--all-assignments", action="store_true",
        help="include the per-assignment table in the report",
    )
    solve_p.set_defaults(func=_cmd_solve)

    dual_p = sub.add_parser(
        "dual", parents=[solver_p], help="print the dual system and its solution"
    )
    dual_p.add_argument(
        "--assign", action="append", default=[], metavar="NAME=BITS",
        help="fix a candidate set to a bit pattern, e.g. --assign c=01",
    )
    dual_p.set_defaults(func=_cmd_dual)

    validate_p = sub.add_parser(
        "validate", parents=[file_p], help="check a problem file"
    )
    validate_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
