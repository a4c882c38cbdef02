"""Command line interface: solve, dual, validate.

Exit codes: 0 solved to optimality (or validation passed), 2 malformed
problem file, 3 semantic violation, 4 infeasible or unbounded, 5 solver did
not converge.  Text reports print numbers to 7 significant digits; machine
reports are a single JSON object and are only ever emitted whole.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Sequence

from .dual import DualProgram, build_dual
from .oracle import NoFeasiblePointError, brute_force_oracle
from .posynomial import GpDomainError, GpProblem, standardize
from .problem_io import ProblemSemanticError, ProblemSyntaxError, parse_problem
from .selectors import (
    ChoiceGp,
    ChoiceSolveReport,
    ExpansionRejected,
    as_choice_gp,
    expand,
    solve_choice,
)
from .solver import DualSolution, SolverSettings, Status, solve_dual

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3
EXIT_NOT_SOLVED = 4
EXIT_NO_CONVERGENCE = 5


def _positive_float(text: str) -> float:
    """argparse type for tolerances: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _fmt(value: float) -> str:
    return format(value, ".7g")


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
    labels = d.weight_labels()
    rows = []
    for r in range(d.equality_matrix.shape[0]):
        parts = []
        for coeff, label in zip(d.equality_matrix[r], labels):
            if coeff == 0.0:
                continue
            if coeff == 1.0:
                text = label
            elif coeff == -1.0:
                text = f"-{label}"
            else:
                text = f"{_fmt(coeff)}*{label}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        lhs = " ".join(parts) if parts else "0"
        rows.append(f"{lhs} = {_fmt(d.equality_rhs[r])}")
    return rows


def _solve_document(
    result: ChoiceSolveReport, timing_ms: float, *, with_assignments: bool
) -> dict:
    report = result.report
    doc: dict = {"status": result.status.value}
    if report is not None and report.status is Status.OPTIMAL:
        assert result.chosen_bits is not None and result.chosen_values is not None
        doc["z"] = report.objective_value
        doc["x"] = list(report.primal_x or ())
        doc["w"] = [float(v) for v in report.dual.weights]
        doc["lambda"] = [float(v) for v in report.dual.lambdas]
        doc["gap"] = report.duality_gap
        doc["chosen"] = {
            name: {"bits": "".join(map(str, bits)), "value": value}
            for (name, bits), (_, value) in zip(
                result.chosen_bits, result.chosen_values
            )
        }
    else:
        doc.update({"z": None, "x": None, "w": None, "lambda": None,
                    "gap": None, "chosen": None})
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


def _print_solve_text(result: ChoiceSolveReport, doc: dict) -> None:
    out = [f"status: {doc['status']}"]
    report = result.report
    if report is not None and report.status is Status.OPTIMAL:
        out.append(f"z: {_fmt(report.objective_value)}")
        out.append("x: " + "  ".join(_fmt(v) for v in report.primal_x))
        if result.chosen_values:
            chosen = ", ".join(
                f"{name} = {_fmt(value)} (bits {''.join(map(str, bits))})"
                for (name, bits), (_, value) in zip(
                    result.chosen_bits, result.chosen_values
                )
            )
            out.append(f"chosen: {chosen}")
        out.append("w: " + "  ".join(_fmt(v) for v in report.dual.weights))
        if len(report.dual.lambdas):
            out.append("lambda: " + "  ".join(_fmt(v) for v in report.dual.lambdas))
        out.append(f"duality gap: {_fmt(report.duality_gap)}")
        out.append(f"solved: {result.solved}, rejected: {result.rejected}")
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
    cg = as_choice_gp(model)
    settings = SolverSettings(stationarity_tol=args.tolerance)
    started = time.perf_counter()
    try:
        result = solve_choice(cg, settings, keep_assignments=args.all_assignments)
    except GpDomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SEMANTIC
    timing_ms = (time.perf_counter() - started) * 1e3

    doc = _solve_document(result, timing_ms, with_assignments=args.all_assignments)
    if args.format == "machine":
        _print_machine(doc)
    else:
        _print_solve_text(result, doc)

    if result.status is Status.OPTIMAL and args.oracle:
        # keep machine stdout a single JSON document
        sink = sys.stderr if args.format == "machine" else sys.stdout
        _append_oracle_check(cg, result, sink)
    return _status_exit(result.status, result.report and result.report.dual)


_ORACLE_GRID_BY_DIM = {1: 2001, 2: 201, 3: 81, 4: 41}


def _append_oracle_check(cg: ChoiceGp, result: ChoiceSolveReport, sink) -> None:
    n = len(cg.variable_names)
    if n > 4:
        sys.stderr.write("oracle: skipped, more than 4 variables\n")
        return
    assert result.chosen_bits is not None and result.report is not None
    expanded = expand(cg, dict(result.chosen_bits))
    try:
        check = brute_force_oracle(
            standardize(expanded), box_log_halfwidth=6.0,
            grid_points_per_dim=_ORACLE_GRID_BY_DIM[n],
        )
    except NoFeasiblePointError:
        sink.write("oracle: no feasible grid point\n")
        return
    rel = abs(check.value - result.report.objective_value) / max(
        abs(check.value), 1e-300
    )
    sink.write(
        f"oracle: value {_fmt(check.value)} (relative difference {rel:.2e})\n"
    )


def _parse_assigns(pairs: Sequence[str]) -> dict[str, tuple[int, ...]] | None:
    out: dict[str, tuple[int, ...]] = {}
    for pair in pairs:
        name, sep, bits = pair.partition("=")
        if not sep or not name or not all(c in "01" for c in bits) or not bits:
            sys.stderr.write(f"error: bad --assign {pair!r}, expected name=bits\n")
            return None
        out[name] = tuple(int(c) for c in bits)
    return out


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

    settings = SolverSettings(stationarity_tol=args.tolerance)
    started = time.perf_counter()
    d = build_dual(standardize(problem))
    ds = solve_dual(d, settings)
    timing_ms = (time.perf_counter() - started) * 1e3

    rows = _equality_row_strings(d)
    if args.format == "machine":
        doc = {
            "status": ds.status.value,
            "z": ds.objective_value if ds.status is Status.OPTIMAL else None,
            "w": [float(v) for v in ds.weights]
            if ds.status is Status.OPTIMAL
            else None,
            "lambda": [float(v) for v in ds.lambdas]
            if ds.status is Status.OPTIMAL
            else None,
            "rows": rows,
            "timing_ms": timing_ms,
        }
        _print_machine(doc)
    else:
        out = [f"status: {ds.status.value}"]
        out.append("equality system:")
        out.extend(f"  {row}" for row in rows)
        if ds.status is Status.OPTIMAL:
            labels = d.weight_labels()
            out.append("weights:")
            out.extend(
                f"  {label} = {_fmt(v)}" for label, v in zip(labels, ds.weights)
            )
            if len(ds.lambdas):
                out.append(
                    "lambda: "
                    + "  ".join(_fmt(v) for v in ds.lambdas)
                )
            out.append(f"dual value: {_fmt(ds.objective_value)}")
        out.append(f"timing_ms: {timing_ms:.3f}")
        sys.stdout.write("\n".join(out) + "\n")

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
        "--tolerance", type=_positive_float,
        default=SolverSettings().stationarity_tol,
        help="stationarity tolerance for the dual maximizer",
    )
    solver_p.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="report format",
    )

    solve_p = sub.add_parser("solve", parents=[solver_p], help="solve a problem file")
    solve_p.add_argument(
        "--all-assignments", action="store_true",
        help="include the per-assignment table in the report",
    )
    solve_p.add_argument(
        "--oracle", action="store_true",
        help="append a brute-force grid check (up to 4 variables)",
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
