"""Count the library's lines: per file under src/gpchoice, its raw lines and
its code lines, then the totals.

A code line is a line that is not blank, not a comment and not part of a
docstring (of the module, a class or a function), found with ast.

    python scripts/code_lines.py
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "gpchoice"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one file."""
    text = path.read_text()
    docstrings, lines = docstring_lines(ast.parse(text)), text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstrings)
    return len(lines), code


def main() -> None:
    rows = [(path.name, *counts(path)) for path in sorted(LIBRARY.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'file':<16}{'raw':>6}{'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<16}{raw:>6}{code:>6}")


if __name__ == "__main__":
    main()
