"""Machine reports of every fixture, pinned exactly against a golden file.

`machine_reports.json` holds `gpchoice solve FILE --format machine`, with and
without `--all-assignments`, for each shipped problem, minus `timing_ms`.
JSON floats round-trip exactly, so equal documents mean bit-identical z, x,
w, lambda, gap and assignment values.  Regenerate the file only for a change
that is meant to move these numbers, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_machine_reports.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gpchoice.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "machine_reports.json"
PROBLEMS = TESTS.parent / "problems"


def machine_report(key: str) -> dict:
    """The report of one golden key: a problem name, then any CLI flags."""
    stem, *flags = key.split()
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(
            ["solve", str(PROBLEMS / f"{stem}.json"), "--format", "machine", *flags]
        )
    assert code == 0
    doc = json.loads(out.getvalue())
    doc.pop("timing_ms")  # wall clock differs by nature
    return doc


def report_keys() -> list[str]:
    flags = ("", " --all-assignments")
    return [p.stem + flag for p in sorted(PROBLEMS.glob("*.json")) for flag in flags]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_fixture(golden):
    assert sorted(golden) == sorted(report_keys())


@pytest.mark.parametrize("key", report_keys())
def test_machine_report_matches_golden(golden, key):
    doc = machine_report(key)
    assert json.dumps(doc, sort_keys=True) == json.dumps(golden[key], sort_keys=True)


if __name__ == "__main__":
    lines = [
        f"{json.dumps(key)}: {json.dumps(machine_report(key), sort_keys=True)}"
        for key in report_keys()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
