"""Machine reports of every fixture, pinned exactly against a golden file.

`machine_reports.json` holds `gpchoice solve FILE --format machine`, with and
without `--all-assignments`, for each shipped problem, minus `timing_ms`.
JSON floats round-trip exactly, so equal documents mean bit-identical z, x,
w, lambda, gap and assignment values.  A mismatch is reported at its first
differing field.  Regenerate the file only for a change that is meant to move
these numbers, and say why in CHANGES.md; regeneration prints the largest
change of each field against the file it replaces:

    PYTHONPATH=src python tests/test_machine_reports.py
"""

import io
import json
import re
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


def paired_leaves(a, b, path: str = ""):
    """(path, a, b) for each leaf of two documents, walked in step.

    A subtree whose keys or length differ between the two counts as a leaf.
    """
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in sorted(a):
            yield from paired_leaves(a[key], b[key], f"{path}.{key}".lstrip("."))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from paired_leaves(x, y, f"{path}[{i}]")
    else:
        yield path, a, b


def largest_changes(old: dict, new: dict) -> dict[str, list]:
    """Per field (a leaf path without list indices): values compared, values
    changed, largest absolute and largest relative change of a number."""
    changes: dict[str, list] = {}
    for key in sorted(old.keys() & new.keys()):
        for path, was, now in paired_leaves(old[key], new[key]):
            row = changes.setdefault(re.sub(r"\[\d+\]", "", path), [0, 0, 0.0, 0.0])
            row[0] += 1
            if json.dumps(was) == json.dumps(now):
                continue
            row[1] += 1
            if all(type(v) in (int, float) for v in (was, now)):
                diff = abs(now - was)
                row[2] = max(row[2], diff)
                row[3] = max(row[3], diff / abs(was) if was else float("inf"))
    return changes


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_fixture(golden):
    assert sorted(golden) == sorted(report_keys())


@pytest.mark.parametrize("key", report_keys())
def test_machine_report_matches_golden(golden, key):
    doc = machine_report(key)
    if json.dumps(doc, sort_keys=True) != json.dumps(golden[key], sort_keys=True):
        # a long string comparison would make pytest diff the whole dump
        path, got, want = next(
            leaf for leaf in paired_leaves(doc, golden[key])
            if json.dumps(leaf[1]) != json.dumps(leaf[2])
        )
        pytest.fail(f"{key}: first difference at {path}: {got!r}, golden {want!r}")


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {key: machine_report(key) for key in report_keys()}
    lines = [
        f"{json.dumps(key)}: {json.dumps(doc, sort_keys=True)}"
        for key, doc in new.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    for key in sorted(old.keys() ^ new.keys()):
        print(f"{key}: {'added' if key in new else 'removed'}")
    print(f"{'field':24} {'changed':>13} {'max abs':>10} {'max rel':>10}")
    for field, (count, changed, diff, rel) in sorted(largest_changes(old, new).items()):
        print(f"{field:24} {changed:>6} of {count:<5} {diff:10.2e} {rel:10.2e}")
