#!/usr/bin/env python3
"""Mutation fuzz of the gpchoice command line over the shipped fixtures.

Each case mutates one fixture 1 to 3 times (a value replaced by one of a
fixed list, a key or list entry deleted, a list entry duplicated, or a number
scaled) and runs validate, solve --format machine, solve --all-assignments
and dual in-process on the result.  A case is faulty on a traceback, a
warning, an exit code outside {0, 2, 3, 4, 5}, an exit code 2 or 3 that
parsing and validation do not give the file on their own (or another code
where they do), or an exit-0 solve report whose x and w fail
gpchoice.certificate's optimal claim on the expansion it names.  The cases
and the checks are tests/helpers.py's mutate_document and cli_faults, which
tier-1 runs on a fixed list of seeds; this script runs long sweeps:

    python scripts/fuzz_cli.py --count 2000 --seed 1

It prints every faulty case and exits 1 if there was one.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# run from a checkout: import this tree's package, installed or not, and the
# test suite's harness, so the sweep and the tests share one
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from helpers import cli_faults, fuzz_cases  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    started, faulty = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        cases = fuzz_cases(args.seed, args.count)
        for i, (fixture, text, assigns, mutations) in enumerate(cases):
            faults = cli_faults(text, path, assigns)
            if faults:
                faulty += 1
                print(f"case {i}: {fixture}, {'; '.join(mutations)}")
                for fault in faults:
                    print(f"  {fault}")
    elapsed = time.perf_counter() - started
    print(f"{args.count} cases at seed {args.seed} in {elapsed:.1f}s: "
          f"{faulty} faulty")
    return 1 if faulty else 0


if __name__ == "__main__":
    sys.exit(main())
