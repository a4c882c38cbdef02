#!/usr/bin/env python3
"""Write bench/references.json from the program in this checkout.

    python3 bench/record_references.py

For every fixture it records the status, chosen bits and z of
``solve_choice``, and the status of every assignment in enumeration order
from ``solve_choice(..., keep_assignments=True)``.  The committed file was
recorded at the seed commit; re-recording is only right when a change of
results is intended and explained.
"""

import json
import sys

import run

run.use_checkout_source()

import gpchoice as gp  # noqa: E402
from checks import REFERENCES  # noqa: E402


def main() -> int:
    refs = {}
    for name in run.FIXTURES:
        cg = gp.as_choice_gp(gp.parse_problem(run.PROBLEMS / f"{name}.json"))
        status, chosen, z = run._choice_outcome(gp.solve_choice(cg))
        full = gp.solve_choice(cg, keep_assignments=True)
        if run._choice_outcome(full) != (status, chosen, z):
            raise SystemExit(f"{name}: keep_assignments changes the result")
        refs[name] = {"status": status, "chosen": chosen, "z": z,
                      "assignments": [a.status for a in full.assignments]}
        print(f"{name}: {status} {chosen} z={z} ({len(full.assignments)} assignments)")
    lines = [f" {json.dumps(name)}: {json.dumps(ref)}" for name, ref in refs.items()]
    REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
