"""Fresh-interpreter children of the benchmark.

    python3 bench/child.py load WORKLOAD SEED PASSES
        import gpchoice, load the run's inputs, print their digest
    python3 bench/child.py cli solve FILE --format machine
        run the gpchoice CLI with the layer tracer installed; the tracer's
        totals go to stderr after the program's own output

The program is imported first, so that ``-X importtime`` charges numpy and
scipy to ``gpchoice`` and not to the benchmark's own modules.
"""

import json
import sys


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "load":
        import gpchoice  # noqa: F401

        import run

        print(run.load_inputs(args[0], int(args[1]), int(args[2])).digest)
        return 0
    if mode == "cli":
        from gpchoice.cli import main as cli_main

        import run

        print(run.IMPORTS_DONE, file=sys.stderr, flush=True)
        tracer = run.Tracer()
        with tracer:
            code = cli_main(args)
        sys.stdout.flush()
        print(run.TRACE_PREFIX + json.dumps(tracer.snapshot()), file=sys.stderr)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
