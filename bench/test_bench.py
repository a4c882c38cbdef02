"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import gpchoice as gp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from checks import check_fixture, check_optimal, load_references, primal_ray  # noqa: E402
from generator import random_problems  # noqa: E402
from helpers import random_feasible_gp  # noqa: E402


@pytest.mark.parametrize("seed", [run.STRESS_GENERATOR_SEED, 42, 7])
def test_generator_matches_test_helper(seed):
    rng = np.random.default_rng(seed)
    expected = [random_feasible_gp(rng) for _ in range(60)]
    assert [gp.make_problem(*raw) for raw in random_problems(seed, 60)] == expected


def test_stress_inputs_are_seeded_and_keep_the_baseline_set():
    a = run.load_inputs("stress-random", 5, 2)
    b = run.load_inputs("stress-random", 5, 2)
    c = run.load_inputs("stress-random", 6, 2)
    assert a.digest == b.digest != c.digest
    assert sorted(i for i, _, _ in a.items) == list(range(2 * run.STRESS_PASS_SIZE))


def test_fixture_order_follows_seed():
    a = run.load_inputs("enumerate", 1, 1)
    assert [n for n, _ in a.items] == [n for n, _ in run.load_inputs("enumerate", 1, 1).items]
    assert sorted(n for n, _ in a.items) == sorted(run.FIXTURES)
    assert sum(run.combinations(cg) for _, cg in a.items) == run.BASELINE_COMBINATIONS


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(24)])
    assert value == 13.0 and pct == pytest.approx(100 * 14 / 24)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_import_times_reads_cumulative_and_stops_at_marker():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |      90000 |   numpy",
        "import time:       500 |     800000 | gpchoice",
        run.IMPORTS_DONE,
        "import time:       100 |     300000 | scipy.optimize",
    ])
    found = run.import_times(stderr)
    assert found["import.numpy_ms"] == 90.0
    assert found["import.gpchoice_ms"] == 800.0
    assert found["import.scipy_optimize_ms"] == 0.0


def _example():
    return gp.make_problem(
        objective=[(1, (-1, 0)), (3, (0, -3)), (1, (1, 1))],
        constraints=[([(1, (1, 0)), (1, (0, 1))], 1.0)],
    )


def test_tracer_counts_layers_and_restores_functions(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "gone.function", ("gpchoice.solver", "no_such_name"))
    original = gp.solver.solve_dual
    tracer = spans.Tracer()
    with tracer:
        assert gp.solver.solve_dual is not original
        report = gp.solve(gp.standardize(_example()))
    assert gp.solver.solve_dual is original and gp.solve is gp.solver.solve
    metrics = tracer.layer_metrics(passes=1)
    assert metrics["gone.function.calls"] == (0.0, "count")
    assert metrics["solver.solve.calls"][0] == 1
    assert metrics["dual.build_dual.calls"][0] == 2
    assert metrics["solver.solve_dual.iterations"][0] == report.dual.iterations
    assert metrics["solver.status.optimal"][0] == 1
    solve_ms = metrics["solver.solve.ms"][0]
    children = sum(metrics[f"{layer}.ms"][0] for layer in
                   ("dual.build_dual", "solver.solve_dual", "solver.recover_primal"))
    # build_dual inside recover_primal is counted in both inclusive times
    inner = metrics["solver.recover_primal.ms"][0] - metrics["solver.recover_primal.self_ms"][0]
    assert metrics["solver.solve.self_ms"][0] == pytest.approx(
        solve_ms - children + inner, abs=1e-6)


def test_checks_accept_references_and_reject_wrong_bits():
    refs = load_references()
    ref = refs["example2_case2"]
    assert ref["chosen"]["p"] == "11"  # the exhaustive winner (1, -4, 1)
    assert check_fixture("example2_case2", ref, "optimal", ref["chosen"], ref["z"] + 5e-4) == []
    assert check_fixture("example2_case2", ref, "optimal", {**ref["chosen"], "p": "01"},
                         ref["z"])
    assert check_fixture("example1_case1", refs["example1_case1"], "optimal",
                         refs["example1_case1"]["chosen"], refs["example1_case1"]["z"] + 1e-3)


def test_primal_ray_certificate():
    unattained = (((1.0, (-1.0,)),), ())  # min 1/x: infimum 0, never reached
    attained = (((1.0, (1.0,)), (1.0, (-1.0,))), ())  # min x + 1/x at x = 1
    assert primal_ray(unattained) is not None
    assert primal_ray(attained) is None
    assert check_optimal(attained, (1.0,), 2.0) == []
    assert check_optimal(attained, (1.0,), 1.9)


def test_clock_scales_by_the_calibrations_around_an_operation():
    for in_process, reference_ms in ((True, calibrate.REFERENCE_MS),
                                     (False, calibrate.PROCESS_REFERENCE_MS)):
        clock = calibrate.Clock(in_process)
        assert len(clock.calibrations) == 1 and clock.calibrations[0] > 0
        clock.calibrations = [0.002, 0.004, 0.008]
        assert clock.scale(0) == pytest.approx(reference_ms / 1e3 / 0.003)
        assert clock.scale(1) == pytest.approx(reference_ms / 1e3 / 0.006)
