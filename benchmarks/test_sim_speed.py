"""Wall-clock smoke guard driven by the host-performance lab.

Budgets live in ``bench_baseline.json`` -- one entry per benchmark of
the :mod:`repro.perf.registry`, recorded at ~2x a warm run on a
development machine so the guard only trips on real structural
regressions (an accidentally-quadratic wait queue, per-access
allocation on a zero-subscriber path), not on runner jitter.

One test times the simulator as the experiment harness runs it, after
asserting that no :class:`~repro.sim.telemetry.session.TelemetrySession`
or :class:`~repro.sim.faults.FaultSession` leaked into the process: the
timed runs are then the detached configuration, where every telemetry
emit site costs one flag load and a branch and every fault hook site a
``faults is None`` check (or an integer compare in the watchdog).

To re-record after an intentional change::

    PYTHONPATH=src python benchmarks/test_sim_speed.py --record

which re-runs the *full* benchmark registry and rewrites
``bench_baseline.json`` (the same file CI's bench job compares against;
see docs/performance.md).
"""

import json
from pathlib import Path

BASELINE_PATH = Path(__file__).with_name("bench_baseline.json")

#: Fail when a run exceeds ``REGRESSION_FACTOR`` x the recorded budget.
REGRESSION_FACTOR = 2.0

#: Best-of-N to shed scheduler noise and warmup.
TRIALS = 3

#: The macro benchmarks the smoke guard times on every tier-1 run (the
#: full registry runs in CI's bench job; these two cover the core path
#: and the engine/offload path like the original smoke test did).
SMOKE_BENCHMARKS = ("fig18.hashtable_baseline", "fig18.hashtable_leviathan")


def _load_budgets():
    return json.loads(BASELINE_PATH.read_text())["benchmarks"]


def _assert_detached():
    """No observer session may leak into the measurement."""
    from repro.sim.faults import FaultSession
    from repro.sim.telemetry.session import TelemetrySession

    assert TelemetrySession.active() is None, "a TelemetrySession leaked into this test"
    assert FaultSession.active() is None, "a FaultSession leaked into this test"


def _best_of(name, trials=TRIALS):
    from repro.perf import registry
    from repro.perf.bench import run_benchmark

    result = run_benchmark(registry.get(name), trials=trials, warmup=0)
    return min(result.trials_s)


def test_sim_speed():
    _assert_detached()
    budgets = _load_budgets()
    for name in SMOKE_BENCHMARKS:
        budget = budgets[name]["median_s"] * REGRESSION_FACTOR
        measured = _best_of(name)
        assert measured <= budget, (
            f"simulator speed regression: {name} took "
            f"{measured:.2f}s, budget {budget:.2f}s ({REGRESSION_FACTOR}x the "
            f"recorded {budgets[name]['median_s']:.2f}s baseline). Check that "
            "the emit sites and fault hooks stay guarded; if this slowdown is "
            "intentional, re-record with: "
            "PYTHONPATH=src python benchmarks/test_sim_speed.py --record"
        )


#: Budget = BUDGET_FACTOR x the measured median at record time. With
#: REGRESSION_FACTOR 2.0 on top, the guard trips at ~5x a warm run on
#: the recording machine -- room for slower CI runners, tight enough to
#: catch structural regressions.
BUDGET_FACTOR = 2.5


def record(trials=TRIALS):
    """Re-record ``bench_baseline.json`` from the full registry."""
    from repro.perf import registry
    from repro.perf.bench import run_benchmark
    from repro.perf.fingerprint import fingerprint

    benchmarks = {}
    for name in registry.names():
        res = run_benchmark(registry.get(name), trials=trials, warmup=1)
        budget = round(BUDGET_FACTOR * res.median_s, 4)
        benchmarks[name] = {
            "kind": res.kind,
            "unit": res.unit,
            "units": res.units,
            "median_s": budget,
            "q1_s": round(0.9 * budget, 4),
            "q3_s": round(1.1 * budget, 4),
            "measured_median_s": round(res.median_s, 4),
            "measured_steps_per_sec": round(res.steps_per_sec, 1),
        }
        print(f"{name}: measured {res.median_s:.4f}s -> budget {budget:.4f}s")
    payload = {
        "schema": 1,
        "kind": "leviathan-bench-baseline",
        "comment": (
            "Committed per-benchmark budgets for benchmarks/test_sim_speed.py "
            "and CI's `bench --compare`. median_s is a BUDGET recorded at "
            "~2.5x a warm dev-machine run; the smoke guard fails only beyond "
            "REGRESSION_FACTOR x these, i.e. >~5x a typical dev machine. "
            "Re-record: PYTHONPATH=src python benchmarks/test_sim_speed.py --record"
        ),
        "recorded_on": fingerprint(),
        "benchmarks": benchmarks,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"recorded to {BASELINE_PATH}")


if __name__ == "__main__":
    import sys

    if "--record" in sys.argv:
        record()
    else:
        budgets = _load_budgets()
        for name in SMOKE_BENCHMARKS:
            measured = _best_of(name)
            print(
                f"{name}: best-of-{TRIALS} {measured:.3f}s "
                f"(budget {budgets[name]['median_s'] * REGRESSION_FACTOR:.3f}s)"
            )
