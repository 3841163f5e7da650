"""``repro.perf``: the host-performance lab.

The simulator *is* the hardware this reproduction runs on -- the paper
replaces cycle-level SwarmSim with this event-driven model, so the
repo's own hot paths (scheduler step loop, cache access path, NoC hops,
engine offload) decide how much evaluation we can afford. This package
makes host time a first-class, tracked quantity:

- :mod:`repro.perf.bench` / :mod:`repro.perf.registry` -- named micro
  and macro benchmarks run with warmup, N trials, median/IQR, a
  steps-per-second normalization, and Python calls per unit.
- :mod:`repro.perf.profile` -- a cProfile harness with per-subsystem
  wall-time attribution plus a sampling collector that emits
  Brendan-Gregg collapsed stacks for flamegraphs.
- :mod:`repro.perf.history` / :mod:`repro.perf.compare` -- every bench
  run writes ``BENCH_<git-sha>.json`` stamped with a machine/python
  fingerprint (:mod:`repro.perf.fingerprint`); ``bench --compare``
  renders a verdict table against a baseline file, on calls per unit
  and on wall-clock medians.

``python -m repro.experiments bench`` is the command-line entry point;
``docs/performance.md`` is the guide.
"""

from repro.perf.bench import Benchmark, BenchResult, run_benchmark
from repro.perf.compare import compare, render_verdicts
from repro.perf.fingerprint import fingerprint
from repro.perf.history import bench_payload, load_history, write_history
from repro.perf.profile import ProfileHarness, ProfileReport

__all__ = [
    "Benchmark",
    "BenchResult",
    "run_benchmark",
    "compare",
    "render_verdicts",
    "fingerprint",
    "bench_payload",
    "load_history",
    "write_history",
    "ProfileHarness",
    "ProfileReport",
]
