"""Benchmark execution: warmup, trials, median/IQR, steps/second.

A :class:`Benchmark` is a *named recipe*: ``make()`` builds one fresh,
fully-set-up instance of the scenario (machine construction, table
population, ...) and returns a zero-argument callable; calling it runs
the timed section and returns the number of work units it performed
(scheduler ops, cache accesses, NoC messages, simulated instructions).
Setup cost is thereby excluded from every timing, and each trial runs
on a pristine machine, so trials are independent and the workload stays
bit-deterministic.

:func:`run_benchmark` performs ``warmup`` throwaway runs, then
``trials`` timed runs, and folds them into a :class:`BenchResult` with
the median, the interquartile range (the noise band the regression
verdict in :mod:`repro.perf.compare` uses), and ``units / median`` as a
steps-per-second normalization that survives resizing a benchmark.
"""

import cProfile
import statistics
import time
from dataclasses import dataclass, field

from repro.perf.profile import ProfileReport


@dataclass(frozen=True)
class Benchmark:
    """One named benchmark recipe (see :mod:`repro.perf.registry`)."""

    name: str
    #: ``"micro"`` (one subsystem in a loop) or ``"macro"`` (a paper
    #: case study end to end).
    kind: str
    #: Zero-arg factory: returns the timed callable. Everything the
    #: factory does is setup and excluded from the measurement.
    make: callable
    #: What one unit means (``"ops"``, ``"accesses"``, ``"invokes"``...).
    unit: str = "steps"
    description: str = ""


@dataclass
class BenchResult:
    """Trial timings of one benchmark, folded into robust statistics."""

    name: str
    kind: str
    unit: str
    units: int
    trials_s: list = field(default_factory=list)
    median_s: float = 0.0
    q1_s: float = 0.0
    q3_s: float = 0.0
    #: Python calls made by one run of the timed section.
    calls: int = 0

    @property
    def iqr_s(self):
        return self.q3_s - self.q1_s

    @property
    def steps_per_sec(self):
        if self.median_s <= 0:
            return 0.0
        return self.units / self.median_s

    @property
    def calls_per_unit(self):
        return self.calls / self.units if self.units else 0.0

    def to_dict(self):
        return {
            "kind": self.kind,
            "unit": self.unit,
            "units": self.units,
            "trials_s": [round(t, 6) for t in self.trials_s],
            "median_s": round(self.median_s, 6),
            "q1_s": round(self.q1_s, 6),
            "q3_s": round(self.q3_s, 6),
            "iqr_s": round(self.iqr_s, 6),
            "steps_per_sec": round(self.steps_per_sec, 1),
            "calls": self.calls,
            "calls_per_unit": round(self.calls_per_unit, 4),
        }


def quartiles(samples):
    """(q1, q3) of ``samples``; degenerate for fewer than two samples."""
    values = sorted(samples)
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_benchmark(bench, trials=5, warmup=1, timer=time.perf_counter):
    """Run one benchmark; returns its :class:`BenchResult`.

    Every warmup and trial builds a fresh scenario via ``bench.make()``
    (untimed) and times only the returned callable. The unit count must
    be identical across trials -- a drifting count means the benchmark
    is not deterministic, which would poison steps/sec comparisons.

    After the trials, one more fresh scenario runs, untimed, under
    cProfile, and :class:`~repro.perf.profile.ProfileReport` counts its
    calls.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for _ in range(warmup):
        bench.make()()
    timings = []
    units = None
    for _ in range(trials):
        timed = bench.make()
        start = timer()
        count = timed()
        elapsed = timer() - start
        count = int(count if count is not None else 0)
        if units is None:
            units = count
        elif count != units:
            raise RuntimeError(
                f"benchmark {bench.name!r} is nondeterministic: "
                f"trial did {count} {bench.unit}, previous trials did {units}"
            )
        timings.append(elapsed)
    # Its own run, not shared with ``bench --profile``'s sampled run: on
    # Python 3.12 cProfile also counts calls made on other threads, so
    # a count taken there would include the stack sampler's calls.
    profile = cProfile.Profile()
    profile.runcall(bench.make())
    q1, q3 = quartiles(timings)
    return BenchResult(
        name=bench.name,
        kind=bench.kind,
        unit=bench.unit,
        units=units or 0,
        trials_s=timings,
        median_s=statistics.median(timings),
        q1_s=q1,
        q3_s=q3,
        calls=ProfileReport.from_profile(profile).calls,
    )


def render_results(results):
    """An aligned text table of :class:`BenchResult` rows."""
    header = (
        f"{'benchmark':28s} {'kind':5s} {'median':>10s} {'iqr':>10s} "
        f"{'steps/s':>12s} {'calls/unit':>10s} {'units':>10s}"
    )
    lines = [header, "-" * len(header)]
    for res in results:
        lines.append(
            f"{res.name:28s} {res.kind:5s} {res.median_s:9.4f}s "
            f"{res.iqr_s:9.4f}s {res.steps_per_sec:12.0f} "
            f"{res.calls_per_unit:10.2f} {res.units:>10d} {res.unit}"
        )
    return "\n".join(lines)
