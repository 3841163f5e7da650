"""Shared result types and helpers for all workloads.

Every workload entry point -- case studies and serving zoo alike --
funnels its completed machine through :func:`finish_run` into a
:class:`RunResult`, and experiments group variant results into a
:class:`StudyResult` keyed by the baseline. Serving workloads
additionally merge :class:`~repro.sim.telemetry.requests.
RequestLatencyProbe` percentile fields into ``RunResult.stats``
(``request.<class>.p99`` etc.) before returning. The authoring
contract is documented in ``docs/workloads.md``.
"""

from dataclasses import dataclass, field


@dataclass
class RunResult:
    """Outcome of one workload variant on one machine configuration."""

    name: str
    cycles: float
    energy_pj: float
    stats: dict
    #: Workload-defined functional output (for correctness checks).
    output: object = None
    #: False when the variant cannot run at all (e.g. data-triggered
    #: actions without padding, Sec. VIII-A).
    functional: bool = True
    notes: str = ""
    #: Per-component dynamic energy ({counter_name: picojoules}).
    energy_breakdown: dict = field(default_factory=dict)
    #: Per-level access attribution ({(level, outcome): count}): every
    #: step of every access's outcome trail, as the hierarchy tallied
    #: it (``Hierarchy.outcome_counts``).
    access_profile: dict = field(default_factory=dict)

    def speedup_over(self, baseline):
        """Speedup of *this* variant relative to ``baseline``."""
        if not self.functional:
            return 0.0
        return baseline.cycles / self.cycles

    def energy_savings_over(self, baseline):
        """Fractional energy saved relative to ``baseline`` (0.22 = 22%)."""
        if not self.functional:
            return 0.0
        return 1.0 - self.energy_pj / baseline.energy_pj

    def stat(self, name):
        return self.stats.get(name, 0)

    def accesses(self, level, outcome=None):
        """Access-path steps recorded at ``level`` (optionally one outcome)."""
        return sum(
            count
            for (lvl, out), count in self.access_profile.items()
            if lvl == level and (outcome is None or out == outcome)
        )


@dataclass
class StudyResult:
    """All variants of one case study, with the baseline identified."""

    study: str
    baseline: str
    results: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def add(self, result):
        self.results[result.name] = result
        return result

    def __getitem__(self, name):
        return self.results[name]

    def __contains__(self, name):
        return name in self.results

    def speedups(self):
        base = self.results[self.baseline]
        return {name: r.speedup_over(base) for name, r in self.results.items()}

    def energy_savings(self):
        base = self.results[self.baseline]
        return {name: r.energy_savings_over(base) for name, r in self.results.items()}

    def report(self):
        base = self.results[self.baseline]
        lines = [f"== {self.study} =="]
        for name, r in self.results.items():
            if not r.functional:
                lines.append(f"{name:24s} DOES NOT WORK ({r.notes})")
                continue
            lines.append(
                f"{name:24s} speedup {r.speedup_over(base):5.2f}x   "
                f"energy {r.energy_savings_over(base) * 100:+6.1f}%   "
                f"cycles {r.cycles:12.0f}"
            )
        return "\n".join(lines)


def finish_run(machine, name, output=None, notes=""):
    """Package a completed machine run into a :class:`RunResult`.

    The result carries the counters, the energy split and the
    hierarchy's per-level outcome counts.
    """
    return RunResult(
        name=name,
        cycles=machine.scheduler.now,
        energy_pj=machine.energy_pj(),
        stats=machine.stats.snapshot(),
        output=output,
        notes=notes,
        energy_breakdown=machine.energy_model.breakdown_pj(machine.stats),
        access_profile=dict(machine.hierarchy.outcome_counts),
    )
