"""Event counters and per-run statistics.

Every component of the machine increments counters on a shared
:class:`Stats` object. The energy model (:mod:`repro.sim.energy`) and the
experiment harness both read these counters; the figures in the paper are
(almost entirely) functions of them.

Two planes of observability coexist:

- the flat counters (this module's :class:`Stats`): always on, updated
  directly at the emitting site -- the fast plane; per-phase counters
  are derived from them at phase boundaries. The per-level outcome
  breakdown (how many access steps hit or missed at each level, how
  many fills a morph constructed) is the same kind of always-on tally,
  kept by the hierarchy itself (``Hierarchy.outcome_counts``);
- the event bus (:mod:`repro.sim.events`): opt-in, typed, carrying the
  per-request attribution the counters cannot express.
"""

from collections import Counter


class Stats:
    """A flat bag of named counters plus a few derived views.

    Counter names follow a ``component.event`` convention, e.g.
    ``l1.hits``, ``llc.misses``, ``noc.flit_hops``, ``dram.accesses``,
    ``engine.instructions``. When the workload marks execution phases,
    each counter's growth over a phase is also recorded as
    ``phase/component.event`` (used by Fig. 21's per-phase DRAM
    breakdown). Phase counters are recorded when the phase ends or
    switches to another; components only ever increment plain counters.
    """

    __slots__ = ("counters", "_phase", "_phase_start")

    def __init__(self):
        self.counters = Counter()
        self._phase = None
        #: The counters as they stood when the current phase began.
        self._phase_start = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def set_phase(self, phase):
        """Enter a named execution phase (or ``None`` to leave).

        Ending the current phase -- leaving it, or switching straight to
        another -- adds each plain counter's growth over the phase under
        ``phase/name``. A counter first created during the phase gets
        its key even when it grew by 0.
        """
        if self._phase is not None:
            counters = self.counters
            start = self._phase_start
            grown = [
                (name, value - start.get(name, 0))
                for name, value in counters.items()
                if "/" not in name and (name not in start or value != start[name])
            ]
            for name, growth in grown:
                counters[f"{self._phase}/{name}"] += growth
        self._phase = phase
        self._phase_start = None if phase is None else dict(self.counters)

    @property
    def phase(self):
        return self._phase

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get(self, name):
        return self.counters.get(name, 0)

    def __getitem__(self, name):
        return self.counters.get(name, 0)

    def matching(self, prefix):
        """All counters whose name starts with ``prefix``, as a dict."""
        return {k: v for k, v in self.counters.items() if k.startswith(prefix)}

    def total(self, suffix):
        """Sum of all counters ending in ``.suffix`` (unphased only)."""
        return sum(
            v
            for k, v in self.counters.items()
            if "/" not in k and k.endswith("." + suffix)
        )

    # ------------------------------------------------------------------
    # convenience views used across the evaluation
    # ------------------------------------------------------------------
    @property
    def dram_accesses(self):
        return self.get("dram.accesses")

    @property
    def noc_flit_hops(self):
        return self.get("noc.flit_hops")

    @property
    def branch_mispredictions(self):
        return self.get("core.branch_mispredictions")

    @property
    def engine_instructions(self):
        return self.get("engine.instructions")

    def snapshot(self):
        """An immutable copy of the counters for later diffing."""
        return dict(self.counters)

    def diff(self, snapshot):
        """Counters accumulated since ``snapshot`` was taken."""
        out = Counter(self.counters)
        out.subtract(snapshot)
        return {k: v for k, v in out.items() if v}

    def report(self, prefixes=None):
        """A sorted, human-readable multi-line report."""
        lines = []
        for name in sorted(self.counters):
            if prefixes and not any(name.startswith(p) for p in prefixes):
                continue
            lines.append(f"{name:40s} {self.counters[name]:>14}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Stats({len(self.counters)} counters)"

