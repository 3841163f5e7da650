"""Event counters and per-run statistics.

Every component of the machine increments counters on a shared
:class:`Stats` object. The energy model (:mod:`repro.sim.energy`) and the
experiment harness both read these counters; the figures in the paper are
(almost entirely) functions of them.

Two planes of observability coexist:

- the flat counters (this module's :class:`Stats`): always on, updated
  directly at the emitting site -- the fast plane; per-phase counters
  are derived from them at phase boundaries;
- the event bus (:mod:`repro.sim.events`): opt-in, typed, carrying the
  per-request attribution the counters cannot express. This module's
  :class:`AccessProfile` is the bus subscriber that turns
  :class:`~repro.sim.events.MemoryAccess` events into a per-level
  outcome breakdown (how many requests terminated at the L1, how many
  were constructed by a morph, what latency each terminal level cost).
"""

from collections import Counter

from repro.sim.events import MemoryAccess


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


class AccessProfile:
    """Per-level access attribution, fed by the event bus.

    Attach to a machine before running, read the breakdown after::

        profile = AccessProfile(machine)
        ... run ...
        print(profile.summary())
        profile.detach()

    ``outcomes`` counts every ``(level, outcome)`` step across all
    requests; ``served_by`` counts requests by their *terminal* step
    (where the access was satisfied); ``latency_by_level`` sums request
    latency per terminal level, so average cost per level falls out
    directly.
    """

    def __init__(self, machine=None):
        #: Counter of (level, outcome) across every step of every request.
        self.outcomes = Counter()
        #: Counter of terminal (level, outcome) -- one per request.
        self.served_by = Counter()
        #: Requests per requesting tile.
        self.by_tile = Counter()
        #: Summed request latency keyed by terminal level.
        self.latency_by_level = Counter()
        self.requests = 0
        self._bus = None
        if machine is not None:
            self.attach(machine)

    # ------------------------------------------------------------------
    # bus wiring
    # ------------------------------------------------------------------
    def attach(self, machine):
        self._bus = machine.events
        self._bus.subscribe(MemoryAccess, self._on_access)
        return self

    def detach(self):
        if self._bus is not None:
            self._bus.unsubscribe(MemoryAccess, self._on_access)
        return self

    def _on_access(self, event):
        result = event.result
        self.requests += 1
        self.by_tile[event.tile] += 1
        # A plain loop: ``Counter.update`` pays an abc Mapping check
        # (three calls) per access before it counts anything.
        steps = result.outcomes
        outcomes = self.outcomes
        for step in steps:
            outcomes[step] += 1
        if steps:
            terminal = steps[-1]
            self.served_by[terminal] += 1
            self.latency_by_level[terminal[0]] += result.latency

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def count(self, level, outcome=None):
        """Steps recorded at ``level`` (optionally one outcome)."""
        if outcome is not None:
            return self.outcomes.get((level, outcome), 0)
        return sum(v for (lvl, _), v in self.outcomes.items() if lvl == level)

    def hit_rate(self, level):
        """hits / (hits + misses) at ``level`` (0.0 when untouched)."""
        hits = self.outcomes.get((level, "hit"), 0) + self.outcomes.get(
            (level, "snoop_hit"), 0
        )
        misses = self.outcomes.get((level, "miss"), 0) + self.outcomes.get(
            (level, "snoop_miss"), 0
        )
        total = hits + misses
        return hits / total if total else 0.0

    def mean_latency(self, level=None):
        """Mean request latency (for requests terminating at ``level``)."""
        if level is None:
            total = sum(self.latency_by_level.values())
            count = sum(self.served_by.values())
        else:
            total = self.latency_by_level.get(level, 0)
            count = sum(v for (lvl, _), v in self.served_by.items() if lvl == level)
        return total / count if count else 0.0

    def breakdown(self):
        """``{(level, outcome): count}`` over all steps, as a dict."""
        return dict(self.outcomes)

    def summary(self):
        """A sorted, human-readable per-level report."""
        lines = [f"requests {self.requests:>14}"]
        for (level, outcome), count in sorted(self.outcomes.items()):
            lines.append(f"{level + '.' + outcome:40s} {count:>14}")
        for (level, outcome), count in sorted(self.served_by.items()):
            lines.append(f"served_by {level + '.' + outcome:30s} {count:>14}")
        return "\n".join(lines)

    def __repr__(self):
        return f"AccessProfile({self.requests} requests)"
