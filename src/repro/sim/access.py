"""The access-path request/result pair.

Every load/store entering the hierarchy becomes a
:class:`MemoryRequest` per cache line touched; the pipeline components
(:class:`~repro.sim.hierarchy.PrivateCachePath`,
:class:`~repro.sim.hierarchy.SharedCachePath`, the DRAM path) thread
the request through, accumulating latency and recording a per-level
outcome at each step. :meth:`Hierarchy.access` folds the per-line
requests into one :class:`AccessResult` -- the latency of the slowest
line plus the concatenated outcome trail -- which is what operations
and subscribers consume. The hierarchy also tallies every trail into
``Hierarchy.outcome_counts``, the per-level counts experiment reports
read.

Outcomes are ``(level, outcome)`` pairs. Levels: ``l1``, ``l2``,
``engine_l1``, ``llc``, ``dram``. Outcomes:

- ``hit`` / ``miss``: an ordinary lookup at that level;
- ``snoop_hit`` / ``snoop_miss``: the engine L1d's snoop of the tile's
  L2 (clustered coherence, Sec. VI-A1);
- ``construct``: a data-triggered constructor handled the fill
  (phantom data, Sec. V-B2) -- nothing below this level was accessed;
- ``fill``: the line was fetched from DRAM into the LLC;
- ``direct``: a near-memory engine read DRAM at the controller,
  bypassing the LLC (Sec. IX);
- ``bypass``: an engine access to an LLC-level morph line skipped the
  private caches and operated in the bank.
"""

from collections import Counter

#: Level names, in pipeline order.
LEVELS = ("l1", "engine_l1", "l2", "llc", "dram")

#: Outcome names (see module docstring).
HIT = "hit"
MISS = "miss"
SNOOP_HIT = "snoop_hit"
SNOOP_MISS = "snoop_miss"
CONSTRUCT = "construct"
FILL = "fill"
DIRECT = "direct"
BYPASS = "bypass"


class MemoryRequest:
    """One cache line's walk down the access path.

    Components mutate the request in place: ``latency`` accumulates the
    critical-path cycles, ``outcomes`` records the per-level trail.
    """

    __slots__ = (
        "tile",
        "line",
        "size",
        "is_write",
        "engine",
        "near_memory",
        "latency",
        "outcomes",
    )

    def __init__(self, tile, line, size, is_write, engine=False, near_memory=False):
        self.tile = tile
        self.line = line
        self.size = size
        self.is_write = is_write
        self.engine = engine
        self.near_memory = near_memory
        self.latency = 0.0
        self.outcomes = []

    def record(self, level, outcome):
        """Append a ``(level, outcome)`` step to the request's trail."""
        self.outcomes.append((level, outcome))

    def __repr__(self):
        op = "store" if self.is_write else "load"
        return (
            f"MemoryRequest({op} line {self.line:#x} by "
            f"{'engine' if self.engine else 'core'}{self.tile}, "
            f"latency={self.latency:.0f}, outcomes={self.outcomes})"
        )


class AccessResult:
    """The completed request: latency plus the per-level outcome trail.

    For multi-line accesses the latency is that of the slowest line
    (lines overlap) and ``outcomes`` concatenates every line's trail,
    so outcome *counts* still attribute all traffic correctly.
    """

    __slots__ = (
        "tile",
        "addr",
        "size",
        "is_write",
        "engine",
        "near_memory",
        "latency",
        "outcomes",
    )

    def __init__(self, tile, addr, size, is_write, engine, near_memory, latency, outcomes):
        self.tile = tile
        self.addr = addr
        self.size = size
        self.is_write = is_write
        self.engine = engine
        self.near_memory = near_memory
        self.latency = latency
        self.outcomes = outcomes

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def served_by(self):
        """The terminal ``(level, outcome)`` step (None if empty)."""
        return self.outcomes[-1] if self.outcomes else None

    def count(self, level, outcome=None):
        """Occurrences of ``level`` (optionally of a specific outcome)."""
        return sum(
            1
            for lvl, out in self.outcomes
            if lvl == level and (outcome is None or out == outcome)
        )

    def outcome_counts(self):
        """``Counter`` of ``(level, outcome)`` pairs."""
        return Counter(self.outcomes)

    def __repr__(self):
        op = "store" if self.is_write else "load"
        return (
            f"AccessResult({op} {self.size}B @ {self.addr:#x} by "
            f"{'engine' if self.engine else 'core'}{self.tile}, "
            f"latency={self.latency:.0f}, outcomes={self.outcomes})"
        )
