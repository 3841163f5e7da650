"""Set-associative cache model.

Caches are *tag-only*: they track which lines are resident (plus dirty
and Leviathan metadata bits) but store no data. Workload data lives in
Python objects; the cache model exists to decide hits, misses, and
evictions, which is all the timing and energy models need.

Three replacement policies are provided: classic LRU, SRRIP ("rrip"),
and a scan-resistant bimodal RRIP ("brrip"); the paper's L2/LLC use
"t̄r̄ip repl." [66], an RRIP-family policy. BRRIP inserts almost all
lines at the maximum re-reference prediction so single-use streams
(graph edge lists, logs) cannot displace the reused working set.
"""

from operator import attrgetter

#: LRU victim key. A C-level getter: ``min`` calls it once per line in
#: the set on every eviction.
_LRU_TICK = attrgetter("lru_tick")


class CacheLine:
    """Metadata for one resident cache line."""

    __slots__ = ("line", "dirty", "morph", "rrpv", "lru_tick")

    def __init__(self, line):
        self.line = line
        self.dirty = False
        #: Leviathan tag bit: run the actor destructor when this line is
        #: evicted (Sec. VI-B2, "one extra bit" in L2/LLC tags).
        self.morph = False
        self.rrpv = 0
        self.lru_tick = 0

    def __repr__(self):
        flags = "".join(
            flag for flag, on in (("D", self.dirty), ("M", self.morph)) if on
        )
        return f"CacheLine({self.line:#x}{',' + flags if flags else ''})"


class SetAssocCache:
    """A set-associative, tag-only cache.

    ``lookup`` / ``insert`` / ``invalidate`` operate on *line numbers*
    (byte address divided by line size); callers do the division so a
    single cache model serves every level.
    """

    RRIP_MAX = 3  # 2-bit RRPV
    RRIP_INSERT = 2  # long re-reference prediction on insert

    def __init__(self, n_sets, n_ways, policy="lru", name="cache", index_shift=0):
        if n_sets <= 0 or n_ways <= 0:
            raise ValueError(f"{name}: sets and ways must be positive")
        if n_sets & (n_sets - 1):
            raise ValueError(f"{name}: n_sets must be a power of two, got {n_sets}")
        if policy not in ("lru", "rrip", "brrip"):
            raise ValueError(f"{name}: unknown replacement policy {policy!r}")
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.policy = policy
        self.name = name
        #: Low line-index bits to skip when computing the set index.
        #: LLC banks set this to log2(n_banks): the bank-select bits are
        #: below the set-index bits, so they must not alias (a banked
        #: cache indexing sets with the bank bits would use one set).
        self.index_shift = index_shift
        # n_sets is a power of two (checked above): modulo is a mask.
        self._mask = n_sets - 1
        self._shift = index_shift
        #: list of dicts: set index -> {line: CacheLine}
        self._sets = [dict() for _ in range(n_sets)]
        #: Per-set LRU clocks. Replacement only ever compares ticks of
        #: lines in the *same* set, so each set keeps its own counter:
        #: touch order within a set is what LRU is defined over, and a
        #: shared global clock would couple unrelated sets (and made the
        #: tick a single ever-growing hot spot).
        self._ticks = [0] * n_sets
        self._brrip_counter = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def capacity_lines(self):
        return self.n_sets * self.n_ways

    def set_index(self, line):
        return (line >> self.index_shift) & (self.n_sets - 1)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def lookup(self, line, touch=True):
        """Return the resident :class:`CacheLine` or ``None``.

        ``touch`` updates replacement state on a hit (real accesses);
        pass ``touch=False`` for probes (directory checks, DYNAMIC
        invoke placement) that should not perturb replacement.
        """
        index = (line >> self._shift) & self._mask
        entry = self._sets[index].get(line)
        if entry is not None and touch:
            tick = self._ticks[index] + 1
            self._ticks[index] = tick
            entry.lru_tick = tick
            entry.rrpv = 0
        return entry

    def contains(self, line):
        return line in self._sets[(line >> self._shift) & self._mask]

    def insert(self, line, dirty=False, morph=False):
        """Insert ``line``; return the evicted :class:`CacheLine` or ``None``.

        Inserting a line that is already resident just updates its flags
        (and returns ``None``).
        """
        index = (line >> self._shift) & self._mask
        cache_set = self._sets[index]
        entry = cache_set.get(line)
        tick = self._ticks[index] + 1
        self._ticks[index] = tick
        if entry is not None:
            entry.dirty = entry.dirty or dirty
            entry.morph = entry.morph or morph
            entry.lru_tick = tick
            return None

        victim = None
        if len(cache_set) >= self.n_ways:
            victim = self._choose_victim(cache_set)
            del cache_set[victim.line]

        entry = CacheLine(line)
        entry.dirty = dirty
        entry.morph = morph
        entry.lru_tick = tick
        if self.policy == "brrip":
            entry.rrpv = self._brrip_insertion_rrpv()
        else:
            entry.rrpv = self.RRIP_INSERT
        cache_set[line] = entry
        return victim

    def _brrip_insertion_rrpv(self):
        # Bimodal: nearly all insertions predict distant re-reference
        # (scan-resistant); one in 32 gets the SRRIP insertion so a new
        # working set can still ramp in.
        self._brrip_counter += 1
        if self._brrip_counter % 32 == 0:
            return self.RRIP_INSERT
        return self.RRIP_MAX

    def invalidate(self, line):
        """Remove ``line``; return its :class:`CacheLine` or ``None``."""
        return self._sets[(line >> self._shift) & self._mask].pop(line, None)

    def resident_lines(self):
        """Iterate over all resident line numbers (for range flushes)."""
        for cache_set in self._sets:
            yield from cache_set.keys()

    def resident_in(self, line_lo, line_hi):
        """Resident line numbers within ``[line_lo, line_hi)``."""
        return [
            line for line in self.resident_lines() if line_lo <= line < line_hi
        ]

    # ------------------------------------------------------------------
    # replacement
    # ------------------------------------------------------------------
    def _choose_victim(self, cache_set):
        if self.policy == "lru":
            return min(cache_set.values(), key=_LRU_TICK)
        # RRIP: evict a line at max RRPV, aging everyone until one exists.
        while True:
            for entry in cache_set.values():
                if entry.rrpv >= self.RRIP_MAX:
                    return entry
            for entry in cache_set.values():
                entry.rrpv += 1

    def __repr__(self):
        used = sum(len(s) for s in self._sets)
        return (
            f"SetAssocCache({self.name}, {self.n_sets}x{self.n_ways}, "
            f"{used}/{self.capacity_lines} lines)"
        )
