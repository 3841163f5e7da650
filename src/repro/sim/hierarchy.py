"""The memory hierarchy: a layered access-path pipeline.

An access enters :meth:`Hierarchy.access` (or its latency-only twin
:meth:`Hierarchy.access_latency`) and walks its cache lines, one at a
time on a single pooled :class:`~repro.sim.access.MemoryRequest`,
through four focused components, each owning one slice of the path:

- :class:`PrivateCachePath`: per-tile L1s, L2s, the engines' small
  coherent L1ds, and the L2 strided prefetchers;
- :class:`SharedCachePath`: the banked inclusive LLC with its
  in-directory coherence (upgrades, invalidations, ping-pong costs);
- the DRAM/MC path (:class:`~repro.sim.dram.MemorySystem`): memory
  controllers with their FIFO caches, reached over the mesh NoC;
- :class:`FillEngine`: the fill/evict seam where the Leviathan runtime
  interposes -- data-triggered constructors on misses (phantom fills,
  Sec. V-B2), destructors on evictions (queued on the pending-actor
  buffer and drained off the critical path), and prefetch flow control.

Each component records a per-level outcome on the request and
accumulates latency. The hierarchy tallies every completed walk's
outcome trail into :attr:`Hierarchy.outcome_counts` (the per-level
attribution a run's ``RunResult.access_profile`` reports), and
:meth:`Hierarchy.access` also folds the walk into an
:class:`~repro.sim.access.AccessResult`. All
components emit typed events on the machine's
:class:`~repro.sim.events.EventBus` (guard-checked: free with no
subscribers), which is how the flight recorder and telemetry observe
the pipeline without touching it.

The runtime interposes through ``hierarchy.hooks``
(:class:`HierarchyHooks`):

- ``hooks.bank_shift(line)``: how many low line-index bits the LLC
  bank-index function ignores (LLC object mapping, Sec. VI-A3);
- ``hooks.translate(line)``: cache-line -> DRAM-line translation (DRAM
  object compaction, Sec. VI-A3);
- ``hooks.on_miss(level, tile, line)``: data-triggered constructors;
- ``hooks.on_evict(level, tile, line, dirty)``: data-triggered
  destructors;
- ``hooks.allow_prefetch(level, tile, line)``: stream flow control for
  hardware prefetches (Sec. VI-B3).

The default hooks make the hierarchy a plain multicore -- the baseline
every case study compares against.
"""

from repro.sim.access import MemoryRequest, AccessResult
from repro.sim.cache import SetAssocCache
from repro.sim.coherence import Directory
from repro.sim.dram import MemorySystem
from repro.sim.events import (
    CacheAccess,
    CoherenceAction,
    Eviction,
    MemoryAccess,
    MorphConstruct,
    MorphDestruct,
)
from repro.sim.noc import MeshNoc
from repro.sim.prefetch import StridePrefetcher

#: Payload sizes (bytes) for NoC accounting.
CTRL_BYTES = 8
DATA_BYTES = 64

#: Safety bound on hook recursion (constructor -> access -> constructor).
MAX_HOOK_DEPTH = 8

#: Sentinel: the prefetcher was NACKed by a morph (e.g. a stream tail).
_PREFETCH_DENIED = object()


class ConstructResult:
    """Returned by ``hooks.on_miss`` when a morph handles a fill."""

    __slots__ = ("latency", "lines", "dirty")

    def __init__(self, latency, lines, dirty=False):
        self.latency = latency
        #: All cache lines of the constructed object (multi-line objects
        #: are inserted or evicted as a unit, Sec. VI-B2).
        self.lines = lines
        self.dirty = dirty


class HierarchyHooks:
    """Default (baseline multicore) hook implementations."""

    #: The registered morph records, for hooks that keep them: while
    #: this is an empty sequence the engine path does not ask
    #: :meth:`morph_level`. None (the default) means always ask.
    morphs = None

    def bank_shift(self, line):
        """Low line-index bits ignored by the LLC bank-index function."""
        return 0

    def translate(self, line):
        """DRAM lines backing cache line ``line`` (identity by default)."""
        return (line,)

    def on_miss(self, level, tile, line):
        """Return a :class:`ConstructResult` to handle the fill, or None."""
        return None

    def on_evict(self, level, tile, line, dirty):
        """Return True if a destructor consumed the eviction."""
        return False

    def morph_level(self, line):
        """The level ('l2'/'llc') at which ``line`` is morph-registered."""
        return None

    def allow_prefetch(self, level, tile, line):
        """May the hardware prefetcher fill ``line`` at ``level``?"""
        return True


class FillEngine:
    """The fill/evict seam: morph hooks and the pending-actor buffer.

    Constructors run inline (their latency is on the fill's critical
    path); destructors queue here and drain off the critical path after
    the access that evicted them, which also breaks
    destructor->store->eviction->destructor recursion -- the paper's
    per-engine "data-triggered buffer" (Table IV).
    """

    def __init__(self, hierarchy):
        self.h = hierarchy
        self.stats = hierarchy.stats
        self.bus = hierarchy.bus
        self.hooks = HierarchyHooks()
        self._hook_depth = 0
        self._pending_destructors = []
        #: Per-event-type emit flag, kept coherent with the bus registry
        #: by :meth:`Hierarchy._refresh_emit_flags`.
        self.emit_morph_destruct = False

    # ------------------------------------------------------------------
    # hooks with recursion guard
    # ------------------------------------------------------------------
    def run_on_miss(self, level, tile, line):
        # A constructor must never run while the destructor of an
        # earlier eviction of the same line is still queued (it would
        # reset state the destructor has yet to persist) -- drain first.
        if self._hook_depth == 0 and self._pending_destructors:
            self.drain_destructors()
        if self._hook_depth >= MAX_HOOK_DEPTH:
            raise RuntimeError(
                f"morph hook recursion exceeded {MAX_HOOK_DEPTH} at line {line:#x}"
            )
        self._hook_depth += 1
        try:
            return self.hooks.on_miss(level, tile, line)
        finally:
            self._hook_depth -= 1

    def run_on_miss_if_allowed(self, tile, line):
        if not self.hooks.allow_prefetch("l2", tile, line):
            self.stats.add("prefetch.nacked")
            return _PREFETCH_DENIED
        return self.run_on_miss("l2", tile, line)

    def queue_destructor(self, level, tile, line, dirty):
        """Queue a data-triggered destructor on the pending-actor buffer."""
        self._pending_destructors.append((level, tile, line, dirty))
        self.stats.add(f"morph.{level}_destructions")
        if self.emit_morph_destruct:
            self.bus.emit(MorphDestruct(level, tile, line, dirty))

    def drain_destructors(self):
        """Run queued destructors until none remain.

        Destructors may themselves store (evicting further morph lines);
        those re-queue rather than recurse, mirroring the hardware's
        pending-actor buffer.
        """
        while self._pending_destructors:
            level, tile, line, dirty = self._pending_destructors.pop(0)
            self._run_on_evict(level, tile, line, dirty)

    def _run_on_evict(self, level, tile, line, dirty):
        if self._hook_depth >= MAX_HOOK_DEPTH:
            raise RuntimeError(
                f"morph hook recursion exceeded {MAX_HOOK_DEPTH} at line {line:#x}"
            )
        self._hook_depth += 1
        try:
            return self.hooks.on_evict(level, tile, line, dirty)
        finally:
            self._hook_depth -= 1


class PrivateCachePath:
    """Per-tile private caches: L1s, L2s, engine L1ds, L2 prefetchers."""

    def __init__(self, hierarchy):
        self.h = hierarchy
        cfg = hierarchy.config
        self.config = cfg
        self.stats = hierarchy.stats
        self.bus = hierarchy.bus
        n = cfg.n_tiles
        self.l1 = [hierarchy.build_cache(cfg.l1, "l1.", t) for t in range(n)]
        self.l2 = [hierarchy.build_cache(cfg.l2, "l2.", t) for t in range(n)]
        engine_l1_cfg = _engine_l1_config(cfg)
        self.engine_l1 = [
            hierarchy.build_cache(engine_l1_cfg, "el1.", t) for t in range(n)
        ]
        self.prefetchers = [StridePrefetcher(t, cfg.line_size) for t in range(n)]
        # Hit/tag latencies resolved once: ``CacheConfig.hit_latency`` is
        # a property (tag + data) and was being recomputed per access.
        self._l1_hit = cfg.l1.hit_latency
        self._l1_tag = cfg.l1.tag_latency
        self._l2_hit = cfg.l2.hit_latency
        self._l2_tag = cfg.l2.tag_latency
        # Per-event-type emit flags (see Hierarchy._refresh_emit_flags).
        self.emit_cache_access = False
        self.emit_eviction = False
        self.emit_morph_construct = False

    def link(self, shared, fill_engine):
        """Wire the cross-component references (called once by the facade)."""
        self.shared = shared
        self.fill = fill_engine

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def tile_has_private(self, tile, line):
        return (
            self.l1[tile].contains(line)
            or self.l2[tile].contains(line)
            or self.engine_l1[tile].contains(line)
        )

    # ------------------------------------------------------------------
    # the core demand path
    # ------------------------------------------------------------------
    def access_line(self, req):
        """Walk a core access through L1 -> L2 -> (morph | shared path)."""
        counters = self.stats.counters
        tile, line, is_write = req.tile, req.line, req.is_write

        counters["l1.accesses"] += 1
        entry = self.l1[tile].lookup(line)
        if self.emit_cache_access:
            self.bus.emit(
                CacheAccess("l1", tile, line, entry is not None, is_write, False)
            )
        if entry is not None:
            req.outcomes.append(("l1", "hit"))
            req.latency += self._l1_hit
            if is_write:
                entry.dirty = True
                req.latency += self.shared.ensure_ownership(tile, line)
            return
        req.outcomes.append(("l1", "miss"))
        req.latency += self._l1_tag

        counters["l2.accesses"] += 1
        l2_entry = self.l2[tile].lookup(line)
        if self.emit_cache_access:
            self.bus.emit(
                CacheAccess("l2", tile, line, l2_entry is not None, is_write, False)
            )
        if l2_entry is not None:
            req.outcomes.append(("l2", "hit"))
            req.latency += self._l2_hit
            if is_write:
                req.latency += self.shared.ensure_ownership(tile, line)
            self.fill_private(tile, line, is_write, False, morph=l2_entry.morph)
            return
        req.outcomes.append(("l2", "miss"))
        req.latency += self._l2_tag

        # L2-level morph: phantom fill constructed by this tile's engine.
        result = self.fill.run_on_miss("l2", tile, line)
        if result is not None:
            req.record("l2", "construct")
            req.latency += result.latency
            for obj_line in result.lines:
                self.insert_l2(tile, obj_line, dirty=result.dirty, morph=True)
            self.fill_private(tile, line, is_write, False, morph=True)
            self.stats.add("morph.l2_constructions")
            if self.emit_morph_construct:
                self.bus.emit(MorphConstruct("l2", tile, line))
            return

        self.shared.access_line(req)
        self.insert_l2(tile, line, dirty=False, morph=False)
        self.fill_private(tile, line, is_write, False, morph=False)
        # Prefetches issue after the demand miss resolves (issuing them
        # first could evict the demanded line between its directory and
        # data lookups).
        if self.config.l2_prefetcher:
            self.train_prefetcher(tile, line)

    # ------------------------------------------------------------------
    # the engine demand path (Sec. VI-A1's clustered coherence)
    # ------------------------------------------------------------------
    def engine_access_line(self, req):
        """An engine-side access.

        The engine L1d and the tile's L2 snoop each other but are
        separate caches: an engine miss snoops the L2 (without filling
        it) and otherwise goes straight to the LLC, so engine traffic
        does not displace the core's working set.

        ``near_memory`` tasks (the Sec. IX extension) read uncached
        lines directly from their memory controller, bypassing the LLC
        entirely -- the engine sits at the controller, so the transfer
        crosses no NoC links.
        """
        h = self.h
        counters = self.stats.counters
        tile, line, is_write = req.tile, req.line, req.is_write

        hooks = self.fill.hooks
        morphs = hooks.morphs
        if (morphs is None or morphs) and hooks.morph_level(line) == "llc":
            # Near-data actions operate on LLC-resident phantom objects
            # *in the LLC bank* (PHI's RMW tasks update the cached
            # deltas directly, Sec. IV-B); bypassing the engine L1d
            # keeps the reuse visible to the LLC's replacement policy.
            req.outcomes.append(("engine_l1", "bypass"))
            req.latency += 1
            self.shared.access_line(req)
            return

        counters["engine_l1.accesses"] += 1
        entry = self.engine_l1[tile].lookup(line)
        if self.emit_cache_access:
            self.bus.emit(
                CacheAccess("engine_l1", tile, line, entry is not None, is_write, True)
            )
        if entry is not None:
            req.outcomes.append(("engine_l1", "hit"))
            req.latency += 2  # small, near-engine SRAM
            if is_write:
                entry.dirty = True
                req.latency += self.shared.ensure_ownership(tile, line)
            return
        req.outcomes.append(("engine_l1", "miss"))
        req.latency += 1

        # Snoop the on-tile L2 (no fill -- the caches stay distinct).
        counters["l2.accesses"] += 1
        l2_entry = self.l2[tile].lookup(line)
        if self.emit_cache_access:
            self.bus.emit(
                CacheAccess("l2", tile, line, l2_entry is not None, is_write, True)
            )
        if l2_entry is not None:
            req.outcomes.append(("l2", "snoop_hit"))
            req.latency += self._l2_hit
            if is_write:
                req.latency += self.shared.ensure_ownership(tile, line)
            self.fill_private(tile, line, is_write, True, morph=l2_entry.morph)
            return
        req.outcomes.append(("l2", "snoop_miss"))

        if (
            req.near_memory
            and not self.shared.llc_has(line)
            and self.shared.dir.peek(line) is None
        ):
            # Direct DRAM read at the controller; the line is cached
            # only in the near-memory engine's L1d, never in the LLC.
            dram_lines = self.fill.hooks.translate(line)
            req.latency += h.mem.access(
                tile,
                dram_lines,
                is_write=False,
                payload_bytes=DATA_BYTES,
                now=h.machine.scheduler.now,
            )
            self.stats.add("near_memory.direct_accesses")
            req.record("dram", "direct")
            self.fill_private(tile, line, is_write, True, morph=False)
            return

        self.shared.access_line(req)
        self.fill_private(tile, line, is_write, True, morph=False)

    # ------------------------------------------------------------------
    # fills and evictions
    # ------------------------------------------------------------------
    def fill_private(self, tile, line, is_write, engine, morph):
        private = self.engine_l1[tile] if engine else self.l1[tile]
        victim = private.insert(line, dirty=is_write, morph=morph)
        if victim is not None:
            if engine:
                self.evict_engine_l1(tile, victim)
            else:
                self.evict_private_l1(tile, victim)
        if is_write and not morph:
            self.shared.dir.record_fill(line, tile, exclusive=True)
        elif not morph:
            self.shared.dir.record_fill(line, tile, exclusive=False)

    def evict_private_l1(self, tile, victim):
        if self.emit_eviction:
            self.bus.emit(Eviction("l1", tile, victim.line, victim.dirty, victim.morph))
        if victim.dirty:
            # Write back into the L2 (which may cascade).
            self.insert_l2(tile, victim.line, dirty=True, morph=victim.morph)
        self.shared.maybe_release_sharer(tile, victim.line)

    def evict_engine_l1(self, tile, victim):
        """Engine L1d victims write back to the LLC, not the core's L2."""
        line = victim.line
        if self.emit_eviction:
            self.bus.emit(Eviction("engine_l1", tile, line, victim.dirty, victim.morph))
        if victim.morph:
            # A phantom (L2-morph) line cached by the engine: destruct.
            self.fill.queue_destructor("l2", tile, line, victim.dirty)
            self.shared.maybe_release_sharer(tile, line)
            return
        if victim.dirty:
            self.shared.writeback(tile, line)
        self.shared.maybe_release_sharer(tile, line)

    def insert_l2(self, tile, line, dirty, morph):
        l2 = self.l2[tile]
        existing = l2.lookup(line, touch=False)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            existing.morph = existing.morph or morph
            return
        victim = l2.insert(line, dirty=dirty, morph=morph)
        if victim is not None:
            self.evict_l2(tile, victim)

    def evict_l2(self, tile, victim):
        line = victim.line
        # Enforce L1 (and engine L1d) inclusion within the tile.
        l1_entry = self.l1[tile].invalidate(line)
        e1_entry = self.engine_l1[tile].invalidate(line)
        dirty = victim.dirty or bool(l1_entry and l1_entry.dirty) or bool(
            e1_entry and e1_entry.dirty
        )
        if self.emit_eviction:
            self.bus.emit(Eviction("l2", tile, line, dirty, victim.morph))
        if victim.morph:
            # Phantom line registered at the L2: queue its destructor on
            # this tile's engine; nothing is written down the hierarchy.
            self.fill.queue_destructor("l2", tile, line, dirty)
            return
        if dirty:
            self.shared.writeback(tile, line)
        self.shared.maybe_release_sharer(tile, line)

    def drop_private(self, tile, line):
        """Remove ``line`` from every private cache on ``tile``."""
        for cache in (self.l1[tile], self.l2[tile], self.engine_l1[tile]):
            cache.invalidate(line)

    # ------------------------------------------------------------------
    # prefetch
    # ------------------------------------------------------------------
    def train_prefetcher(self, tile, line):
        for pf_line in self.prefetchers[tile].train(line):
            if self.l2[tile].contains(pf_line):
                continue
            self.prefetch_fill(tile, pf_line)

    def prefetch_fill(self, tile, line):
        """Fill ``line`` into the L2 in the background (no demand latency)."""
        result = self.fill.run_on_miss_if_allowed(tile, line)
        if result is _PREFETCH_DENIED:
            return
        self.stats.add("prefetch.issued")
        if result is not None:
            for obj_line in result.lines:
                self.insert_l2(tile, obj_line, dirty=result.dirty, morph=True)
            self.stats.add("morph.l2_constructions")
            self.stats.add("prefetch.morph_fills")
            if self.emit_morph_construct:
                self.bus.emit(MorphConstruct("l2", tile, line))
            return
        # The prefetch walks the shared path like a demand fill, but its
        # latency is discarded (it is off the demand critical path).
        pf_req = self.h.checkout_request(tile, line, 0, False, False, False)
        self.shared.access_line(pf_req)
        self.h.checkin_request(pf_req)
        self.insert_l2(tile, line, dirty=False, morph=False)
        self.shared.dir.record_fill(line, tile, exclusive=False)


class SharedCachePath:
    """The banked inclusive LLC and its in-directory coherence."""

    def __init__(self, hierarchy):
        self.h = hierarchy
        cfg = hierarchy.config
        self.config = cfg
        self.stats = hierarchy.stats
        self.bus = hierarchy.bus
        n = cfg.n_tiles
        bank_bits = (n - 1).bit_length()
        # LLC banks index sets above the bank-select bits (which would
        # otherwise alias onto one set per bank).
        self.llc = [
            hierarchy.build_cache(cfg.llc, "llc.", t, index_shift=bank_bits)
            for t in range(n)
        ]
        self.dir = Directory(self.stats)
        #: ``n_tiles`` is a power of two (validated by SystemConfig), so
        #: the bank-index modulo reduces to this mask.
        self._bank_mask = n - 1
        self._llc_hit = cfg.llc.hit_latency
        self._llc_tag = cfg.llc.tag_latency
        # Per-event-type emit flags (see Hierarchy._refresh_emit_flags).
        self.emit_cache_access = False
        self.emit_eviction = False
        self.emit_coherence = False
        self.emit_morph_construct = False

    def link(self, private, fill_engine):
        """Wire the cross-component references (called once by the facade)."""
        self.private = private
        self.fill = fill_engine

    # ------------------------------------------------------------------
    # mapping and probes
    # ------------------------------------------------------------------
    def bank_of(self, line):
        """LLC bank for ``line``, honoring Leviathan's LSB-ignore mapping."""
        return (line >> self.fill.hooks.bank_shift(line)) & self._bank_mask

    def llc_has(self, line):
        return self.llc[self.bank_of(line)].contains(line)

    def owner_of(self, line):
        return self.dir.owner_of(line)

    # ------------------------------------------------------------------
    # the shared demand path
    # ------------------------------------------------------------------
    def access_line(self, req):
        """Access ``req.line`` at its LLC bank on behalf of the requester."""
        h = self.h
        counters = self.stats.counters
        line, is_write = req.line, req.is_write
        bank = (line >> self.fill.hooks.bank_shift(line)) & self._bank_mask
        req.latency += h.noc.send(req.tile, bank, CTRL_BYTES)
        counters["llc.accesses"] += 1
        req.latency += self.resolve_coherence(bank, req.tile, line, is_write)

        llc = self.llc[bank]
        entry = llc.lookup(line)
        if self.emit_cache_access:
            self.bus.emit(
                CacheAccess("llc", bank, line, entry is not None, is_write, req.engine)
            )
        if entry is not None:
            counters["llc.hits"] += 1
            req.outcomes.append(("llc", "hit"))
            req.latency += self._llc_hit
            if is_write:
                entry.dirty = True
            req.latency += h.noc.send(bank, req.tile, DATA_BYTES)
            return

        counters["llc.misses"] += 1
        req.outcomes.append(("llc", "miss"))
        req.latency += self._llc_tag

        result = self.fill.run_on_miss("llc", bank, line)
        if result is not None:
            req.record("llc", "construct")
            req.latency += result.latency
            for obj_line in result.lines:
                self.insert_llc(bank, obj_line, dirty=result.dirty or is_write, morph=True)
            self.stats.add("morph.llc_constructions")
            if self.emit_morph_construct:
                self.bus.emit(MorphConstruct("llc", bank, line))
        else:
            dram_lines = self.fill.hooks.translate(line)
            req.latency += h.mem.access(
                bank,
                dram_lines,
                is_write=False,
                payload_bytes=DATA_BYTES,
                now=h.machine.scheduler.now,
            )
            req.record("dram", "fill")
            self.insert_llc(bank, line, dirty=is_write, morph=False)

        req.latency += h.noc.send(bank, req.tile, DATA_BYTES)

    # ------------------------------------------------------------------
    # coherence
    # ------------------------------------------------------------------
    def ensure_ownership(self, tile, line):
        """Charge an upgrade if ``tile`` writes a line it does not own."""
        ent = self.dir.peek(line)
        if ent is None:
            # Phantom (L2-morph) lines are tile-private; no directory state.
            return 0
        if ent.owner == tile:
            return 0
        bank = self.bank_of(line)
        latency = self.h.noc.round_trip(tile, bank, CTRL_BYTES, CTRL_BYTES)
        self.stats.add("coherence.upgrades")
        if self.emit_coherence:
            self.bus.emit(CoherenceAction("upgrade", line, bank, tile))
        latency += self.invalidate_sharers(bank, line, keep_tile=tile)
        self.dir.record_fill(line, tile, exclusive=True)
        return latency

    def resolve_coherence(self, bank, requester_tile, line, is_write):
        """Directory actions before the LLC satisfies a fill request."""
        ent = self.dir.peek(line)
        if ent is None:
            return 0
        latency = 0
        owner = ent.owner
        if owner is not None and owner != requester_tile:
            # Another tile holds the line modified: fetch and write back.
            self.stats.add("coherence.ping_pongs")
            if self.emit_coherence:
                self.bus.emit(CoherenceAction("ping_pong", line, bank, owner))
            latency += self.h.noc.send(bank, owner, CTRL_BYTES)
            latency += self.h.noc.send(owner, bank, DATA_BYTES)
            self.private.drop_private(owner, line)
            self.dir.record_private_eviction(line, owner)
            llc_entry = self.llc[bank].lookup(line, touch=False)
            if llc_entry is not None:
                llc_entry.dirty = True
        if is_write:
            latency += self.invalidate_sharers(bank, line, keep_tile=requester_tile)
        return latency

    def invalidate_sharers(self, bank, line, keep_tile):
        latency = 0
        for sharer in sorted(self.dir.sharers_of(line)):
            if sharer == keep_tile:
                continue
            self.stats.add("coherence.invalidations")
            if self.emit_coherence:
                self.bus.emit(CoherenceAction("invalidation", line, bank, sharer))
            latency = max(
                latency, self.h.noc.round_trip(bank, sharer, CTRL_BYTES, CTRL_BYTES)
            )
            self.private.drop_private(sharer, line)
            self.dir.record_private_eviction(line, sharer)
        return latency

    def maybe_release_sharer(self, tile, line):
        if not self.private.tile_has_private(tile, line):
            self.dir.record_private_eviction(line, tile)

    # ------------------------------------------------------------------
    # fills, writebacks, evictions
    # ------------------------------------------------------------------
    def writeback(self, tile, line):
        """A dirty private victim writes back into the line's LLC bank."""
        bank = self.bank_of(line)
        self.h.noc.send(tile, bank, DATA_BYTES)
        self.stats.add("llc.accesses")
        llc_entry = self.llc[bank].lookup(line, touch=False)
        if self.emit_cache_access:
            self.bus.emit(
                CacheAccess("llc", bank, line, llc_entry is not None, True, False)
            )
        if llc_entry is not None:
            llc_entry.dirty = True
        else:
            self.insert_llc(bank, line, dirty=True, morph=False)

    def insert_llc(self, bank, line, dirty, morph):
        llc = self.llc[bank]
        existing = llc.lookup(line, touch=False)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            existing.morph = existing.morph or morph
            return
        victim = llc.insert(line, dirty=dirty, morph=morph)
        if victim is not None:
            self.evict_llc(bank, victim)

    def evict_llc(self, bank, victim):
        line = victim.line
        # Inclusive LLC: recall private copies everywhere.
        dirty = victim.dirty
        for sharer in sorted(self.dir.sharers_of(line)):
            self.stats.add("coherence.recalls")
            if self.emit_coherence:
                self.bus.emit(CoherenceAction("recall", line, bank, sharer))
            self.h.noc.round_trip(bank, sharer, CTRL_BYTES, CTRL_BYTES)
            for cache in (
                self.private.l1[sharer],
                self.private.l2[sharer],
                self.private.engine_l1[sharer],
            ):
                dropped = cache.invalidate(line)
                if dropped is not None and dropped.dirty:
                    dirty = True
        self.dir.drop(line)
        if self.emit_eviction:
            self.bus.emit(Eviction("llc", bank, line, dirty, victim.morph))
        if victim.morph:
            # Destructor (off the critical path; its engine work is
            # accounted, its latency absorbed by the actor buffer).
            self.fill.queue_destructor("llc", bank, line, dirty)
            return
        if dirty:
            dram_lines = self.fill.hooks.translate(line)
            self.h.mem.access(
                bank,
                dram_lines,
                is_write=True,
                payload_bytes=DATA_BYTES,
                now=self.h.machine.scheduler.now,
            )
            self.stats.add("llc.writebacks")


class Hierarchy:
    """The facade: owns the pipeline components and the access entry point."""

    def __init__(self, machine):
        self.machine = machine
        cfg = machine.config
        self.config = cfg
        self.stats = machine.stats
        self.bus = machine.events
        self.line_size = cfg.line_size
        self.noc = MeshNoc(cfg, self.stats, bus=self.bus)
        self.mem = MemorySystem(cfg, self.stats, self.noc, bus=self.bus)

        self.fill_engine = FillEngine(self)
        self.private = PrivateCachePath(self)
        self.shared = SharedCachePath(self)
        self.private.link(self.shared, self.fill_engine)
        self.shared.link(self.private, self.fill_engine)

        # Component internals re-exported under their historical names:
        # the runtime, workloads, and tests address caches through the
        # facade (``hierarchy.l1[tile]`` etc.).
        self.l1 = self.private.l1
        self.l2 = self.private.l2
        self.engine_l1 = self.private.engine_l1
        self.prefetchers = self.private.prefetchers
        self.llc = self.shared.llc
        self.dir = self.shared.dir

        #: line_size is validated to be a power of two, so address ->
        #: line is a shift on the hot path.
        self._line_shift = cfg.line_size.bit_length() - 1
        #: Free list of MemoryRequest objects. An access checks one out,
        #: walks it down the path, and checks it back in; constructor
        #: recursion is safe because a nested access simply pops another
        #: entry (or allocates when the pool is dry).
        self._req_pool = []
        #: ``(level, outcome)`` -> steps, over every access's trail
        #: since the machine was built (prefetch walks excluded). A
        #: plain dict: a Counter's ``__missing__`` is a Python call.
        self.outcome_counts = {}
        #: True when a MemoryAccess subscriber exists: accesses must
        #: then build full AccessResult objects (the instrumented path).
        self._want_memory_access = False
        # Keep every component's per-event-type emit flag coherent with
        # the bus registry (called immediately, then on each change).
        self.bus.on_change(self._refresh_emit_flags)

    def _refresh_emit_flags(self, bus):
        """Distribute ``bus.wants(...)`` to the path components.

        Emit sites on the access path guard on these flags instead of
        ``bus.active`` so an event type nobody subscribed to is never
        even constructed -- e.g. a subscriber to ``MemoryAccess`` alone
        does not cause a CacheAccess allocation per lookup.
        """
        wants = bus.wants
        private = self.private
        shared = self.shared
        private.emit_cache_access = shared.emit_cache_access = wants(CacheAccess)
        private.emit_eviction = shared.emit_eviction = wants(Eviction)
        shared.emit_coherence = wants(CoherenceAction)
        private.emit_morph_construct = shared.emit_morph_construct = wants(
            MorphConstruct
        )
        self.fill_engine.emit_morph_destruct = wants(MorphDestruct)
        self._want_memory_access = wants(MemoryAccess)

    # ------------------------------------------------------------------
    # request pooling
    # ------------------------------------------------------------------
    def checkout_request(self, tile, line, size, is_write, engine, near_memory):
        """A reset :class:`MemoryRequest` from the free list (or new)."""
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.tile = tile
            req.line = line
            req.size = size
            req.is_write = is_write
            req.engine = engine
            req.near_memory = near_memory
            req.latency = 0.0
            return req
        return MemoryRequest(tile, line, size, is_write, engine, near_memory)

    def checkin_request(self, req):
        """Recycle ``req``; its outcome trail is discarded."""
        req.outcomes.clear()
        self._req_pool.append(req)

    def build_cache(self, cache_cfg, name, tile, index_shift=0):
        return SetAssocCache(
            cache_cfg.sets(self.config.line_size),
            cache_cfg.ways,
            policy=cache_cfg.replacement,
            name=f"{name}{tile}",
            index_shift=index_shift,
        )

    # ------------------------------------------------------------------
    # hooks (delegated to the fill engine; the runtime assigns these)
    # ------------------------------------------------------------------
    @property
    def hooks(self):
        return self.fill_engine.hooks

    @hooks.setter
    def hooks(self, hooks):
        self.fill_engine.hooks = hooks

    # ------------------------------------------------------------------
    # address mapping
    # ------------------------------------------------------------------
    def line_of(self, addr):
        return addr // self.line_size

    def bank_of(self, line):
        return self.shared.bank_of(line)

    # ------------------------------------------------------------------
    # probes (no state change; used by DYNAMIC invoke placement)
    # ------------------------------------------------------------------
    def tile_has_private(self, tile, line):
        return self.private.tile_has_private(tile, line)

    def llc_has(self, line):
        return self.shared.llc_has(line)

    def owner_of(self, line):
        return self.shared.owner_of(line)

    # ------------------------------------------------------------------
    # the access entry point
    # ------------------------------------------------------------------
    def _walk(self, tile, addr, size, is_write, engine, apply, near_memory):
        """Walk every line of an access; returns ``(latency, outcomes)``.

        One pooled request carries the walk. Its outcome trail escapes
        to the caller, so the request returns to the pool with a fresh
        list instead of a copy (emptying the old list would free its
        buffer just the same, and costs more). The trail is added to
        :attr:`outcome_counts` after the access's destructors drain, so
        accesses count in the order their ``MemoryAccess`` events are
        emitted (nested ones first).
        """
        private = self.private
        access_line = private.engine_access_line if engine else private.access_line
        shift = self._line_shift
        line = addr >> shift
        last = (addr + max(size, 1) - 1) >> shift
        req = self.checkout_request(tile, line, size, is_write, engine, near_memory)
        latency = 0.0
        # A while loop rather than range(): nearly every access is one
        # line, and building a range object per access was measurable.
        while line <= last:
            req.line = line
            req.latency = 0.0
            access_line(req)
            if req.latency > latency:
                latency = req.latency
            line += 1
        outcomes = req.outcomes
        req.outcomes = []
        self._req_pool.append(req)
        if apply is not None:
            apply()
        fill = self.fill_engine
        if fill._pending_destructors and fill._hook_depth == 0:
            fill.drain_destructors()
        counts = self.outcome_counts
        for step in outcomes:
            try:
                counts[step] += 1
            except KeyError:
                counts[step] = 1
        return latency, outcomes

    def access(self, tile, addr, size, is_write, engine=False, apply=None, near_memory=False):
        """Perform an access; returns its :class:`AccessResult`.

        Multi-line accesses are overlapped: the result's latency is that
        of the slowest line, but every line's events and outcomes are
        accounted.

        ``apply`` (a zero-argument callable) is the access's functional
        side effect. It runs after the cache access but *before* queued
        destructors drain, so a destructor for this very line (evicted
        by the access's own fills) observes the applied value.
        """
        latency, outcomes = self._walk(
            tile, addr, size, is_write, engine, apply, near_memory
        )
        result = AccessResult(
            tile, addr, size, is_write, engine, near_memory, latency, outcomes
        )
        if self._want_memory_access:
            self.bus.emit(
                MemoryAccess(tile, addr, size, is_write, engine, near_memory, result)
            )
        return result

    def access_latency(
        self, tile, addr, size, is_write, engine=False, apply=None, near_memory=False
    ):
        """The latency of an access -- the operation fast path.

        Equivalent to ``self.access(...).latency`` (and is exactly that
        whenever a :class:`~repro.sim.events.MemoryAccess` subscriber
        needs the full result), but with no MemoryAccess subscriber it
        never builds an :class:`~repro.sim.access.AccessResult`. Both
        add the walk's trail to :attr:`outcome_counts`.
        """
        if self._want_memory_access:
            return self.access(
                tile, addr, size, is_write, engine, apply, near_memory
            ).latency
        return self._walk(tile, addr, size, is_write, engine, apply, near_memory)[0]

    # ------------------------------------------------------------------
    # explicit flush (Leviathan's flush instruction, Sec. VI-B2)
    # ------------------------------------------------------------------
    def flush_range(self, region):
        """Flush every resident line of ``region`` from all caches.

        Used when a Morph is unregistered; destructors fire for morph
        lines, dirty ordinary lines are written back.
        """
        private = self.private
        shared = self.shared
        line_lo = region.base // self.line_size
        line_hi = (region.end + self.line_size - 1) // self.line_size
        for tile in range(self.config.n_tiles):
            for line in private.l2[tile].resident_in(line_lo, line_hi):
                victim = private.l2[tile].invalidate(line)
                if victim is not None:
                    private.evict_l2(tile, victim)
            for cache in (private.l1[tile], private.engine_l1[tile]):
                for line in cache.resident_in(line_lo, line_hi):
                    victim = cache.invalidate(line)
                    if victim is not None and victim.dirty and not victim.morph:
                        private.insert_l2(tile, line, dirty=True, morph=False)
                    shared.maybe_release_sharer(tile, line)
        for bank in range(self.config.n_tiles):
            for line in shared.llc[bank].resident_in(line_lo, line_hi):
                victim = shared.llc[bank].invalidate(line)
                if victim is not None:
                    shared.evict_llc(bank, victim)
        self.fill_engine.drain_destructors()
        self.stats.add("morph.flushes")


def _engine_l1_config(cfg):
    """Cache geometry for the engine's small coherent L1d."""
    from repro.sim.config import CacheConfig

    return CacheConfig(
        size_kb=cfg.engine.l1d_kb,
        ways=cfg.engine.l1d_ways,
        tag_latency=1,
        data_latency=1,
    )
