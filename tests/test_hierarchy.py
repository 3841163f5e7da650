"""Unit tests for the memory hierarchy: hits, misses, coherence,
inclusion, writebacks, morph hooks, and the flush path."""

import pytest

from repro.sim.config import small_config
from repro.sim.hierarchy import ConstructResult, HierarchyHooks
from repro.sim.system import Machine


@pytest.fixture
def hierarchy(machine):
    return machine.hierarchy


ADDR = 0x2_0000


class TestBasicPath:
    def test_cold_miss_goes_to_dram(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False)
        assert machine.stats["dram.accesses"] == 1
        assert machine.stats["llc.misses"] == 1

    def test_second_access_hits_l1(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False)
        snap = machine.stats.snapshot()
        latency = hierarchy.access(0, ADDR, 8, is_write=False).latency
        diff = machine.stats.diff(snap)
        assert diff.get("dram.accesses", 0) == 0
        assert diff.get("llc.accesses", 0) == 0
        assert latency <= machine.config.l1.hit_latency + 1

    def test_hit_latency_ordering(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False)  # warm
        l1_hit = hierarchy.access(0, ADDR, 8, is_write=False).latency
        # From another tile: must at least go to the LLC.
        remote = hierarchy.access(1, ADDR, 8, is_write=False).latency
        assert remote > l1_hit

    def test_multi_line_access_overlaps(self, machine, hierarchy):
        lat_one = hierarchy.access(0, ADDR, 8, is_write=False).latency
        lat_four = hierarchy.access(0, ADDR + 0x1000, 256, is_write=False).latency
        # Four lines overlap: latency must be far below 4x a single miss.
        assert lat_four < 3 * lat_one
        assert machine.stats["dram.accesses"] >= 5

    def test_bank_interleaving(self, machine, hierarchy):
        banks = {hierarchy.bank_of(line) for line in range(16)}
        assert len(banks) == machine.config.n_tiles


class TestWritebacks:
    def test_dirty_line_written_back_to_dram(self, machine, hierarchy):
        cfg = machine.config
        hierarchy.access(0, ADDR, 8, is_write=True)
        # Evict it from everything by storming the same LLC set.
        llc_capacity = cfg.llc.lines(cfg.line_size) * cfg.n_tiles
        for i in range(1, llc_capacity * 4):
            hierarchy.access(0, ADDR + i * 64, 8, is_write=False)
        assert machine.stats["dram.writes"] >= 1

    def test_clean_eviction_no_writeback(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False)
        snap = machine.stats.snapshot()
        cfg = machine.config
        llc_capacity = cfg.llc.lines(cfg.line_size) * cfg.n_tiles
        for i in range(1, llc_capacity * 4):
            hierarchy.access(0, ADDR + i * 64, 8, is_write=False)
        assert machine.stats.diff(snap).get("dram.writes", 0) == 0


class TestCoherence:
    def test_write_sets_ownership(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=True)
        line = hierarchy.line_of(ADDR)
        assert hierarchy.owner_of(line) == 0

    def test_read_by_other_downgrades(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=True)
        hierarchy.access(1, ADDR, 8, is_write=False)
        line = hierarchy.line_of(ADDR)
        assert hierarchy.owner_of(line) is None
        assert machine.stats["coherence.ping_pongs"] == 1

    def test_write_invalidates_sharers(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False)
        hierarchy.access(1, ADDR, 8, is_write=False)
        hierarchy.access(2, ADDR, 8, is_write=True)
        line = hierarchy.line_of(ADDR)
        assert hierarchy.owner_of(line) == 2
        assert not hierarchy.tile_has_private(0, line)
        assert not hierarchy.tile_has_private(1, line)
        assert machine.stats["coherence.invalidations"] >= 2

    def test_upgrade_on_shared_write_hit(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False)
        hierarchy.access(1, ADDR, 8, is_write=False)
        snap = machine.stats.snapshot()
        hierarchy.access(0, ADDR, 8, is_write=True)  # L1 hit, needs upgrade
        diff = machine.stats.diff(snap)
        assert diff.get("coherence.upgrades", 0) == 1

    def test_ping_pong_costs_latency(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=True)
        hierarchy.access(1, ADDR + 0x1000, 8, is_write=True)  # unrelated
        clean = hierarchy.access(1, ADDR + 0x1000, 8, is_write=True).latency
        dirty_remote = hierarchy.access(1, ADDR, 8, is_write=True).latency
        assert dirty_remote > clean

    def test_inclusive_recall_on_llc_eviction(self, machine, hierarchy):
        """LLC evictions must pull private copies (inclusion)."""
        hierarchy.access(0, ADDR, 8, is_write=True)
        line = hierarchy.line_of(ADDR)
        bank = hierarchy.bank_of(line)
        victim = hierarchy.llc[bank].invalidate(line)
        hierarchy.shared.evict_llc(bank, victim)
        assert not hierarchy.tile_has_private(0, line)
        assert machine.stats["dram.writes"] >= 1  # the dirty data survived


class TestEngineAccess:
    def test_engine_miss_bypasses_l2_fill(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False, engine=True)
        line = hierarchy.line_of(ADDR)
        assert hierarchy.engine_l1[0].contains(line)
        assert not hierarchy.l2[0].contains(line)

    def test_engine_snoops_tile_l2(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False)  # core fills L2
        snap = machine.stats.snapshot()
        hierarchy.access(0, ADDR, 8, is_write=False, engine=True)
        diff = machine.stats.diff(snap)
        assert diff.get("llc.accesses", 0) == 0  # satisfied by the snoop

    def test_engine_hit_is_fast(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=False, engine=True)
        latency = hierarchy.access(0, ADDR, 8, is_write=False, engine=True).latency
        assert latency <= 3

    def test_engine_dirty_eviction_writes_to_llc(self, machine, hierarchy):
        hierarchy.access(0, ADDR, 8, is_write=True, engine=True)
        line = hierarchy.line_of(ADDR)
        el1 = hierarchy.engine_l1[0]
        victim = el1.invalidate(line)
        hierarchy.private.evict_engine_l1(0, victim)
        bank = hierarchy.bank_of(line)
        entry = hierarchy.llc[bank].lookup(line, touch=False)
        assert entry is not None and entry.dirty


class _CountingHooks(HierarchyHooks):
    def __init__(self, level, base_line, bound_line):
        self.level = level
        self.base_line = base_line
        self.bound_line = bound_line
        self.constructed = []
        self.destructed = []

    def _covers(self, line):
        return self.base_line <= line < self.bound_line

    def morph_level(self, line):
        return self.level if self._covers(line) else None

    def on_miss(self, level, tile, line):
        if level == self.level and self._covers(line):
            self.constructed.append(line)
            return ConstructResult(latency=5, lines=[line])
        return None

    def on_evict(self, level, tile, line, dirty):
        if level == self.level and self._covers(line):
            self.destructed.append((line, dirty))
            return True
        return False


class TestMorphHooks:
    def test_l2_morph_constructs_without_dram(self, machine, hierarchy):
        base_line = ADDR // 64
        hooks = _CountingHooks("l2", base_line, base_line + 8)
        hierarchy.hooks = hooks
        hierarchy.access(0, ADDR, 8, is_write=False)
        assert hooks.constructed == [base_line]
        assert machine.stats["dram.accesses"] == 0
        assert machine.stats["morph.l2_constructions"] == 1

    def test_llc_morph_constructs_at_bank(self, machine, hierarchy):
        base_line = ADDR // 64
        hooks = _CountingHooks("llc", base_line, base_line + 8)
        hierarchy.hooks = hooks
        hierarchy.access(0, ADDR, 8, is_write=False)
        assert hooks.constructed == [base_line]
        assert machine.stats["morph.llc_constructions"] == 1
        assert machine.stats["dram.accesses"] == 0

    def test_flush_range_fires_destructors(self, machine, hierarchy):
        from repro.sim.address import Region

        base_line = ADDR // 64
        hooks = _CountingHooks("l2", base_line, base_line + 8)
        hierarchy.hooks = hooks
        hierarchy.access(0, ADDR, 8, is_write=True)
        hierarchy.flush_range(Region(ADDR, 64))
        assert [line for line, _ in hooks.destructed] == [base_line]

    def test_destructor_sees_dirty_flag(self, machine, hierarchy):
        from repro.sim.address import Region

        base_line = ADDR // 64
        hooks = _CountingHooks("l2", base_line, base_line + 16)
        hierarchy.hooks = hooks
        hierarchy.access(0, ADDR, 8, is_write=True)
        hierarchy.access(0, ADDR + 64, 8, is_write=False)
        hierarchy.flush_range(Region(ADDR, 128))
        flags = dict(hooks.destructed)
        assert flags[base_line] is True
        assert flags[base_line + 1] is False

    def test_engine_llc_morph_access_bypasses_private(self, machine, hierarchy):
        base_line = ADDR // 64
        hooks = _CountingHooks("llc", base_line, base_line + 8)
        hierarchy.hooks = hooks
        hierarchy.access(0, ADDR, 8, is_write=True, engine=True)
        line = hierarchy.line_of(ADDR)
        assert not hierarchy.engine_l1[0].contains(line)
        bank = hierarchy.bank_of(line)
        assert hierarchy.llc[bank].contains(line)


class TestFlush:
    def test_flush_writes_back_dirty_regular_lines(self, machine, hierarchy):
        from repro.sim.address import Region

        hierarchy.access(0, ADDR, 8, is_write=True)
        hierarchy.flush_range(Region(ADDR, 64))
        assert machine.stats["dram.writes"] >= 1
        line = hierarchy.line_of(ADDR)
        assert not hierarchy.tile_has_private(0, line)
        assert not hierarchy.llc_has(line)


class TestPrefetcher:
    def test_sequential_misses_trigger_prefetch(self, machine, hierarchy):
        for i in range(6):
            hierarchy.access(0, ADDR + i * 64, 8, is_write=False)
        assert machine.stats["prefetch.issued"] > 0

    def test_prefetched_line_hits_in_l2(self, machine, hierarchy):
        for i in range(4):
            hierarchy.access(0, ADDR + i * 64, 8, is_write=False)
        snap = machine.stats.snapshot()
        hierarchy.access(0, ADDR + 4 * 64, 8, is_write=False)
        assert machine.stats.diff(snap).get("dram.accesses", 0) == 0

    def test_prefetcher_can_be_disabled(self):
        cfg = small_config(l2_prefetcher=False)
        machine = Machine(cfg)
        for i in range(8):
            machine.hierarchy.access(0, ADDR + i * 64, 8, is_write=False)
        assert machine.stats["prefetch.issued"] == 0
