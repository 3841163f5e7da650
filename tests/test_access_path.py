"""Per-level outcome assertions for the access-path pipeline.

Each test drives the hierarchy into a known state and asserts the exact
``AccessResult.outcomes`` trail -- the request plumbing the experiments
use for per-level attribution -- or the hierarchy's tally of those
trails, ``Hierarchy.outcome_counts``.
"""

from collections import Counter

import pytest

from repro.sim.events import MemoryAccess
from repro.sim.hierarchy import ConstructResult, HierarchyHooks
from repro.sim.observers import add_machine_observer, remove_machine_observer
from repro.workloads import hashtable, hats
from repro.workloads.serving import kvpaging, kvserve
from tests.test_dispatch_identity import HATS_SMALL, SMALL
from tests.test_serving import KV_SMALL, PAGING_SMALL

ADDR = 0x2_0000


def _access(machine, tile=0, addr=ADDR, size=8, write=False, engine=False):
    return machine.hierarchy.access(tile, addr, size, is_write=write, engine=engine)


class TestCorePath:
    def test_cold_miss_walks_to_dram(self, machine):
        result = _access(machine)
        assert result.outcomes == [
            ("l1", "miss"),
            ("l2", "miss"),
            ("llc", "miss"),
            ("dram", "fill"),
        ]
        assert result.served_by == ("dram", "fill")

    def test_l1_hit(self, machine):
        _access(machine)
        result = _access(machine)
        assert result.outcomes == [("l1", "hit")]
        assert result.latency <= machine.config.l1.hit_latency + 1

    def test_l2_hit_after_l1_invalidation(self, machine):
        _access(machine)
        machine.hierarchy.l1[0].invalidate(ADDR // 64)
        result = _access(machine)
        assert result.outcomes == [("l1", "miss"), ("l2", "hit")]

    def test_llc_hit_from_other_tile(self, machine):
        _access(machine, tile=0)
        result = _access(machine, tile=1)
        assert result.outcomes == [("l1", "miss"), ("l2", "miss"), ("llc", "hit")]

    def test_latency_orders_with_depth(self, machine):
        dram = _access(machine).latency
        machine.hierarchy.l1[0].invalidate(ADDR // 64)
        l2 = _access(machine).latency
        l1 = _access(machine).latency
        llc = _access(machine, tile=1).latency
        assert l1 < l2 < llc < dram

    def test_multi_line_concatenates_outcomes(self):
        from repro.sim.config import small_config
        from repro.sim.system import Machine

        machine = Machine(small_config(l2_prefetcher=False))
        result = _access(machine, addr=ADDR, size=256)
        assert result.count("dram", "fill") == 4
        assert result.count("l1", "miss") == 4
        assert len(result.outcomes) == 16
        # Lines overlap: the latency is the slowest line, not the sum.
        single = _access(machine, addr=ADDR + 0x10000).latency
        assert result.latency < 4 * single

    def test_outcome_counts_view(self, machine):
        result = _access(machine, addr=ADDR, size=128)
        counts = result.outcome_counts()
        assert counts[("llc", "miss")] == 2
        assert result.count("llc") == 2


class TestEnginePath:
    def test_engine_cold_miss(self, machine):
        result = _access(machine, engine=True)
        assert result.outcomes == [
            ("engine_l1", "miss"),
            ("l2", "snoop_miss"),
            ("llc", "miss"),
            ("dram", "fill"),
        ]

    def test_engine_l1_hit(self, machine):
        _access(machine, engine=True)
        result = _access(machine, engine=True)
        assert result.outcomes == [("engine_l1", "hit")]

    def test_engine_snoops_core_l2(self, machine):
        _access(machine)  # the core fills its L1 + L2
        result = _access(machine, engine=True)
        assert result.outcomes == [("engine_l1", "miss"), ("l2", "snoop_hit")]


class _L2Morph(HierarchyHooks):
    def __init__(self, base_line, bound_line):
        self.base_line = base_line
        self.bound_line = bound_line

    def _covers(self, line):
        return self.base_line <= line < self.bound_line

    def morph_level(self, line):
        return "l2" if self._covers(line) else None

    def on_miss(self, level, tile, line):
        if level == "l2" and self._covers(line):
            return ConstructResult(latency=5, lines=[line])
        return None


class TestMorphPath:
    def test_construct_terminates_the_walk(self, machine):
        base_line = ADDR // 64
        machine.hierarchy.hooks = _L2Morph(base_line, base_line + 8)
        result = _access(machine)
        assert result.outcomes == [
            ("l1", "miss"),
            ("l2", "miss"),
            ("l2", "construct"),
        ]
        assert machine.stats["dram.accesses"] == 0


class _TrailSum:
    """A bare MemoryAccess subscriber summing every event's outcome trail."""

    def __init__(self, machine):
        self.bus = machine.events
        self.fill = machine.hierarchy.fill_engine
        self.summed = Counter()
        #: Events emitted inside a data-triggered constructor.
        self.nested = 0
        self.bus.subscribe(MemoryAccess, self._on_access)

    def _on_access(self, event):
        self.summed.update(event.result.outcomes)
        if self.fill._hook_depth:
            self.nested += 1

    def detach(self):
        self.bus.unsubscribe(MemoryAccess, self._on_access)


#: Small runs, and whether their constructors access memory: a
#: hash-table run (no morph), a KV-cache pager (page morph), a KV server
#: (scan streams) and HATS (traversal streams).
_RUNS = [
    pytest.param(
        lambda: hashtable.run_leviathan(dict(SMALL), n_tiles=4), False, id="hashtable"
    ),
    pytest.param(
        lambda: kvpaging.run_leviathan(PAGING_SMALL, n_tiles=4), True, id="kvpaging"
    ),
    pytest.param(
        lambda: kvserve.run_leviathan(KV_SMALL, n_tiles=4), True, id="kvserve"
    ),
    pytest.param(
        lambda: hats.run_leviathan(dict(HATS_SMALL), n_tiles=4), True, id="hats"
    ),
]


class TestOutcomeCounts:
    """``Hierarchy.outcome_counts`` is the sum of every access's trail."""

    def test_counts_accumulate_breakdown(self, machine):
        trails = _TrailSum(machine)
        _access(machine)  # dram fill
        _access(machine)  # l1 hit
        _access(machine, tile=1)  # llc hit
        two_lines = _access(machine, addr=ADDR + 0x1000, size=128)
        assert two_lines.count("dram", "fill") == 2
        counts = machine.hierarchy.outcome_counts
        assert counts[("l1", "hit")] == 1
        assert counts[("llc", "hit")] == 1
        assert counts[("dram", "fill")] == 3
        assert sum(counts.values()) == 4 + 1 + 3 + 8
        assert counts == trails.summed

    def test_detached_walks_still_count(self, machine):
        trails = _TrailSum(machine)
        _access(machine)
        trails.detach()
        assert not machine.events.active
        machine.hierarchy.access_latency(0, ADDR, 8, is_write=False)  # l1 hit
        assert sum(trails.summed.values()) == 4
        counts = machine.hierarchy.outcome_counts
        assert counts == trails.summed + Counter({("l1", "hit"): 1})

    @pytest.mark.parametrize("runner, constructs", _RUNS)
    def test_run_counts_equal_subscriber_sum(self, runner, constructs):
        attached = []
        observe = add_machine_observer(lambda built: attached.append(_TrailSum(built)))
        try:
            result = runner()
        finally:
            remove_machine_observer(observe)
        [trails] = attached
        assert trails.summed, "the subscriber saw no access"
        assert result.access_profile == dict(trails.summed)
        # Constructor accesses are nested inside the access they serve;
        # each counts once, as its own access.
        assert (trails.nested > 0) == constructs
