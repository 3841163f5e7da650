"""Unit tests for the statistics bag."""

from repro.sim.stats import Stats


class TestCounters:
    def test_add_and_get(self):
        stats = Stats()
        stats.add("l1.hits")
        stats.add("l1.hits", 2)
        assert stats.get("l1.hits") == 3
        assert stats["l1.hits"] == 3

    def test_missing_counter_is_zero(self):
        assert Stats()["nothing"] == 0

    def test_matching_prefix(self):
        stats = Stats()
        stats.add("l1.hits", 3)
        stats.add("l1.misses", 1)
        stats.add("l2.hits", 7)
        assert stats.matching("l1.") == {"l1.hits": 3, "l1.misses": 1}

    def test_total_by_suffix(self):
        stats = Stats()
        stats.add("l1.hits", 3)
        stats.add("l2.hits", 7)
        stats.add("l2.misses", 1)
        assert stats.total("hits") == 10


class TestPhases:
    def test_phase_qualified_counters(self):
        stats = Stats()
        stats.set_phase("edge")
        stats.add("dram.accesses", 5)
        stats.set_phase(None)
        stats.add("dram.accesses", 2)
        assert stats["dram.accesses"] == 7
        assert stats["edge/dram.accesses"] == 5

    def test_phase_property(self):
        stats = Stats()
        assert stats.phase is None
        stats.set_phase("x")
        assert stats.phase == "x"

    def test_direct_switch_records_each_phase(self):
        stats = Stats()
        stats.add("dram.accesses", 1)
        stats.set_phase("edge")
        stats.add("dram.accesses", 5)
        stats.set_phase("flush")
        stats.add("dram.accesses", 2)
        stats.set_phase(None)
        assert stats["dram.accesses"] == 8
        assert stats["edge/dram.accesses"] == 5
        assert stats["flush/dram.accesses"] == 2

    def test_counter_created_in_phase_keyed_at_zero(self):
        # Fig. 23's HATS runs carry vertex/dram.queue_cycles = 0.0 this way.
        stats = Stats()
        stats.add("dram.accesses")
        stats.set_phase("vertex")
        stats.add("dram.queue_cycles", 0.0)
        stats.set_phase(None)
        assert "vertex/dram.queue_cycles" in stats.counters
        assert stats["vertex/dram.queue_cycles"] == 0.0
        assert "vertex/dram.accesses" not in stats.counters  # did not grow

    def test_phase_totals_exclude_phased(self):
        stats = Stats()
        stats.set_phase("a")
        stats.add("x.hits", 1)
        assert stats.total("hits") == 1  # only the unphased copy counts


class TestSnapshots:
    def test_diff(self):
        stats = Stats()
        stats.add("a", 5)
        snap = stats.snapshot()
        stats.add("a", 2)
        stats.add("b", 1)
        assert stats.diff(snap) == {"a": 2, "b": 1}

    def test_snapshot_immutable(self):
        stats = Stats()
        stats.add("a", 1)
        snap = stats.snapshot()
        stats.add("a", 1)
        assert snap["a"] == 1


class TestViews:
    def test_convenience_properties(self):
        stats = Stats()
        stats.add("dram.accesses", 4)
        stats.add("noc.flit_hops", 9)
        stats.add("core.branch_mispredictions", 2)
        stats.add("engine.instructions", 11)
        assert stats.dram_accesses == 4
        assert stats.noc_flit_hops == 9
        assert stats.branch_mispredictions == 2
        assert stats.engine_instructions == 11

    def test_report_filters(self):
        stats = Stats()
        stats.add("a.x", 1)
        stats.add("b.y", 2)
        report = stats.report(prefixes=["a."])
        assert "a.x" in report
        assert "b.y" not in report
