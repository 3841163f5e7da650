"""Unit tests for the event-count energy model."""

import pytest

from repro.sim.energy import EnergyModel, EnergyParams
from repro.sim.stats import Stats


class TestEnergyModel:
    def test_empty_stats_zero_energy(self):
        assert EnergyModel().energy_pj(Stats()) == 0.0

    def test_weighted_sum(self):
        stats = Stats()
        stats.add("l1.accesses", 10)
        stats.add("dram.accesses", 2)
        params = EnergyParams()
        expected = 10 * params.l1_access + 2 * params.dram_access
        assert EnergyModel(params).energy_pj(stats) == pytest.approx(expected)

    def test_relative_costs_ordered(self):
        """DRAM >> LLC > L2 > L1; engine ops cheaper than core ops."""
        p = EnergyParams()
        assert p.dram_access > p.llc_access > p.l2_access > p.l1_access
        assert p.engine_instruction < p.core_instruction

    def test_ideal_engine_is_energy_free(self):
        stats = Stats()
        stats.add("engine.instructions", 1000)
        stats.add("engine_l1.accesses", 100)
        stats.add("l1.accesses", 1)
        ideal = EnergyModel(ideal_engine=True)
        real = EnergyModel(ideal_engine=False)
        assert ideal.energy_pj(stats) < real.energy_pj(stats)
        assert ideal.energy_pj(stats) == pytest.approx(EnergyParams().l1_access)

    def test_breakdown_sums_to_total(self):
        stats = Stats()
        stats.add("l1.accesses", 3)
        stats.add("noc.flit_hops", 5)
        stats.add("core.instructions", 7)
        model = EnergyModel()
        assert sum(model.breakdown_pj(stats).values()) == pytest.approx(
            model.energy_pj(stats)
        )

    def test_breakdown_omits_zero_components(self):
        stats = Stats()
        stats.add("l1.accesses", 3)
        breakdown = EnergyModel().breakdown_pj(stats)
        assert list(breakdown) == ["l1.accesses"]

    def test_uncounted_events_ignored(self):
        stats = Stats()
        stats.add("bogus.counter", 99)
        assert EnergyModel().energy_pj(stats) == 0.0


class TestMachineEnergy:
    def test_machine_energy_increases_with_work(self, machine):
        from repro.sim.ops import Compute, Load

        def prog():
            for i in range(10):
                yield Load(0x10000 + i * 64, 8)
                yield Compute(5)

        before = machine.energy_pj()
        machine.spawn(prog(), tile=0)
        machine.run()
        assert machine.energy_pj() > before
