"""Event-count dynamic-energy model.

The paper reports *dynamic execution energy* with core/cache/memory/NoC
parameters from Jenga [75] and engine parameters from the triggered PE
work [60]. We reproduce the model's structure: energy is a weighted sum
of event counts. Parameters below are in picojoules per event; they are
representative 45-22 nm-class numbers chosen so the relative costs match
the sources (DRAM >> LLC > L2 > L1 > core op > engine op, NoC per
flit-hop in between).

Absolute joules are not meaningful for the reproduction -- every figure
in the paper normalizes energy to the baseline -- but the ratios are.

:class:`EnergyModel` computes energy post-hoc from a run's counters,
the one energy path: ``Machine.energy_pj`` totals it, and every
:class:`~repro.workloads.common.RunResult` carries its per-counter split
as ``energy_breakdown``.
"""

from dataclasses import dataclass, field


@dataclass
class EnergyParams:
    """Per-event dynamic energy in picojoules."""

    core_instruction: float = 70.0
    core_fence: float = 250.0
    branch_misprediction: float = 300.0
    l1_access: float = 15.0
    l2_access: float = 40.0
    llc_access: float = 120.0
    mc_cache_access: float = 30.0
    dram_access: float = 2500.0
    noc_flit_hop: float = 8.0
    #: Engine PEs are far simpler than an OOO core (single-issue,
    #: no speculation), hence much cheaper per instruction [60].
    engine_instruction: float = 10.0
    engine_l1_access: float = 10.0

    #: Counter name -> parameter attribute.
    counter_map: dict = field(
        default_factory=lambda: {
            "core.instructions": "core_instruction",
            "core.fences": "core_fence",
            "core.branch_mispredictions": "branch_misprediction",
            "l1.accesses": "l1_access",
            "l2.accesses": "l2_access",
            "llc.accesses": "llc_access",
            "mc_cache.accesses": "mc_cache_access",
            "dram.accesses": "dram_access",
            "noc.flit_hops": "noc_flit_hop",
            "engine.instructions": "engine_instruction",
            "engine_l1.accesses": "engine_l1_access",
        }
    )


class EnergyModel:
    """Computes dynamic energy from a :class:`~repro.sim.stats.Stats` bag."""

    def __init__(self, params=None, ideal_engine=False):
        self.params = params or EnergyParams()
        #: The paper's idealized engine has energy-free PEs.
        self.ideal_engine = ideal_engine

    def energy_pj(self, stats):
        """Total dynamic energy in picojoules for the counters in ``stats``."""
        total = 0.0
        for counter, attr in self.params.counter_map.items():
            if self.ideal_engine and counter.startswith("engine"):
                continue
            total += stats.get(counter) * getattr(self.params, attr)
        return total

    def breakdown_pj(self, stats):
        """Per-component energy, as ``{counter_name: picojoules}``."""
        out = {}
        for counter, attr in self.params.counter_map.items():
            if self.ideal_engine and counter.startswith("engine"):
                continue
            value = stats.get(counter) * getattr(self.params, attr)
            if value:
                out[counter] = value
        return out
