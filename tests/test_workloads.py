"""Workload-level tests: functional correctness of every case-study
variant at small scale, plus qualitative orderings.

These are integration tests: each run exercises the full stack
(allocator, engines, morphs/streams, hierarchy, scheduler) end to end
and validates the computed values against NumPy oracles -- the oracle
checks live inside the workloads' ``verify`` helpers and raise on any
functional divergence.
"""

import pytest

from repro.workloads import decompress, hashtable, hats, phi
from repro.workloads.common import StudyResult

PHI_SMALL = dict(n_vertices=512, n_edges=3072, n_threads=8, seed=7)
DC_SMALL = dict(n_pixels=2048, n_accesses=4096, n_threads=1)
HT_SMALL = dict(n_buckets=16, nodes_per_bucket=8, n_threads=8, lookups_per_thread=16)
HATS_SMALL = dict(n_vertices=512, n_edges=4096, n_communities=8, seed=31)


@pytest.fixture(scope="module")
def phi_study():
    """Fig. 5's non-ideal variants at small scale, from the variant runners."""
    study = StudyResult(study="PHI (Fig. 5)", baseline="baseline", params=PHI_SMALL)
    study.add(phi.run_baseline(PHI_SMALL))
    study.add(phi.run_tako(PHI_SMALL, relaxed=False))
    study.add(phi.run_tako(PHI_SMALL, relaxed=True))
    study.add(phi.run_leviathan(PHI_SMALL))
    return study


class TestPhiFunctional:
    def test_baseline_correct(self):
        result = phi.run_baseline(PHI_SMALL)
        assert result.functional

    def test_tako_fence_correct(self):
        assert phi.run_tako(PHI_SMALL, relaxed=False).functional

    def test_tako_relax_correct(self):
        assert phi.run_tako(PHI_SMALL, relaxed=True).functional

    def test_leviathan_correct(self):
        assert phi.run_leviathan(PHI_SMALL).functional

    def test_ideal_correct(self):
        assert phi.run_leviathan(PHI_SMALL, ideal=True).functional

    def test_all_variants_same_checksum(self, phi_study):
        outputs = {round(r.output, 9) for r in phi_study.results.values()}
        assert len(phi_study.results) == 4
        assert len(outputs) == 1

    def test_leviathan_uses_no_fences(self):
        result = phi.run_leviathan(PHI_SMALL)
        assert result.stat("core.fences") == 0

    def test_tako_fence_uses_fences(self):
        result = phi.run_tako(PHI_SMALL, relaxed=False)
        assert result.stat("core.fences") >= PHI_SMALL["n_edges"]

    def test_morph_machinery_engaged(self):
        result = phi.run_leviathan(PHI_SMALL)
        assert result.stat("morph.llc_constructions") > 0
        assert result.stat("morph.llc_destructions") > 0

    def test_offload_machinery_engaged(self):
        result = phi.run_leviathan(PHI_SMALL)
        assert result.stat("engine.tasks") == PHI_SMALL["n_edges"]


class TestDecompressFunctional:
    def test_baseline_correct(self):
        assert decompress.run_baseline(DC_SMALL).functional

    def test_leviathan_correct(self):
        assert decompress.run_leviathan(DC_SMALL).functional

    def test_offload_correct(self):
        small = dict(DC_SMALL, n_accesses=512)
        assert decompress.run_offload(small).functional

    def test_no_padding_does_not_work(self):
        result = decompress.run_no_padding(DC_SMALL)
        assert not result.functional
        assert "divide" in result.notes

    def test_same_output_across_variants(self):
        a = decompress.run_baseline(DC_SMALL)
        b = decompress.run_leviathan(DC_SMALL)
        assert a.output == b.output

    def test_leviathan_decompresses_fewer_times(self):
        base = decompress.run_baseline(DC_SMALL)
        lev = decompress.run_leviathan(DC_SMALL)
        # Constructions (per line) are far fewer than per-access work.
        assert lev.stat("morph.l2_constructions") < DC_SMALL["n_accesses"] / 2


class TestHashtableFunctional:
    @pytest.mark.parametrize("size", [24, 64, 128])
    def test_baseline_correct(self, size):
        params = dict(HT_SMALL, object_size=size)
        assert hashtable.run_baseline(params).functional

    @pytest.mark.parametrize("size", [24, 64, 128])
    def test_leviathan_correct(self, size):
        params = dict(HT_SMALL, object_size=size)
        assert hashtable.run_leviathan(params).functional

    def test_no_padding_correct_but_slower_path(self):
        params = dict(HT_SMALL, object_size=24)
        assert hashtable.run_no_padding(params).functional

    def test_no_llc_mapping_correct(self):
        params = dict(HT_SMALL, object_size=128)
        assert hashtable.run_no_llc_mapping(params).functional

    def test_lookup_values_match(self):
        params = dict(HT_SMALL, object_size=64)
        base = hashtable.run_baseline(params)
        lev = hashtable.run_leviathan(params)
        assert base.output == lev.output

    def test_leviathan_reduces_noc_traffic(self):
        params = dict(HT_SMALL, object_size=64, nodes_per_bucket=16)
        base = hashtable.run_baseline(params)
        lev = hashtable.run_leviathan(params)
        assert lev.stat("noc.flit_hops") < base.stat("noc.flit_hops")


class TestHatsFunctional:
    def test_baseline_correct(self):
        assert hats.run_baseline(HATS_SMALL).functional

    def test_sw_bdfs_correct(self):
        assert hats.run_sw_bdfs(HATS_SMALL).functional

    def test_tako_correct(self):
        assert hats.run_tako(HATS_SMALL).functional

    def test_leviathan_correct(self):
        assert hats.run_leviathan(HATS_SMALL).functional

    def test_bdfs_covers_every_edge_once(self, machine):
        from repro.sim.system import Machine

        m = Machine(hats.hats_config())
        data = hats._HatsData(m, HATS_SMALL)
        edges = data.bdfs_edges()
        assert len(edges) == data.graph.n_edges
        # Destinations appear in contiguous groups (each visited once).
        dsts = [d for _, d, _ in edges]
        seen = set()
        previous = None
        for d in dsts:
            if d != previous:
                assert d not in seen
                seen.add(d)
                previous = d

    def test_engine_variants_eliminate_mispredictions(self):
        tako = hats.run_tako(HATS_SMALL)
        lev = hats.run_leviathan(HATS_SMALL)
        assert tako.stat("core.branch_mispredictions") == 0
        assert lev.stat("core.branch_mispredictions") == 0

    def test_sw_bdfs_mispredicts(self):
        sw = hats.run_sw_bdfs(HATS_SMALL)
        assert sw.stat("core.branch_mispredictions") > 0

    def test_stream_used_by_leviathan(self):
        lev = hats.run_leviathan(HATS_SMALL)
        assert lev.stat("stream.pushes") == HATS_SMALL["n_edges"]


class TestStudyResults:
    def test_phi_study_report(self, phi_study):
        report = phi_study.report()
        assert "baseline" in report and "leviathan" in report
        assert phi_study.speedups()["baseline"] == 1.0

    def test_energy_savings_sign_convention(self, phi_study):
        savings = phi_study.energy_savings()
        assert savings["baseline"] == 0.0


class TestEnergyBreakdown:
    def test_breakdown_sums_to_total(self):
        result = phi.run_baseline(PHI_SMALL)
        assert abs(sum(result.energy_breakdown.values()) - result.energy_pj) < 1e-6

    def test_leviathan_has_engine_energy(self, phi_study):
        # Leviathan has engine energy the baseline lacks.
        assert phi_study["leviathan"].energy_breakdown.get("engine.instructions", 0) > 0
        assert phi_study["baseline"].energy_breakdown.get("engine.instructions", 0) == 0

    def test_leviathan_eliminates_fence_component(self, phi_study):
        assert phi_study["baseline"].energy_breakdown.get("core.fences", 0) > 0
        assert phi_study["leviathan"].energy_breakdown.get("core.fences", 0) == 0


class TestComponentsFunctional:
    CC_SMALL = dict(n_vertices=256, n_edges=1536, rounds=3, n_threads=8)

    def test_baseline_correct(self):
        from repro.workloads import components

        assert components.run_baseline(self.CC_SMALL).functional

    def test_leviathan_correct(self):
        from repro.workloads import components

        assert components.run_leviathan(self.CC_SMALL).functional

    def test_min_combining_through_morph(self):
        from repro.workloads import components

        result = components.run_leviathan(self.CC_SMALL)
        assert result.stat("morph.llc_constructions") > 0
        assert result.stat("engine.tasks") > 0

    def test_same_labels_across_variants(self):
        from repro.workloads import components

        a = components.run_baseline(self.CC_SMALL)
        b = components.run_leviathan(self.CC_SMALL)
        assert a.output == b.output

    def test_labels_converge_to_components(self):
        """With enough rounds, labels equal the true component minima."""
        import networkx as nx
        import numpy as np
        from repro.sim.system import Machine
        from repro.workloads import components
        from repro.workloads.phi import phi_config

        machine = Machine(phi_config())
        params = dict(self.CC_SMALL, rounds=40)
        data = components._ComponentsData(machine, params)
        graph = nx.Graph()
        graph.add_nodes_from(range(data.n_vertices))
        graph.add_edges_from(zip(data.edge_u.tolist(), data.edge_v.tolist()))
        expected = np.empty(data.n_vertices, dtype=np.int64)
        for component in nx.connected_components(graph):
            low = min(component)
            for v in component:
                expected[v] = low
        assert np.array_equal(data.oracle, expected)


class TestHatsParallel:
    """The paper's 16-thread configuration: range-partitioned BDFS."""

    P4 = dict(n_vertices=512, n_edges=4096, n_communities=8, n_threads=4, seed=31)

    def test_all_variants_correct_with_threads(self):
        for fn in (hats.run_baseline, hats.run_sw_bdfs, hats.run_tako, hats.run_leviathan):
            assert fn(self.P4).functional

    def test_threads_cover_edges_disjointly(self):
        from repro.sim.system import Machine

        machine = Machine(hats.hats_config())
        data = hats._HatsData(machine, self.P4)
        seen = set()
        total = 0
        for lo, hi in data.vertex_slices():
            for src, dst, _ in data.bdfs_edges_for(lo, hi):
                assert lo <= dst < hi
                total += 1
        assert total == data.graph.n_edges

    def test_parallel_faster_than_serial(self):
        serial = hats.run_leviathan(dict(self.P4, n_threads=1))
        parallel = hats.run_leviathan(self.P4)
        assert parallel.cycles < serial.cycles

    def test_one_stream_per_thread(self):
        result = hats.run_leviathan(self.P4)
        assert result.stat("stream.started") == 4
        assert result.stat("stream.pushes") == self.P4["n_edges"]
