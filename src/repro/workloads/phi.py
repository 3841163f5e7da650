"""Case study: commutative scatter-updates / PHI (Sec. IV, Fig. 5).

PHI [52] turns the LLC into a write-combining buffer for commutative
updates: cache lines hold *deltas* instead of raw data, insertion
zero-initializes them, and eviction either applies deltas in-place or
logs them for later, whichever costs less bandwidth.

Variants (matching Fig. 5's bars):

- ``baseline``  -- push PageRank with fenced atomic RMWs on a shared
  rank array: fences serialize the cores, lines ping-pong, and the rank
  array streams through DRAM.
- ``tako_fence`` -- PHI's data-triggered half only (tākō [66]): deltas
  are phantom LLC data (constructor zero-fills, destructor bins), but
  cores still execute the RMWs themselves -- with full fences.
- ``tako_relax`` -- the same with relaxed atomics [9, 70], the crutch
  tākō needs because it cannot offload tasks.
- ``leviathan`` -- PHI in full: the same data-triggered morph *plus*
  task offload of the RMWs to the LLC-bank engines, eliminating both
  fences and data ping-pong.
- ``ideal``     -- Leviathan with the idealized (0-latency, energy-free)
  engine.

Functional correctness is end-to-end: every variant computes the same
per-vertex rank sums through the simulated machinery, checked against a
NumPy oracle.
"""

import numpy as np

from repro.core.actor import Actor, action
from repro.core.morph import Morph
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.config import SystemConfig, CacheConfig
from repro.sim.ops import AtomicRMW, Compute, Load, Store
from repro.sim.system import Machine
from repro.workloads.common import finish_run
from repro.workloads.graphs import uniform_graph

#: Default workload scale (the paper's 4M-vertex, 40M-edge graph,
#: scaled to simulator speed at the same 10 edges/vertex; the delta
#: array is ~2x the scaled LLC, as in the paper's 32 MB vs 8 MB).
DEFAULT_PARAMS = dict(n_vertices=4096, n_edges=40960, n_threads=16, seed=7)


def _add_to(mem, addr, amount):
    """Closure performing ``mem[addr] += amount`` (an op ``apply``)."""

    def apply():
        mem[addr] = mem.get(addr, 0.0) + amount

    return apply


def phi_config(n_tiles=16, ideal=False, invoke_buffer=4):
    """Table V scaled so the vertex data exceeds the LLC."""
    cfg = SystemConfig(
        n_tiles=n_tiles,
        l1=CacheConfig(size_kb=2, ways=2, tag_latency=1, data_latency=2),
        l2=CacheConfig(size_kb=4, ways=4, tag_latency=2, data_latency=4, replacement="rrip"),
        llc=CacheConfig(size_kb=1, ways=8, tag_latency=3, data_latency=5, replacement="rrip"),
    )
    cfg.core.invoke_buffer_entries = invoke_buffer
    cfg.engine.ideal = ideal
    cfg.engine.l1d_kb = 2  # scaled with the rest of the hierarchy
    return cfg


class _PhiData:
    """Shared layout: edge list, contributions, ranks (and the oracle)."""

    def __init__(self, machine, params):
        p = dict(DEFAULT_PARAMS)
        p.update(params or {})
        self.params = p
        graph = uniform_graph(p["n_vertices"], p["n_edges"], seed=p["seed"])
        # Push-style: edges sorted by source so contribution loads are
        # sequential per thread.
        order = np.argsort(graph.neighbors, kind="stable")
        dsts = np.repeat(
            np.arange(graph.n_vertices), np.diff(graph.offsets)
        )
        self.edge_src = graph.neighbors[order].astype(np.int64)
        self.edge_dst = dsts[order].astype(np.int64)
        out_degree = np.maximum(graph.out_degree, 1)
        self.contrib = (1.0 / out_degree).astype(np.float64)
        self.n_vertices = graph.n_vertices
        self.n_edges = graph.n_edges
        self.n_threads = p["n_threads"]

        space = machine.address_space
        self.machine = machine
        self.edge_base = space.alloc(self.n_edges * 8, align=64)
        self.contrib_base = space.alloc(self.n_vertices * 8, align=64)
        self.rank_base = space.alloc(self.n_vertices * 8, align=64)
        for v in range(self.n_vertices):
            machine.mem[self.rank_addr(v)] = 0.0

        oracle = np.zeros(self.n_vertices)
        np.add.at(oracle, self.edge_dst, self.contrib[self.edge_src])
        self.oracle = oracle

    def rank_addr(self, v):
        return self.rank_base + v * 8

    def edge_slices(self):
        """Per-thread contiguous edge ranges."""
        bounds = np.linspace(0, self.n_edges, self.n_threads + 1, dtype=np.int64)
        return [(int(bounds[t]), int(bounds[t + 1])) for t in range(self.n_threads)]

    def ranks(self):
        return np.array(
            [self.machine.mem[self.rank_addr(v)] for v in range(self.n_vertices)]
        )

    def verify(self):
        if not np.allclose(self.ranks(), self.oracle):
            raise AssertionError("PHI variant produced wrong ranks")
        return float(self.ranks().sum())


# ----------------------------------------------------------------------
# baseline: fenced atomics on the shared rank array
# ----------------------------------------------------------------------
def _baseline_thread(data, lo, hi):
    mem = data.machine.mem
    for k in range(lo, hi):
        yield Load(data.edge_base + k * 8, 8)
        src = int(data.edge_src[k])
        dst = int(data.edge_dst[k])
        yield Load(data.contrib_base + src * 8, 8)
        yield Compute(2)
        addr = data.rank_addr(dst)
        amount = float(data.contrib[src])
        yield AtomicRMW(addr, 8, fenced=True, apply=_add_to(mem, addr, amount))


def run_baseline(params=None, n_tiles=16):
    machine = Machine(phi_config(n_tiles=n_tiles))
    data = _PhiData(machine, params)
    machine.stats.set_phase("edge")
    for t, (lo, hi) in enumerate(data.edge_slices()):
        machine.spawn(
            _baseline_thread(data, lo, hi), tile=t % n_tiles, name=f"phi-base{t}"
        )
    machine.run()
    machine.stats.set_phase(None)
    checksum = data.verify()
    return finish_run(machine, "baseline", output=checksum)


# ----------------------------------------------------------------------
# the PHI delta morph (shared by tākō and Leviathan variants)
# ----------------------------------------------------------------------
class PhiDeltaMorph(Morph):
    """Phantom per-vertex deltas with PHI's insertion/eviction semantics.

    Construction zero-initializes; destruction applies deltas in-place
    when the line is densely updated, or logs them for later processing
    when sparse (PHI's bandwidth-minimizing policy [14, 40]).
    """

    LOG_ENTRY_BYTES = 16

    def __init__(self, runtime, data, inplace_threshold=None):
        self.data = data
        entries_per_line = runtime.machine.config.line_size // 8
        self.inplace_threshold = (
            entries_per_line // 2 if inplace_threshold is None else inplace_threshold
        )
        super().__init__(
            runtime, "llc", data.n_vertices, object_size=8, name="phi-delta"
        )
        space = runtime.machine.address_space
        n_tiles = runtime.machine.config.n_tiles
        log_capacity = (data.n_edges + data.n_vertices) * self.LOG_ENTRY_BYTES
        self.log_bases = [space.alloc(log_capacity, align=64) for _ in range(n_tiles)]

    def delta_addr(self, v):
        return self.get_actor_addr(v)

    def construct(self, view, index):
        self.machine.mem[self.delta_addr(index)] = 0.0
        yield Compute(1)

    def destruct(self, view, index, dirty):
        mem = self.machine.mem
        addr = self.delta_addr(index)
        delta = mem.get(addr, 0.0)
        if not dirty or delta == 0.0:
            yield Compute(1)
            return
        # PHI's dynamic policy, decided per line: count updated siblings.
        line = addr // self.machine.config.line_size
        first, last = self._objects_in_line(line)
        updated = sum(
            1 for i in range(first, last + 1) if mem.get(self.delta_addr(i), 0.0) != 0.0
        )
        if updated >= self.inplace_threshold:
            # In-place: read-modify-write the real rank entry.
            yield Load(self.data.rank_addr(index), 8)
            yield Compute(1)
            yield Store(self.data.rank_addr(index), 8)
            mem[self.data.rank_addr(index)] += delta
            self.machine.stats.add("phi.inplace_applies")
        else:
            # Log: append (vertex, delta) to this bank's log.
            log = view.state.setdefault("log", [])
            entry_addr = (
                self.log_bases[view.tile] + len(log) * self.LOG_ENTRY_BYTES
            )
            yield Store(entry_addr, self.LOG_ENTRY_BYTES)
            log.append((index, delta))
            self.machine.stats.add("phi.logged_updates")
        mem[addr] = 0.0

    def log_processing_program(self, tile):
        """Apply one bank's log to the rank array (a later, batched phase).

        As in PHI [52] (and propagation blocking [14, 40]), entries are
        first binned by vertex so the rank array is then updated in
        sequential order -- each rank line is read and written once per
        phase instead of once per entry.
        """
        mem = self.machine.mem
        log = self.views[tile].state.get("log", [])
        base = self.log_bases[tile]
        combined = {}
        for j, (index, delta) in enumerate(log):
            # Sequential scan of the log; binning is a couple of ops.
            yield Load(base + j * self.LOG_ENTRY_BYTES, self.LOG_ENTRY_BYTES)
            yield Compute(2)
            combined[index] = combined.get(index, 0.0) + delta
        for index in sorted(combined):
            yield Load(self.data.rank_addr(index), 8)
            yield Compute(1)
            delta = combined[index]
            addr = self.data.rank_addr(index)
            yield Store(addr, 8, apply=_add_to(mem, addr, delta))


def _finalize_phi(machine, morph, data):
    """Flush remaining deltas and process the logs (measured)."""
    machine.stats.set_phase("flush")
    morph.unregister()
    for tile in range(machine.config.n_tiles):
        if morph.views[tile].state.get("log"):
            machine.spawn(
                morph.log_processing_program(tile),
                tile=tile,
                name=f"phi-logproc{tile}",
            )
    machine.run()
    machine.stats.set_phase(None)


# ----------------------------------------------------------------------
# tākō: data-triggered only; cores do the atomics themselves
# ----------------------------------------------------------------------
def _tako_thread(data, morph, lo, hi, fenced):
    mem = data.machine.mem
    for k in range(lo, hi):
        yield Load(data.edge_base + k * 8, 8)
        src = int(data.edge_src[k])
        dst = int(data.edge_dst[k])
        yield Load(data.contrib_base + src * 8, 8)
        yield Compute(2)
        addr = morph.delta_addr(dst)
        amount = float(data.contrib[src])
        yield AtomicRMW(addr, 8, fenced=fenced, apply=_add_to(mem, addr, amount))


def run_tako(params=None, relaxed=False, n_tiles=16):
    machine = Machine(phi_config(n_tiles=n_tiles))
    runtime = Leviathan(machine)
    data = _PhiData(machine, params)
    morph = PhiDeltaMorph(runtime, data)
    machine.stats.set_phase("edge")
    for t, (lo, hi) in enumerate(data.edge_slices()):
        machine.spawn(
            _tako_thread(data, morph, lo, hi, fenced=not relaxed),
            tile=t % n_tiles,
            name=f"phi-tako{t}",
        )
    machine.run()
    _finalize_phi(machine, morph, data)
    checksum = data.verify()
    name = "tako_relax" if relaxed else "tako_fence"
    return finish_run(machine, name, output=checksum)


# ----------------------------------------------------------------------
# Leviathan: data-triggered morph + task offload of the RMWs
# ----------------------------------------------------------------------
class DeltaActor(Actor):
    """One vertex's delta object; ``add`` is the offloaded RMW (Fig. 2)."""

    SIZE = 8

    @action
    def add(self, env, amount):
        yield Compute(1)
        yield Store(
            self.addr, 8, apply=_add_to(env.machine.mem, self.addr, amount)
        )


def _leviathan_thread(data, actors, lo, hi):
    for k in range(lo, hi):
        yield Load(data.edge_base + k * 8, 8)
        src = int(data.edge_src[k])
        dst = int(data.edge_dst[k])
        yield Load(data.contrib_base + src * 8, 8)
        yield Compute(2)
        yield Invoke(
            actors[dst],
            "add",
            (float(data.contrib[src]),),
            location=Location.REMOTE,
            args_bytes=8,
        )


def run_leviathan(params=None, ideal=False, n_tiles=16, invoke_buffer=4):
    machine = Machine(
        phi_config(n_tiles=n_tiles, ideal=ideal, invoke_buffer=invoke_buffer)
    )
    runtime = Leviathan(machine)
    data = _PhiData(machine, params)
    morph = PhiDeltaMorph(runtime, data)
    actors = []
    for v in range(data.n_vertices):
        actor = DeltaActor()
        actor.addr = morph.delta_addr(v)
        actors.append(actor)
    machine.stats.set_phase("edge")
    for t, (lo, hi) in enumerate(data.edge_slices()):
        machine.spawn(
            _leviathan_thread(data, actors, lo, hi),
            tile=t % n_tiles,
            name=f"phi-lev{t}",
        )
    machine.run()
    _finalize_phi(machine, morph, data)
    checksum = data.verify()
    return finish_run(machine, "ideal" if ideal else "leviathan", output=checksum)
