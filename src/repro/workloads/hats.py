"""Case study: decoupled graph traversal / HATS (Sec. VIII-C, Figs. 20-21).

HATS [51] improves graph-processing locality by traversing edges in
bounded depth-first (BDFS) order, which follows community structure
instead of memory layout. The traversal itself runs poorly on cores
(unpredictable branches), so HATS decouples it onto a near-data engine
that streams edges to the core.

Variants (Fig. 20's bars), all computing one PageRank iteration over a
community-structured graph (the stand-in for uk-2002):

- ``baseline``  -- PageRank in CSR (layout) order: poor locality on the
  contribution array.
- ``sw_bdfs``   -- BDFS on the core: better locality, but the traversal
  branches mispredict and its instructions compete with processing.
- ``tako``      -- tākō's pseudo-streaming: data-triggered constructors
  generate the next cache line of edges on each consumer miss. No
  run-ahead (generation is demand-triggered), and every line re-incurs
  the BDFS stack reinitialization the paper calls out.
- ``leviathan`` -- a Leviathan Stream: the producer runs BDFS
  continuously on the engine and pushes edges ahead of the consumer;
  the consumer's loads are sequential and prefetchable.
- ``ideal``     -- Leviathan with the idealized engine.

Fig. 21's breakdown (per-phase DRAM accesses, branch mispredictions per
edge, engine instructions per edge) falls out of the stats counters.
"""

import numpy as np

from repro.core.morph import Morph
from repro.core.runtime import Leviathan
from repro.core.stream import Stream, STREAM_END
from repro.sim.config import SystemConfig, CacheConfig
from repro.sim.ops import Branch, Compute, Load, Store
from repro.sim.system import Machine
from repro.workloads.common import finish_run
from repro.workloads.graphs import community_graph

#: uk-2002 scaled to simulator speed; strong communities, shuffled ids.
DEFAULT_PARAMS = dict(
    n_vertices=4096,
    n_edges=65536,
    n_communities=64,
    bdfs_depth=8,
    intra_fraction=0.95,
    stream_buffer=64,
    n_threads=1,
    seed=31,
)

#: Traversal work per edge (degree/active checks, stack arithmetic).
TRAVERSAL_INSTRUCTIONS = 4
#: tākō's per-line BDFS stack reinitialization (Sec. VIII-C).
TAKO_REINIT_INSTRUCTIONS = 48
#: Edge-processing work on the consumer (accumulate, loop bookkeeping).
PROCESS_INSTRUCTIONS = 3


def _traversal_mispredicts(src, dst):
    """Deterministic stand-in for BDFS's data-dependent branches.

    The push/skip decision depends on the active bit and stack depth,
    which a core's predictor cannot learn; roughly a third of edges
    mispredict.
    """
    return ((src * 2654435761 ^ dst) >> 3) % 8 < 3


def hats_config(n_tiles=16, ideal=False):
    """Scaled Table V: vertex data is ~2x the LLC, communities fit L1/L2."""
    cfg = SystemConfig(
        n_tiles=n_tiles,
        l1=CacheConfig(size_kb=2, ways=4, tag_latency=1, data_latency=2),
        l2=CacheConfig(size_kb=8, ways=8, tag_latency=2, data_latency=4, replacement="rrip"),
        llc=CacheConfig(size_kb=1, ways=8, tag_latency=3, data_latency=5, replacement="rrip"),
    )
    cfg.engine.ideal = ideal
    cfg.engine.l1d_kb = 2  # scaled with the rest of the hierarchy
    return cfg


class _HatsData:
    """Graph, layouts, the BDFS edge order, and the PageRank oracle."""

    def __init__(self, machine, params):
        p = dict(DEFAULT_PARAMS)
        p.update(params or {})
        self.params = p
        self.machine = machine
        graph = community_graph(
            p["n_vertices"],
            p["n_edges"],
            n_communities=p.get("n_communities"),
            intra_fraction=p["intra_fraction"],
            seed=p["seed"],
        )
        self.graph = graph
        n = graph.n_vertices

        space = machine.address_space
        self.rank_base = space.alloc(n * 8, align=64)
        self.contrib_base = space.alloc(n * 8, align=64)
        self.new_rank_base = space.alloc(n * 8, align=64)
        self.neighbors_base = space.alloc(graph.n_edges * 4, align=64)
        self.offsets_base = space.alloc((n + 1) * 8, align=64)
        self.active_base = space.alloc(max(64, n // 8), align=64)

        rng = np.random.default_rng(p["seed"] + 5)
        self.ranks = rng.random(n)
        self.contrib_values = self.ranks / np.maximum(graph.out_degree, 1)
        for v in range(n):
            machine.mem[self.new_rank_base + v * 8] = 0.0

        oracle = np.zeros(n)
        dsts = np.repeat(np.arange(n), np.diff(graph.offsets))
        np.add.at(oracle, dsts, self.contrib_values[graph.neighbors])
        self.oracle = oracle

        self._bdfs_cache = None
        self._bdfs_range_cache = {}
        self.n_threads = p.get("n_threads", 1)

    def vertex_slices(self):
        """Per-thread destination-vertex ranges (static partition).

        Each thread owns the in-edges of its vertex range, so parallel
        BDFS traversals cover every edge exactly once without shared
        traversal state -- the parallelization HATS hardware uses
        per-tile traversal engines for.
        """
        n = self.graph.n_vertices
        bounds = np.linspace(0, n, self.n_threads + 1, dtype=np.int64)
        return [(int(bounds[t]), int(bounds[t + 1])) for t in range(self.n_threads)]

    # ------------------------------------------------------------------
    # traversal orders
    # ------------------------------------------------------------------
    def csr_edges(self, vertex_range=None):
        """(src, dst, edge_index, last_of_dst) in CSR layout order."""
        graph = self.graph
        lo, hi = vertex_range or (0, graph.n_vertices)
        for dst in range(lo, hi):
            k = int(graph.offsets[dst])
            neighbors = graph.in_neighbors(dst)
            for i, src in enumerate(neighbors):
                yield int(src), dst, k + i, i == len(neighbors) - 1

    def bdfs_edges(self):
        """The bounded-DFS edge order of Fig. 19 (computed once).

        Returns ``(src, dst, root_scan_steps)`` triples:
        ``root_scan_steps`` counts the inactive vertices
        ``getNextRootVertex`` skipped before this burst began -- work
        the traversal performs while emitting nothing (the producer's
        bursty silence that stream buffering rides through).
        """
        if self._bdfs_cache is not None:
            return self._bdfs_cache
        order = self.bdfs_edges_for(0, self.graph.n_vertices)
        if len(order) != self.graph.n_edges:
            raise AssertionError("BDFS did not cover every edge")
        self._bdfs_cache = order
        return order

    def bdfs_edges_for(self, lo, hi):
        """BDFS edge order restricted to destination range ``[lo, hi)``.

        The traversal only claims vertices it owns, so per-thread
        traversals are independent and jointly cover every edge once.
        """
        key = (lo, hi)
        if key in self._bdfs_range_cache:
            return self._bdfs_range_cache[key]
        graph = self.graph
        depth = self.params["bdfs_depth"]
        active = np.zeros(graph.n_vertices, dtype=bool)
        active[lo:hi] = True
        order = []
        pending_scan = 0
        for root in range(lo, hi):
            if not active[root]:
                pending_scan += 1
                continue
            active[root] = False
            stack = [root]
            while stack:
                dst = stack.pop()
                for src in graph.in_neighbors(dst):
                    src = int(src)
                    order.append((src, dst, pending_scan))
                    pending_scan = 0
                    if len(stack) < depth and active[src]:
                        active[src] = False
                        stack.append(src)
        self._bdfs_range_cache[key] = order
        return order

    def root_scan_ops(self, steps, base_yield):
        """Ops for skipping ``steps`` inactive root candidates."""
        ops = []
        for word in range(0, steps, 8):
            ops.append(Load(self.active_base + (word // 8), 1))
        if steps:
            ops.append(Compute(2 * steps))
        return ops

    # ------------------------------------------------------------------
    # shared per-phase programs
    # ------------------------------------------------------------------
    def process_edge(self, src, dst, accum):
        """Consumer-side work for one edge: rank_new[dst] += contrib[src].

        ``accum`` tracks the current destination so the running sum is
        written once per dst group (BDFS and CSR both group by dst).
        """
        yield Load(self.contrib_base + src * 8, 8)
        yield Compute(PROCESS_INSTRUCTIONS)
        if accum["dst"] != dst:
            yield from self.flush_accum(accum)
            accum["dst"] = dst
        accum["sum"] += float(self.contrib_values[src])

    def flush_accum(self, accum):
        if accum["dst"] is None:
            return
        addr = self.new_rank_base + accum["dst"] * 8
        amount = accum["sum"]
        mem = self.machine.mem

        def apply(addr=addr, amount=amount):
            mem[addr] = mem.get(addr, 0.0) + amount

        yield Store(addr, 8, apply=apply)
        accum["dst"] = None
        accum["sum"] = 0.0

    def verify(self):
        got = np.array(
            [self.machine.mem[self.new_rank_base + v * 8] for v in range(self.graph.n_vertices)]
        )
        if not np.allclose(got, self.oracle):
            raise AssertionError("HATS variant produced wrong ranks")
        return float(got.sum())


# ----------------------------------------------------------------------
# shared phase scaffolding (1..N threads; paper runs 16)
# ----------------------------------------------------------------------
def _vertex_program(data, lo, hi):
    """contrib[v] = rank[v] / out_degree[v] over the owned range."""
    for v in range(lo, hi):
        yield Load(data.rank_base + v * 8, 8)
        yield Compute(2)
        yield Store(data.contrib_base + v * 8, 8)


def _run_phases(machine, data, edge_program_factory, name):
    """Vertex phase, barrier, then per-thread edge-phase programs.

    ``edge_program_factory(thread, lo, hi)`` builds thread ``thread``'s
    edge-phase program for its owned destination range.
    """
    n_tiles = machine.config.n_tiles
    machine.stats.set_phase("vertex")
    for t, (lo, hi) in enumerate(data.vertex_slices()):
        machine.spawn(_vertex_program(data, lo, hi), tile=t % n_tiles, name=f"{name}-v{t}")
    machine.run()
    machine.stats.set_phase("edge")
    for t, (lo, hi) in enumerate(data.vertex_slices()):
        machine.spawn(edge_program_factory(t, lo, hi), tile=t % n_tiles, name=f"{name}-e{t}")
    machine.run()
    machine.stats.set_phase(None)


# ----------------------------------------------------------------------
# baseline: CSR order on the core(s)
# ----------------------------------------------------------------------
def _baseline_edges(data, lo, hi):
    accum = {"dst": None, "sum": 0.0}
    for src, dst, k, last in data.csr_edges((lo, hi)):
        yield Load(data.neighbors_base + k * 4, 4)
        # Inner-loop exit mispredicts once per destination vertex.
        yield Branch(mispredicted=last)
        yield from data.process_edge(src, dst, accum)
    yield from data.flush_accum(accum)


def run_baseline(params=None, n_tiles=16):
    machine = Machine(hats_config(n_tiles=n_tiles))
    data = _HatsData(machine, params)
    _run_phases(
        machine, data, lambda t, lo, hi: _baseline_edges(data, lo, hi), "hats-base"
    )
    return finish_run(machine, "baseline", output=data.verify())


# ----------------------------------------------------------------------
# software BDFS: traversal and processing share the core(s)
# ----------------------------------------------------------------------
def _sw_bdfs_edges(data, lo, hi):
    accum = {"dst": None, "sum": 0.0}
    base_k = int(data.graph.offsets[lo])
    for k, (src, dst, scan) in enumerate(data.bdfs_edges_for(lo, hi)):
        # Traversal on the core: root scanning, neighbor fetch,
        # active-bit check, stack work -- with data-dependent branches.
        for op in data.root_scan_ops(scan, None):
            yield op
        yield Load(data.neighbors_base + (base_k + k) * 4, 4)
        yield Load(data.active_base + src // 8, 1)
        yield Compute(TRAVERSAL_INSTRUCTIONS)
        yield Branch(mispredicted=_traversal_mispredicts(src, dst))
        yield from data.process_edge(src, dst, accum)
    yield from data.flush_accum(accum)


def run_sw_bdfs(params=None, n_tiles=16):
    machine = Machine(hats_config(n_tiles=n_tiles))
    data = _HatsData(machine, params)
    _run_phases(
        machine, data, lambda t, lo, hi: _sw_bdfs_edges(data, lo, hi), "hats-swbdfs"
    )
    return finish_run(machine, "sw_bdfs", output=data.verify())


# ----------------------------------------------------------------------
# tākō: demand-triggered pseudo-streaming
# ----------------------------------------------------------------------
class TakoEdgeMorph(Morph):
    """Edges materialize line-by-line on consumer misses (no run-ahead).

    Each line's constructor resumes the BDFS traversal on the engine and
    must re-initialize the traversal stack (the "unintuitive corner
    case" cost of Sec. VIII-C); the hardware prefetcher cannot run ahead
    because generation is implicitly load-triggered. Each thread's
    destination range gets its own morph (its own pseudo-stream).
    """

    def __init__(self, runtime, data, vertex_range=None, name="tako-edges"):
        self.data = data
        lo, hi = vertex_range or (0, data.graph.n_vertices)
        self.edges = data.bdfs_edges_for(lo, hi)
        self.base_k = int(data.graph.offsets[lo])
        super().__init__(
            runtime,
            level="l2",
            n_actors=max(1, len(self.edges)),
            object_size=8,
            name=name,
        )
        self._entries_per_line = runtime.machine.config.line_size // self.padded_size

    def construct(self, view, index):
        if index >= len(self.edges):
            return
        if index % self._entries_per_line == 0:
            # Resuming the traversal: re-initialize the BDFS stack.
            yield Compute(TAKO_REINIT_INSTRUCTIONS)
        src, dst, scan = self.edges[index]
        for op in self.data.root_scan_ops(scan, None):
            yield op
        yield Load(self.data.neighbors_base + (self.base_k + index) * 4, 4)
        yield Load(self.data.active_base + src // 8, 1)
        yield Compute(TRAVERSAL_INSTRUCTIONS)
        self.machine.mem[self.get_actor_addr(index)] = (src, dst)

    def allow_prefetch(self, index):
        # Generation is demand-triggered; it cannot run ahead of loads.
        return False


def _tako_edges(data, morph):
    accum = {"dst": None, "sum": 0.0}
    mem = data.machine.mem
    for k in range(len(morph.edges)):
        box = []
        addr = morph.get_actor_addr(k)
        yield Load(addr, 8, apply=lambda a=addr, b=box: b.append(mem[a]))
        src, dst = box[0]
        yield from data.process_edge(src, dst, accum)
    yield from data.flush_accum(accum)


def run_tako(params=None, n_tiles=16):
    machine = Machine(hats_config(n_tiles=n_tiles))
    runtime = Leviathan(machine)
    data = _HatsData(machine, params)
    morphs = [
        TakoEdgeMorph(runtime, data, vertex_range=(lo, hi), name=f"tako-edges{t}")
        for t, (lo, hi) in enumerate(data.vertex_slices())
    ]
    _run_phases(
        machine, data, lambda t, lo, hi: _tako_edges(data, morphs[t]), "hats-tako"
    )
    return finish_run(machine, "tako", output=data.verify())


# ----------------------------------------------------------------------
# Leviathan: real decoupled streams (one per thread)
# ----------------------------------------------------------------------
class HatsStream(Stream):
    """Fig. 19: ``gen_stream`` runs BDFS and pushes edges continuously."""

    def __init__(self, runtime, data, consumer_tile, vertex_range=None, name="hats-stream"):
        self.data = data
        lo, hi = vertex_range or (0, data.graph.n_vertices)
        self.vertex_range = (lo, hi)
        self.base_k = int(data.graph.offsets[lo])
        super().__init__(
            runtime,
            object_size=8,
            buffer_entries=data.params["stream_buffer"],
            consumer_tile=consumer_tile,
            producer_tile=consumer_tile,
            capacity_hint=max(1, len(data.bdfs_edges_for(lo, hi))),
            name=name,
        )

    def gen_stream(self, env):
        data = self.data
        lo, hi = self.vertex_range
        for k, (src, dst, scan) in enumerate(data.bdfs_edges_for(lo, hi)):
            for op in data.root_scan_ops(scan, None):
                yield op
            yield Load(data.neighbors_base + (self.base_k + k) * 4, 4)
            yield Load(data.active_base + src // 8, 1)
            yield Compute(TRAVERSAL_INSTRUCTIONS)
            yield from self.push((src, dst))


def _leviathan_edges(data, stream):
    accum = {"dst": None, "sum": 0.0}
    while True:
        edge = yield from stream.consume()
        if edge is STREAM_END:
            break
        src, dst = edge
        yield from data.process_edge(src, dst, accum)
    yield from data.flush_accum(accum)


def run_leviathan(params=None, ideal=False, n_tiles=16, config_overrides=None):
    cfg = hats_config(n_tiles=n_tiles, ideal=ideal)
    if config_overrides:
        # Dotted-key overrides (e.g. a mid-sized LLC for the Fig. 23
        # stream-buffer sweep) so sweeps describe configs as plain data.
        cfg = cfg.scaled(**config_overrides)
    machine = Machine(cfg)
    runtime = Leviathan(machine)
    data = _HatsData(machine, params)
    streams = []
    for t, (lo, hi) in enumerate(data.vertex_slices()):
        stream = HatsStream(
            runtime,
            data,
            consumer_tile=t % n_tiles,
            vertex_range=(lo, hi),
            name=f"hats-stream{t}",
        )
        streams.append(stream)

    def edge_factory(t, lo, hi):
        streams[t].start()
        return _leviathan_edges(data, streams[t])

    _run_phases(machine, data, edge_factory, "hats-lev")
    return finish_run(machine, "ideal" if ideal else "leviathan", output=data.verify())


def breakdown(study):
    """Fig. 21's three panels from a completed study."""
    n_edges = None
    rows = {}
    for name, result in study.results.items():
        edges = result.stat("edge/dram.accesses")
        vertex = result.stat("vertex/dram.accesses")
        mispredicts = result.stat("core.branch_mispredictions")
        engine_instr = result.stat("edge/engine.instructions")
        rows[name] = {
            "dram_vertex": vertex,
            "dram_edge": edges,
            "mispredicts_per_edge": mispredicts,
            "engine_instr_per_edge": engine_instr,
        }
    return rows
