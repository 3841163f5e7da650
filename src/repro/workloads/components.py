"""Connected components: PHI with a different commutative operator.

Sec. IV argues that "given the diversity of graph applications [13], it
is essential that NDC systems support multiple paradigms". PageRank
(Fig. 5) exercises commutative *addition*; this workload exercises
commutative *minimum* -- synchronous min-label propagation for
connected components -- on exactly the same Leviathan machinery:

- phantom per-vertex label candidates (data-triggered morph, min-combining
  in cache, applied or logged on eviction);
- offloaded ``min`` RMW tasks instead of fenced atomics.

Rounds are synchronous: candidates accumulate in the morph during a
round and apply to the label array when the round's flush runs, which
gives every variant identical (oracle-checkable) semantics.
"""

import numpy as np

from repro.core.actor import Actor, action
from repro.core.morph import Morph
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.ops import AtomicRMW, Compute, Load, Store
from repro.sim.system import Machine
from repro.workloads.common import finish_run
from repro.workloads.graphs import community_graph
from repro.workloads.phi import phi_config

DEFAULT_PARAMS = dict(
    n_vertices=2048, n_edges=12288, n_threads=16, rounds=6, seed=13
)

INFINITY = 1 << 30


class _ComponentsData:
    """Undirected graph, label layout, and the synchronous oracle."""

    def __init__(self, machine, params):
        p = dict(DEFAULT_PARAMS)
        p.update(params or {})
        self.params = p
        self.machine = machine
        graph = community_graph(p["n_vertices"], p["n_edges"], seed=p["seed"])
        # Undirect: both endpoints propagate labels to each other.
        dsts = np.repeat(np.arange(graph.n_vertices), np.diff(graph.offsets))
        srcs = graph.neighbors
        self.edge_u = np.concatenate([srcs, dsts]).astype(np.int64)
        self.edge_v = np.concatenate([dsts, srcs]).astype(np.int64)
        self.n_vertices = graph.n_vertices
        self.n_edges = len(self.edge_u)
        self.n_threads = p["n_threads"]
        self.rounds = p["rounds"]

        space = machine.address_space
        self.edge_base = space.alloc(self.n_edges * 8, align=64)
        self.label_base = space.alloc(self.n_vertices * 8, align=64)
        for v in range(self.n_vertices):
            machine.mem[self.label_addr(v)] = v

        self.oracle = self._oracle_labels()

    def label_addr(self, v):
        return self.label_base + v * 8

    def _oracle_labels(self):
        labels = np.arange(self.n_vertices)
        for _ in range(self.rounds):
            candidate = np.full(self.n_vertices, INFINITY, dtype=np.int64)
            np.minimum.at(candidate, self.edge_v, labels[self.edge_u])
            labels = np.minimum(labels, candidate)
        return labels

    def edge_slices(self):
        bounds = np.linspace(0, self.n_edges, self.n_threads + 1, dtype=np.int64)
        return [(int(bounds[t]), int(bounds[t + 1])) for t in range(self.n_threads)]

    def labels(self):
        return np.array(
            [self.machine.mem[self.label_addr(v)] for v in range(self.n_vertices)]
        )

    def verify(self):
        got = self.labels()
        if not np.array_equal(got, self.oracle):
            raise AssertionError("components variant produced wrong labels")
        return int(got.sum())


def _min_to(mem, addr, value):
    def apply():
        mem[addr] = min(mem.get(addr, INFINITY), value)

    return apply


# ----------------------------------------------------------------------
# baseline: fenced atomic-min on a candidates array, synchronous rounds
# ----------------------------------------------------------------------
def _baseline_round(data, candidates_base, lo, hi, labels_snapshot):
    mem = data.machine.mem
    for k in range(lo, hi):
        yield Load(data.edge_base + k * 8, 8)
        u = int(data.edge_u[k])
        v = int(data.edge_v[k])
        yield Load(data.label_addr(u), 8)
        yield Compute(2)
        addr = candidates_base + v * 8
        yield AtomicRMW(addr, 8, fenced=True, apply=_min_to(mem, addr, int(labels_snapshot[u])))


def run_baseline(params=None, n_tiles=16):
    machine = Machine(phi_config(n_tiles=n_tiles))
    data = _ComponentsData(machine, params)
    mem = machine.mem
    candidates_base = machine.address_space.alloc(data.n_vertices * 8, align=64)
    for round_index in range(data.rounds):
        labels_snapshot = data.labels()
        for v in range(data.n_vertices):
            mem[candidates_base + v * 8] = INFINITY
        for t, (lo, hi) in enumerate(data.edge_slices()):
            machine.spawn(
                _baseline_round(data, candidates_base, lo, hi, labels_snapshot),
                tile=t % n_tiles,
                name=f"cc-base{round_index}.{t}",
            )
        machine.run()
        # Apply phase (sequential sweep on one core, measured).
        machine.spawn(
            _apply_round(data, candidates_base), tile=0, name=f"cc-apply{round_index}"
        )
        machine.run()
    checksum = data.verify()
    return finish_run(machine, "baseline", output=checksum)


def _apply_round(data, candidates_base):
    mem = data.machine.mem
    for v in range(data.n_vertices):
        yield Load(candidates_base + v * 8, 8)
        yield Compute(1)
        addr = data.label_addr(v)
        candidate = mem.get(candidates_base + v * 8, INFINITY)
        yield Store(addr, 8, apply=_min_to(mem, addr, candidate))


# ----------------------------------------------------------------------
# Leviathan: min-combining morph + offloaded min RMWs
# ----------------------------------------------------------------------
class MinMorph(Morph):
    """Phantom per-vertex min candidates (PHI with ``min`` combining)."""

    def __init__(self, runtime, data):
        self.data = data
        super().__init__(
            runtime, "llc", data.n_vertices, object_size=8, name="cc-candidates"
        )

    def construct(self, view, index):
        self.machine.mem[self.get_actor_addr(index)] = INFINITY
        yield Compute(1)

    def destruct(self, view, index, dirty):
        mem = self.machine.mem
        candidate = mem.get(self.get_actor_addr(index), INFINITY)
        if not dirty or candidate >= INFINITY:
            yield Compute(1)
            return
        addr = self.data.label_addr(index)
        yield Load(addr, 8)
        yield Compute(1)
        yield Store(addr, 8, apply=_min_to(mem, addr, candidate))
        mem[self.get_actor_addr(index)] = INFINITY


class MinActor(Actor):
    SIZE = 8

    @action
    def combine(self, env, value):
        mem = env.machine.mem
        yield Compute(1)
        yield Store(self.addr, 8, apply=_min_to(mem, self.addr, value))


def _leviathan_round(data, actors, lo, hi, labels_snapshot):
    for k in range(lo, hi):
        yield Load(data.edge_base + k * 8, 8)
        u = int(data.edge_u[k])
        v = int(data.edge_v[k])
        yield Load(data.label_addr(u), 8)
        yield Compute(2)
        yield Invoke(
            actors[v],
            "combine",
            (int(labels_snapshot[u]),),
            location=Location.REMOTE,
            args_bytes=8,
        )


def run_leviathan(params=None, n_tiles=16, ideal=False):
    machine = Machine(phi_config(n_tiles=n_tiles, ideal=ideal))
    runtime = Leviathan(machine)
    data = _ComponentsData(machine, params)
    for round_index in range(data.rounds):
        labels_snapshot = data.labels()
        morph = MinMorph(runtime, data)
        actors = []
        for v in range(data.n_vertices):
            actor = MinActor()
            actor.addr = morph.get_actor_addr(v)
            actors.append(actor)
        for t, (lo, hi) in enumerate(data.edge_slices()):
            machine.spawn(
                _leviathan_round(data, actors, lo, hi, labels_snapshot),
                tile=t % n_tiles,
                name=f"cc-lev{round_index}.{t}",
            )
        machine.run()
        # Round barrier: flush applies every surviving candidate.
        morph.unregister()
    checksum = data.verify()
    return finish_run(machine, "ideal" if ideal else "leviathan", output=checksum)
