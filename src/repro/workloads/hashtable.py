"""Case study: hash-table lookups via task offload (Sec. VIII-B, Fig. 18).

Buckets resolve collisions with linked lists; lookups chase pointers
through nodes that live (mostly) in the LLC. The paper's variants:

- ``baseline``   -- the core walks the chain itself: every hop is a
  round trip between the core and the node's LLC bank.
- ``leviathan``  -- Fig. 17: a ``Lookup`` task is invoked on the first
  node and *re-invokes itself* on the next node in continuation-passing
  style; hops become engine-to-engine packets inside the LLC, and the
  result returns through a single future.
- ``no_padding``   -- 24 B nodes without padding straddle lines: many
  offloaded tasks find only part of their node locally (Livia's [47]
  situation), costing extra NoC traffic.
- ``no_llc_mapping`` -- 128 B nodes without the LLC object-mapping:
  each node's two lines live in different banks, so nearly every task
  fetches half its node remotely -- worse than the baseline.

Fig. 24 (input-size) and Fig. 25 (system-size) reuse this module's
``run_*`` functions with different parameters.
"""

import numpy as np

from repro.core.actor import Actor, action
from repro.core.future import Future, WaitFuture
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.config import SystemConfig, CacheConfig
from repro.sim.ops import Compute, Load
from repro.sim.system import Machine
from repro.workloads.common import finish_run

#: Fig. 18's workload, scaled: threads each perform lookups against a
#: table whose (padded) size is ~2/3 of the scaled LLC ("the buckets
#: fit in the LLC, but not L1d or L2").
DEFAULT_PARAMS = dict(
    n_buckets=64,
    nodes_per_bucket=32,
    n_threads=16,
    lookups_per_thread=64,
    object_size=64,
    seed=23,
)

#: key compare + branch + next-pointer arithmetic per node visited.
VISIT_INSTRUCTIONS = 6


def hashtable_config(n_tiles=16, ideal=False, table_bytes=None):
    """Scaled Table V: the table fits in the LLC but not the L2."""
    # LLC sized ~1.5x the default table (128 KB padded table -> 192 KB).
    table_bytes = table_bytes or (64 * 32 * 64)
    per_bank_kb = max(1, (table_bytes * 3) // (2 * n_tiles * 1024))
    per_bank_kb = 1 << (per_bank_kb - 1).bit_length()  # round up to pow2
    cfg = SystemConfig(
        n_tiles=n_tiles,
        l1=CacheConfig(size_kb=1, ways=2, tag_latency=1, data_latency=2),
        l2=CacheConfig(size_kb=2, ways=4, tag_latency=2, data_latency=4, replacement="rrip"),
        llc=CacheConfig(
            size_kb=per_bank_kb, ways=8, tag_latency=3, data_latency=5, replacement="rrip"
        ),
    )
    cfg.engine.ideal = ideal
    # Scale the engine L1d with the rest of the hierarchy (the paper's
    # 8 KB engine L1d is tiny next to its 4 MB table; keep that ratio).
    cfg.engine.l1d_kb = 1
    return cfg


class Node(Actor):
    """One hash-table node (Fig. 17): key, value, metadata, next pointer.

    ``SIZE`` is set per subclass by the workload (24 B, 64 B or 128 B).
    """

    SIZE = 24

    @action
    def lookup(self, env, key, future):
        """Compare this node's key; recurse to the next node if needed.

        Returning a value fills ``future`` (the runtime translates
        ``return`` into ``send``); recursing passes the same future
        along in continuation-passing style (Fig. 17 line 13) and
        returns None so this hop fills nothing.
        """
        yield Load(self.addr, self.SIZE)
        yield Compute(VISIT_INSTRUCTIONS)
        record = env.machine.mem[self.addr]
        if record["key"] == key:
            return record["value"]
        nxt = record["next"]
        if nxt is None:
            return -1
        yield Invoke(
            nxt,
            "lookup",
            (key, future),
            location=Location.DYNAMIC,
            future=future,
            args_bytes=16,
        )
        return None


class _Table:
    """The hash table: bucket chains of allocated nodes."""

    def __init__(self, machine, runtime, params, padding=True, llc_mapping=True):
        p = dict(DEFAULT_PARAMS)
        p.update(params or {})
        self.params = p
        self.machine = machine
        size = p["object_size"]

        node_cls = type("Node%dB" % size, (Node,), {"SIZE": size})
        self.node_cls = node_cls
        n_nodes = p["n_buckets"] * p["nodes_per_bucket"]
        if runtime is not None:
            self.allocator = runtime.allocator(
                size,
                capacity=n_nodes,
                padding=padding,
                llc_mapping=llc_mapping,
                actor_cls=node_cls,
            )
        else:
            self.allocator = None

        # Allocate every node, then deal them to buckets in shuffled
        # order: chains are scattered through memory, as in a real hash
        # table built by interleaved insertions.
        rng = np.random.default_rng(p["seed"])
        nodes = [self._make_node(size) for _ in range(n_nodes)]
        order = rng.permutation(n_nodes)
        self.buckets = []
        cursor = 0
        for b in range(p["n_buckets"]):
            chain = [nodes[order[cursor + i]] for i in range(p["nodes_per_bucket"])]
            cursor += p["nodes_per_bucket"]
            for i, node in enumerate(chain):
                nxt = chain[i + 1] if i + 1 < len(chain) else None
                machine.mem[node.addr] = {
                    "key": self._key_of(b, i),
                    "value": self._key_of(b, i) * 7,
                    "next": nxt,
                }
            self.buckets.append(chain)
        self.n_nodes = n_nodes

    def _make_node(self, size):
        if self.allocator is not None:
            return self.allocator.allocate()
        # Baseline machine (no runtime): the same power-of-two padded
        # layout, so every variant sees an identical "(padded) size"
        # table (Sec. VIII-B) and differences come from where the
        # chain-walk executes, not from layout.
        from repro.core.allocator import padded_size_of

        node = self.node_cls()
        cfg = self.machine.config
        padded = padded_size_of(size, cfg.line_size, cfg.leviathan.max_object_lines)
        node.addr = self.machine.address_space.alloc(padded, align=padded)
        return node

    def _key_of(self, bucket, depth):
        return bucket * 1000 + depth

    def bucket_of_key(self, key):
        return key // 1000

    def expected_value(self, key):
        bucket, depth = divmod(key, 1000)
        if bucket < len(self.buckets) and depth < len(self.buckets[bucket]):
            return key * 7
        return -1

    def lookup_keys(self):
        """Per-thread key sequences (uniform over present keys)."""
        p = self.params
        rng = np.random.default_rng(p["seed"] + 1)
        keys = []
        for _ in range(p["n_threads"]):
            buckets = rng.integers(0, p["n_buckets"], size=p["lookups_per_thread"])
            depths = rng.integers(0, p["nodes_per_bucket"], size=p["lookups_per_thread"])
            keys.append([self._key_of(int(b), int(d)) for b, d in zip(buckets, depths)])
        return keys


# ----------------------------------------------------------------------
# baseline: the core chases pointers itself
# ----------------------------------------------------------------------
def _baseline_thread(table, keys, results):
    mem = table.machine.mem
    for key in keys:
        node = table.buckets[table.bucket_of_key(key)][0]
        value = -1
        while node is not None:
            yield Load(node.addr, node.SIZE)
            yield Compute(VISIT_INSTRUCTIONS)
            record = mem[node.addr]
            if record["key"] == key:
                value = record["value"]
                break
            node = record["next"]
        results.append(value)


def _padded_table_bytes(p):
    from repro.core.allocator import padded_size_of

    padded = padded_size_of(p["object_size"])
    return p["n_buckets"] * p["nodes_per_bucket"] * padded


def _make_config(p, n_tiles, ideal=False, table_bytes=None, config_overrides=None):
    """Build the study config; ``table_bytes``/``config_overrides`` let
    sweeps (Figs. 24-25, the near-memory ablation) pin the hierarchy or
    flip runtime knobs through plain data, so a run is fully described
    by its keyword arguments (the experiment pool relies on this)."""
    cfg = hashtable_config(
        n_tiles=n_tiles,
        ideal=ideal,
        table_bytes=table_bytes or _padded_table_bytes(p),
    )
    if config_overrides:
        cfg = cfg.scaled(**config_overrides)
    return cfg


def run_baseline(params=None, n_tiles=16, table_bytes=None, config_overrides=None):
    p = dict(DEFAULT_PARAMS)
    p.update(params or {})
    machine = Machine(
        _make_config(p, n_tiles, table_bytes=table_bytes, config_overrides=config_overrides)
    )
    table = _Table(machine, None, p)
    results = []
    for t, keys in enumerate(table.lookup_keys()):
        machine.spawn(
            _baseline_thread(table, keys, results), tile=t % n_tiles, name=f"ht-base{t}"
        )
    machine.run()
    _verify(table, results)
    return finish_run(machine, "baseline", output=sum(results))


# ----------------------------------------------------------------------
# Leviathan: offloaded pointer chasing
# ----------------------------------------------------------------------
def _leviathan_thread(table, keys, results, tile):
    machine = table.machine
    for key in keys:
        head = table.buckets[table.bucket_of_key(key)][0]
        future = Future(machine, tile)
        yield Invoke(
            head,
            "lookup",
            (key, future),
            location=Location.DYNAMIC,
            future=future,
            args_bytes=16,
        )
        value = yield WaitFuture(future)
        results.append(value)


def _run_leviathan_variant(
    name,
    params=None,
    n_tiles=16,
    ideal=False,
    padding=True,
    llc_mapping=True,
    table_bytes=None,
    config_overrides=None,
):
    p = dict(DEFAULT_PARAMS)
    p.update(params or {})
    machine = Machine(
        _make_config(
            p, n_tiles, ideal=ideal, table_bytes=table_bytes,
            config_overrides=config_overrides,
        )
    )
    runtime = Leviathan(machine)
    table = _Table(machine, runtime, p, padding=padding, llc_mapping=llc_mapping)
    results = []
    for t, keys in enumerate(table.lookup_keys()):
        machine.spawn(
            _leviathan_thread(table, keys, results, t % n_tiles),
            tile=t % n_tiles,
            name=f"ht-lev{t}",
        )
    machine.run()
    _verify(table, results)
    return finish_run(machine, name, output=sum(results))


def run_leviathan(
    params=None, n_tiles=16, ideal=False, table_bytes=None, config_overrides=None
):
    return _run_leviathan_variant(
        "ideal" if ideal else "leviathan",
        params,
        n_tiles=n_tiles,
        ideal=ideal,
        table_bytes=table_bytes,
        config_overrides=config_overrides,
    )


def run_no_padding(params=None, n_tiles=16):
    """Dense nodes (Livia-like): objects straddle cache lines."""
    return _run_leviathan_variant(
        "no_padding", params, n_tiles=n_tiles, padding=False
    )


def run_no_llc_mapping(params=None, n_tiles=16):
    """Padded nodes without the bank-mapping: multi-line objects span banks."""
    return _run_leviathan_variant(
        "no_llc_mapping", params, n_tiles=n_tiles, llc_mapping=False
    )


def _verify(table, results):
    keys = [k for thread_keys in table.lookup_keys() for k in thread_keys]
    expected = sorted(table.expected_value(k) for k in keys)
    if sorted(results) != expected:
        raise AssertionError("hash-table lookups returned wrong values")
