"""Serving zoo: near-storage scan/filter/join via pushdown offload.

The *Conduit* shape (PAPERS.md): a processor next to storage scans a
fact table, filters it, joins survivors against a broadcast dimension
table, and ships only aggregates to the host. Here the "storage tier"
is a DRAM-backed fact table far larger than the LLC, carved into
power-of-two *chunks* whose lines the LLC object mapping pins to a
single bank -- so a ``DYNAMIC`` invoke executes each chunk's scan on
the engine **at the chunk's bank**, next to the data.

Variants:

- ``baseline``  -- each scanner core reads every fact row across the
  NoC (DRAM round trips through its private caches), filters, and
  probes the dimension table per match: the whole table crosses the
  chip to the cores.
- ``leviathan`` -- per-chunk ``scan`` tasks fan out over all banks'
  engines (the drivers pipeline invokes and collect futures later),
  each filtering and joining in place against the broadcast dimension
  (a pure-compute weight, Conduit's replicated-dimension trick); only
  an 8 B aggregate per 256 B chunk returns. Bank-level parallelism and
  no row movement are exactly the pushdown win.

Per-chunk scan latency surfaces as request class ``storage_scan``
(p50/p95/p99 in the dashboard).
"""

import numpy as np

from repro.core.actor import Actor, action
from repro.core.future import WaitFuture
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.ops import Compute, Load
from repro.sim.system import Machine
from repro.sim.telemetry.requests import RequestLatencyProbe
from repro.workloads.common import finish_run

#: Scaled defaults: a 64 KB fact table (8x the LLC) in 256 B chunks
#: (the hardware's largest mappable object), driven by 4 scanner
#: cores, joined against a 64-entry dimension.
DEFAULT_PARAMS = dict(
    n_rows=2048,
    row_bytes=32,
    chunk_rows=8,
    n_dims=64,
    n_scanners=4,
    value_range=100,
    filter_mod=4,
    seed=41,
)

#: predicate evaluation per row scanned.
FILTER_INSTRUCTIONS = 3
#: hash + probe + accumulate per surviving row.
JOIN_INSTRUCTIONS = 4


def _params(params):
    p = dict(DEFAULT_PARAMS)
    p.update(params or {})
    return p


def nearstorage_config(n_tiles=8, ideal=False):
    """Scaled Table V: the fact table dwarfs the LLC (storage-resident)."""
    cfg = SystemConfig(
        n_tiles=n_tiles,
        l1=CacheConfig(size_kb=1, ways=2, tag_latency=1, data_latency=2),
        l2=CacheConfig(size_kb=2, ways=4, tag_latency=2, data_latency=4, replacement="rrip"),
        llc=CacheConfig(size_kb=1, ways=8, tag_latency=3, data_latency=5, replacement="rrip"),
    )
    cfg.engine.ideal = ideal
    cfg.engine.l1d_kb = 1
    return cfg


def make_table(p):
    """The fact table's ``(dim_key, value)`` columns, seeded."""
    rng = np.random.default_rng(p["seed"])
    dim_keys = rng.integers(0, p["n_dims"], size=p["n_rows"])
    values = rng.integers(0, p["value_range"], size=p["n_rows"])
    return dim_keys, values


def dim_weight(key):
    """The dimension table's fixed per-key weight (broadcast join)."""
    return key * 3 + 1


def expected_output(p):
    """Oracle: ``[sum(value * weight) over matches, match_count]``."""
    dim_keys, values = make_table(p)
    mask = values % p["filter_mod"] == 0
    joined = int(np.sum(values[mask] * (dim_keys[mask] * 3 + 1)))
    return [joined, int(np.count_nonzero(mask))]


class FactChunk(Actor):
    """A power-of-two slab of fact rows, bank-mapped as one object.

    ``SIZE`` is set per run (``chunk_rows * row_bytes``) so the LLC
    object mapping keeps every line of the chunk in one bank and
    ``DYNAMIC`` placement sends :meth:`scan` to that bank's engine.
    """

    SIZE = 256

    def __init__(self, n_rows, row_bytes, filter_mod):
        super().__init__()
        self.n_rows = n_rows
        self.row_bytes = row_bytes
        self.filter_mod = filter_mod

    @action
    def scan(self, env):
        """Filter + join this chunk in place; returns ``(joined, matched)``."""
        mem = env.machine.mem
        joined = matched = 0
        for i in range(self.n_rows):
            addr = self.addr + i * self.row_bytes
            yield Load(addr, self.row_bytes)
            yield Compute(FILTER_INSTRUCTIONS)
            dim_key, value = mem[addr]
            if value % self.filter_mod == 0:
                yield Compute(JOIN_INSTRUCTIONS)
                joined += int(value) * dim_weight(int(dim_key))
                matched += 1
        return (joined, matched)


def _build_chunks(machine, runtime, p):
    """Deal the fact table into chunks (identical padded layout in both
    variants; the baseline just never invokes on them)."""
    dim_keys, values = make_table(p)
    chunk_bytes = p["chunk_rows"] * p["row_bytes"]
    chunk_cls = type("FactChunk%dB" % chunk_bytes, (FactChunk,), {"SIZE": chunk_bytes})
    n_chunks = -(-p["n_rows"] // p["chunk_rows"])
    if runtime is not None:
        allocator = runtime.allocator(
            chunk_bytes, capacity=n_chunks, padding=True, llc_mapping=True
        )
        alloc = allocator.allocate
    else:
        from repro.core.allocator import padded_size_of

        cfg = machine.config
        padded = padded_size_of(chunk_bytes, cfg.line_size, cfg.leviathan.max_object_lines)
        alloc = lambda: machine.address_space.alloc(padded, align=padded)
    chunks = []
    for c in range(n_chunks):
        lo = c * p["chunk_rows"]
        rows = min(p["chunk_rows"], p["n_rows"] - lo)
        chunk = chunk_cls(rows, p["row_bytes"], p["filter_mod"])
        chunk.addr = alloc()
        for i in range(rows):
            machine.mem[chunk.addr + i * p["row_bytes"]] = (
                int(dim_keys[lo + i]),
                int(values[lo + i]),
            )
        chunks.append(chunk)
    return chunks


def _build_dim(machine, p):
    dim_base = machine.address_space.alloc(
        p["n_dims"] * 8, align=machine.config.line_size
    )
    for k in range(p["n_dims"]):
        machine.mem[dim_base + k * 8] = dim_weight(k)
    return dim_base


def _deal(chunks, n_scanners):
    """Contiguous chunk ranges, one per scanner."""
    step = -(-len(chunks) // n_scanners)
    return [chunks[lo : lo + step] for lo in range(0, len(chunks), step)][:n_scanners]


def _scan_baseline(machine, chunks, dim_base, sink):
    """Host-side scan: every row crosses the NoC to the core."""
    mem = machine.mem
    for chunk in chunks:
        for i in range(chunk.n_rows):
            addr = chunk.addr + i * chunk.row_bytes
            yield Load(addr, chunk.row_bytes)
            yield Compute(FILTER_INSTRUCTIONS)
            dim_key, value = mem[addr]
            if value % chunk.filter_mod == 0:
                yield Load(dim_base + dim_key * 8, 8)
                yield Compute(JOIN_INSTRUCTIONS)
                sink["joined"] += int(value) * int(mem[dim_base + dim_key * 8])
                sink["matched"] += 1


def _pushdown_driver(machine, chunks, sink):
    """Fan chunk scans out across the banks, then reduce the futures.

    Invokes pipeline (the engine NACK/buffer backpressure is the only
    throttle), so chunks in different banks scan concurrently.
    """
    futures = []
    for chunk in chunks:
        future = yield Invoke(
            chunk, "scan", (), location=Location.DYNAMIC, with_future=True, args_bytes=8
        )
        futures.append(future)
    for future in futures:
        joined, matched = yield WaitFuture(future)
        yield Compute(2)  # accumulate the partial aggregate
        sink["joined"] += int(joined)
        sink["matched"] += int(matched)


def _collect(machine, p, sinks, name, probe=None):
    output = [
        sum(s["joined"] for s in sinks),
        sum(s["matched"] for s in sinks),
    ]
    if output != expected_output(p):
        raise AssertionError(f"nearstorage {name}: output != oracle")
    result = finish_run(machine, name, output=output)
    if probe is not None:
        probe.finalize()
        result.stats.update(probe.stat_fields())
    return result


def run_baseline(params=None, n_tiles=8, config_overrides=None):
    """Cores scan, filter, and join everything themselves."""
    p = _params(params)
    cfg = nearstorage_config(n_tiles=n_tiles)
    if config_overrides:
        cfg = cfg.scaled(**config_overrides)
    machine = Machine(cfg)
    chunks = _build_chunks(machine, None, p)
    dim_base = _build_dim(machine, p)
    sinks = [{"joined": 0, "matched": 0} for _ in range(p["n_scanners"])]
    for s, share in enumerate(_deal(chunks, p["n_scanners"])):
        machine.spawn(
            _scan_baseline(machine, share, dim_base, sinks[s]),
            tile=s % n_tiles,
            name=f"scan{s}",
        )
    machine.run()
    return _collect(machine, p, sinks, "baseline")


def run_leviathan(params=None, n_tiles=8, ideal=False, config_overrides=None):
    """Chunk scans execute at their banks; cores reduce aggregates."""
    p = _params(params)
    cfg = nearstorage_config(n_tiles=n_tiles, ideal=ideal)
    if config_overrides:
        cfg = cfg.scaled(**config_overrides)
    machine = Machine(cfg)
    runtime = Leviathan(machine)
    chunks = _build_chunks(machine, runtime, p)
    _build_dim(machine, p)  # same layout; the pushdown join never loads it
    probe = RequestLatencyProbe(machine, {"scan": "storage_scan"})
    sinks = [{"joined": 0, "matched": 0} for _ in range(p["n_scanners"])]
    for s, share in enumerate(_deal(chunks, p["n_scanners"])):
        machine.spawn(
            _pushdown_driver(machine, share, sinks[s]),
            tile=s % n_tiles,
            name=f"scan{s}",
        )
    machine.run()
    return _collect(machine, p, sinks, "ideal" if ideal else "leviathan", probe)
