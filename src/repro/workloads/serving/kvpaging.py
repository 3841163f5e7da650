"""Serving zoo: LLM KV-cache paging (long-lived actions + morph eviction).

The *Proxics* far-memory framing (PAPERS.md): an inference server's
KV-cache is larger than the fast tier, so pages shuttle between a slow
backing region ("far memory") and a small resident set. Decode walks
the cache with tunable temporal locality
(:func:`repro.workloads.distributions.reuse_distance_indices`) and
periodically dirties pages (cache-append writes).

Variants:

- ``baseline``  -- a software pager per worker on the core: the shared
  fast tier (``resident_pages``) is statically partitioned into
  per-worker quotas (the usual software answer to a shared cache),
  every access pays a page-table walk, and misses pay a fault handler
  (trap, victim pick, remap, TLB shootdown) plus an explicit evict
  (+writeback when dirty), fetch, and install copy.
- ``leviathan`` -- the page pool is a :class:`~repro.core.morph.Morph`
  at the LLC: touching a non-resident page triggers its constructor
  (fetch from backing, near the bank), capacity evictions trigger the
  destructor (writeback only when dirty), and *decode* runs as
  long-lived batched actions (``steps_per_invoke`` steps per invoke)
  on the engines. The cores never pay paging software overhead, and
  the fast tier is shared *dynamically* -- a worker in a hot phase
  borrows capacity a quiet worker is not using, which no static
  partition can.

Knobs: ``n_pages`` (working-set size), ``resident_pages`` (fast-tier
capacity -> LLC size), ``reuse_distance`` (temporal locality; larger =
worse). The request class ``decode`` surfaces per-invoke latency
percentiles via :class:`~repro.sim.telemetry.requests.RequestLatencyProbe`.
"""

from repro.core.actor import Actor, action
from repro.core.future import WaitFuture
from repro.core.morph import Morph
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.ops import Compute, Load, Store
from repro.sim.system import Machine
from repro.sim.telemetry.requests import RequestLatencyProbe
from repro.workloads.common import finish_run
from repro.workloads.distributions import reuse_distance_indices

#: Scaled defaults: a 256-page cache (16 KB) over a resident set of 64
#: pages (the LLC), walked by 4 decode workers. The default reuse
#: distance (128) exceeds the resident set -- the far-memory regime the
#: workload models, where paging overhead dominates.
DEFAULT_PARAMS = dict(
    n_pages=256,
    page_bytes=64,
    resident_pages=64,
    n_workers=4,
    decode_steps=96,
    steps_per_invoke=16,
    reuse_distance=128,
    seed=29,
)

#: software page-table walk + LRU bookkeeping per access (baseline only).
PTW_INSTRUCTIONS = 4
#: page-fault handling per baseline miss: trap, pick a victim, remap,
#: TLB shootdown. Conservative next to real fault paths (microseconds);
#: the morph's data-triggered page-in pays none of it.
FAULT_INSTRUCTIONS = 120
#: attention-style work per decode step, either variant.
ATTEND_INSTRUCTIONS = 6
#: every 4th decode step appends to the page (dirties it).
DIRTY_EVERY = 4


def page_value(index):
    """The fixed payload of page ``index`` (writes re-append the same
    value, so eviction/writeback order cannot change functional
    results)."""
    return index * 13 + 7


def _params(params):
    p = dict(DEFAULT_PARAMS)
    p.update(params or {})
    return p


def paging_config(n_tiles=4, resident_bytes=None, ideal=False):
    """Scaled Table V: the LLC *is* the fast tier (resident set)."""
    resident_bytes = resident_bytes or (64 * 64)
    per_bank_kb = max(1, resident_bytes // (n_tiles * 1024))
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
    cfg.engine.l1d_kb = 1
    return cfg


def access_sequences(p):
    """One reuse-distance-controlled page sequence per worker."""
    return [
        reuse_distance_indices(
            p["n_pages"], p["decode_steps"], p["reuse_distance"], seed=p["seed"] * 31 + w
        )
        for w in range(p["n_workers"])
    ]


def expected_output(p):
    """Oracle: each step reads its page's fixed value; sum everything."""
    return int(
        sum(sum(page_value(int(i)) for i in seq) for seq in access_sequences(p))
    )


class PageMorph(Morph):
    """The KV-cache page pool, materialized in the LLC on demand.

    Constructor = page-in (fetch from the backing region near the
    bank); destructor = page-out (writeback only when the page was
    dirtied). This is the morph-managed replacement for the baseline's
    software pager.
    """

    def __init__(self, runtime, n_pages, page_bytes, backing_base):
        super().__init__(
            runtime, level="llc", n_actors=n_pages, object_size=page_bytes, name="kv-pages"
        )
        self.backing_base = backing_base
        self.page_bytes = page_bytes

    def construct(self, view, index):
        backing = self.backing_base + index * self.page_bytes
        yield Load(backing, self.page_bytes)
        yield Compute(2)
        self.machine.mem[self.get_actor_addr(index)] = self.machine.mem[backing]

    def destruct(self, view, index, dirty):
        if dirty:
            yield Store(self.backing_base + index * self.page_bytes, self.page_bytes)


class DecodeWorker(Actor):
    """A decode head: walks its access sequence in long-lived batches."""

    SIZE = 8

    def __init__(self, morph, sequence):
        super().__init__()
        self.morph = morph
        self.sequence = sequence

    @action
    def decode(self, env, start, count):
        """Decode ``count`` steps from ``start``; returns the value sum.

        Each step loads its page's phantom line (page-in happens in the
        morph constructor on a miss) and every ``DIRTY_EVERY``-th step
        appends, dirtying the line so capacity evictions pay writeback.
        """
        mem = env.machine.mem
        box = []
        total = 0
        for i in range(start, start + count):
            index = int(self.sequence[i])
            addr = self.morph.get_actor_addr(index)
            box.clear()
            yield Load(addr, 8, apply=lambda a=addr: box.append(mem[a]))
            yield Compute(ATTEND_INSTRUCTIONS)
            if i % DIRTY_EVERY == 0:
                yield Store(addr, 8)  # append: same value, dirties the page
            total += int(box[0])
        return total


def _decode_driver(machine, worker, n_steps, steps_per_invoke, sink):
    done = 0
    while done < n_steps:
        count = min(steps_per_invoke, n_steps - done)
        future = yield Invoke(
            worker,
            "decode",
            (done, count),
            location=Location.DYNAMIC,
            with_future=True,
            args_bytes=24,
        )
        sink["decoded"] += int((yield WaitFuture(future)))
        done += count


def _baseline_pager(machine, backing_base, buffer_base, quota, p, sequence, sink):
    """Software paging on the core: PTW + LRU + explicit copies.

    ``quota`` is this worker's static share of the fast tier
    (``resident_pages // n_workers``) -- software partitions the shared
    capacity up front, where the morph shares it demand-driven.
    """
    mem = machine.mem
    page = p["page_bytes"]
    resident = {}  # page index -> buffer slot
    lru = []  # least-recent first
    dirty = set()
    free = list(range(quota))
    for i, raw in enumerate(sequence):
        index = int(raw)
        yield Compute(PTW_INSTRUCTIONS)
        if index in resident:
            lru.remove(index)
        else:
            yield Compute(FAULT_INSTRUCTIONS)
            if free:
                slot = free.pop()
            else:
                victim = lru.pop(0)
                slot = resident.pop(victim)
                if victim in dirty:
                    dirty.discard(victim)
                    yield Store(backing_base + victim * page, page)
            yield Load(backing_base + index * page, page)
            yield Store(buffer_base + slot * page, page)
            resident[index] = slot
        lru.append(index)
        slot = resident[index]
        yield Load(buffer_base + slot * page, 8)
        yield Compute(ATTEND_INSTRUCTIONS)
        if i % DIRTY_EVERY == 0:
            yield Store(buffer_base + slot * page, 8)
            dirty.add(index)
        sink["decoded"] += int(mem[backing_base + index * page])


def _alloc_backing(machine, p):
    base = machine.address_space.alloc(
        p["n_pages"] * p["page_bytes"], align=machine.config.line_size
    )
    for i in range(p["n_pages"]):
        machine.mem[base + i * p["page_bytes"]] = page_value(i)
    return base


def run_baseline(params=None, n_tiles=4, config_overrides=None):
    """Software paging on the cores."""
    p = _params(params)
    cfg = paging_config(
        n_tiles=n_tiles, resident_bytes=p["resident_pages"] * p["page_bytes"]
    )
    if config_overrides:
        cfg = cfg.scaled(**config_overrides)
    machine = Machine(cfg)
    backing = _alloc_backing(machine, p)
    quota = max(1, p["resident_pages"] // p["n_workers"])
    sinks = [{"decoded": 0} for _ in range(p["n_workers"])]
    for w, sequence in enumerate(access_sequences(p)):
        buffer_base = machine.address_space.alloc(
            quota * p["page_bytes"], align=machine.config.line_size
        )
        machine.spawn(
            _baseline_pager(machine, backing, buffer_base, quota, p, sequence, sinks[w]),
            tile=w % n_tiles,
            name=f"pager{w}",
        )
    machine.run()
    output = sum(s["decoded"] for s in sinks)
    if output != expected_output(p):
        raise AssertionError("kvpaging baseline: output != oracle")
    return finish_run(machine, "baseline", output=output)


def run_leviathan(params=None, n_tiles=4, ideal=False, config_overrides=None):
    """Morph-managed paging + long-lived decode actions."""
    p = _params(params)
    cfg = paging_config(
        n_tiles=n_tiles,
        resident_bytes=p["resident_pages"] * p["page_bytes"],
        ideal=ideal,
    )
    if config_overrides:
        cfg = cfg.scaled(**config_overrides)
    machine = Machine(cfg)
    runtime = Leviathan(machine)
    backing = _alloc_backing(machine, p)
    morph = PageMorph(runtime, p["n_pages"], p["page_bytes"], backing)
    allocator = runtime.allocator(DecodeWorker.SIZE, capacity=p["n_workers"])
    probe = RequestLatencyProbe(machine, {"decode": "decode"})
    sinks = [{"decoded": 0} for _ in range(p["n_workers"])]
    for w, sequence in enumerate(access_sequences(p)):
        worker = DecodeWorker(morph, sequence)
        worker.addr = allocator.allocate()
        machine.spawn(
            _decode_driver(
                machine, worker, p["decode_steps"], p["steps_per_invoke"], sinks[w]
            ),
            tile=w % n_tiles,
            name=f"decode{w}",
        )
    machine.run()
    output = sum(s["decoded"] for s in sinks)
    if output != expected_output(p):
        raise AssertionError("kvpaging leviathan: output != oracle")
    result = finish_run(machine, "ideal" if ideal else "leviathan", output=output)
    probe.finalize()
    result.stats.update(probe.stat_fields())
    return result
