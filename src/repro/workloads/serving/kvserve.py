"""Serving zoo: a memcached-style KV request server (task offload + streams).

Clients issue GET/PUT/SCAN requests against a bucketed key-value store
whose buckets live (mostly) in the LLC. Arrivals are an **open-loop
Poisson process** (:func:`repro.workloads.distributions.poisson_arrivals`):
each client sleeps until a request's arrival timestamp and then issues
it whether or not earlier responses have returned, so queueing shows up
as tail latency instead of self-throttling.

Variants:

- ``baseline``  -- the core serves every request itself: each GET/PUT is
  a round trip to the bucket's LLC bank, and a SCAN walks ``scan_len``
  buckets from the core.
- ``leviathan`` -- GETs are offloaded tasks that return through futures
  (collected asynchronously -- the client keeps issuing), PUTs are
  fire-and-forget invokes, and each client's SCANs are served by a
  per-client :class:`~repro.core.stream.Stream` whose producer walks
  buckets near the data and streams back only the values.

Request classes (``get``/``put``/``scan``) are declared through
:class:`~repro.sim.telemetry.requests.RequestLatencyProbe`, so every
Leviathan run reports ``request.<class>.p50/p95/p99`` in its stats and
sweeps surface them in the dashboard. The probe is attached
unconditionally (it is a pure observer; results stay bit-identical).

:mod:`repro.workloads.serving.tracereplay` replays externally recorded
schedules through the same ``_run_kv`` entry point.
"""

import numpy as np

from repro.core.actor import Actor, action
from repro.core.future import WaitFuture
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.core.stream import STREAM_END, Stream
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.ops import Compute, Load, Sleep, Store
from repro.sim.system import Machine
from repro.sim.telemetry.requests import RequestLatencyProbe
from repro.workloads.common import finish_run
from repro.workloads.distributions import poisson_arrivals, zipfian_indices

#: The serving mix, scaled: 8 clients of open-loop Poisson traffic
#: against a 512-key store (64 buckets) that fits in the LLC.
DEFAULT_PARAMS = dict(
    n_clients=8,
    requests_per_client=48,
    n_keys=512,
    keys_per_bucket=8,
    mean_gap=60,
    get_frac=0.7,
    put_frac=0.2,
    miss_frac=0.1,
    scan_len=16,
    zipf_skew=0.9,
    stream_buffer=32,
    seed=11,
)

#: hash + key compare + record offset arithmetic per bucket touch.
KV_INSTRUCTIONS = 6
#: per-entry aggregation work after a SCAN's values arrive.
SCAN_INSTRUCTIONS = 2
#: GET of an absent key returns this sentinel.
MISSING = -1


def value_of(key, n_keys):
    """The store's fixed value for ``key`` (PUTs refresh, never change).

    Keeping values a pure function of the key makes every interleaving
    of concurrent GETs/PUTs functionally identical, which is what lets
    the oracle be exact under out-of-order completion.
    """
    return key * 7 + 1 if 0 <= key < n_keys else MISSING


def _params(params):
    p = dict(DEFAULT_PARAMS)
    p.update(params or {})
    return p


def kvserve_config(n_tiles=16, store_bytes=None, ideal=False):
    """Scaled Table V: the bucket array fits in the LLC, not the L2."""
    store_bytes = store_bytes or (64 * Bucket.SIZE)
    per_bank_kb = max(1, (store_bytes * 3) // (2 * n_tiles * 1024))
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


def build_schedule(params=None):
    """Per-client request schedules, a pure function of the params.

    Returns one list per client of ``{"t", "op", "key"}`` dicts ordered
    by arrival time ``t`` (cycles): ``op`` is ``get``/``put``/``scan``;
    for scans ``key`` is the range start. Keys are Zipfian; a
    ``miss_frac`` slice of GETs targets absent keys. Each client mixes
    its own substream seeds, so adding clients never reshuffles the
    traffic of existing ones.
    """
    p = _params(params)
    schedules = []
    for c in range(p["n_clients"]):
        seed = p["seed"] * 1009 + c
        arrivals = poisson_arrivals(p["requests_per_client"], p["mean_gap"], seed=seed)
        keys = zipfian_indices(
            p["n_keys"], p["requests_per_client"], skew=p["zipf_skew"], seed=seed + 104729
        )
        rng = np.random.default_rng(seed + 7919)
        kinds = rng.random(p["requests_per_client"])
        miss = rng.random(p["requests_per_client"])
        starts = rng.integers(
            0, max(1, p["n_keys"] - p["scan_len"]), size=p["requests_per_client"]
        )
        requests = []
        for i in range(p["requests_per_client"]):
            key = int(keys[i])
            if kinds[i] < p["get_frac"]:
                op = "get"
                if miss[i] < p["miss_frac"]:
                    key = p["n_keys"] + (key % 64)  # absent key
            elif kinds[i] < p["get_frac"] + p["put_frac"]:
                op = "put"
            else:
                op = "scan"
                key = int(starts[i])
            requests.append({"t": int(arrivals[i]), "op": op, "key": key})
        schedules.append(requests)
    return schedules


def expected_output(schedules, params=None):
    """The functional oracle: ``[get_sum, scan_sum, put_count]``."""
    p = _params(params)
    get_sum = scan_sum = puts = 0
    for requests in schedules:
        for req in requests:
            if req["op"] == "get":
                get_sum += value_of(req["key"], p["n_keys"])
            elif req["op"] == "put":
                puts += 1
            else:
                scan_sum += sum(
                    value_of(k, p["n_keys"])
                    for k in range(req["key"], req["key"] + p["scan_len"])
                )
    return [get_sum, scan_sum, puts]


class Bucket(Actor):
    """One 64 B bucket: a line-sized slab of ``keys_per_bucket`` records."""

    SIZE = 64

    @action
    def get(self, env, key):
        """Probe the bucket near its LLC bank; the return fills the future."""
        yield Load(self.addr, self.SIZE)
        yield Compute(KV_INSTRUCTIONS)
        return env.machine.mem[self.addr].get(key, MISSING)

    @action
    def put(self, env, key, value):
        """Refresh ``key`` in place (fire-and-forget; no future)."""
        yield Load(self.addr, self.SIZE)
        yield Compute(KV_INSTRUCTIONS)
        mem = env.machine.mem
        addr = self.addr
        yield Store(
            addr, self.SIZE, apply=lambda: mem[addr].__setitem__(key, value)
        )


class KVStore:
    """The bucketed store: ``n_keys`` records dealt into line-sized buckets."""

    def __init__(self, machine, runtime, params):
        p = _params(params)
        self.machine = machine
        self.n_keys = p["n_keys"]
        self.keys_per_bucket = p["keys_per_bucket"]
        self.scan_len = p["scan_len"]
        self.n_buckets = -(-self.n_keys // self.keys_per_bucket)
        if runtime is not None:
            allocator = runtime.allocator(
                Bucket.SIZE,
                capacity=self.n_buckets,
                padding=True,
                llc_mapping=True,
                actor_cls=Bucket,
            )
            self.buckets = [allocator.allocate() for _ in range(self.n_buckets)]
        else:
            # Baseline machine (no runtime): identical padded layout, so
            # the variants differ in where requests execute, not layout.
            from repro.core.allocator import padded_size_of

            cfg = machine.config
            padded = padded_size_of(
                Bucket.SIZE, cfg.line_size, cfg.leviathan.max_object_lines
            )
            self.buckets = []
            for _ in range(self.n_buckets):
                bucket = Bucket()
                bucket.addr = machine.address_space.alloc(padded, align=padded)
                self.buckets.append(bucket)
        for index, bucket in enumerate(self.buckets):
            lo = index * self.keys_per_bucket
            hi = min(lo + self.keys_per_bucket, self.n_keys)
            machine.mem[bucket.addr] = {
                k: value_of(k, self.n_keys) for k in range(lo, hi)
            }

    def bucket_of(self, key):
        """The bucket ``key`` hashes to (absent keys wrap like real ones)."""
        return self.buckets[(key // self.keys_per_bucket) % self.n_buckets]

    def value_of(self, key):
        return value_of(key, self.n_keys)


class ScanStream(Stream):
    """One client's SCAN responses, produced near the data.

    The producer (a long-lived engine thread) walks each scan range's
    buckets in its LLC bank and pushes only the values; the consumer
    core reads them as prefetchable phantom loads.
    """

    def __init__(self, runtime, store, scans, tile, buffer_entries, name):
        super().__init__(
            runtime,
            object_size=8,
            buffer_entries=buffer_entries,
            consumer_tile=tile,
            producer_tile=tile,
            capacity_hint=max(64, len(scans) * store.scan_len + 8),
            name=name,
        )
        self.store = store
        self.scans = scans

    def gen_stream(self, env):
        for start in self.scans:
            for key in range(start, start + self.store.scan_len):
                bucket = self.store.bucket_of(key)
                yield Load(bucket.addr, bucket.SIZE)
                yield Compute(1)
                yield from self.push(self.store.value_of(key))


def _pace(machine, arrival):
    """Open-loop pacing: sleep until ``arrival`` unless already late."""
    now = machine.sim_time()
    if arrival > now:
        yield Sleep(arrival - now)


def _client_baseline(machine, store, requests, sink):
    mem = machine.mem
    for req in requests:
        yield from _pace(machine, req["t"])
        key = req["key"]
        if req["op"] == "get":
            bucket = store.bucket_of(key)
            yield Load(bucket.addr, bucket.SIZE)
            yield Compute(KV_INSTRUCTIONS)
            sink["get"] += int(mem[bucket.addr].get(key, MISSING))
        elif req["op"] == "put":
            bucket = store.bucket_of(key)
            yield Load(bucket.addr, bucket.SIZE)
            yield Compute(KV_INSTRUCTIONS)
            addr, value = bucket.addr, store.value_of(key)
            yield Store(
                addr, bucket.SIZE, apply=lambda a=addr, k=key, v=value: mem[a].__setitem__(k, v)
            )
            sink["put"] += 1
        else:
            total = 0
            for k in range(key, key + store.scan_len):
                bucket = store.bucket_of(k)
                yield Load(bucket.addr, bucket.SIZE)
                yield Compute(1)
                total += int(mem[bucket.addr][k])
            yield Compute(SCAN_INSTRUCTIONS * store.scan_len)
            sink["scan"] += total


def _client_leviathan(machine, store, requests, scan_stream, sink):
    futures = []
    for req in requests:
        yield from _pace(machine, req["t"])
        key = req["key"]
        if req["op"] == "get":
            future = yield Invoke(
                store.bucket_of(key),
                "get",
                (key,),
                location=Location.DYNAMIC,
                with_future=True,
                args_bytes=16,
            )
            futures.append(future)
        elif req["op"] == "put":
            yield Invoke(
                store.bucket_of(key),
                "put",
                (key, store.value_of(key)),
                location=Location.DYNAMIC,
                args_bytes=24,
            )
            sink["put"] += 1
        else:
            total = 0
            for _ in range(store.scan_len):
                value = yield from scan_stream.consume()
                assert value is not STREAM_END, "scan stream underran"
                total += int(value)
            yield Compute(SCAN_INSTRUCTIONS * store.scan_len)
            sink["scan"] += total
    # Open loop: responses are collected after the issue loop, so a slow
    # GET delays nothing but its own future-wait (tail latency).
    for future in futures:
        sink["get"] += int((yield WaitFuture(future)))


def _run_kv(
    p,
    schedules,
    name,
    use_runtime,
    ideal=False,
    n_tiles=16,
    config_overrides=None,
):
    """Execute one variant over explicit per-client ``schedules``.

    Shared by the parameterized entry points below and by
    :mod:`repro.workloads.serving.tracereplay` (which feeds recorded
    schedules). Every run verifies the functional oracle.
    """
    store_bytes = Bucket.SIZE * -(-p["n_keys"] // p["keys_per_bucket"])
    cfg = kvserve_config(n_tiles=n_tiles, store_bytes=store_bytes, ideal=ideal)
    if config_overrides:
        cfg = cfg.scaled(**config_overrides)
    machine = Machine(cfg)
    sinks = [{"get": 0, "put": 0, "scan": 0} for _ in schedules]
    probe = None
    if use_runtime:
        runtime = Leviathan(machine)
        store = KVStore(machine, runtime, p)
        classes = {"get": "get", "put": "put"}
        streams = {}
        for c, requests in enumerate(schedules):
            scans = [r["key"] for r in requests if r["op"] == "scan"]
            if scans:
                streams[c] = ScanStream(
                    runtime,
                    store,
                    scans,
                    tile=c % n_tiles,
                    buffer_entries=p["stream_buffer"],
                    name=f"kv-scan{c}",
                )
                classes[f"kv-scan{c}"] = "scan"
        # Attached unconditionally: pure observer, and keeping the
        # lifecycle events wanted makes correlation-id draws identical
        # across configs.
        probe = RequestLatencyProbe(machine, classes)
        for c, requests in enumerate(schedules):
            if c in streams:
                streams[c].start()
            machine.spawn(
                _client_leviathan(
                    machine, store, requests, streams.get(c), sinks[c]
                ),
                tile=c % n_tiles,
                name=f"kv-client{c}",
            )
    else:
        store = KVStore(machine, None, p)
        for c, requests in enumerate(schedules):
            machine.spawn(
                _client_baseline(machine, store, requests, sinks[c]),
                tile=c % n_tiles,
                name=f"kv-client{c}",
            )
    machine.run()
    output = [
        sum(s["get"] for s in sinks),
        sum(s["scan"] for s in sinks),
        sum(s["put"] for s in sinks),
    ]
    expected = expected_output(schedules, p)
    if output != expected:
        raise AssertionError(f"kvserve {name}: output {output} != oracle {expected}")
    result = finish_run(machine, name, output=output)
    if probe is not None:
        probe.finalize()
        result.stats.update(probe.stat_fields())
    return result


def run_baseline(params=None, n_tiles=16, config_overrides=None):
    """The core-serves-everything variant."""
    p = _params(params)
    return _run_kv(
        p,
        build_schedule(p),
        "baseline",
        use_runtime=False,
        n_tiles=n_tiles,
        config_overrides=config_overrides,
    )


def run_leviathan(params=None, n_tiles=16, ideal=False, config_overrides=None):
    """Offloaded GET/PUT + streamed SCAN (``ideal`` zeroes engine cost)."""
    p = _params(params)
    return _run_kv(
        p,
        build_schedule(p),
        "ideal" if ideal else "leviathan",
        use_runtime=True,
        ideal=ideal,
        n_tiles=n_tiles,
        config_overrides=config_overrides,
    )
