"""The named benchmark registry: what the host-performance lab runs.

Micro benchmarks put one simulator subsystem in a tight loop (the
scheduler step loop, the private/shared cache access paths, a NoC hop,
an invoke round-trip, stream push/pop, morph construct/destruct); macro
benchmarks run a paper case study end to end (the Fig. 18 hash table,
the Fig. 20 HATS traversal, the KV server with its request-latency
probe) exactly as the experiment harness would, so
profiler output maps one-to-one onto real evaluation cost.

Every benchmark is deterministic: the same work-unit count every trial
(:func:`repro.perf.bench.run_benchmark` enforces this), no RNG outside
the workloads' own seeded generators, and -- for macros -- application
results bit-identical to a direct ``run_*`` call, which
``tests/test_perf_bench.py`` locks in.
"""

from repro.perf.bench import Benchmark

_REGISTRY = {}


def register(bench):
    """Add ``bench``; duplicate names are a programming error."""
    if bench.name in _REGISTRY:
        raise ValueError(f"benchmark {bench.name!r} already registered")
    _REGISTRY[bench.name] = bench
    return bench


def get(name):
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(names())}"
        )
    return _REGISTRY[name]


def names():
    return sorted(_REGISTRY)


def select(pattern=None):
    """Benchmarks whose name contains ``pattern`` (all, when None)."""
    return [
        _REGISTRY[name]
        for name in names()
        if pattern is None or pattern in name
    ]


# ----------------------------------------------------------------------
# micro benchmark scenarios
# ----------------------------------------------------------------------
#: Work-loop sizes. Sized so each trial lands in the 20-500 ms band:
#: long enough to dwarf timer resolution, short enough that the full
#: suite with warmup + 3 trials stays under a minute on a laptop.
SCHED_CONTEXTS = 8
SCHED_OPS = 5000
CACHE_PRIVATE_LINES = 8
CACHE_SHARED_LINES = 512
CACHE_ACCESSES = 20000
CACHE_SHARED_ACCESSES = 8000
NOC_MESSAGES = 100000
INVOKES = 2000
STREAM_ITEMS = 4000
MORPH_ACTORS = 2048


def _small_machine():
    from repro.sim.config import small_config
    from repro.sim.system import Machine

    return Machine(small_config())


def _make_scheduler_steps():
    """The scheduler's heap loop: N contexts leapfrogging on Compute."""
    from repro.sim.ops import Compute

    machine = _small_machine()

    def program(n):
        for i in range(n):
            yield Compute(1 + (i & 3))

    for t in range(SCHED_CONTEXTS):
        machine.spawn(
            program(SCHED_OPS),
            tile=t % machine.config.n_tiles,
            name=f"bench-sched{t}",
        )

    def timed():
        machine.run()
        return SCHED_CONTEXTS * SCHED_OPS

    return timed


def _make_cache_path(lines, accesses):
    from repro.sim.ops import Load

    machine = _small_machine()
    base = machine.address_space.alloc(lines * 64, align=64)

    def program():
        for i in range(accesses):
            yield Load(base + (i % lines) * 64, 8)

    machine.spawn(program(), tile=0, name="bench-cache")

    def timed():
        machine.run()
        return accesses

    return timed


def _make_noc_hop():
    """Raw NoC sends, no scheduler: the per-message cost itself."""
    machine = _small_machine()
    noc = machine.hierarchy.noc
    n_tiles = machine.config.n_tiles

    def timed():
        send = noc.send
        for i in range(NOC_MESSAGES):
            send(i % n_tiles, (i >> 2) % n_tiles, 64)
        return NOC_MESSAGES

    return timed


def _make_invoke_round_trip():
    from repro.core.actor import Actor, action
    from repro.core.future import Future, WaitFuture
    from repro.core.offload import Invoke, Location
    from repro.core.runtime import Leviathan
    from repro.sim.ops import Compute, Load

    class Cell(Actor):
        SIZE = 8

        @action
        def read(self, env):
            yield Load(self.addr, 8)
            yield Compute(1)
            return env.machine.mem.get(self.addr, 0)

    machine = _small_machine()
    runtime = Leviathan(machine)
    cell = runtime.allocator_for(Cell, capacity=8).allocate()
    machine.mem[cell.addr] = 7
    results = []

    def program():
        for _ in range(INVOKES):
            future = Future(machine, 0)
            yield Invoke(
                cell, "read", (), location=Location.DYNAMIC,
                future=future, args_bytes=8,
            )
            results.append((yield WaitFuture(future)))

    machine.spawn(program(), tile=0, name="bench-invoke")

    def timed():
        machine.run()
        if len(results) != INVOKES or any(v != 7 for v in results):
            raise RuntimeError("invoke benchmark returned wrong values")
        return INVOKES

    return timed


def _make_stream_push_pop():
    from repro.core.runtime import Leviathan
    from repro.core.stream import STREAM_END, Stream
    from repro.sim.ops import Compute

    class RangeStream(Stream):
        def gen_stream(self, env):
            for i in range(STREAM_ITEMS):
                yield Compute(1)
                yield from self.push(i)

    machine = _small_machine()
    runtime = Leviathan(machine)
    stream = RangeStream(
        runtime, object_size=8, buffer_entries=32, consumer_tile=0
    )
    stream.start()
    got = []

    def consumer():
        while True:
            value = yield from stream.consume()
            if value is STREAM_END:
                return
            got.append(value)

    machine.spawn(consumer(), tile=0, name="bench-stream")

    def timed():
        machine.run()
        if len(got) != STREAM_ITEMS:
            raise RuntimeError("stream benchmark dropped items")
        return STREAM_ITEMS

    return timed


def _make_morph_trigger():
    from repro.core.morph import Morph
    from repro.core.runtime import Leviathan
    from repro.sim.ops import Compute, Load

    class TouchMorph(Morph):
        triggered = 0

        def construct(self, view, index):
            TouchMorph.triggered += 1
            self.machine.mem[self.get_actor_addr(index)] = index
            yield Compute(1)

        def destruct(self, view, index, dirty):
            TouchMorph.triggered += 1
            yield Compute(1)

    machine = _small_machine()
    runtime = Leviathan(machine)
    TouchMorph.triggered = 0
    morph = TouchMorph(runtime, "l2", MORPH_ACTORS, 8)

    def program():
        for i in range(MORPH_ACTORS):
            yield Load(morph.get_actor_addr(i), 8)

    machine.spawn(program(), tile=0, name="bench-morph")

    def timed():
        machine.run()
        morph.unregister()  # flush: every cached object destructs
        return TouchMorph.triggered

    return timed


# ----------------------------------------------------------------------
# macro benchmark scenarios (paper case studies, end to end)
# ----------------------------------------------------------------------
#: Fig. 18 at the small scale every committed history file has timed.
FIG18_PARAMS = {
    "n_buckets": 64,
    "nodes_per_bucket": 32,
    "n_threads": 16,
    "lookups_per_thread": 32,
}
FIG18_TILES = 16

#: Fig. 20 scaled down (quarter-size graph) to keep one trial ~0.5 s.
HATS_PARAMS = {"n_vertices": 1024, "n_edges": 8192}
HATS_TILES = 16

#: The KV server at its default params: the one macro with a span
#: consumer (its request-latency probe) attached.
SERVE_KV_PARAMS = {}
SERVE_KV_TILES = 16


def macro_units(result):
    """Simulated instructions executed: the macro 'steps' normalizer."""
    stats = result.stats
    return int(
        stats.get("core.instructions", 0) + stats.get("engine.instructions", 0)
    )


def _make_macro(fn_path, params, n_tiles):
    import importlib

    module_name, _, fn_name = fn_path.partition(":")
    runner = getattr(importlib.import_module(module_name), fn_name)

    def timed():
        result = runner(dict(params), n_tiles=n_tiles)
        timed.result = result
        return macro_units(result)

    return timed


for _bench in [
    Benchmark(
        "scheduler.steps",
        "micro",
        _make_scheduler_steps,
        unit="ops",
        description=f"{SCHED_CONTEXTS} contexts x {SCHED_OPS} Compute ops "
        "through the timestamp-ordered step loop",
    ),
    Benchmark(
        "cache.private_path",
        "micro",
        lambda: _make_cache_path(CACHE_PRIVATE_LINES, CACHE_ACCESSES),
        unit="accesses",
        description="loads served by the private L1/L2 path "
        f"({CACHE_PRIVATE_LINES} hot lines)",
    ),
    Benchmark(
        "cache.shared_path",
        "micro",
        lambda: _make_cache_path(CACHE_SHARED_LINES, CACHE_SHARED_ACCESSES),
        unit="accesses",
        description="loads spilling past the L2 into the shared LLC path "
        f"({CACHE_SHARED_LINES} lines)",
    ),
    Benchmark(
        "noc.hop",
        "micro",
        _make_noc_hop,
        unit="messages",
        description="raw MeshNoc.send cost (XY hops, flit accounting)",
    ),
    Benchmark(
        "invoke.round_trip",
        "micro",
        _make_invoke_round_trip,
        unit="invokes",
        description="Invoke -> engine action -> future fill -> WaitFuture",
    ),
    Benchmark(
        "stream.push_pop",
        "micro",
        _make_stream_push_pop,
        unit="items",
        description="producer push through a bounded stream buffer to a "
        "consuming context",
    ),
    Benchmark(
        "morph.trigger",
        "micro",
        _make_morph_trigger,
        unit="triggers",
        description="data-triggered construct on miss + destruct on flush",
    ),
    Benchmark(
        "fig18.hashtable_baseline",
        "macro",
        lambda: _make_macro(
            "repro.workloads.hashtable:run_baseline", FIG18_PARAMS, FIG18_TILES
        ),
        unit="instructions",
        description="Fig. 18 hash-table lookups, plain multicore baseline",
    ),
    Benchmark(
        "fig18.hashtable_leviathan",
        "macro",
        lambda: _make_macro(
            "repro.workloads.hashtable:run_leviathan", FIG18_PARAMS, FIG18_TILES
        ),
        unit="instructions",
        description="Fig. 18 hash-table lookups offloaded through engines",
    ),
    Benchmark(
        "fig20.hats_leviathan",
        "macro",
        lambda: _make_macro(
            "repro.workloads.hats:run_leviathan", HATS_PARAMS, HATS_TILES
        ),
        unit="instructions",
        description="Fig. 20 HATS decoupled traversal (quarter-size graph)",
    ),
    Benchmark(
        "serve.kv_leviathan",
        "macro",
        lambda: _make_macro(
            "repro.workloads.serving.kvserve:run_leviathan",
            SERVE_KV_PARAMS,
            SERVE_KV_TILES,
        ),
        unit="instructions",
        description="KV server GET/PUT offload and streamed scans, "
        "with the request-latency probe attached",
    ),
]:
    register(_bench)
