"""System configuration (Table V of the paper).

:class:`SystemConfig` collects every knob of the simulated machine and of
the Leviathan runtime. Defaults reproduce Table V scaled to simulator
speed; the experiment harness overrides individual fields per study.
"""

import dataclasses
import math
from dataclasses import dataclass, field


def _is_power_of_two(value):
    return value > 0 and (value & (value - 1)) == 0


@dataclass
class CoreConfig:
    """Timing model of one out-of-order core (modeled after Skylake).

    The simulator does not model the pipeline; instead, ``Compute(n)``
    operations advance time by ``n / ipc`` cycles, and each branch
    misprediction adds ``branch_miss_penalty`` cycles. Fenced atomics
    serialize the core for ``fence_penalty`` cycles, which is the effect
    the PHI case study (Sec. IV) leans on.
    """

    freq_ghz: float = 2.4
    ipc: float = 3.0
    branch_miss_penalty: int = 14
    fence_penalty: int = 90
    #: Entries in the invoke buffer used to backpressure task offload
    #: (Sec. VI-B1, Fig. 22).
    invoke_buffer_entries: int = 4
    #: Cycles to retry an invoke after an engine NACK (spill-and-retry).
    invoke_retry_delay: int = 20
    #: Bounded NACK retry: maximum re-sends of one invoke before the
    #: simulation raises :class:`~repro.core.offload.InvokeTimeout`.
    #: ``None`` keeps the paper's unbounded behavior (NACKed tasks wait
    #: in the engine's spill queue until a context frees).
    invoke_max_retries: int = None
    #: Exponential-backoff multiplier applied to ``invoke_retry_delay``
    #: after each failed retry (bounded-retry mode only).
    invoke_retry_backoff: float = 2.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Reject nonsensical retry knobs at construction, not mid-run.

        Re-invoked by :meth:`SystemConfig.__post_init__` so overrides
        applied through :meth:`SystemConfig.scaled` are caught too.
        """
        if self.invoke_buffer_entries < 1:
            raise ValueError(
                f"core.invoke_buffer_entries must be >= 1, "
                f"got {self.invoke_buffer_entries!r}"
            )
        if self.invoke_retry_delay < 0:
            raise ValueError(
                f"core.invoke_retry_delay must be >= 0 cycles, "
                f"got {self.invoke_retry_delay!r}"
            )
        if self.invoke_max_retries is not None and self.invoke_max_retries < 1:
            raise ValueError(
                f"core.invoke_max_retries must be None (unbounded) or >= 1, "
                f"got {self.invoke_max_retries!r}"
            )
        if self.invoke_retry_backoff < 1.0:
            raise ValueError(
                f"core.invoke_retry_backoff must be >= 1.0 "
                f"(delays may never shrink), got {self.invoke_retry_backoff!r}"
            )


@dataclass
class EngineConfig:
    """Timing model of one near-data engine (Sec. VI-A1).

    The paper evaluates a 5x5 dataflow fabric: 15 integer FUs and 10
    memory FUs with 1-cycle PEs. We model the fabric as a single-issue
    processor (the paper evaluates all NDC systems with single-issue PEs
    for iso-compute comparisons) with ``task_contexts`` hardware thread
    contexts to overlap memory latency.
    """

    int_fus: int = 15
    mem_fus: int = 10
    pe_latency: int = 1
    #: Sustained instruction-level parallelism of the dataflow fabric:
    #: with 25 PEs firing whenever inputs are ready, short actions
    #: average ~2 instructions/cycle.
    issue_width: float = 2.0
    l1d_kb: int = 8
    l1d_ways: int = 4
    rtlb_entries: int = 256
    task_contexts: int = 32
    #: When True the engine is the paper's *idealized* engine: unlimited,
    #: zero-latency, energy-free PEs (memory latency still applies).
    ideal: bool = False

    @property
    def offload_contexts(self):
        """Contexts reserved for offloaded tasks.

        The paper evenly splits contexts between offloaded and
        data-triggered actions to prevent deadlock (Sec. VI-A1).
        """
        return self.task_contexts // 2

    @property
    def triggered_contexts(self):
        """Contexts reserved for data-triggered actions."""
        return self.task_contexts - self.task_contexts // 2


@dataclass
class CacheConfig:
    """Geometry and timing of one cache."""

    size_kb: int
    ways: int
    tag_latency: int
    data_latency: int
    replacement: str = "lru"  # "lru" or "rrip"

    def lines(self, line_size):
        return (self.size_kb * 1024) // line_size

    def sets(self, line_size):
        return self.lines(line_size) // self.ways

    @property
    def hit_latency(self):
        return self.tag_latency + self.data_latency


@dataclass
class NocConfig:
    """Mesh on-chip network (128-bit flits and links)."""

    flit_bits: int = 128
    router_delay: int = 2
    link_delay: int = 1

    @property
    def flit_bytes(self):
        return self.flit_bits // 8

    def flits(self, payload_bytes):
        """Number of flits for a message with ``payload_bytes`` of payload.

        Every message carries one head flit of routing/command metadata.
        """
        return 1 + math.ceil(payload_bytes / self.flit_bytes)

    def hop_latency(self, hops):
        """Latency of the head flit traversing ``hops`` routers and links.

        A local (same-tile) message bypasses the network and costs one
        cycle of interface arbitration.
        """
        if hops == 0:
            return 1
        return (hops + 1) * self.router_delay + hops * self.link_delay

    def message_latency(self, hops, payload_bytes):
        """Head-flit latency plus tail-flit serialization.

        Wormhole routing: the message completes when its last flit
        arrives, so large (data) messages cost more than small
        (control) packets -- the asymmetry task offload exploits.
        """
        serialization = self.flits(payload_bytes) - 1 if hops > 0 else 0
        return self.hop_latency(hops) + serialization


@dataclass
class MemoryConfig:
    """Memory controllers and DRAM."""

    controllers: int = 4
    latency: int = 100
    #: Sustained bandwidth per controller (Table V: 11.8 GB/s at
    #: 2.4 GHz ~= 4.9 bytes/cycle). Accesses queue behind each other at
    #: a controller; this is what makes scatter-heavy workloads
    #: bandwidth-bound, the effect PHI attacks.
    bandwidth_bytes_per_cycle: float = 4.9
    #: FIFO cache at each memory controller (Sec. VI-A3), in DRAM lines.
    fifo_lines: int = 32

    def service_cycles(self, line_bytes):
        """Controller occupancy for one DRAM-line transfer."""
        return line_bytes / self.bandwidth_bytes_per_cycle


@dataclass
class LeviathanConfig:
    """Knobs of the Leviathan runtime itself."""

    #: Largest object supported by the hardware paths, in cache lines
    #: (Sec. VI-C; the evaluation supports four lines = 256 B).
    max_object_lines: int = 4
    #: Probability denominator for DYNAMIC-task migration: one in
    #: ``migration_period`` remote tasks executes locally instead to pull
    #: hot data up the hierarchy (Sec. VI-B1).
    migration_period: int = 32
    #: The paper's future-work extension (Sec. IX): engines at the
    #: memory controllers, so DYNAMIC tasks on uncached actors execute
    #: near memory instead of at an LLC bank far from the data.
    near_memory_engines: bool = False


@dataclass
class SystemConfig:
    """Full machine description (Table V), plus Leviathan knobs."""

    n_tiles: int = 16
    line_size: int = 64
    page_size: int = 4096

    core: CoreConfig = field(default_factory=CoreConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_kb=32, ways=8, tag_latency=1, data_latency=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_kb=128, ways=8, tag_latency=2, data_latency=4, replacement="rrip"
        )
    )
    #: Per-tile LLC bank; total LLC is ``n_tiles * llc.size_kb``.
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_kb=512, ways=16, tag_latency=3, data_latency=5, replacement="rrip"
        )
    )
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    leviathan: LeviathanConfig = field(default_factory=LeviathanConfig)

    #: Enable the L2 strided prefetcher from Table V.
    l2_prefetcher: bool = True
    #: Random seed for any stochastic machinery (kept deterministic).
    seed: int = 42
    #: Scheduler watchdog: after this many consecutive operations execute
    #: without simulated time advancing, ``machine.run()`` raises
    #: :class:`~repro.sim.scheduler.DeadlockError` with a diagnostic dump
    #: instead of spinning forever. 0 disables the watchdog.
    watchdog_steps: int = 250_000

    def __post_init__(self):
        self.core.validate()
        if not _is_power_of_two(self.n_tiles):
            raise ValueError(f"n_tiles must be a power of two, got {self.n_tiles}")
        if not _is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.memory.controllers > self.n_tiles:
            raise ValueError("more memory controllers than tiles")

    @property
    def mesh_width(self):
        """Width of the (as-square-as-possible) mesh."""
        return _mesh_width(self.n_tiles)

    @property
    def llc_total_kb(self):
        return self.llc.size_kb * self.n_tiles

    def scaled(self, **overrides):
        """Return a copy of this config with ``overrides`` applied.

        Nested fields use dotted keys, e.g. ``scaled(**{"core.invoke_buffer_entries": 8})``
        or plain top-level names, e.g. ``scaled(n_tiles=4)``.
        """
        cfg = dataclasses.replace(self)
        # Deep-copy nested dataclasses so overrides do not alias defaults.
        for name in ("core", "engine", "l1", "l2", "llc", "noc", "memory", "leviathan"):
            setattr(cfg, name, dataclasses.replace(getattr(self, name)))
        for key, value in overrides.items():
            if "." in key:
                obj_name, attr = key.split(".", 1)
                obj = getattr(cfg, obj_name)
                if not hasattr(obj, attr):
                    raise AttributeError(f"unknown config field {key!r}")
                setattr(obj, attr, value)
            else:
                if not hasattr(cfg, key):
                    raise AttributeError(f"unknown config field {key!r}")
                setattr(cfg, key, value)
        cfg.__post_init__()
        return cfg


def _mesh_width(n_tiles):
    """Width of a mesh holding ``n_tiles`` tiles (power of two).

    Perfect squares give square meshes; otherwise the mesh is 2:1
    (e.g. 8 tiles -> 4x2).
    """
    width = 1
    while width * width < n_tiles:
        width *= 2
    if width * width == n_tiles:
        return width
    return width  # n_tiles = width * (width/2); width is the long side


def small_config(**overrides):
    """A small machine for unit tests: 4 tiles, tiny caches.

    Keeping caches tiny makes evictions and capacity effects reachable
    with short unit-test workloads.
    """
    cfg = SystemConfig(
        n_tiles=4,
        core=CoreConfig(invoke_buffer_entries=4),
        engine=EngineConfig(task_contexts=8),
        l1=CacheConfig(size_kb=1, ways=2, tag_latency=1, data_latency=2),
        l2=CacheConfig(size_kb=4, ways=4, tag_latency=2, data_latency=4),
        llc=CacheConfig(size_kb=16, ways=8, tag_latency=3, data_latency=5),
        memory=MemoryConfig(controllers=2),
    )
    return cfg.scaled(**overrides) if overrides else cfg


DEFAULT_CONFIG = SystemConfig()
