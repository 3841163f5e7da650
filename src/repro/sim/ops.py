"""Operations yielded by simulated programs.

A simulated thread (or near-data action) is a Python generator. Each
``yield`` hands the scheduler one operation; the scheduler executes it
against the machine, charges its latency to the yielding context, and
resumes the generator (with the operation's result, if any).

Every operation implements ``execute(machine, ctx) -> latency`` and may
raise :class:`Park` to block the context until an event wakes it. Higher
layers (the Leviathan runtime in :mod:`repro.core`) define additional
operations with the same protocol; the scheduler is agnostic.
"""

from collections import deque
from dataclasses import dataclass, field


class Condition:
    """Something contexts can block on (a future, a queue slot, ...)."""

    __slots__ = ("name", "waiters")

    def __init__(self, name="condition"):
        self.name = name
        #: FIFO of ``(ctx, retry_op)``; a deque so wake_one's popleft is
        #: O(1) even with thousands of parked contexts.
        self.waiters = deque()

    def __repr__(self):
        return f"Condition({self.name}, {len(self.waiters)} waiters)"


class Park(Exception):
    """Raised by an operation to block the yielding context.

    ``retry=True`` re-executes the same operation when the context is
    woken (e.g. an invoke spilled by an engine NACK); ``retry=False``
    resumes the generator with the value passed to ``Machine.wake``
    (e.g. a future's payload).
    """

    def __init__(self, condition, retry=False):
        super().__init__(condition.name)
        self.condition = condition
        self.retry = retry


class Op:
    """Base class for operations (used only for isinstance checks).

    ``result`` is the value the scheduler sends back into the yielding
    generator after executing the op. Most operations produce nothing,
    so it is a class attribute: the scheduler reads ``op.result``
    unconditionally (no per-op ``getattr``), and the few result-bearing
    operations (``WaitFuture``, ``Invoke``) shadow it with an instance
    attribute in their ``execute``.
    """

    __slots__ = ()

    result = None

    def execute(self, machine, ctx):
        raise NotImplementedError


@dataclass(slots=True)
class Compute(Op):
    """Execute ``instructions`` dynamic instructions of pure compute.

    On a core, latency is ``instructions / ipc``; on an engine it is
    ``instructions * pe_latency`` (0 for the idealized engine). Energy is
    charged per instruction at the executing resource's cost.
    """

    instructions: int = 1

    def execute(self, machine, ctx):
        # Body of Machine.compute_latency, inlined: Compute is the
        # single most frequent operation and the trampoline call frame
        # was a measurable share of the step loop.
        instructions = self.instructions
        if instructions <= 0:
            return 0.0
        if ctx.is_engine:
            machine.stats.counters["engine.instructions"] += instructions
            engine = machine._engine_cfg
            if engine.ideal:
                return 0.0
            return instructions * engine.pe_latency / engine.issue_width
        machine.stats.counters["core.instructions"] += instructions
        return instructions / machine._core_cfg.ipc


@dataclass(slots=True)
class Branch(Op):
    """A conditional branch; mispredictions cost pipeline refill time.

    Engines (dataflow fabrics) do not speculate, so mispredictions are
    only charged on cores -- this is exactly the effect Fig. 21's
    misprediction plot reports.
    """

    mispredicted: bool = False

    def execute(self, machine, ctx):
        latency = machine.compute_latency(ctx, 1)
        if not ctx.is_engine and self.mispredicted:
            machine.stats.add("core.branch_mispredictions")
            latency += machine.config.core.branch_miss_penalty
        return latency


@dataclass(slots=True)
class Load(Op):
    """Load ``size`` bytes at ``addr``.

    ``apply`` (optional, zero-argument callable) runs atomically with
    the access -- after the cache access (and any constructor it
    triggered), before any other context can run. Use it for functional
    reads that must be consistent with cache state.
    """

    addr: int
    size: int = 8
    apply: object = field(default=None, compare=False)

    def execute(self, machine, ctx):
        return machine.hierarchy.access_latency(
            ctx.tile,
            self.addr,
            self.size,
            False,
            ctx.is_engine,
            self.apply,
            ctx.near_memory,
        )


@dataclass(slots=True)
class Store(Op):
    """Store ``size`` bytes at ``addr``.

    ``apply`` runs atomically with the access (see :class:`Load`); use
    it for the functional side of the store, so concurrent evictions and
    constructions on other contexts observe a consistent value.
    """

    addr: int
    size: int = 8
    apply: object = field(default=None, compare=False)

    def execute(self, machine, ctx):
        return machine.hierarchy.access_latency(
            ctx.tile,
            self.addr,
            self.size,
            True,
            ctx.is_engine,
            self.apply,
            ctx.near_memory,
        )


@dataclass(slots=True)
class AtomicRMW(Op):
    """An atomic read-modify-write on ``size`` bytes at ``addr``.

    ``fenced=True`` models a conventional x86 locked RMW, which
    serializes the core (Sec. IV-D: "fences serialize memory accesses
    and impose a severe performance penalty"). ``fenced=False`` models
    relaxed atomics [9, 70], the crutch tākō needs to approximate RMOs.
    """

    addr: int
    size: int = 8
    fenced: bool = True
    apply: object = field(default=None, compare=False)

    def execute(self, machine, ctx):
        latency = machine.hierarchy.access_latency(
            ctx.tile,
            self.addr,
            self.size,
            True,
            ctx.is_engine,
            self.apply,
            ctx.near_memory,
        )
        machine.stats.add("core.atomics" if not ctx.is_engine else "engine.atomics")
        if self.fenced and not ctx.is_engine:
            machine.stats.add("core.fences")
            latency += machine.config.core.fence_penalty
        return latency


@dataclass(slots=True)
class Fence(Op):
    """A full memory fence on a core."""

    def execute(self, machine, ctx):
        if ctx.is_engine:
            return 0
        machine.stats.add("core.fences")
        return machine.config.core.fence_penalty


@dataclass(slots=True)
class Sleep(Op):
    """Advance the context's local clock by ``cycles`` without work."""

    cycles: int

    def execute(self, machine, ctx):
        return max(0, int(self.cycles))


@dataclass(slots=True)
class SetPhase(Op):
    """Mark entry into a named execution phase for per-phase stats."""

    phase: object = None

    def execute(self, machine, ctx):
        machine.stats.set_phase(self.phase)
        return 0


@dataclass(slots=True)
class Wait(Op):
    """Block until ``condition`` is signalled; resumes with the wake value."""

    condition: Condition

    def execute(self, machine, ctx):
        raise Park(self.condition)


@dataclass(slots=True)
class Prefetch(Op):
    """A software prefetch hint: warms caches without blocking.

    The requester is charged only issue cost; events are accounted.
    """

    addr: int
    size: int = 64

    def execute(self, machine, ctx):
        machine.hierarchy.access_latency(
            ctx.tile, self.addr, self.size, False, ctx.is_engine
        )
        return 1
