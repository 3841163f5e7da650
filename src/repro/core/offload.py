"""Task offload and long-lived workloads (Sec. V-B1, VI-B1).

``invoke`` is the single interface for both paradigms: a core (or
another action) explicitly triggers an action near an actor. The
important microarchitecture reproduced here:

- **Placement.** LOCAL runs on the invoker's tile engine; REMOTE on the
  engine at the actor's LLC bank; DYNAMIC probes the hierarchy -- if the
  actor is in the invoker's L1 the action runs right at the core, if in
  the local L2 on the local engine, otherwise at the LLC bank (and, with
  the EXCLUSIVE hint, at whichever remote L2 owns the line).
- **Migration.** One in ``migration_period`` DYNAMIC tasks that would
  run remotely runs locally instead, pulling hot actors up the
  hierarchy.
- **Backpressure.** Invokes without futures occupy an entry in the
  per-core invoke buffer until an engine accepts the task; engines with
  no free task context NACK, spilling the task back (extra NoC traffic)
  until a context frees. Cores stall when the invoke buffer is full --
  the queueing effect Fig. 22 sweeps.
"""

import enum
from dataclasses import dataclass, field

from repro.core.engine import NACK_BYTES
from repro.core.future import Future
from repro.sim.events import (
    DegradedToFallback,
    EngineTaskDone,
    EngineTaskStart,
    InvokeDispatched,
    InvokeRetried,
    InvokeStalled,
)
from repro.sim.ops import Condition, Op, Park, Sleep

#: Base packet bytes for an invoke: actor pointer + function pointer + flags.
INVOKE_HEADER_BYTES = 17


class InvokeTimeout(RuntimeError):
    """A NACKed invoke exhausted its bounded retries.

    Only raised in bounded-retry mode (``core.invoke_max_retries`` set):
    the engine NACKed the invoke on every re-send, so the task cannot be
    placed and the simulation surfaces a typed error instead of queueing
    forever.
    """


class Location(enum.Enum):
    """Where an offloaded task executes (Sec. V-B1)."""

    LOCAL = "local"
    REMOTE = "remote"
    DYNAMIC = "dynamic"


class InvokeBuffer:
    """Per-core buffer of in-flight (un-ACKed) invokes.

    Entries drain at their *simulated* ACK time (the engine's
    acceptance), not when the acceptance is computed -- a core issuing
    faster than the NoC/engines can ACK fills the buffer and stalls,
    which is the queueing effect Fig. 22 sweeps.
    """

    def __init__(self, machine, tile, entries):
        self.machine = machine
        self.tile = tile
        self.entries = entries
        #: One ACK timestamp per in-flight invoke (None until accepted).
        self._acks = []
        self.slot_freed = Condition(f"invoke_buffer{tile}")

    def _prune(self, now):
        self._acks = [s for s in self._acks if s[0] is None or s[0] > now]

    def full(self, now):
        self._prune(now)
        return len(self._acks) >= self.entries

    @property
    def in_flight(self):
        return len(self._acks)

    def acquire(self, now):
        """Reserve a slot; returns a handle for :meth:`release`."""
        self._prune(now)
        slot = [None]
        self._acks.append(slot)
        self.machine.stats.counters["invoke.buffered"] += 1
        return slot

    def earliest_ack(self, now):
        """The soonest known ACK time after ``now`` (None if all pending)."""
        times = [s[0] for s in self._acks if s[0] is not None and s[0] > now]
        return min(times) if times else None

    def release(self, slot, at_time):
        """Record the slot's ACK time and wake any stalled invokes."""
        slot[0] = at_time
        if self.slot_freed.waiters:
            self.machine.scheduler.wake_all(self.slot_freed, at_time=at_time)


@dataclass
class Invoke(Op):
    """Offload ``action`` to execute near ``actor``.

    Parameters mirror Fig. 9: ``location`` (default DYNAMIC) and the
    EXCLUSIVE write hint. ``with_future=True`` allocates a Future that
    is filled with the action's return value (a non-None return fills
    the attached future; chained continuation-passing invokes pass the
    caller's ``future`` along and return None themselves).

    ``tile`` pins execution to a specific tile (used by long-lived
    workloads that request a location low in the hierarchy).
    """

    actor: object
    action: str
    args: tuple = ()
    location: Location = Location.DYNAMIC
    exclusive: bool = False
    with_future: bool = False
    future: Future = None
    tile: int = None
    args_bytes: int = 8
    result: object = field(default=None, compare=False)
    #: Correlation ID for span tracing. Allocated on first execution
    #: while ``machine.emit_lifecycle`` is set and reused across park/retry
    #: re-executions, so one invoke is one span no matter how often a
    #: full buffer bounces it.
    cid: int = field(default=None, compare=False)

    def execute(self, machine, ctx):
        runtime = machine.leviathan
        if runtime is None:
            raise RuntimeError("invoke requires a Leviathan runtime on the machine")
        counters = machine.stats.counters
        counters["invoke.issued"] += 1

        future = self.future
        if self.with_future:
            if future is not None:
                raise ValueError("with_future=True conflicts with an explicit future")
            future = Future(machine, ctx.tile)
        self.result = future

        target, inline_at_core, near_memory = self._place(machine, runtime, ctx)
        cid = self.cid
        lifecycle = machine.emit_lifecycle
        if lifecycle:
            if cid is None:
                cid = self.cid = machine.next_cid()
            # Claim the future for this span: FutureFilled events carry
            # the cid of the invoke the future was first attached to, so
            # continuation-passing re-invokes do not own the fill.
            owns_future = False
            if future is not None:
                if future.cid is None:
                    future.cid = cid
                owns_future = future.cid == cid
            machine.events.emit(
                InvokeDispatched(
                    ctx.tile,
                    target,
                    self.action,
                    self.location.value,
                    inline_at_core,
                    near_memory,
                    cid=cid,
                    time=ctx.time,
                    owns_future=owns_future,
                )
            )

        # The action generator; actions receive the runtime as ``env``.
        program = self.actor.action_fn(self.action)(runtime, *self.args)

        if inline_at_core:
            # DYNAMIC with the actor in the invoker's L1: run right here.
            counters["invoke.inline_at_core"] += 1
            name = f"{self.action}@core"
            if lifecycle:
                machine.events.emit(EngineTaskStart(ctx.tile, name, cid, ctx.time))
            latency, value = machine.run_inline(
                program, ctx.tile, is_engine=ctx.is_engine, name=name
            )
            if future is not None and value is not None:
                future.fill(value, from_tile=ctx.tile)
            if lifecycle:
                machine.events.emit(
                    EngineTaskDone(ctx.tile, name, cid, ctx.time + latency)
                )
            return latency

        if runtime.engines[target].failed:
            # Sec. VI-C degradation: DYNAMIC placement reroutes to the
            # nearest healthy engine; pinned/LOCAL/REMOTE invokes are
            # tied to the dead tile and fall back to on-core execution.
            machine.stats.add("invoke.degraded")
            fallback = None
            if self.tile is None and self.location is Location.DYNAMIC:
                fallback = runtime.healthy_engine_near(target)
            if fallback is None:
                if machine.events.active:
                    machine.events.emit(
                        DegradedToFallback(
                            "on-core", target, ctx.tile, self.action, cid, ctx.time
                        )
                    )
                return self._run_on_core(machine, ctx, program, future, cid)
            if machine.events.active:
                machine.events.emit(
                    DegradedToFallback(
                        "reroute", target, fallback.tile, self.action, cid, ctx.time
                    )
                )
            machine.stats.add("invoke.rerouted")
            target = fallback.tile

        buffer = None
        slot = None
        stall = 0.0
        if future is None and not ctx.is_engine and not ctx.inline:
            buffer = runtime.invoke_buffers[ctx.tile]
            if buffer.full(ctx.time):
                machine.stats.add("invoke.stalls")
                ack = buffer.earliest_ack(ctx.time)
                if ack is None:
                    # Every slot is waiting on a NACKed engine: the
                    # release (and its wake) arrives later in simulated
                    # time, so park until it does.
                    if lifecycle:
                        machine.events.emit(
                            InvokeStalled(ctx.tile, self.action, cid, ctx.time, None)
                        )
                    raise Park(buffer.slot_freed, retry=True)
                # The next ACK time is known: stall the core until then.
                stall = ack - ctx.time
                if lifecycle:
                    machine.events.emit(
                        InvokeStalled(ctx.tile, self.action, cid, ctx.time, stall)
                    )
            slot = buffer.acquire(ctx.time + stall)

        packet_bytes = INVOKE_HEADER_BYTES + self.args_bytes
        transit = machine.hierarchy.noc.send(ctx.tile, target, packet_bytes)
        arrival = ctx.time + stall + 1 + transit

        engine = runtime.engines[target]
        # Completion callbacks only where a buffer slot or a future
        # needs one; the engine skips a None callback.
        on_accept = on_complete = None
        if buffer is not None:

            def on_accept(at_time, _buffer=buffer, _slot=slot):
                _buffer.release(_slot, at_time)

        if future is not None:

            def on_complete(value, _future=future, _tile=engine.tile):
                if value is not None:
                    _future.fill(value, from_tile=_tile)

        max_retries = machine.config.core.invoke_max_retries
        if max_retries is None:
            # The paper's unbounded spill-and-retry: NACKed tasks wait in
            # the engine's queue until a context frees.
            accepted = engine.submit(
                program,
                arrival,
                name=f"{self.action}@tile{target}",
                on_accept=on_accept,
                on_complete=on_complete,
                near_memory=near_memory,
                cid=cid,
            )
            if not accepted:
                # Spill traffic: the NACK back to the core and the re-send.
                machine.stats.add("invoke.retries")
                machine.stats.add("invoke.spill_bytes", NACK_BYTES)
                machine.hierarchy.noc.send(target, ctx.tile, NACK_BYTES)
                machine.hierarchy.noc.send(ctx.tile, target, packet_bytes)
            return stall + 1

        # Bounded-retry mode: a NACKed task stays with the invoker, which
        # re-sends after an exponential backoff and gives up with a typed
        # InvokeTimeout after max_retries failed attempts.
        task = engine.make_task(
            program,
            name=f"{self.action}@tile{target}",
            on_accept=on_accept,
            on_complete=on_complete,
            near_memory=near_memory,
            cid=cid,
        )
        if not engine.offer(task, arrival):
            engine.nack(task, arrival)
            machine.stats.add("invoke.spill_bytes", NACK_BYTES)
            machine.hierarchy.noc.send(target, ctx.tile, NACK_BYTES)
            machine.spawn(
                self._retry_shuttle(machine, runtime, task, target, ctx.tile, packet_bytes),
                tile=ctx.tile,
                name=f"retry:{self.action}",
                at_time=arrival,
            )
        return stall + 1

    def _retry_shuttle(self, machine, runtime, task, target, src, packet_bytes):
        """Bounded NACK retry loop (runs as a core-side context).

        Each attempt waits the backoff, re-sends the invoke packet, and
        offers the task again; the backoff grows by
        ``invoke_retry_backoff`` per failed attempt. A target that fails
        mid-retry degrades like the initial dispatch (reroute for
        DYNAMIC, on-core otherwise).
        """
        cfg = machine.config.core
        noc = machine.hierarchy.noc
        backoff = float(cfg.invoke_retry_delay)
        for attempt in range(1, cfg.invoke_max_retries + 1):
            yield Sleep(backoff)
            engine = runtime.engines[target]
            if engine.failed:
                machine.stats.add("invoke.degraded")
                fallback = None
                if self.tile is None and self.location is Location.DYNAMIC:
                    fallback = runtime.healthy_engine_near(target)
                if fallback is None:
                    if machine.events.active:
                        machine.events.emit(
                            DegradedToFallback(
                                "on-core", target, src, self.action,
                                task.cid, machine.sim_time(),
                            )
                        )
                    runtime.run_task_on_core(task, src)
                    return
                if machine.events.active:
                    machine.events.emit(
                        DegradedToFallback(
                            "reroute", target, fallback.tile, self.action,
                            task.cid, machine.sim_time(),
                        )
                    )
                machine.stats.add("invoke.rerouted")
                target = fallback.tile
                engine = fallback
            machine.stats.add("invoke.retries")
            resend = noc.send(src, target, packet_bytes)
            if machine.events.active:
                machine.events.emit(
                    InvokeRetried(
                        src, target, self.action, attempt, backoff,
                        task.cid, machine.sim_time(),
                    )
                )
            yield Sleep(1 + resend)
            if engine.offer(task, machine.sim_time()):
                return
            engine.nack(task, machine.sim_time())
            machine.stats.add("invoke.spill_bytes", NACK_BYTES)
            noc.send(target, src, NACK_BYTES)
            backoff *= cfg.invoke_retry_backoff
        raise InvokeTimeout(
            f"invoke {self.action!r} to tile {target} NACKed past "
            f"{cfg.invoke_max_retries} retries (task contexts exhausted); "
            f"last backoff {backoff:.0f} cycles"
        )

    def _run_on_core(self, machine, ctx, program, future, cid):
        """Sec. VI-C on-core fallback for an invoke whose engine failed."""
        machine.stats.add("invoke.on_core_fallbacks")
        name = f"{self.action}@core-fallback"
        if machine.emit_lifecycle:
            machine.events.emit(EngineTaskStart(ctx.tile, name, cid, ctx.time))
        latency, value = machine.run_inline(
            program, ctx.tile, is_engine=False, name=name
        )
        if future is not None and value is not None:
            future.fill(value, from_tile=ctx.tile)
        if machine.emit_lifecycle:
            machine.events.emit(EngineTaskDone(ctx.tile, name, cid, ctx.time + latency))
        return latency

    # ------------------------------------------------------------------
    def _place(self, machine, runtime, ctx):
        """Choose the executing tile.

        Returns ``(tile, inline_at_core, near_memory)``.
        """
        hierarchy = machine.hierarchy
        line = self.actor.addr // hierarchy.line_size

        if self.tile is not None:
            return self.tile, False, False
        if self.location is Location.LOCAL:
            return ctx.tile, False, False
        if self.location is Location.REMOTE:
            return hierarchy.bank_of(line), False, False

        # DYNAMIC: probe down the hierarchy (Sec. VI-B1).
        if hierarchy.l1[ctx.tile].contains(line) or (
            ctx.is_engine and hierarchy.engine_l1[ctx.tile].contains(line)
        ):
            return ctx.tile, True, False
        if hierarchy.l2[ctx.tile].contains(line) or hierarchy.engine_l1[
            ctx.tile
        ].contains(line):
            # Cached on this tile (core L2 or the engine's L1d, e.g.
            # after a migration pulled the actor up): local engine.
            machine.stats.counters["invoke.local_engine"] += 1
            return ctx.tile, False, False
        target = hierarchy.bank_of(line)
        near_memory = False
        if self.exclusive:
            owner = hierarchy.owner_of(line)
            if owner is not None:
                target = owner
        elif (
            machine.config.leviathan.near_memory_engines
            and not hierarchy.llc_has(line)
        ):
            # Near-memory extension (Sec. IX): the actor is not cached
            # anywhere, so run at the engine beside its memory
            # controller and read DRAM over zero NoC distance.
            dram_line = hierarchy.hooks.translate(line)[0]
            target = hierarchy.mem.controller_tile(dram_line)
            near_memory = True
            machine.stats.add("invoke.near_memory")
        if target != ctx.tile:
            runtime.migration_ticks += 1
            if runtime.migration_ticks % machine.config.leviathan.migration_period == 0:
                machine.stats.counters["invoke.migrations"] += 1
                return ctx.tile, False, False
            machine.stats.counters["invoke.remote"] += 1
        return target, False, near_memory
