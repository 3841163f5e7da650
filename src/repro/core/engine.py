"""Near-cache engines (Sec. VI-A1).

One engine per tile, co-located with the tile's L2 and LLC bank (the
paper models engines at both; a single engine per tile serves both
roles here, as the timing difference is intra-tile). The engine is a
dataflow fabric executing application actions:

- **compute timing**: single-issue, ``pe_latency`` per instruction
  (0-latency and energy-free in the *ideal* configuration);
- **task contexts**: a finite task-context buffer, split evenly between
  offloaded and data-triggered actions to prevent deadlock;
- **backpressure**: offloads arriving at a full engine are NACKed back
  to the invoking core (counted; the spill traffic is accounted) and
  queue for the next free context.

Engines access memory through their own small coherent L1d (modeled in
the hierarchy as a per-tile ``engine_l1``) and share the tile's L2.
"""

from collections import OrderedDict, deque

from repro.sim.events import EngineFailed, EngineTask, EngineTaskDone, EngineTaskStart
from repro.sim.ops import Condition

#: Payload bytes of a NACK/spill control message.
NACK_BYTES = 8

#: Cycles to refill an rTLB entry (page-table walk assist).
RTLB_MISS_PENALTY = 20


class Engine:
    """One tile's near-data engine."""

    def __init__(self, runtime, tile):
        self.runtime = runtime
        self.machine = runtime.machine
        self.tile = tile
        cfg = self.machine.config.engine
        self.config = cfg
        #: Offload task contexts in use (data-triggered actions run
        #: inline at cache fills and use the other half of the buffer).
        self.busy_offload = 0
        self._queue = deque()
        self.context_freed = Condition(f"engine{tile}.context")
        #: Fault state (:mod:`repro.sim.faults`). A *failed* engine is
        #: fail-stop for new work: in-flight tasks complete, spill-queued
        #: tasks are rerouted, and every later arrival degrades
        #: (Sec. VI-C). Stall/exhaustion windows make the engine NACK
        #: arrivals until the window closes.
        self.failed = False
        self.failed_at = None
        self._stalled_until = 0.0
        self._exhausted_until = 0.0
        #: Offload task contexts (unbounded in the *ideal* engine). The
        #: configuration is fixed for the machine's life, so the limit
        #: every offer checks against is resolved once.
        self.offload_capacity = (
            float("inf") if cfg.ideal else cfg.offload_contexts
        )
        #: Reverse TLB (Sec. VI-A1): translates cached physical lines
        #: back to virtual addresses before data-triggered actions run.
        #: LRU over pages; misses pay a refill penalty.
        self._rtlb = OrderedDict()

    # ------------------------------------------------------------------
    # rTLB
    # ------------------------------------------------------------------
    def rtlb_lookup(self, page):
        """Translate a physical page for a data-triggered action.

        Returns the added latency (0 on a hit, the refill penalty on a
        miss). The rTLB holds ``rtlb_entries`` pages, LRU-replaced.
        """
        self.machine.stats.add("engine.rtlb_lookups")
        if page in self._rtlb:
            self._rtlb.move_to_end(page)
            return 0
        self.machine.stats.add("engine.rtlb_misses")
        self._rtlb[page] = True
        while len(self._rtlb) > self.config.rtlb_entries:
            self._rtlb.popitem(last=False)
        return 0 if self.config.ideal else RTLB_MISS_PENALTY

    def accepting(self, at_time):
        """True when a task arriving at ``at_time`` can take a context.

        With no fault state this is whether an offload context is free;
        a failed engine never accepts, and stall/exhaustion windows
        NACK every arrival inside them.
        """
        if self.failed:
            return False
        if at_time < self._stalled_until or at_time < self._exhausted_until:
            return False
        return self.busy_offload < self.offload_capacity

    # ------------------------------------------------------------------
    # fault state (driven by repro.sim.faults)
    # ------------------------------------------------------------------
    def fail(self, at_time=0.0):
        """Mark the engine failed (fail-stop for new work).

        In-flight tasks run to completion; spill-queued tasks have not
        started and are bounced to a healthy engine (or to on-core
        execution when none remains).
        """
        if self.failed:
            return
        self.failed = True
        self.failed_at = at_time
        machine = self.machine
        machine.stats.add("faults.engine_failures")
        if machine.events.active:
            machine.events.emit(EngineFailed(self.tile, at_time))
        pending, self._queue = list(self._queue), deque()
        for task in pending:
            self.runtime.reroute_task(self, task, at_time)
        # Waiters on context_freed will never get one here.
        machine.scheduler.wake_all(self.context_freed)

    def stall(self, until):
        """NACK every offload arriving before ``until`` (transient stall)."""
        self._stalled_until = max(self._stalled_until, until)

    def exhaust(self, until):
        """Model task-context-buffer exhaustion until ``until``."""
        self._exhausted_until = max(self._exhausted_until, until)

    def kick(self, at_time=None):
        """Drain the spill queue while contexts are free.

        Called at the end of a stall/exhaustion window: queued tasks are
        normally re-accepted by ``_release`` when a context frees, but a
        window can leave free contexts *and* a non-empty queue with no
        completion event to trigger acceptance.
        """
        at_time = self.machine.now if at_time is None else at_time
        while self._queue and self.accepting(at_time):
            self._accept(self._queue.popleft(), at_time)

    # ------------------------------------------------------------------
    # task submission
    # ------------------------------------------------------------------
    def submit(self, program, at_time, name, on_accept=None, on_complete=None, near_memory=False, cid=None):
        """Submit an offloaded task arriving at ``at_time``.

        If a task context is free the task is accepted immediately;
        otherwise the engine NACKs (accounted as spill traffic back to
        the invoker) and the task waits for the next free context.
        Returns True when accepted without a NACK. ``cid`` is the
        invoke's correlation ID, echoed on every task-lifecycle event.
        """
        task = _PendingTask(program, name, on_accept, on_complete, near_memory, cid)
        if self.offer(task, at_time):
            return True
        self.machine.stats.add("engine.nacks")
        self._queue.append(task)
        if self.machine.emit_lifecycle:
            self.machine.events.emit(
                EngineTask(self.tile, name, False, cid, at_time, len(self._queue))
            )
        return False

    def make_task(self, program, name, on_accept=None, on_complete=None, near_memory=False, cid=None):
        """Build a pending task for :meth:`offer` (bounded-retry mode)."""
        return _PendingTask(program, name, on_accept, on_complete, near_memory, cid)

    def offer(self, task, at_time):
        """Accept ``task`` if possible at ``at_time``; never queues.

        The retry path uses this directly: a rejected offer leaves the
        task with the caller (the invoking core's retry loop), unlike
        :meth:`submit` which parks rejected tasks in the spill queue.
        """
        if self.accepting(at_time):
            if self.machine.emit_lifecycle:
                self.machine.events.emit(
                    EngineTask(self.tile, task.name, True, task.cid, at_time, len(self._queue))
                )
            self._accept(task, at_time)
            return True
        return False

    def nack(self, task, at_time):
        """Account a NACK for a task the invoker will retry itself."""
        self.machine.stats.add("engine.nacks")
        if self.machine.emit_lifecycle:
            self.machine.events.emit(
                EngineTask(self.tile, task.name, False, task.cid, at_time, len(self._queue))
            )

    def _accept(self, task, at_time):
        machine = self.machine
        self.busy_offload += 1
        machine.stats.counters["engine.tasks"] += 1
        if machine.emit_lifecycle:
            machine.events.emit(
                EngineTaskStart(self.tile, task.name, task.cid, at_time)
            )
        if task.on_accept is not None:
            task.on_accept(at_time)
        # The action program runs as the context itself; completion
        # handling hangs off the context's ``on_done`` callbacks, so no
        # wrapper generator adds a frame to every resumption.
        ctx = machine.scheduler.spawn(
            task.program,
            self.tile,
            name=task.name,
            is_engine=True,
            engine=self,
            at_time=at_time,
        )
        ctx.near_memory = task.near_memory
        ctx.cid = task.cid
        task.engine = self
        ctx.on_done.append(task.finish)
        return ctx

    def _release(self):
        self.busy_offload -= 1
        if self._queue and self.accepting(self.machine.now):
            task = self._queue.popleft()
            # The queued task starts when the context frees (now).
            self._accept(task, self.machine.now)
        elif self.context_freed.waiters:
            self.machine.scheduler.wake_all(self.context_freed)

    @property
    def queued_tasks(self):
        return len(self._queue)

    def __repr__(self):
        state = ", FAILED" if self.failed else ""
        return (
            f"Engine(tile{self.tile}, busy={self.busy_offload}/"
            f"{self.offload_capacity}, queued={self.queued_tasks}{state})"
        )


class _PendingTask:
    """An offloaded action program and its completion callbacks."""

    __slots__ = (
        "program", "name", "on_accept", "on_complete", "near_memory", "cid", "engine"
    )

    def __init__(self, program, name, on_accept, on_complete, near_memory=False, cid=None):
        self.program = program
        self.name = name
        self.on_accept = on_accept
        self.on_complete = on_complete
        self.near_memory = near_memory
        self.cid = cid
        #: The engine whose task context runs the program (set on accept).
        self.engine = None

    def finish(self, machine, ctx):
        """``on_done`` callback: the program returned on ``engine``.

        Frees the task context (which may start a queued task), then
        hands the program's return value to ``on_complete``.
        """
        engine = self.engine
        if machine.emit_lifecycle:
            machine.events.emit(
                EngineTaskDone(engine.tile, self.name, self.cid, ctx.time)
            )
        engine._release()
        if self.on_complete is not None:
            self.on_complete(ctx.result)
