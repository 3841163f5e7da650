"""Timestamp-ordered interleaving of simulated contexts.

Two interchangeable scheduler implementations produce bit-identical
schedules:

- :class:`Scheduler`, the one every :class:`~repro.sim.system.Machine`
  builds: a calendar queue. Runnable contexts are batched into
  per-timestamp *run lists* (a dict of FIFO lists keyed by time, plus a
  small heap of distinct timestamps). Draining a run list executes every same-time context
  back to back without re-heapifying per operation, and the inner
  execute loop is inlined into :meth:`Scheduler.run` with the watchdog
  counter and resume bookkeeping hoisted into locals -- this loop is
  the hottest code in the simulator.
- :class:`HeapScheduler`: the original per-entry binary heap of
  ``(time, seq, ctx)`` tuples, kept as the executable reference for
  the determinism contract (tests substitute it for ``Scheduler`` and
  compare schedules).

Ordering contract (both schedulers): contexts run in timestamp order;
ties are broken by enqueue order (spawn order at t=0); a running context
keeps running while its local time has not passed the earliest pending
context's time. Contexts block by raising
:class:`~repro.sim.ops.Park`; :meth:`Scheduler.wake_one` /
:meth:`Scheduler.wake_all` make them runnable again, either retrying
the blocked operation or resuming the generator with a wake value.

The model is deterministic: no randomness exists outside explicitly
seeded workload generators.
"""

import heapq

from repro.sim.events import WatchdogFired
from repro.sim.ops import Op, Park
from repro.sim.telemetry.log import get_logger
from repro.sim.thread import Context

_log = get_logger("scheduler")


class SimDeadlock(RuntimeError):
    """No context is runnable but some are still parked."""


class DeadlockError(SimDeadlock):
    """The simulation cannot make progress.

    Raised in two situations, both with a diagnostic dump of every
    parked context, its awaited condition, and the in-flight work
    visible to the runtime:

    - the run queue drained while contexts were still parked (a
      condition that is never signaled -- the classic lost-wakeup
      deadlock);
    - the watchdog counted ``watchdog_steps`` consecutive operations
      without simulated time advancing (a livelock: zero-latency spin,
      or park/wake ping-pong at a frozen timestamp), which previously
      hung ``machine.run()`` forever.

    Subclasses :class:`SimDeadlock` so existing handlers keep working.

    Instances carry structured post-mortem state: ``kind`` is
    ``"drained"`` or ``"watchdog"``, and ``snapshot`` is the
    :meth:`~repro.sim.system.Machine.stall_snapshot` dict captured at
    raise time (what the flight recorder persists in
    ``postmortem.json``).
    """

    kind = "deadlock"
    snapshot = None


class Scheduler:
    """The run-list (calendar-queue) scheduler -- the default."""

    __slots__ = (
        "machine",
        "_buckets",
        "_times",
        "_n_live",
        "_parked",
        "now",
        "current",
        "watchdog_steps",
        "_no_progress_ops",
    )

    def __init__(self, machine):
        self.machine = machine
        #: time -> FIFO list of contexts runnable at that time. A bucket
        #: is popped from the dict before it is drained, so same-time
        #: contexts enqueued *during* the drain open a fresh bucket that
        #: drains afterwards -- exactly the heap's seq-order tie-break.
        self._buckets = {}
        #: Min-heap of the distinct timestamps that have a live bucket.
        self._times = []
        self._n_live = 0
        self._parked = set()
        self.now = 0.0
        self.current = None
        #: Watchdog threshold (0 disables): consecutive zero-latency
        #: operations tolerated before declaring a no-progress cycle.
        #: Counted inside the run loop because a single spinning context
        #: with an empty queue never returns to the outer loop.
        self.watchdog_steps = machine.config.watchdog_steps or 0
        self._no_progress_ops = 0

    # ------------------------------------------------------------------
    # spawning and queueing
    # ------------------------------------------------------------------
    def spawn(self, program, tile, name=None, is_engine=False, engine=None, at_time=None):
        """Create and enqueue a context running ``program`` on ``tile``."""
        start = self.now if at_time is None else at_time
        ctx = Context(
            program, tile, name=name, is_engine=is_engine, engine=engine, at_time=start
        )
        self._n_live += 1
        self._enqueue(ctx)
        return ctx

    def _enqueue(self, ctx):
        """Append ``ctx`` to the run list for its local time."""
        time = ctx.time
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [ctx]
            heapq.heappush(self._times, time)
        else:
            bucket.append(ctx)

    # ------------------------------------------------------------------
    # blocking / waking
    # ------------------------------------------------------------------
    def park(self, ctx, condition, retry_op=None):
        ctx.parked_on = condition
        condition.waiters.append((ctx, retry_op))
        self._parked.add(ctx)

    def wake_all(self, condition, value=None, at_time=None):
        """Wake every waiter on ``condition``."""
        waiters, condition.waiters = condition.waiters, type(condition.waiters)()
        for ctx, retry_op in waiters:
            self._wake(ctx, retry_op, value, at_time)
        return len(waiters)

    def wake_one(self, condition, value=None, at_time=None):
        """Wake the longest-waiting waiter on ``condition`` (if any)."""
        if not condition.waiters:
            return 0
        ctx, retry_op = condition.waiters.popleft()
        self._wake(ctx, retry_op, value, at_time)
        return 1

    def _wake(self, ctx, retry_op, value, at_time):
        ctx.parked_on = None
        self._parked.discard(ctx)
        wake_time = self.now if at_time is None else at_time
        if wake_time > ctx.time:
            ctx.time = wake_time
        ctx.send_value = value
        ctx.retry_op = retry_op
        self._enqueue(ctx)

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------
    def run(self):
        """Run until every context has finished; returns the final time.

        Raises :class:`DeadlockError` when no progress is possible:
        either every runnable context drained while some were parked,
        or the watchdog saw ``watchdog_steps`` consecutive operations
        without simulated time advancing.

        The body is deliberately one large inlined loop: the per-op
        dispatch previously paid a method call, a ``_Resume``
        allocation, a ``getattr`` for the op result, and two watchdog
        method calls; all of that state now lives in locals, and
        contexts sharing a timestamp drain from one run list without
        touching the heap at all.
        """
        machine = self.machine
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        heappush = heapq.heappush
        wd = self.watchdog_steps
        spin = self._no_progress_ops
        while times:
            t = heappop(times)
            bucket = buckets.pop(t, None)
            if bucket is None:
                continue
            if t > self.now:
                self.now = t
                # Simulated time advanced: the machine is making progress.
                spin = 0
            i = 0
            n = len(bucket)
            while i < n:
                # A wake during the drain may target an *earlier* time
                # (explicit at_time): yield to it, parking the rest of
                # this bucket ahead of any newer same-time arrivals.
                if times and times[0] < t:
                    rest = bucket[i:]
                    newer = buckets.get(t)
                    if newer is None:
                        buckets[t] = rest
                        heappush(times, t)
                    else:
                        buckets[t] = rest + newer
                    break
                ctx = bucket[i]
                i += 1
                if ctx.done:
                    continue
                self.current = ctx
                op = ctx.retry_op
                send_value = ctx.send_value
                send = ctx.send
                while True:
                    if op is None:
                        try:
                            op = send(send_value)
                        except StopIteration as stop:
                            ctx.done = True
                            ctx.result = getattr(stop, "value", None)
                            self._n_live -= 1
                            for callback in ctx.on_done:
                                callback(machine, ctx)
                            break
                        send_value = None
                        if not isinstance(op, Op):
                            raise TypeError(
                                f"{ctx.name} yielded {op!r}, which is not an Op"
                            )
                    try:
                        latency = op.execute(machine, ctx)
                    except Park as parked:
                        condition = parked.condition
                        retry = op if parked.retry else None
                        ctx.parked_on = condition
                        condition.waiters.append((ctx, retry))
                        self._parked.add(ctx)
                        if wd:
                            spin += 1
                            if spin >= wd:
                                self._no_progress_ops = spin
                                self._watchdog_fire()
                        break
                    if latency:
                        spin = 0
                    elif wd:
                        spin += 1
                        if spin >= wd:
                            self._no_progress_ops = spin
                            self._watchdog_fire()
                    ctx.time = ctx_time = ctx.time + latency
                    send_value = op.result
                    op = None
                    # Keep running this context while it is still the
                    # earliest; otherwise requeue it and move on.
                    if i < n:
                        limit = t if not times or t <= times[0] else times[0]
                    elif times:
                        limit = times[0]
                    else:
                        limit = None
                    if limit is not None and ctx_time > limit:
                        ctx.send_value = send_value
                        ctx.retry_op = None
                        requeued = buckets.get(ctx_time)
                        if requeued is None:
                            buckets[ctx_time] = [ctx]
                            heappush(times, ctx_time)
                        else:
                            requeued.append(ctx)
                        break
                    if ctx_time > self.now:
                        self.now = ctx_time
        self.current = None
        self._no_progress_ops = spin
        if self._parked:
            self._raise_drained_deadlock()
        return self.now

    # ------------------------------------------------------------------
    # deadlock surfacing (both raise paths emit WatchdogFired, so the
    # flight recorder and span trackers see every deadlock, not just
    # watchdog-detected livelocks)
    # ------------------------------------------------------------------
    def _raise_drained_deadlock(self):
        """The run queue drained with contexts still parked."""
        machine = self.machine
        machine.stats.add("deadlock.drained")
        if machine.events.active:
            machine.events.emit(
                WatchdogFired(self._no_progress_ops, self.now, len(self._parked))
            )
        snapshot = machine.stall_snapshot()
        _log.error(
            "scheduler.deadlock",
            extra={
                "kind": "drained",
                "sim_time": self.now,
                "parked": len(self._parked),
            },
        )
        error = DeadlockError(
            "simulation deadlock; parked contexts: "
            + ", ".join(
                f"{c.name} on {c.parked_on}" for c in sorted(
                    self._parked, key=lambda c: c.ctid
                )
            )
            + "\n"
            + machine.describe_stall()
        )
        error.kind = "drained"
        error.snapshot = snapshot
        raise error

    # ------------------------------------------------------------------
    # the watchdog
    # ------------------------------------------------------------------
    def _watchdog_fire(self):
        machine = self.machine
        steps = self._no_progress_ops
        self._no_progress_ops = 0
        machine.stats.add("watchdog.fired")
        if machine.events.active:
            machine.events.emit(WatchdogFired(steps, self.now, len(self._parked)))
        snapshot = machine.stall_snapshot(steps=steps)
        _log.error(
            "scheduler.watchdog_fired",
            extra={
                "kind": "watchdog",
                "sim_time": self.now,
                "steps": steps,
                "parked": len(self._parked),
            },
        )
        error = DeadlockError(
            f"watchdog: no progress after {steps} operations at a frozen "
            f"t={self.now:.0f} (livelock or missed wake)\n"
            + machine.describe_stall(steps)
        )
        error.kind = "watchdog"
        error.snapshot = snapshot
        raise error

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def runnable_snapshot(self):
        """``(ctx, time)`` pairs for every queued context (diagnostics)."""
        return [
            (ctx, time)
            for time, bucket in self._buckets.items()
            for ctx in bucket
        ]

    @property
    def parked_contexts(self):
        """Contexts currently blocked on a condition (for diagnostics)."""
        return sorted(self._parked, key=lambda c: c.ctid)


class HeapScheduler(Scheduler):
    """The original per-entry binary-heap scheduler (reference mode).

    One heap entry per runnable context, ordered by ``(time, seq)``;
    ``seq`` is a global enqueue counter, so ties break by enqueue order
    -- the contract the run-list scheduler reproduces. The determinism
    tests build machines with it in place of :class:`Scheduler`, run
    the same workload on both, and require identical schedules.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self, machine):
        super().__init__(machine)
        self._heap = []
        self._seq = 0

    def _enqueue(self, ctx):
        self._seq += 1
        heapq.heappush(self._heap, (ctx.time, self._seq, ctx))

    def run(self):
        heap = self._heap
        while heap:
            time, _seq, ctx = heapq.heappop(heap)
            if ctx.done:
                continue
            if time > self.now:
                self.now = time
                self._no_progress_ops = 0
            self.current = ctx
            self._step(ctx)
        self.current = None
        if self._parked:
            self._raise_drained_deadlock()
        return self.now

    def _step(self, ctx):
        """Execute operations of ``ctx`` until it blocks, finishes, or
        falls behind another runnable context."""
        machine = self.machine
        heap = self._heap
        op = ctx.retry_op
        send_value = ctx.send_value
        send = ctx.send
        while True:
            if op is None:
                try:
                    op = send(send_value)
                except StopIteration as stop:
                    ctx.done = True
                    ctx.result = getattr(stop, "value", None)
                    self._n_live -= 1
                    for callback in ctx.on_done:
                        callback(machine, ctx)
                    return
                send_value = None
                if not isinstance(op, Op):
                    raise TypeError(
                        f"{ctx.name} yielded {op!r}, which is not an Op"
                    )
            try:
                latency = op.execute(machine, ctx)
            except Park as parked:
                self.park(ctx, parked.condition, retry_op=op if parked.retry else None)
                if self.watchdog_steps:
                    self._note_no_progress()
                return
            if latency:
                self._no_progress_ops = 0
            elif self.watchdog_steps:
                self._note_no_progress()
            ctx.time += latency
            send_value = op.result
            op = None
            # Keep running this context while it is still the earliest.
            if heap and ctx.time > heap[0][0]:
                ctx.send_value = send_value
                ctx.retry_op = None
                self._enqueue(ctx)
                return
            self.now = max(self.now, ctx.time)

    def _note_no_progress(self):
        """Count one operation that did not advance simulated time."""
        self._no_progress_ops += 1
        if self._no_progress_ops >= self.watchdog_steps:
            self._watchdog_fire()

    def runnable_snapshot(self):
        return [(ctx, time) for time, _seq, ctx in self._heap]
