"""Futures: how near-data actions communicate results (Sec. V-A2).

A :class:`Future` is filled exactly once by a near-data action and
waited on by (usually) one core thread. The fill uses the paper's
``store-update`` mechanism (Sec. VI-A2): the engine pushes the value
over the NoC directly into the waiter's core, so no extra coherence
round-trip is needed when the waiter resumes.
"""

from dataclasses import dataclass, field

from repro.sim.events import FutureFilled
from repro.sim.ops import Condition, Op, Park

#: Payload bytes of a store-update message (future pointer + value).
STORE_UPDATE_BYTES = 16


class Future:
    """A single-assignment communication cell.

    Programs wait by yielding :class:`WaitFuture`; near-data actions
    fill it by returning a value from an invoked action (the runtime
    translates ``return`` into ``send``, as the paper's compiler does)
    or by calling :meth:`fill` directly.
    """

    __slots__ = ("machine", "home_tile", "value", "filled", "fill_time", "condition", "cid")

    def __init__(self, machine, home_tile):
        self.machine = machine
        #: Tile of the thread that will wait (the invoker).
        self.home_tile = home_tile
        self.value = None
        self.filled = False
        self.fill_time = None
        self.condition = Condition("future")
        #: Correlation ID of the invoke that owns this future's span
        #: (set by the first Invoke the future is attached to while
        #: ``machine.emit_lifecycle`` is set; continuation re-invokes
        #: leave it alone).
        self.cid = None

    def fill(self, value, from_tile):
        """Fill the future from an engine at ``from_tile``.

        Sends the store-update message and wakes every waiter at the
        message's arrival time.
        """
        if self.filled:
            raise RuntimeError("future filled twice")
        machine = self.machine
        latency = machine.hierarchy.noc.send(
            from_tile, self.home_tile, STORE_UPDATE_BYTES
        )
        machine.stats.counters["future.fills"] += 1
        self.value = value
        self.filled = True
        self.fill_time = machine.now + latency
        if machine.emit_lifecycle:
            machine.events.emit(
                FutureFilled(self.home_tile, from_tile, self.cid, self.fill_time)
            )
        if self.condition.waiters:
            machine.scheduler.wake_all(
                self.condition, value=value, at_time=self.fill_time
            )

    def __repr__(self):
        state = f"filled={self.value!r}" if self.filled else "pending"
        return f"Future(home=tile{self.home_tile}, {state})"


@dataclass
class WaitFuture(Op):
    """Block until ``future`` is filled; the generator receives the value.

    Example::

        future = yield Invoke(node, "lookup", args=(key,), with_future=True)
        value = yield WaitFuture(future)
    """

    future: Future
    result: object = field(default=None, compare=False)

    def execute(self, machine, ctx):
        if self.future.filled:
            self.result = self.future.value
            # The store-update already deposited the value in-core.
            wait = max(0.0, self.future.fill_time - ctx.time)
            return wait + 1
        raise Park(self.future.condition)
