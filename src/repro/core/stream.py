"""Streaming (Sec. V-B3, VI-B3, Figs. 10 and 12).

A Leviathan stream is implemented -- exactly as the paper describes --
by composing the other paradigms:

- the **producer** is a long-lived action (``gen_stream``) on an engine,
  pushing entries into a circular buffer in shared memory;
- the **consumer** reads sequential *phantom* addresses; data-triggered
  constructors copy entries from the circular buffer into the phantom
  lines, so the core sees prefetchable, regular loads;
- **flow control**: ``push`` blocks when the buffer is full; the
  consumer's ``pop`` bumps the core-side head pointer and notifies the
  engine once per cache line crossed, unblocking the producer; the
  hardware prefetcher is NACKed past the produced tail.

The consumer-side paper API is ``Future<T> next()``; in generator-based
Python the idiomatic equivalent is ``value = yield from stream.consume()``,
which returns :data:`STREAM_END` when the producer finishes.
"""

from repro.core.fallback import ThreadPairStream
from repro.core.morph import Morph
from repro.sim.events import DegradedToFallback, StreamBlocked, StreamPop, StreamPush
from repro.sim.ops import Compute, Condition, Load, Store, Wait

#: Returned by ``consume`` when the producer has terminated and the
#: buffer is drained.
STREAM_END = object()

#: Payload bytes of a head-pointer pop message (Sec. VI-B3).
POP_MESSAGE_BYTES = 8


class StreamTerminated(Exception):
    """Raised inside ``push`` when the consumer terminated the stream."""


class _StreamFuture:
    """The object ``Stream.next()`` returns (Fig. 12's ``Future<T>``)."""

    __slots__ = ("_stream",)

    def __init__(self, stream):
        self._stream = stream

    def wait(self):
        """Generator: resolves to the next entry (or STREAM_END)."""
        return (yield from self._stream.consume())


class Stream(Morph):
    """A decoupled producer/consumer stream of fixed-size objects.

    Subclasses override :meth:`gen_stream` (the producer action, run as
    a long-lived thread on the producer tile's engine) and call
    ``yield from self.push(obj)`` to emit entries.
    """

    def __init__(
        self,
        runtime,
        object_size,
        buffer_entries,
        consumer_tile,
        producer_tile=None,
        capacity_hint=1 << 16,
        name=None,
    ):
        super().__init__(
            runtime,
            level="l2",
            n_actors=capacity_hint,
            object_size=object_size,
            name=name or type(self).__name__,
        )
        machine = self.machine
        entries_per_line = max(1, machine.config.line_size // self.padded_size)
        if buffer_entries < 2 * entries_per_line:
            raise ValueError(
                f"stream buffer of {buffer_entries} entries is smaller than "
                f"two cache lines of entries ({2 * entries_per_line})"
            )
        self.buffer_entries = buffer_entries
        self.entries_per_line = entries_per_line
        self.consumer_tile = consumer_tile
        self.producer_tile = consumer_tile if producer_tile is None else producer_tile
        #: The circular buffer lives in ordinary shared memory ("the
        #: stream buffer resides in memory, not a separate hardware
        #: structure", Sec. IX).
        self.buffer_base = machine.address_space.alloc(
            buffer_entries * self.padded_size, align=machine.config.line_size
        )

        #: Consumer-side head (entries popped by the core).
        self.head = 0
        #: Engine-side head (advances on per-line pop messages).
        self.head_engine = 0
        #: Entries produced so far.
        self.tail = 0
        self.terminated = False
        self.producer_done = False
        self.space_avail = Condition(f"{self.name}.space")
        self.data_avail = Condition(f"{self.name}.data")
        self._producer_ctx = None
        #: Set when the producer engine is failed at :meth:`start`: the
        #: stream collapses to the Sec. VI-C message-queue fallback and
        #: push/consume delegate to it (no engine, no phantom space).
        self._fallback = None

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def gen_stream(self, env):
        """The producer action (override; generator yielding sim ops)."""
        return
        yield  # pragma: no cover

    def start(self):
        """Spawn the producer as a long-lived thread on its tile's engine.

        When the producer engine is marked failed (fault injection), the
        stream degrades to the Sec. VI-C message-queue fallback: both
        endpoints become conventional core threads passing entries
        through a :class:`~repro.core.fallback.ThreadPairStream`, the
        phantom range is unregistered, and push/consume delegate to the
        queue -- functionally identical, without the near-data benefit.
        """
        if self._producer_ctx is not None:
            raise RuntimeError("stream already started")
        engines = self.machine.engines
        if engines is not None and engines[self.producer_tile].failed:
            return self._start_degraded()
        self.machine.stats.add("stream.started")
        self._producer_ctx = self.machine.spawn(
            self._producer_program(),
            tile=self.producer_tile,
            name=f"{self.name}.producer",
            is_engine=True,
        )
        return self._producer_ctx

    def _producer_program(self):
        try:
            yield from self.gen_stream(self.runtime)
        except StreamTerminated:
            self.machine.stats.add("stream.terminated_early")
        self.producer_done = True
        self.machine.scheduler.wake_all(self.data_avail)

    def _start_degraded(self):
        machine = self.machine
        machine.stats.add("stream.degraded")
        self._fallback = ThreadPairStream(
            self.runtime,
            self.object_size,
            self.buffer_entries,
            self.producer_tile,
            self.consumer_tile,
        )
        if machine.events.active:
            machine.events.emit(
                DegradedToFallback(
                    "stream-queue",
                    tile=self.producer_tile,
                    fallback=self.consumer_tile,
                    action=self.name,
                    time=machine.sim_time(),
                )
            )
        # Phantom space is engine machinery; the fallback uses plain
        # loads and stores, so the data-triggered range goes away.
        self.unregister()
        self._producer_ctx = machine.spawn(
            self._degraded_producer(),
            tile=self.producer_tile,
            name=f"{self.name}.producer-fallback",
        )
        return self._producer_ctx

    def _degraded_producer(self):
        try:
            yield from self.gen_stream(self.runtime)
        except StreamTerminated:
            self.machine.stats.add("stream.terminated_early")
        self.producer_done = True
        self._fallback.close()
        self.machine.scheduler.wake_all(self.data_avail)

    def buffer_slot_addr(self, index):
        return self.buffer_base + (index % self.buffer_entries) * self.padded_size

    def push(self, obj):
        """Producer: emit ``obj``; blocks while the buffer is full.

        Functionally the value is deposited at the entry's phantom
        address immediately (the constructor is the timing model of the
        later copy); the timing cost here is the store into the circular
        buffer plus bookkeeping.
        """
        if self._fallback is not None:
            yield from self._push_degraded(obj)
            return
        while self.tail - self.head_engine >= self.buffer_entries:
            if self.terminated:
                raise StreamTerminated()
            self.machine.stats.add("stream.push_blocks")
            if self.machine.emit_lifecycle:
                self.machine.events.emit(
                    StreamBlocked(self.name, "producer", self.machine.sim_time())
                )
            yield Wait(self.space_avail)
        if self.terminated:
            raise StreamTerminated()
        index = self.tail
        yield Store(self.buffer_slot_addr(index), self.padded_size)
        yield Compute(2)  # pointer bump + wrap check on the engine
        self.machine.mem[self.get_actor_addr(index)] = obj
        self.tail += 1
        self.machine.stats.add("stream.pushes")
        if self.machine.emit_lifecycle:
            self.machine.events.emit(
                StreamPush(
                    self.name,
                    index,
                    time=self.machine.sim_time(),
                    occupancy=self.tail - self.head_engine,
                    tile=self.producer_tile,
                )
            )
        if self.data_avail.waiters:
            self.machine.scheduler.wake_all(self.data_avail)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def consume(self):
        """Consumer: ``value = yield from stream.consume()``.

        Returns the next entry, or :data:`STREAM_END` after the producer
        finishes and the buffer drains. The load of the phantom address
        triggers the stream's data-triggered constructor on a line
        crossing (and the L2 prefetcher ahead of it).
        """
        if self._fallback is not None:
            return (yield from self._consume_degraded())
        while self.head >= self.tail:
            if self.producer_done:
                return STREAM_END
            self.machine.stats.add("stream.consume_blocks")
            if self.machine.emit_lifecycle:
                self.machine.events.emit(
                    StreamBlocked(self.name, "consumer", self.machine.sim_time())
                )
            yield Wait(self.data_avail)
        index = self.head
        addr = self.get_actor_addr(index)
        yield Load(addr, self.object_size)
        value = self.machine.mem.get(addr)
        yield from self._pop(index)
        return value

    def next(self):
        """Paper-fidelity API (Fig. 12): ``Future<T> next()``.

        Returns a lightweight future whose ``wait`` is the consuming
        generator::

            future = stream.next()
            value = yield from future.wait()

        Equivalent to ``value = yield from stream.consume()``.
        """
        return _StreamFuture(self)

    def _pop(self, index):
        """The pop instruction: bump the head, notify the engine per line."""
        self.head = index + 1
        self.machine.stats.add("stream.pops")
        messaged = self.head % self.entries_per_line == 0 or self.head >= self.tail
        if self.machine.emit_lifecycle:
            self.machine.events.emit(
                StreamPop(
                    self.name,
                    index,
                    messaged,
                    time=self.machine.sim_time(),
                    occupancy=self.tail - self.head,
                    tile=self.consumer_tile,
                )
            )
        if messaged:
            # Crossed into a new line: message the producing engine to
            # bump its head pointer and invalidate the old stream head.
            self.machine.hierarchy.noc.send(
                self.consumer_tile, self.producer_tile, POP_MESSAGE_BYTES
            )
            old_line = self.get_actor_addr(index) // self.machine.config.line_size
            self.machine.hierarchy.l1[self.consumer_tile].invalidate(old_line)
            self.machine.hierarchy.l2[self.consumer_tile].invalidate(old_line)
            self.head_engine = self.head
            self.machine.stats.add("stream.pop_messages")
            if self.space_avail.waiters:
                self.machine.scheduler.wake_all(self.space_avail)
        yield Compute(1)

    def terminate(self):
        """Consumer-initiated termination: the producer's next ``push``
        raises :class:`StreamTerminated` and the producer thread exits."""
        self.terminated = True
        self.machine.scheduler.wake_all(self.space_avail)
        if self._fallback is not None:
            self.machine.scheduler.wake_all(self._fallback.space_avail)

    # ------------------------------------------------------------------
    # degraded mode (Sec. VI-C message-queue fallback)
    # ------------------------------------------------------------------
    def _push_degraded(self, obj):
        fb = self._fallback
        while fb.tail - fb.head >= fb.buffer_entries:
            if self.terminated:
                raise StreamTerminated()
            self.machine.stats.add("stream.push_blocks")
            yield Wait(fb.space_avail)
        if self.terminated:
            raise StreamTerminated()
        yield from fb.push(obj)
        self.tail += 1
        self.machine.stats.add("stream.pushes")

    def _consume_degraded(self):
        value = yield from self._fallback.pop()
        if value is ThreadPairStream.END:
            return STREAM_END
        self.head += 1
        self.head_engine = self.head
        self.machine.stats.add("stream.pops")
        return value

    # ------------------------------------------------------------------
    # data-triggered underpinnings
    # ------------------------------------------------------------------
    def construct(self, view, index):
        """Copy entry ``index`` from the circular buffer into phantom space.

        Runs on the consumer tile's engine when the phantom line is
        filled; reading the buffer slot pulls the line from the producer
        engine's cache (real coherence traffic between the two engines).
        """
        if index >= self.tail:
            # Past the produced tail (end-of-stream partial line): the
            # hardware would stall; nothing to copy.
            return
        yield Load(self.buffer_slot_addr(index), self.padded_size)
        yield Compute(2)

    def destruct(self, view, index, dirty):
        """Consumed stream lines are dead; eviction is free."""
        return
        yield  # pragma: no cover

    def allow_prefetch(self, index):
        """NACK prefetches past the produced tail (Sec. VI-B3)."""
        return index < self.tail
