"""The unified event bus: typed machine events and their subscribers.

Every component of the machine (hierarchy, NoC, DRAM, engines, offload,
streams) *emits* typed events on the :class:`EventBus` owned by the
machine; observability tools -- the flight recorder
(:class:`repro.sim.telemetry.flightrec.FlightRecorder`), telemetry
(:mod:`repro.sim.telemetry`) -- *subscribe* instead of being hardwired
into the hot paths.

Emission is guard-checked, so a machine with **zero subscribers pays
one attribute load and branch per emit point** and never allocates an
event object. Each guard follows the registry for the events it
builds, refreshed through :meth:`EventBus.on_change`:

- access-path sites (hierarchy, NoC, DRAM) cache ``bus.wants(T)`` for
  their own event type ``T``;
- the offload and stream lifecycle sites (:data:`LIFECYCLE_EVENTS`)
  share one flag, ``Machine.emit_lifecycle``, which is True while some
  subscriber wants any lifecycle event; correlation IDs are drawn only
  then;
- the rare resilience sites (faults, watchdog, degradation) test the
  coarse ``bus.active``.

So a subscriber to ``MemoryAccess`` alone builds no cache, NoC or
lifecycle event. A built event is dispatched to the handlers
registered for its exact type.

Subscribers must not advance simulated time or mutate machine state:
the bus is an observability plane, and simulations are bit-identical
with and without subscribers attached.

Example -- count evictions per address region::

    from repro.sim.events import Eviction

    hot = range(base // 64, bound // 64)
    evictions = 0

    def on_evict(event):
        nonlocal evictions
        if event.line in hot:
            evictions += 1

    machine.events.subscribe(Eviction, on_evict)
    ... run ...
    machine.events.unsubscribe(Eviction, on_evict)
"""

from dataclasses import dataclass


class EventBus:
    """A subscriber registry dispatching typed events by exact type.

    ``active`` is True whenever at least one subscriber is registered
    (for any event type); the rare resilience emit sites use it as
    their guard. Hot sites cache narrower flags through
    :meth:`on_change` instead.
    """

    __slots__ = ("_handlers", "active", "_listeners")

    def __init__(self):
        #: event type -> tuple of handlers (tuples make dispatch
        #: allocation-free and snapshot-safe against unsubscription
        #: from inside a handler).
        self._handlers = {}
        self.active = False
        #: Registry-change listeners (see :meth:`on_change`): components
        #: that cache per-event-type emit flags refresh them here.
        self._listeners = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def subscribe(self, event_type, handler):
        """Register ``handler`` to receive events of ``event_type``.

        Returns ``handler`` so callers can keep the reference needed to
        unsubscribe. Subscribing the same handler twice delivers each
        event twice.
        """
        self._handlers[event_type] = self._handlers.get(event_type, ()) + (handler,)
        self._recompute_active()
        return handler

    def unsubscribe(self, event_type, handler):
        """Remove every registration of ``handler`` for ``event_type``.

        Unsubscribing a handler that is not registered is a no-op, so
        detach paths are idempotent by construction. Comparison is by
        equality, so bound methods (a fresh object per attribute access)
        unsubscribe correctly.
        """
        remaining = tuple(
            h for h in self._handlers.get(event_type, ()) if h != handler
        )
        if remaining:
            self._handlers[event_type] = remaining
        else:
            self._handlers.pop(event_type, None)
        self._recompute_active()

    def _recompute_active(self):
        """Re-derive ``active`` from the registry across *all* event types.

        The guard must drop back to False the moment the last handler
        anywhere detaches -- otherwise every emit site keeps allocating
        events nobody receives for the rest of the machine's life. Empty
        handler tuples are never retained in ``_handlers`` (unsubscribe
        pops the key), so the truthiness of the dict is the invariant.
        """
        self.active = bool(self._handlers)
        for listener in self._listeners:
            listener(self)

    def on_change(self, listener):
        """Call ``listener(bus)`` now and after every (un)subscription.

        Hot emit sites skip even *constructing* events nobody listens
        for: they cache ``bus.wants(EventType)`` (for one type or a
        group of them) in a flag and use this hook to keep the flag
        coherent with the registry. Listeners must not (un)subscribe
        from inside the callback.
        """
        self._listeners.append(listener)
        listener(self)
        return listener

    def wants(self, event_type):
        """True if at least one subscriber listens for ``event_type``."""
        return event_type in self._handlers

    def subscriber_count(self, event_type=None):
        """Number of registrations (for ``event_type``, or in total)."""
        if event_type is not None:
            return len(self._handlers.get(event_type, ()))
        return sum(len(handlers) for handlers in self._handlers.values())

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def emit(self, event):
        """Deliver ``event`` to the subscribers of its exact type."""
        for handler in self._handlers.get(type(event), ()):
            handler(event)

    def __repr__(self):
        return f"EventBus({self.subscriber_count()} subscribers)"


# ----------------------------------------------------------------------
# the event vocabulary
# ----------------------------------------------------------------------
@dataclass
class MemoryAccess:
    """One completed :meth:`Hierarchy.access` request (all lines).

    ``result`` is the :class:`~repro.sim.access.AccessResult` carrying
    the per-level outcome breakdown and the request's latency.
    """

    tile: int
    addr: int
    size: int
    is_write: bool
    engine: bool
    near_memory: bool
    result: object


@dataclass
class CacheAccess:
    """A lookup at one cache level (L1, L2, engine L1d, or an LLC bank).

    ``tile`` is the tile (or LLC bank) holding the cache. One event is
    emitted per ``<level>.accesses`` counter increment, so subscribers
    can reproduce the energy model's cache terms exactly.
    """

    level: str
    tile: int
    line: int
    hit: bool
    is_write: bool
    engine: bool


@dataclass
class CoherenceAction:
    """A directory action: 'upgrade', 'ping_pong', 'invalidation', 'recall'."""

    kind: str
    line: int
    bank: int
    tile: int


@dataclass
class Eviction:
    """A victim leaving a cache (capacity eviction, recall, or flush)."""

    level: str
    tile: int
    line: int
    dirty: bool
    morph: bool


@dataclass
class DramAccess:
    """One DRAM-line access at a memory controller.

    ``fifo_hit`` marks a hit in the controller's FIFO cache;
    ``dram_cycled`` is True when the DRAM itself was accessed (the
    ``dram.accesses`` counter's semantics: FIFO read hits do not cycle
    DRAM, write hits still drain to it).
    """

    controller: int
    dram_line: int
    is_write: bool
    fifo_hit: bool
    dram_cycled: bool


@dataclass
class FlitHop:
    """One NoC message; traffic cost is ``flits * hops`` flit-hops."""

    src: int
    dst: int
    payload_bytes: int
    flits: int
    hops: int


@dataclass
class MorphConstruct:
    """A data-triggered constructor handled a fill at ``level``."""

    level: str
    tile: int
    line: int


@dataclass
class MorphDestruct:
    """A data-triggered destructor was queued for an evicted morph line."""

    level: str
    tile: int
    line: int
    dirty: bool


@dataclass
class InvokeDispatched:
    """An ``invoke`` chose its executing tile (Sec. V-B1 placement).

    ``cid`` is the invoke's correlation ID, allocated once per invoke
    (stable across park/retry re-executions) and threaded through every
    event of the offload lifecycle so subscribers can stitch causal
    spans: issue -> placement -> NACK/spill/retry -> execution -> future
    fulfillment. ``owns_future`` is True when this invoke claimed the
    attached future, i.e. the eventual :class:`FutureFilled` event with
    this ``cid`` belongs to this dispatch (continuation-passing re-invokes
    carry the caller's future without owning it).
    """

    tile: int
    target: int
    action: str
    location: str
    inline: bool
    near_memory: bool
    cid: int = None
    time: float = None
    owns_future: bool = False


@dataclass
class InvokeStalled:
    """A core hit a full invoke buffer (Fig. 22's queueing effect).

    ``wait`` is the known stall in cycles when the next ACK time is
    known, or None when every slot is waiting on a NACKed engine and the
    core parks until a release wakes it (the retry re-emits
    :class:`InvokeDispatched` with the same ``cid``).
    """

    tile: int
    action: str
    cid: int = None
    time: float = None
    wait: float = None


@dataclass
class EngineTask:
    """An offloaded task arrived at an engine (accepted or NACKed).

    ``queued`` is the engine's spill-queue depth just after the arrival
    was handled (0 whenever a task context was free).
    """

    tile: int
    name: str
    accepted: bool
    cid: int = None
    time: float = None
    queued: int = 0


@dataclass
class EngineTaskStart:
    """A task acquired an engine task context and began executing.

    For NACKed tasks this is the retry acceptance, so ``time`` minus the
    NACKing :class:`EngineTask`'s ``time`` is the spill wait.
    """

    tile: int
    name: str
    cid: int = None
    time: float = None


@dataclass
class EngineTaskDone:
    """A task's action program ran to completion on its engine."""

    tile: int
    name: str
    cid: int = None
    time: float = None


@dataclass
class FutureFilled:
    """A future was filled by a near-data action (store-update sent).

    ``time`` is the store-update message's *arrival* at the waiter's
    core; ``cid`` is the correlation ID of the invoke that owns the
    future (the first invoke the future was attached to).
    """

    home_tile: int
    from_tile: int
    cid: int = None
    time: float = None


@dataclass
class StreamPush:
    """A producer pushed one entry into a stream's circular buffer.

    ``occupancy`` is the producer-visible buffer fill (entries pushed
    but not yet acknowledged by a head-pointer message) after the push.
    """

    stream: str
    index: int
    time: float = None
    occupancy: int = 0
    tile: int = None


@dataclass
class StreamPop:
    """A consumer popped one entry; ``messaged`` marks a head-pointer
    message to the producing engine (sent once per line crossed).

    ``occupancy`` is the consumer-visible buffer fill (entries produced
    but not yet popped) after the pop.
    """

    stream: str
    index: int
    messaged: bool
    time: float = None
    occupancy: int = 0
    tile: int = None


@dataclass
class StreamBlocked:
    """A stream endpoint blocked: the producer on a full circular
    buffer (``side == "producer"``) or the consumer on an empty one
    (``side == "consumer"``)."""

    stream: str
    side: str
    time: float = None


#: The offload and stream lifecycle events: the vocabulary span
#: consumers stitch by correlation ID. Their emit sites guard on
#: ``Machine.emit_lifecycle``, and every span consumer subscribes to
#: each offload lifecycle event, so a consumer sees the same events and
#: IDs whichever other observers are attached.
LIFECYCLE_EVENTS = (
    InvokeDispatched,
    InvokeStalled,
    EngineTask,
    EngineTaskStart,
    EngineTaskDone,
    FutureFilled,
    StreamPush,
    StreamPop,
    StreamBlocked,
)


@dataclass
class FaultInjected:
    """The fault layer (:mod:`repro.sim.faults`) injected one fault.

    ``kind`` names the rule that fired (``engine-crash``,
    ``engine-stall``, ``ctx-exhaust``, ``noc-delay``, ``noc-drop``,
    ``dram-err``); ``where`` is the tile or memory controller hit.
    ``extra_cycles`` is the latency added on the victim's critical path
    (0 for pure state faults such as a crash).
    """

    kind: str
    where: int = None
    time: float = None
    extra_cycles: float = 0.0


@dataclass
class EngineFailed:
    """An engine was marked failed (fail-stop: in-flight tasks finish,
    no new work is accepted; spill-queued tasks are rerouted)."""

    tile: int
    time: float = None


@dataclass
class WatchdogFired:
    """The scheduler watchdog detected a no-progress cycle.

    Emitted just before :class:`~repro.sim.scheduler.DeadlockError` is
    raised: ``steps`` consecutive operations executed without simulated
    time advancing, with ``parked`` contexts blocked on conditions.
    """

    steps: int
    time: float = None
    parked: int = 0


@dataclass
class InvokeRetried:
    """A NACKed invoke was re-sent after its backoff (bounded-retry mode).

    ``attempt`` counts from 1 up to ``core.invoke_max_retries``;
    ``backoff`` is the wait that preceded this re-send. ``tile`` is the
    invoking core, ``target`` the engine being retried.
    """

    tile: int
    target: int
    action: str
    attempt: int
    backoff: float
    cid: int = None
    time: float = None


@dataclass
class DegradedToFallback:
    """Work fell back to a Sec. VI-C degradation path.

    ``kind`` is the path taken: ``reroute`` (DYNAMIC invoke moved to a
    healthy engine), ``on-core`` (pinned/LOCAL/REMOTE invoke executed on
    the invoking core), ``construct-on-core`` (data-triggered action run
    on the core), or ``stream-queue`` (stream collapsed to the
    message-passing thread-pair fallback). ``tile`` is the failed
    engine's tile and ``fallback`` where the work went instead.
    """

    kind: str
    tile: int = None
    fallback: int = None
    action: str = None
    cid: int = None
    time: float = None
