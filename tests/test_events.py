"""Unit tests for the event bus: registration, dispatch, and the
zero-subscriber fast path."""

import pytest

from repro.sim import events
from repro.sim.events import (
    CacheAccess,
    DramAccess,
    EventBus,
    Eviction,
    FlitHop,
    MemoryAccess,
)
from repro.core.actor import Actor, action
from repro.core.future import WaitFuture
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.config import small_config
from repro.sim.ops import Compute, Load, Store
from repro.sim.stats import AccessProfile
from repro.sim.system import Machine
from repro.sim.faults import FaultPlan
from repro.sim.telemetry import (
    FlightRecorder,
    RequestLatencyProbe,
    Telemetry,
    TelemetrySession,
)
from tests.conftest import run_program


class TestRegistration:
    def test_starts_inactive(self):
        bus = EventBus()
        assert not bus.active
        assert bus.subscriber_count() == 0

    def test_subscribe_activates(self):
        bus = EventBus()
        bus.subscribe(CacheAccess, lambda e: None)
        assert bus.active
        assert bus.wants(CacheAccess)
        assert not bus.wants(Eviction)
        assert bus.subscriber_count(CacheAccess) == 1

    def test_unsubscribe_deactivates(self):
        bus = EventBus()
        handler = bus.subscribe(CacheAccess, lambda e: None)
        bus.unsubscribe(CacheAccess, handler)
        assert not bus.active
        assert bus.subscriber_count() == 0

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        handler = lambda e: None  # noqa: E731
        bus.subscribe(CacheAccess, handler)
        bus.unsubscribe(CacheAccess, handler)
        bus.unsubscribe(CacheAccess, handler)  # second detach: no-op
        assert not bus.active

    def test_unsubscribe_of_unknown_handler_is_noop(self):
        bus = EventBus()
        bus.subscribe(CacheAccess, lambda e: None)
        bus.unsubscribe(CacheAccess, lambda e: None)  # different handler
        assert bus.subscriber_count(CacheAccess) == 1

    def test_bound_methods_unsubscribe(self):
        """Bound methods are fresh objects per attribute access; the bus
        must compare by equality or detach would silently fail."""

        class Sub:
            def __init__(self):
                self.seen = 0

            def on_event(self, event):
                self.seen += 1

        bus = EventBus()
        sub = Sub()
        bus.subscribe(CacheAccess, sub.on_event)
        assert sub.on_event is not sub.on_event  # the trap
        bus.unsubscribe(CacheAccess, sub.on_event)
        assert not bus.active

    def test_remaining_subscribers_keep_bus_active(self):
        bus = EventBus()
        keep = bus.subscribe(CacheAccess, lambda e: None)
        drop = bus.subscribe(Eviction, lambda e: None)
        bus.unsubscribe(Eviction, drop)
        assert bus.active
        assert bus.wants(CacheAccess)
        bus.unsubscribe(CacheAccess, keep)
        assert not bus.active

    def test_active_recomputed_across_all_types(self):
        """Removing the last handler of one type must consult every
        *other* type before dropping the guard — and removing the truly
        last handler must drop it no matter which type it was under or
        in which order the others detached."""
        bus = EventBus()
        handlers = {
            event_type: bus.subscribe(event_type, lambda e: None)
            for event_type in (CacheAccess, Eviction, FlitHop, DramAccess)
        }
        for i, (event_type, handler) in enumerate(list(handlers.items())):
            assert bus.active  # still someone left before this removal
            bus.unsubscribe(event_type, handler)
            remaining = len(handlers) - 1 - i
            assert bus.active == (remaining > 0)
            assert bus.subscriber_count() == remaining
        assert not bus.active
        # Re-attaching after full drain re-arms the guard.
        bus.subscribe(MemoryAccess, lambda e: None)
        assert bus.active


class TestDispatch:
    def test_dispatch_by_exact_type(self):
        bus = EventBus()
        got = []
        bus.subscribe(CacheAccess, got.append)
        event = CacheAccess("l1", 0, 1, True, False, False)
        bus.emit(event)
        bus.emit(Eviction("l1", 0, 1, False, False))  # not subscribed
        assert got == [event]

    def test_double_subscription_delivers_twice(self):
        bus = EventBus()
        got = []
        bus.subscribe(CacheAccess, got.append)
        bus.subscribe(CacheAccess, got.append)
        bus.emit(CacheAccess("l1", 0, 1, True, False, False))
        assert len(got) == 2

    def test_unsubscribe_from_inside_handler(self):
        bus = EventBus()
        got = []

        def once(event):
            got.append(event)
            bus.unsubscribe(CacheAccess, once)

        bus.subscribe(CacheAccess, once)
        bus.emit(CacheAccess("l1", 0, 1, True, False, False))
        bus.emit(CacheAccess("l1", 0, 2, True, False, False))
        assert len(got) == 1
        assert not bus.active


class TestMachineIntegration:
    def test_machine_emits_cache_accesses(self, machine):
        got = []
        machine.events.subscribe(CacheAccess, got.append)
        run_program(machine, [Load(0x10000, 8)])
        levels = [e.level for e in got]
        assert "l1" in levels and "llc" in levels

    def test_memory_access_carries_result(self, machine):
        got = []
        machine.events.subscribe(MemoryAccess, got.append)
        run_program(machine, [Store(0x10000, 8)])
        assert len(got) == 1
        event = got[0]
        assert event.is_write and event.addr == 0x10000
        assert event.result.served_by == ("dram", "fill")

    def test_flit_and_dram_events_match_counters(self, machine):
        flits = []
        drams = []
        machine.events.subscribe(FlitHop, flits.append)
        machine.events.subscribe(DramAccess, drams.append)
        run_program(machine, [Load(0x10000 + i * 64, 8) for i in range(8)])
        assert len(flits) == machine.stats["noc.messages"]
        assert sum(f.flits * f.hops for f in flits) == machine.stats["noc.flit_hops"]
        assert sum(1 for d in drams if d.dram_cycled) == machine.stats["dram.accesses"]
        assert len(drams) == machine.stats["mc_cache.accesses"]


#: Every event type the simulator can emit on the hot paths.
_HOT_PATH_EVENTS = [
    events.MemoryAccess,
    events.CacheAccess,
    events.CoherenceAction,
    events.Eviction,
    events.DramAccess,
    events.FlitHop,
    events.MorphConstruct,
    events.MorphDestruct,
]


class TestZeroSubscriberCost:
    def test_no_events_constructed_without_subscribers(self, machine, monkeypatch):
        """The guard-checked emit must not even *construct* an event when
        nothing is subscribed: booby-trap every constructor and run."""

        def boom(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} constructed with no subscriber")

        for event_type in _HOT_PATH_EVENTS:
            monkeypatch.setattr(event_type, "__init__", boom)
        run_program(machine, [Load(0x10000 + i * 64, 8) for i in range(16)])
        assert machine.stats["dram.accesses"] > 0  # the run really ran

    def test_trap_fires_once_subscribed(self, machine, monkeypatch):
        """Sanity-check the booby trap: with a subscriber the same run
        must hit the patched constructor."""

        def boom(self, *args, **kwargs):
            raise AssertionError("constructed")

        monkeypatch.setattr(events.CacheAccess, "__init__", boom)
        machine.events.subscribe(events.CacheAccess, lambda e: None)
        with pytest.raises(AssertionError, match="constructed"):
            machine.hierarchy.access(0, 0x10000, 8, is_write=False)

    def test_access_profile_builds_no_lifecycle_event(self, monkeypatch):
        """An AccessProfile wants only MemoryAccess: invokes must neither
        build offload lifecycle events nor draw correlation IDs."""
        for event_type in _OFFLOAD_LIFECYCLE_EVENTS:
            monkeypatch.setattr(event_type, "__init__", _lifecycle_trap)
        machine = Machine(small_config())
        profile = AccessProfile(machine)
        values = _run_two_invokes(machine)
        assert values == [7, 7]
        assert profile.requests > 0  # the profile saw the engine's loads
        assert machine._cid == 0

    def test_lifecycle_trap_fires_with_telemetry(self, monkeypatch):
        """Sanity-check the trap: a span consumer needs the events."""
        for event_type in _OFFLOAD_LIFECYCLE_EVENTS:
            monkeypatch.setattr(event_type, "__init__", _lifecycle_trap)
        with TelemetrySession():
            machine = Machine(small_config())
            AccessProfile(machine)
            with pytest.raises(AssertionError, match="lifecycle event built"):
                _run_two_invokes(machine)

    def test_every_span_consumer_wants_each_offload_lifecycle_event(self):
        """Lifecycle events are built only while someone wants one; a
        span consumer must want every offload lifecycle event, so the
        events and cids it records never depend on which other
        observers are attached."""
        offload_events = set(events.LIFECYCLE_EVENTS) - {
            events.StreamPush,
            events.StreamPop,
            events.StreamBlocked,
        }
        machine = Machine(small_config())
        AccessProfile(machine)
        assert not machine.emit_lifecycle
        for attach in (
            Telemetry,
            lambda m: RequestLatencyProbe(m, {}),
            FlightRecorder,
            FaultPlan.parse("seed:1").attach,
        ):
            consumer = attach(machine)
            assert machine.emit_lifecycle
            assert all(machine.events.wants(t) for t in offload_events)
            consumer.detach()
            assert not machine.emit_lifecycle


#: Offload lifecycle events every invoke with a future emits.
_OFFLOAD_LIFECYCLE_EVENTS = [
    events.InvokeDispatched,
    events.EngineTask,
    events.EngineTaskStart,
    events.EngineTaskDone,
    events.FutureFilled,
]


def _lifecycle_trap(self, *args, **kwargs):
    raise AssertionError(f"lifecycle event built: {type(self).__name__}")


class _Cell(Actor):
    SIZE = 8

    @action
    def read(self, env):
        yield Load(self.addr, 8)
        yield Compute(5)
        return 7


def _run_two_invokes(machine):
    """Two REMOTE invokes with futures on a fresh Leviathan machine."""
    runtime = Leviathan(machine)
    cell = runtime.allocator_for(_Cell, capacity=8).allocate()
    values = []

    def client():
        for _ in range(2):
            future = yield Invoke(
                cell, "read", location=Location.REMOTE, with_future=True
            )
            values.append((yield WaitFuture(future)))

    run_program(machine, client())
    return values
