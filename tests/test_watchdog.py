"""Scheduler watchdog tests: no-progress loops surface as DeadlockError.

The watchdog is default-on (``watchdog_steps`` in SystemConfig): a
workload spinning on zero-latency operations, or parked forever on a
condition nobody signals, raises a typed
:class:`~repro.sim.scheduler.DeadlockError` carrying a diagnostic dump
instead of hanging the process.
"""

import pytest

from repro.core.runtime import Leviathan
from repro.sim.config import small_config
from repro.sim.events import WatchdogFired
from repro.sim.ops import Compute, Condition, Wait
from repro.sim.scheduler import DeadlockError, HeapScheduler, SimDeadlock
from repro.sim.system import Machine


def spinning(machine):
    """A context that burns zero-latency ops forever."""

    def prog():
        while True:
            yield Compute(0)

    machine.spawn(prog(), tile=0, name="spinner")


class TestWatchdogLivelock:
    def test_zero_latency_spin_raises(self):
        machine = Machine(small_config(watchdog_steps=500))
        spinning(machine)
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        assert "without progress" in str(excinfo.value)
        assert "spinner" in str(excinfo.value)

    def test_deadlock_error_is_a_sim_deadlock(self):
        machine = Machine(small_config(watchdog_steps=500))
        spinning(machine)
        with pytest.raises(SimDeadlock):
            machine.run()

    def test_watchdog_disabled_by_zero(self):
        # With the watchdog off, bound the spin so the test terminates.
        machine = Machine(small_config(watchdog_steps=0))
        ran = []

        def prog():
            for _ in range(2_000):
                yield Compute(0)
            ran.append(True)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert ran == [True]

    def test_fires_watchdog_event(self):
        machine = Machine(small_config(watchdog_steps=500))
        fired = []
        machine.events.subscribe(WatchdogFired, fired.append)
        spinning(machine)
        with pytest.raises(DeadlockError):
            machine.run()
        assert len(fired) == 1
        assert fired[0].steps == 500
        assert machine.stats["watchdog.fired"] == 1

    def test_progressing_run_does_not_trip(self):
        # More total operations than the threshold, but time advances:
        # the counter resets and the watchdog stays quiet.
        machine = Machine(small_config(watchdog_steps=100))

        def prog():
            for _ in range(5_000):
                yield Compute(0)
                yield Compute(5)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert machine.stats["watchdog.fired"] == 0


class TestNeverSignaledCondition:
    def test_hang_surfaces_with_waiter_list(self):
        machine = Machine(small_config())
        lonely = Condition("never-signaled")

        def waiter():
            yield Wait(lonely)

        machine.spawn(waiter(), tile=1, name="orphan-waiter")
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        message = str(excinfo.value)
        assert "orphan-waiter" in message
        assert "never-signaled" in message
        assert "tile 1" in message

    def test_dump_includes_engine_state(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        runtime.engines[2].fail(at_time=0.0)
        stuck = Condition("stuck")

        def waiter():
            yield Wait(stuck)

        machine.spawn(waiter(), tile=0, name="w")
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        assert "FAILED" in str(excinfo.value)

    def test_park_wake_exchange_is_not_a_deadlock(self):
        # A producer/consumer pair parking and waking repeatedly (with
        # real latency in between) never trips the watchdog.
        machine = Machine(small_config(watchdog_steps=200))
        data = Condition("data")
        items = []
        rounds = []

        def producer():
            for i in range(300):
                yield Compute(1)
                items.append(i)
                machine.scheduler.wake_all(data)

        def consumer():
            taken = 0
            while taken < 300:
                while not items:
                    yield Wait(data)
                items.pop()
                taken += 1
                yield Compute(1)
            rounds.append(True)

        machine.spawn(producer(), tile=0, name="producer")
        machine.spawn(consumer(), tile=1, name="consumer")
        machine.run()
        assert rounds == [True]
        assert machine.stats["watchdog.fired"] == 0


class TestDeadlockDiagnostics:
    """Every DeadlockError raise path emits WatchdogFired and carries a
    structured stall snapshot (what the flight recorder drains)."""

    @pytest.mark.parametrize("mode", ["runlist", "heap"])
    def test_drained_raise_emits_watchdog_fired(self, mode, monkeypatch):
        if mode == "heap":
            monkeypatch.setattr("repro.sim.system.Scheduler", HeapScheduler)
        machine = Machine(small_config())
        fired = []
        machine.events.subscribe(WatchdogFired, fired.append)
        lonely = Condition("never-signaled")

        def waiter():
            yield Wait(lonely)

        machine.spawn(waiter(), tile=1, name="orphan-waiter")
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        assert len(fired) == 1
        assert fired[0].parked == 1
        assert excinfo.value.kind == "drained"
        assert machine.stats["deadlock.drained"] == 1
        snapshot = excinfo.value.snapshot
        assert snapshot["parked_total"] == 1
        assert snapshot["parked"][0]["name"] == "orphan-waiter"
        assert snapshot["parked"][0]["tile"] == 1
        assert "never-signaled" in snapshot["parked"][0]["condition"]

    def test_watchdog_error_carries_snapshot(self):
        machine = Machine(small_config(watchdog_steps=500))
        spinning(machine)
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        assert excinfo.value.kind == "watchdog"
        snapshot = excinfo.value.snapshot
        assert snapshot["steps_without_progress"] == 500
        assert snapshot["running"]["name"] == "spinner"

    def test_detached_bus_still_raises_without_events(self):
        # No subscriber: the drained raise must not wake the bus.
        machine = Machine(small_config())
        lonely = Condition("quiet")

        def waiter():
            yield Wait(lonely)

        machine.spawn(waiter(), tile=0, name="quiet-waiter")
        with pytest.raises(DeadlockError):
            machine.run()
        assert not machine.events.active
        assert machine.stats["deadlock.drained"] == 1
