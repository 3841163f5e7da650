"""Unit tests for the scheduler: interleaving, blocking, determinism."""

import pytest

from repro.sim.config import small_config
from repro.sim.ops import Compute, Condition, Load, Sleep, Wait
from repro.sim.scheduler import SimDeadlock
from repro.sim.system import Machine


class TestInterleaving:
    def test_single_program_runs_to_completion(self, machine):
        done = []

        def prog():
            yield Compute(9)
            done.append(True)

        machine.spawn(prog(), tile=0)
        final = machine.run()
        assert done == [True]
        assert final == pytest.approx(3.0)  # 9 instructions / IPC 3

    def test_timestamp_ordered_interleaving(self, machine):
        order = []

        def slow():
            yield Sleep(100)
            order.append("slow")

        def fast():
            yield Sleep(10)
            order.append("fast")

        machine.spawn(slow(), tile=0)
        machine.spawn(fast(), tile=1)
        machine.run()
        assert order == ["fast", "slow"]

    def test_final_time_is_max_over_contexts(self, machine):
        from tests.conftest import as_program

        machine.spawn(as_program([Sleep(500)]), tile=0)
        machine.spawn(as_program([Sleep(100)]), tile=1)
        assert machine.run() >= 500

    def test_spawn_mid_run(self, machine):
        order = []

        def parent():
            yield Sleep(10)
            machine.spawn(child(), tile=1)
            order.append("parent")
            yield Sleep(100)

        def child():
            yield Sleep(5)
            order.append("child")

        machine.spawn(parent(), tile=0)
        machine.run()
        assert order == ["parent", "child"]

    def test_yielding_non_op_raises(self, machine):
        def bad():
            yield 42

        machine.spawn(bad(), tile=0)
        with pytest.raises(TypeError):
            machine.run()

    def test_context_result_captured(self, machine):
        def prog():
            yield Compute(1)
            return "answer"

        ctx = machine.spawn(prog(), tile=0)
        machine.run()
        assert ctx.done
        assert ctx.result == "answer"

    def test_on_done_callbacks_fire(self, machine):
        seen = []

        def prog():
            yield Compute(1)

        ctx = machine.spawn(prog(), tile=0)
        ctx.on_done.append(lambda m, c: seen.append(c.name))
        machine.run()
        assert seen == [ctx.name]


class TestBlocking:
    def test_wait_and_wake_all(self, machine):
        cond = Condition("gate")
        results = []

        def waiter():
            value = yield Wait(cond)
            results.append(value)

        def signaller():
            yield Sleep(50)
            machine.scheduler.wake_all(cond, value="go")

        machine.spawn(waiter(), tile=0)
        machine.spawn(waiter(), tile=1)
        machine.spawn(signaller(), tile=2)
        machine.run()
        assert results == ["go", "go"]

    def test_wake_one_releases_single_waiter(self, machine):
        cond = Condition("slot")
        woken = []

        def waiter(tag):
            yield Wait(cond)
            woken.append(tag)

        def signaller():
            yield Sleep(10)
            machine.scheduler.wake_one(cond)
            yield Sleep(10)
            machine.scheduler.wake_one(cond)

        machine.spawn(waiter("a"), tile=0)
        machine.spawn(waiter("b"), tile=1)
        machine.spawn(signaller(), tile=2)
        machine.run()
        assert woken == ["a", "b"]  # FIFO wake order

    def test_wake_time_propagates(self, machine):
        cond = Condition("gate")
        times = []

        def waiter():
            yield Wait(cond)
            times.append(machine.now)

        def signaller():
            yield Sleep(77)
            machine.scheduler.wake_all(cond)

        machine.spawn(waiter(), tile=0)
        machine.spawn(signaller(), tile=1)
        machine.run()
        assert times[0] >= 77

    def test_deadlock_detection(self, machine):
        cond = Condition("never")

        def stuck():
            yield Wait(cond)

        machine.spawn(stuck(), tile=0, name="stuck-thread")
        with pytest.raises(SimDeadlock, match="stuck-thread"):
            machine.run()

    def test_parked_contexts_listed(self, machine):
        cond = Condition("never")

        def stuck():
            yield Wait(cond)

        def other():
            yield Sleep(5)

        machine.spawn(stuck(), tile=0)
        machine.spawn(other(), tile=1)
        with pytest.raises(SimDeadlock):
            machine.run()
        assert len(machine.scheduler.parked_contexts) == 1


class TestDeterminism:
    def _run_once(self):
        machine = Machine(small_config())
        total = []

        def prog(base, n):
            for i in range(n):
                yield Load(base + (i * 8 * 7) % 4096, 8)
                yield Compute(3)
            total.append(machine.now)

        for t in range(4):
            machine.spawn(prog(0x10000 + t * 0x1000, 50), tile=t)
        final = machine.run()
        return final, dict(machine.stats.counters)

    def test_identical_runs_bitwise_equal(self):
        first = self._run_once()
        second = self._run_once()
        assert first == second
