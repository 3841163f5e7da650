"""Unit tests for the near-data engine: contexts, queueing, NACKs."""

from repro.core.engine import Engine
from repro.core.runtime import Leviathan
from repro.sim.config import small_config
from repro.sim.ops import Compute
from repro.sim.system import Machine


def make_engine(task_contexts=4, ideal=False):
    cfg = small_config(
        **{"engine.task_contexts": task_contexts, "engine.ideal": ideal}
    )
    machine = Machine(cfg)
    runtime = Leviathan(machine)
    return machine, runtime.engines[0]


def task(duration=10):
    yield Compute(duration)


class TestSubmission:
    def test_accepts_with_free_context(self):
        machine, engine = make_engine()
        accepted = engine.submit(task(), at_time=0, name="t")
        assert accepted
        assert engine.busy_offload == 1
        machine.run()
        assert engine.busy_offload == 0

    def test_completion_callback(self):
        machine, engine = make_engine()
        results = []

        def job():
            yield Compute(1)
            return 42

        engine.submit(job(), at_time=0, name="t", on_complete=results.append)
        machine.run()
        assert results == [42]

    def test_accept_callback_gets_time(self):
        machine, engine = make_engine()
        times = []
        engine.submit(task(), at_time=33.0, name="t", on_accept=times.append)
        machine.run()
        assert times == [33.0]


class TestBackpressure:
    def test_nack_when_full(self):
        machine, engine = make_engine(task_contexts=2)  # 1 offload context
        assert engine.submit(task(100), at_time=0, name="a")
        assert not engine.submit(task(100), at_time=0, name="b")
        assert engine.queued_tasks == 1
        assert machine.stats["engine.nacks"] == 1
        machine.run()
        assert engine.queued_tasks == 0
        assert machine.stats["engine.tasks"] == 2

    def test_queued_task_starts_after_release(self):
        machine, engine = make_engine(task_contexts=2)
        finish_times = []

        def job(tag):
            yield Compute(100)
            finish_times.append((tag, machine.now))

        engine.submit(job("first"), at_time=0, name="a")
        engine.submit(job("second"), at_time=0, name="b")
        machine.run()
        order = [tag for tag, _ in finish_times]
        assert order == ["first", "second"]
        assert finish_times[1][1] > finish_times[0][1]

    def test_ideal_engine_unlimited_contexts(self):
        machine, engine = make_engine(task_contexts=2, ideal=True)
        for i in range(20):
            assert engine.submit(task(), at_time=0, name=f"t{i}")
        assert machine.stats["engine.nacks"] == 0
        machine.run()

    def test_context_freed_condition_woken(self):
        machine, engine = make_engine(task_contexts=2)
        woken = []
        from repro.sim.ops import Wait

        def waiter():
            yield Wait(engine.context_freed)
            woken.append(True)

        engine.submit(task(50), at_time=0, name="t")
        machine.spawn(waiter(), tile=0)
        machine.run()
        assert woken == [True]


class TestRepr:
    def test_repr_shows_occupancy(self):
        _, engine = make_engine()
        assert "busy=0" in repr(engine)


class TestRtlb:
    def test_miss_then_hit(self):
        machine, engine = make_engine()
        assert engine.rtlb_lookup(5) > 0  # cold miss pays refill
        assert engine.rtlb_lookup(5) == 0  # hit
        assert machine.stats["engine.rtlb_misses"] == 1
        assert machine.stats["engine.rtlb_lookups"] == 2

    def test_lru_capacity(self):
        machine, engine = make_engine()
        capacity = engine.config.rtlb_entries
        for page in range(capacity + 1):
            engine.rtlb_lookup(page)
        # Page 0 (LRU) was evicted; refilling it evicts page 1, but the
        # most recent pages are still resident.
        assert engine.rtlb_lookup(0) > 0
        assert engine.rtlb_lookup(capacity) == 0

    def test_ideal_engine_free_misses(self):
        machine, engine = make_engine(ideal=True)
        assert engine.rtlb_lookup(7) == 0
        assert machine.stats["engine.rtlb_misses"] == 1

    def test_morph_constructions_consult_rtlb(self):
        from repro.core.runtime import Leviathan
        from repro.sim.config import small_config
        from repro.sim.system import Machine
        from repro.sim.ops import Load
        from tests.test_morph import RecordingMorph

        machine = Machine(small_config())
        runtime = Leviathan(machine)
        morph = RecordingMorph(runtime)

        def prog():
            yield Load(morph.get_actor_addr(0), 8)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert machine.stats["engine.rtlb_lookups"] >= 1


class TestLifecycleOrder:
    def test_freed_context_starts_the_queued_task_before_the_fill(self):
        """Two REMOTE invokes contend for one offload context. The second
        NACKs; when the first finishes, its context goes to the queued
        task at the same time, and only then does the first future fill.
        The times pin the whole round trip: dispatch, NoC transit,
        action, release and store-update."""
        from repro.core.actor import Actor, action
        from repro.core.future import WaitFuture
        from repro.core.offload import Invoke, Location
        from repro.sim import events
        from repro.sim.config import SystemConfig
        from repro.sim.ops import Load

        class Cell(Actor):
            SIZE = 8

            @action
            def read(self, env):
                yield Load(self.addr, 8)
                yield Compute(50)
                return 7

        machine = Machine(
            SystemConfig(n_tiles=4).scaled(**{"engine.task_contexts": 2})
        )
        runtime = Leviathan(machine)
        cell = runtime.allocator_for(Cell, capacity=8).allocate()
        seen = []
        for event_type in (
            events.InvokeDispatched,
            events.InvokeStalled,
            events.EngineTask,
            events.EngineTaskStart,
            events.EngineTaskDone,
            events.FutureFilled,
        ):
            machine.events.subscribe(
                event_type,
                lambda ev: seen.append((type(ev).__name__, ev.cid, ev.time)),
            )
        values = []

        def client():
            future = yield Invoke(
                cell, "read", location=Location.REMOTE, with_future=True
            )
            values.append((yield WaitFuture(future)))

        machine.spawn(client(), tile=0)
        machine.spawn(client(), tile=1)
        machine.run()

        assert values == [7, 7]
        assert seen == [
            ("InvokeDispatched", 1, 0.0),
            ("EngineTask", 1, 2.0),
            ("EngineTaskStart", 1, 2.0),
            ("InvokeDispatched", 2, 0.0),
            ("EngineTask", 2, 8.0),
            ("EngineTaskDone", 1, 148.0612244897959),
            ("EngineTaskStart", 2, 148.0612244897959),
            ("FutureFilled", 1, 149.0612244897959),
            ("EngineTaskDone", 2, 175.0612244897959),
            ("FutureFilled", 2, 181.0612244897959),
        ]
        assert machine.stats["engine.nacks"] == 1
