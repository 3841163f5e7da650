"""Unit tests for the fault-injection layer (:mod:`repro.sim.faults`)."""

import pytest

from repro.core.actor import Actor, action
from repro.core.offload import Invoke, InvokeTimeout, Location
from repro.core.runtime import Leviathan
from repro.core.stream import STREAM_END, Stream
from repro.sim.config import small_config
from repro.sim.events import (
    DegradedToFallback,
    EngineFailed,
    FaultInjected,
    InvokeRetried,
)
from repro.sim.faults import (
    ContextExhaustion,
    DramError,
    EngineCrash,
    EngineStall,
    FaultPlan,
    FaultPlanError,
    FaultSession,
    NocDelay,
    NocDrop,
)
from repro.sim.ops import Compute, Load, Store
from repro.sim.system import Machine

SPEC = (
    "crash:1@2000; stall:2@100+500; exhaust:0@0+50; "
    "noc-delay:0.1@20; noc-drop:0.01; dram-err:0-1024@0.05@200; seed:7"
)


class TestPlanGrammar:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(SPEC)
        assert FaultPlan.parse(plan.spec()) == plan
        assert plan.seed == 7
        assert len(plan.rules) == 6

    def test_rule_types(self):
        plan = FaultPlan.parse(SPEC)
        kinds = [type(rule) for rule in plan.rules]
        assert kinds == [
            EngineCrash,
            EngineStall,
            ContextExhaustion,
            NocDelay,
            NocDrop,
            DramError,
        ]

    def test_empty_spec_is_empty_plan(self):
        plan = FaultPlan.parse("seed:3")
        assert plan.rules == ()
        assert plan.seed == 3

    def test_crash_time_defaults_to_zero(self):
        plan = FaultPlan.parse("crash:2")
        assert plan.rules[0] == EngineCrash(2, 0.0)

    def test_unknown_clause_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault clause"):
            FaultPlan.parse("meteor:3")

    def test_malformed_clause_rejected(self):
        with pytest.raises(FaultPlanError, match="bad fault clause"):
            FaultPlan.parse("crash:banana")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultPlan.parse("noc-delay:1.5@20")

    def test_bad_line_range_rejected(self):
        with pytest.raises(FaultPlanError, match="line range"):
            FaultPlan.parse("dram-err:100-5@0.5")

    def test_non_positive_window_rejected(self):
        with pytest.raises(FaultPlanError, match="window"):
            FaultPlan.parse("stall:0@100+0")

    def test_tile_out_of_range_rejected_at_attach(self):
        machine = Machine(small_config())
        with pytest.raises(FaultPlanError, match="tile 99"):
            FaultPlan.parse("crash:99").attach(machine)


class Tally(Actor):
    SIZE = 8

    @action
    def hit(self, env, token):
        yield Load(self.addr, 8)
        yield Compute(2)
        mem = env.machine.mem
        yield Store(
            self.addr,
            8,
            apply=lambda: mem.__setitem__(self.addr, mem.get(self.addr, 0) + token),
        )


def tally_workload(machine, runtime, n=12):
    alloc = runtime.allocator_for(Tally, capacity=4)
    actors = [alloc.allocate() for _ in range(4)]

    def invoker(tile):
        for i in range(n // 4):
            yield Invoke(actors[(tile + i) % 4], "hit", (1,), location=Location.DYNAMIC)
            yield Compute(3)

    for tile in range(4):
        machine.spawn(invoker(tile), tile=tile)
    return actors


class TestTimingFaults:
    def test_noc_delay_slows_the_run(self):
        def run(spec):
            machine = Machine(small_config())
            runtime = Leviathan(machine)
            if spec is not None:
                FaultPlan.parse(spec).attach(machine)
            actors = tally_workload(machine, runtime)
            cycles = machine.run()
            results = {a.addr: machine.mem.get(a.addr) for a in actors}
            return machine, cycles, results

        _, clean_cycles, clean_results = run(None)
        machine, fault_cycles, fault_results = run("noc-delay:1.0@50; seed:1")
        assert fault_results == clean_results  # survivable: results identical
        assert fault_cycles > clean_cycles
        assert machine.faults.injected["noc-delay"] > 0
        assert machine.stats["faults.noc"] == machine.faults.injected["noc-delay"]

    def test_noc_drop_counts_as_retransmit(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        FaultPlan.parse("noc-drop:1.0@128; seed:2").attach(machine)
        tally_workload(machine, runtime)
        machine.run()
        assert machine.faults.injected["noc-drop"] > 0

    def test_dram_error_adds_latency_not_values(self):
        def run(with_faults):
            machine = Machine(small_config())
            runtime = Leviathan(machine)
            if with_faults:
                # Every DRAM line, certain hit, heavy penalty.
                FaultPlan.parse("dram-err:0-1000000000@1.0@500; seed:0").attach(machine)
            actors = tally_workload(machine, runtime)
            cycles = machine.run()
            return machine, cycles, {a.addr: machine.mem.get(a.addr) for a in actors}

        _, clean_cycles, clean_results = run(False)
        machine, fault_cycles, fault_results = run(True)
        assert fault_results == clean_results
        assert fault_cycles > clean_cycles
        assert machine.stats["faults.dram_errors"] > 0

    def test_same_seed_same_injections(self):
        def run():
            machine = Machine(small_config())
            runtime = Leviathan(machine)
            FaultPlan.parse("noc-delay:0.3@20; dram-err:0-1000000@0.5; seed:9").attach(
                machine
            )
            tally_workload(machine, runtime)
            cycles = machine.run()
            return cycles, dict(machine.faults.injected), dict(machine.stats.counters)

        assert run() == run()


class TestEngineFaults:
    def test_crash_marks_engine_failed(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        FaultPlan([EngineCrash(1, 10.0)]).attach(machine)
        failures = []
        machine.events.subscribe(EngineFailed, failures.append)

        def prog():
            yield Compute(100)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert runtime.engines[1].failed
        assert [ev.tile for ev in failures] == [1]
        assert machine.stats["faults.engine_failures"] == 1

    def test_crash_preserves_results_via_degradation(self):
        def run(spec):
            machine = Machine(small_config())
            runtime = Leviathan(machine)
            if spec:
                FaultPlan.parse(spec).attach(machine)
            alloc = runtime.allocator_for(Tally, capacity=4)
            actors = [alloc.allocate() for _ in range(4)]

            def invoker(tile):
                # Pinned invokes: every tile (incl. the crashed ones)
                # receives work, forcing the degradation paths.
                for i in range(6):
                    yield Invoke(actors[i % 4], "hit", (1,), tile=(tile + i) % 4)
                    yield Compute(3)

            for tile in range(4):
                machine.spawn(invoker(tile), tile=tile)
            machine.run()
            return machine, {a.addr: machine.mem.get(a.addr) for a in actors}

        _, clean = run(None)
        machine, faulted = run("crash:1; crash:2@40; seed:5")
        assert faulted == clean
        assert machine.stats["invoke.degraded"] > 0
        assert machine.stats["invoke.on_core_fallbacks"] > 0

    def test_all_engines_failed_runs_on_core(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        FaultPlan.parse("crash:0; crash:1; crash:2; crash:3").attach(machine)
        fallbacks = []
        machine.events.subscribe(DegradedToFallback, fallbacks.append)
        actors = tally_workload(machine, runtime, n=8)
        machine.run()
        assert {a.addr: machine.mem.get(a.addr) for a in actors}
        assert machine.stats["invoke.on_core_fallbacks"] > 0
        assert any(ev.kind == "on-core" for ev in fallbacks)
        # Nothing executed on an engine.
        assert machine.stats["engine.instructions"] == 0

    def test_stall_window_nacks_then_recovers(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        FaultPlan([EngineStall(1, 0.0, 300.0)]).attach(machine)
        done = []

        class Probe(Actor):
            SIZE = 8

            @action
            def go(self, env):
                yield Compute(1)
                done.append(env.machine.now)

        actor = runtime.allocator_for(Probe, capacity=2).allocate()

        def prog():
            yield Invoke(actor, "go", tile=1)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert len(done) == 1
        assert machine.stats["engine.nacks"] >= 1
        assert not runtime.engines[1].failed

    def test_exhaustion_window_spills(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        FaultPlan([ContextExhaustion(2, 0.0, 200.0)]).attach(machine)
        actors = tally_workload(machine, runtime)
        machine.run()
        assert {a.addr: machine.mem.get(a.addr) for a in actors}
        assert machine.faults.injected["ctx-exhaust"] == 1

    def test_engine_rules_inert_on_baseline_machine(self):
        # No Leviathan runtime: the rule has nothing to fault and the
        # run still completes.
        machine = Machine(small_config())
        FaultPlan.parse("crash:1@5").attach(machine)

        def prog():
            yield Compute(50)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert machine.stats["faults.inert_rules"] == 1
        assert machine.stats["faults.engine_failures"] == 0


class TestBoundedRetry:
    def test_retries_then_succeeds(self):
        cfg = small_config(
            **{"core.invoke_max_retries": 8, "core.invoke_retry_delay": 20}
        )
        machine = Machine(cfg)
        runtime = Leviathan(machine)
        # Window short enough for the backoff schedule to outlast it.
        FaultPlan([ContextExhaustion(1, 0.0, 100.0)]).attach(machine)
        retried = []
        machine.events.subscribe(InvokeRetried, retried.append)
        done = []

        class Probe(Actor):
            SIZE = 8

            @action
            def go(self, env):
                yield Compute(1)
                done.append(True)

        actor = runtime.allocator_for(Probe, capacity=2).allocate()

        def prog():
            yield Invoke(actor, "go", tile=1)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert done == [True]
        assert machine.stats["invoke.retries"] >= 1
        assert len(retried) == machine.stats["invoke.retries"]
        assert retried[0].attempt == 1
        assert retried[0].backoff == 20.0

    def test_timeout_past_max_retries(self):
        cfg = small_config(
            **{"core.invoke_max_retries": 2, "core.invoke_retry_delay": 5}
        )
        machine = Machine(cfg)
        runtime = Leviathan(machine)
        # Window far longer than 2 retries can cover.
        FaultPlan([ContextExhaustion(1, 0.0, 1_000_000.0)]).attach(machine)

        class Probe(Actor):
            SIZE = 8

            @action
            def go(self, env):
                yield Compute(1)

        actor = runtime.allocator_for(Probe, capacity=2).allocate()

        def prog():
            yield Invoke(actor, "go", tile=1)

        machine.spawn(prog(), tile=0)
        with pytest.raises(InvokeTimeout, match="2 retries"):
            machine.run()

    def test_legacy_mode_unchanged_without_config(self):
        # invoke_max_retries defaults to None: the unbounded spill queue
        # still handles NACKs and no retry shuttle is spawned.
        machine = Machine(small_config(**{"engine.task_contexts": 1}))
        runtime = Leviathan(machine)
        actors = tally_workload(machine, runtime, n=16)
        machine.run()
        assert {a.addr: machine.mem.get(a.addr) for a in actors}


class CountStream(Stream):
    def gen_stream(self, env):
        for i in range(10):
            yield from self.push(i)


class TestStreamDegradation:
    def test_failed_producer_engine_degrades_to_queue(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        FaultPlan.parse("crash:1").attach(machine)
        fallbacks = []
        machine.events.subscribe(DegradedToFallback, fallbacks.append)
        stream = CountStream(
            runtime, object_size=8, buffer_entries=16,
            consumer_tile=0, producer_tile=1,
        )
        got = []

        def consumer():
            while True:
                value = yield from stream.consume()
                if value is STREAM_END:
                    return
                got.append(value)

        # The crash driver fires at t=0 before the workload contexts
        # spawn; start() sees the failed engine.
        def starter():
            yield Compute(1)
            stream.start()
            machine.spawn(consumer(), tile=0)

        machine.spawn(starter(), tile=0)
        machine.run()
        assert got == list(range(10))
        assert machine.stats["stream.degraded"] == 1
        assert any(ev.kind == "stream-queue" for ev in fallbacks)


class TestMorphDegradation:
    def test_constructors_run_on_core_when_engine_failed(self):
        from repro.core.morph import Morph

        built = []

        class CountingMorph(Morph):
            def construct(self, view, index):
                built.append(index)
                yield Compute(1)

        machine = Machine(small_config())
        runtime = Leviathan(machine)
        FaultPlan.parse("crash:0; crash:1; crash:2; crash:3").attach(machine)
        morph = CountingMorph(runtime, "l2", 16, 8)

        def prog():
            yield Compute(1)
            yield Load(morph.get_actor_addr(0), 8)

        machine.spawn(prog(), tile=0)
        machine.run()
        assert built  # constructors still ran
        assert machine.stats["faults.actions_on_core"] > 0
        assert machine.stats["engine.instructions"] == 0


class TestDetachedOverhead:
    def test_no_plan_is_bit_identical(self):
        def run(attach_empty):
            machine = Machine(small_config())
            runtime = Leviathan(machine)
            if attach_empty:
                controller = FaultPlan([], seed=4).attach(machine)
                controller.detach()
            actors = tally_workload(machine, runtime)
            cycles = machine.run()
            return cycles, {a.addr: machine.mem.get(a.addr) for a in actors}

        assert run(False) == run(True)

    def test_detach_clears_hooks(self):
        machine = Machine(small_config())
        Leviathan(machine)
        controller = FaultPlan.parse("noc-delay:0.5@10; dram-err:0-10@0.5").attach(
            machine
        )
        assert machine.faults is controller
        assert machine.hierarchy.noc.faults is controller
        controller.detach()
        assert machine.faults is None
        assert machine.hierarchy.noc.faults is None
        assert all(c.faults is None for c in machine.hierarchy.mem.controllers)
        assert not machine.events.active


class TestFaultSession:
    def test_session_attaches_to_every_machine(self):
        with FaultSession("noc-delay:1.0@10; seed:1") as session:
            assert FaultSession.active() is session
            m1 = Machine(small_config())
            m2 = Machine(small_config())
            assert m1.faults is not None
            assert m2.faults is not None
            assert len(session.attached) == 2
        assert FaultSession.active() is None
        m3 = Machine(small_config())
        assert m3.faults is None

    def test_nested_install_rejected(self):
        with FaultSession("seed:0"):
            with pytest.raises(RuntimeError, match="already installed"):
                FaultSession("seed:1").install()

    def test_report_and_save(self, tmp_path):
        with FaultSession("noc-delay:1.0@25; seed:6") as session:
            machine = Machine(small_config())
            runtime = Leviathan(machine)
            tally_workload(machine, runtime)
            machine.run()
            report = session.report()
            assert report["seed"] == 6
            assert report["total_injected"] > 0
            path = session.save(str(tmp_path))
        import json

        with open(path) as handle:
            saved = json.load(handle)
        assert saved["machines"][0]["injected"]["noc-delay"] > 0

    def test_fault_report_lists_open_invokes_in_stall_dump(self):
        # The controller's span tracker feeds describe_stall: a hang with
        # an in-flight invoke names it in the DeadlockError dump.
        from repro.sim.ops import Condition, Wait
        from repro.sim.scheduler import DeadlockError

        with FaultSession("seed:0"):
            machine = Machine(small_config())
            Leviathan(machine)
            never = Condition("never")

            def prog():
                yield Wait(never)

            machine.spawn(prog(), tile=0, name="hang")
            with pytest.raises(DeadlockError) as excinfo:
                machine.run()
            assert "hang" in str(excinfo.value)
