"""Scheduler determinism: heap and run-list produce one schedule.

The run-list scheduler (:class:`Scheduler`, the one every machine
builds) is a performance rearchitecture of the original binary-heap
scheduler (:class:`HeapScheduler`, kept as the executable reference).
Its correctness claim is *bit-identical schedules*: for any workload,
both execute the same operations on the same contexts in the same
order at the same simulated times. These tests build machines in two
modes -- ``"heap"`` substitutes the reference by patching
``repro.sim.system.Scheduler`` -- drive both over seeded random
workloads and over a real macro workload, and require identical
execution logs, final times, and statistics, guarding the
tie-break-by-enqueue-order contract documented in ``scheduler.py``.
"""

import random
from unittest import mock

import pytest

from repro.sim.config import small_config
from repro.sim.ops import Compute, Load, Sleep, Store
from repro.sim.scheduler import HeapScheduler, Scheduler
from repro.sim.system import Machine


SCHEDULERS = {"runlist": Scheduler, "heap": HeapScheduler}


def _make_machine(mode):
    with mock.patch("repro.sim.system.Scheduler", SCHEDULERS[mode]):
        return Machine(small_config())


def _random_op_trace(seed, steps):
    """Pre-generate one context's operation list (schedule-independent).

    Drawing from the RNG *during* the run would entangle the draw order
    with the schedule under test; pre-generating makes each program a
    fixed sequence so any divergence is the scheduler's alone.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.40:
            ops.append(("compute", rng.randint(1, 6)))
        elif roll < 0.55:
            ops.append(("sleep", rng.randint(0, 3)))
        elif roll < 0.80:
            ops.append(("load", rng.randrange(0, 64) * 64))
        else:
            ops.append(("store", rng.randrange(0, 64) * 64))
    return ops


def _run_mode(mode, seed, n_contexts=6, steps=40):
    """Run the seeded workload under ``mode``; return its full trace."""
    machine = _make_machine(mode)
    base = machine.address_space.alloc(64 * 64, align=64)
    log = []

    def program(name, trace):
        for i, (kind, arg) in enumerate(trace):
            # The (who, step, when) triple captures the interleaving:
            # two schedules are identical iff these logs are equal.
            log.append((name, i, machine.scheduler.current.time))
            if kind == "compute":
                yield Compute(arg)
            elif kind == "sleep":
                yield Sleep(arg)
            elif kind == "load":
                yield Load(base + arg, 8)
            else:
                yield Store(base + arg, 8)

    for c in range(n_contexts):
        trace = _random_op_trace(seed * 1000 + c, steps)
        machine.spawn(
            program(f"det{c}", trace), tile=c % machine.config.n_tiles, name=f"det{c}"
        )
    final = machine.run()
    return log, final, dict(machine.stats.counters)


class TestSchedulerModeSelection:
    def test_default_is_runlist(self):
        machine = Machine(small_config())
        assert type(machine.scheduler) is Scheduler

    def test_heap_mode_selectable(self):
        machine = _make_machine("heap")
        assert type(machine.scheduler) is HeapScheduler


class TestSpawnOrderTieBreak:
    """Same-time contexts run in spawn order -- in both modes."""

    def test_zero_time_spawn_order(self):
        orders = {}
        for mode in ("runlist", "heap"):
            machine = _make_machine(mode)
            order = []

            def program(name):
                order.append(name)
                yield Compute(1)
                order.append(name)
                yield Compute(1)

            for c in range(5):
                machine.spawn(program(f"tie{c}"), tile=0, name=f"tie{c}")
            machine.run()
            orders[mode] = order
        # The first round runs strictly in spawn order. (Later rounds
        # are allowed to let the dispatching context continue through a
        # time tie -- but both modes must make the same choice.)
        assert orders["runlist"][:5] == [f"tie{c}" for c in range(5)]
        assert orders["runlist"] == orders["heap"]

    @pytest.mark.parametrize("mode", ["runlist", "heap"])
    def test_wake_preserves_fifo_order(self, mode):
        from repro.sim.ops import Condition, Wait

        machine = _make_machine(mode)
        cond = Condition("gate")
        got = []

        def waiter(name):
            value = yield Wait(cond)
            got.append((name, value))

        def waker():
            yield Sleep(10)
            machine.scheduler.wake_all(cond, value="go")

        for c in range(4):
            machine.spawn(waiter(f"w{c}"), tile=0, name=f"w{c}")
        machine.spawn(waker(), tile=1, name="waker")
        machine.run()
        assert got == [(f"w{c}", "go") for c in range(4)]


class TestHeapRunlistEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23, 101, 424242])
    def test_random_workload_identical_schedules(self, seed):
        runlist = _run_mode("runlist", seed)
        heap = _run_mode("heap", seed)
        assert runlist[0] == heap[0], "execution interleaving diverged"
        assert runlist[1] == heap[1], "final simulated time diverged"
        assert runlist[2] == heap[2], "statistics diverged"

    @pytest.mark.parametrize("seed", [3, 17])
    def test_contended_single_tile(self, seed):
        """Everything on one tile: maximal timestamp collisions."""
        machine_results = []
        for mode in ("runlist", "heap"):
            machine = _make_machine(mode)
            base = machine.address_space.alloc(8 * 64, align=64)
            log = []

            def program(name, trace):
                for i, (kind, arg) in enumerate(trace):
                    log.append((name, i))
                    if kind == "compute":
                        yield Compute(arg)
                    elif kind == "sleep":
                        yield Sleep(arg)
                    elif kind == "load":
                        yield Load(base + (arg % 512), 8)
                    else:
                        yield Store(base + (arg % 512), 8)

            for c in range(8):
                trace = _random_op_trace(seed * 77 + c, 25)
                machine.spawn(program(f"c{c}", trace), tile=0, name=f"c{c}")
            final = machine.run()
            machine_results.append((log, final, dict(machine.stats.counters)))
        assert machine_results[0] == machine_results[1]


class TestMacroEquivalence:
    """A real runtime workload (parks, wakes, invokes) in both modes."""

    def test_fig18_identical_across_modes(self, monkeypatch):
        from repro.perf.registry import FIG18_PARAMS
        from repro.workloads.hashtable import run_leviathan

        small = dict(FIG18_PARAMS)
        small.update(n_buckets=16, nodes_per_bucket=8, n_threads=4, lookups_per_thread=8)

        results = {}
        for mode in ("runlist", "heap"):
            if mode == "heap":
                import repro.sim.system as system_module

                monkeypatch.setattr(system_module, "Scheduler", HeapScheduler)
            r = run_leviathan(dict(small), n_tiles=4)
            results[mode] = (r.cycles, r.energy_pj, r.output, r.stats)
        assert results["runlist"] == results["heap"]
