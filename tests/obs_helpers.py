"""Importable spec targets and mini-workloads for observability tests.

Pool workers resolve :class:`~repro.experiments.pool.RunSpec` functions
by import path, so anything a pool test fans out must live in a real
module (``"tests.obs_helpers:slow_point"``) rather than inside the test
file. The invoke workload also serves the flight-recorder tests, which
need a run that emits plenty of bus events.
"""

import os
import signal
import time

from repro.core.actor import Actor, action
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.config import small_config
from repro.sim.ops import Compute
from repro.sim.system import Machine


def slow_point(tag, seconds=0.3):
    """Sleep long enough for a heartbeat/status poll to catch the run."""
    time.sleep(seconds)
    return {"tag": tag}


def pid_point(tag="pid"):
    """The pid of the process that ran this spec (``tag`` only labels it)."""
    return os.getpid()


def flaky_point(sentinel, tag="flaky"):
    """SIGKILL our own worker once; succeed after the sentinel exists.

    Exercises the supervisor's transient-failure path: the first
    attempt leaves a sentinel file and dies without an outcome; the
    requeued attempt sees the sentinel and returns normally.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("attempt 1 died here\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"tag": tag}


def slow_once_point(sentinel, tag="slow-once", seconds=60.0):
    """Blow the run deadline once; succeed on the retried attempt."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("attempt 1 overslept here\n")
        time.sleep(seconds)
    return {"tag": tag}


def hang_point(sentinel, tag="hang", seconds=120.0):
    """Simulate a hung worker once; succeed on the retried attempt.

    The first attempt suspends its own heartbeat writer and sleeps --
    to the supervisor this is indistinguishable from a livelocked or
    SIGSTOPped worker, so it must be killed via hang detection and
    requeued. The retried attempt sees the sentinel and returns.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("attempt 1 hung here\n")
        from repro.experiments.monitor import current_heartbeat

        writer = current_heartbeat()
        if writer is not None:
            writer.suspend()
        time.sleep(seconds)
    return {"tag": tag}


def deadlocking_point(tag="deadlock"):
    """Build a machine and livelock it: raises via the watchdog."""
    machine = Machine(small_config(watchdog_steps=500))

    def spin():
        while True:
            yield Compute(0)

    machine.spawn(spin(), tile=0, name=f"{tag}-spinner")
    machine.run()


class Ping(Actor):
    SIZE = 8

    @action
    def ping(self, env, amount):
        yield Compute(1)


def invoke_burst(machine=None):
    """A small invoke storm over four tiles; returns the machine."""
    machine = machine if machine is not None else Machine(small_config())
    runtime = Leviathan(machine)
    alloc = runtime.allocator_for(Ping, capacity=8)
    actors = [alloc.allocate() for _ in range(4)]

    def invoker(tile):
        for i in range(6):
            actor = actors[(tile + i) % 4]
            yield Invoke(actor, "ping", (i,), location=Location.REMOTE)
            yield Compute(2)

    for tile in range(4):
        machine.spawn(invoker(tile), tile=tile)
    machine.run()
    return machine
