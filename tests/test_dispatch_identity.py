"""Attached/detached dispatch identity on the fig18 and HATS workloads.

Every access walks the caches the same way, and the hierarchy counts
every walk's outcome trail. When anything subscribes to
``MemoryAccess`` -- a bare handler, a request-latency probe or a
telemetry session -- each access also builds a full
:class:`AccessResult` and emits it; with no subscriber (a plain
hash-table or HATS run) only the latency is returned. A fault plan
subscribes only to invoke-lifecycle events, so it does not change which
variant runs; a flight recorder subscribes to every event type. These
are *performance* variants, not semantic ones: a run must produce
bit-identical timing, energy, statistics (phase-qualified counters
included), per-level access counts and functional output no matter
which variant it took, and attached runs must observe identical
``AccessResult`` streams.
"""

from contextlib import contextmanager

import pytest

import repro.workloads.hashtable as hashtable
import repro.workloads.hats as hats
from repro.sim.events import MemoryAccess
from repro.sim.faults import FaultSession
from repro.sim.observers import add_machine_observer, remove_machine_observer
from repro.sim.telemetry.flightrec import FlightRecorderSession
from repro.sim.telemetry.session import TelemetrySession

#: fig18 scaled to unit-test size (a run is a few thousand steps).
SMALL = dict(n_buckets=16, nodes_per_bucket=8, n_threads=4, lookups_per_thread=8)
TILES = 4
#: Figs. 20-21's HATS at unit-test size; it runs a vertex then an edge phase.
HATS_SMALL = dict(
    n_vertices=128, n_edges=1024, n_communities=4, bdfs_depth=4, stream_buffer=32
)
#: Counted while the machine is built, before the first phase begins.
SETUP_COUNTERS = {"allocator.pools", "morph.registrations"}


def fingerprint(result):
    """Everything a run produces."""
    return (
        result.cycles,
        result.energy_pj,
        result.stats,
        repr(result.output),
        result.energy_breakdown,
        result.access_profile,
    )


@contextmanager
def memory_access_streams():
    """Log the MemoryAccess stream of every machine built inside.

    A bare subscriber installed through ``add_machine_observer``; yields
    a list that gains one stream per machine, each entry the event's
    fields with the ``repr`` of its ``AccessResult``.
    """
    streams = []

    def observe(machine):
        stream = []
        streams.append(stream)

        def on_access(e):
            fields = (e.tile, e.addr, e.size, e.is_write, e.engine, e.near_memory)
            stream.append((*fields, repr(e.result)))

        machine.events.subscribe(MemoryAccess, on_access)

    add_machine_observer(observe)
    try:
        yield streams
    finally:
        remove_machine_observer(observe)


def _run(runner, **kwargs):
    return runner(dict(SMALL), n_tiles=TILES, **kwargs)


@pytest.mark.parametrize(
    "runner", [hashtable.run_baseline, hashtable.run_leviathan], ids=["baseline", "leviathan"]
)
class TestAttachedDetachedIdentity:
    def test_detached_matches_attached(self, runner):
        detached = _run(runner)
        assert detached.access_profile  # the hierarchy counted the walks
        with memory_access_streams() as streams:
            attached = _run(runner)
        [stream] = streams
        assert stream  # the run really took the instrumented path
        assert fingerprint(attached) == fingerprint(detached)

    def test_fault_attached_matches(self, runner):
        attached = _run(runner)
        # An inert plan (probability 0) attaches the fault machinery
        # without ever perturbing the run; it wants no MemoryAccess, so
        # the access path stays the detached one.
        with FaultSession("noc-delay:0.0@5") as session:
            faulted = _run(runner)
        assert session.total_injected == 0
        assert fingerprint(faulted) == fingerprint(attached)

    def test_telemetry_attached_matches(self, runner):
        attached = _run(runner)
        with TelemetrySession() as session:
            telemetered = _run(runner)
        assert session.attached  # the run really was observed
        assert fingerprint(telemetered) == fingerprint(attached)

    def test_flight_recorder_attached_matches(self, runner):
        attached = _run(runner)
        with FlightRecorderSession(capacity=64) as session:
            recorded = _run(runner)
        [recorder] = session.attached
        assert recorder.events_seen > 64  # the run really was observed
        assert fingerprint(recorded) == fingerprint(attached)


class TestPhasedRunIdentity:
    def test_telemetry_attached_matches_detached(self):
        detached = hats.run_leviathan(dict(HATS_SMALL), n_tiles=TILES)
        with TelemetrySession() as session:
            attached = hats.run_leviathan(dict(HATS_SMALL), n_tiles=TILES)
        assert session.attached  # the run really was observed
        assert detached.stats["edge/dram.accesses"] > 0
        assert fingerprint(attached) == fingerprint(detached)

    def test_phases_partition_integer_counters(self):
        stats = hats.run_leviathan(dict(HATS_SMALL), n_tiles=TILES).stats
        for name, value in stats.items():
            if "/" in name or not isinstance(value, int) or name in SETUP_COUNTERS:
                continue
            phased = stats.get(f"vertex/{name}", 0) + stats.get(f"edge/{name}", 0)
            assert phased == value, name


class TestAccessResultStream:
    @pytest.mark.parametrize(
        "runner",
        [hashtable.run_baseline, hashtable.run_leviathan],
        ids=["baseline", "leviathan"],
    )
    def test_repeated_attached_runs_identical_streams(self, runner):
        with memory_access_streams() as streams:
            first = _run(runner)
            second = _run(runner)
        assert len(streams) == 2
        assert streams[0], "instrumented run observed no accesses"
        assert streams[0] == streams[1]
        assert fingerprint(first) == fingerprint(second)
