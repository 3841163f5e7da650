"""Fast/slow dispatch identity on the fig18 workload.

The hierarchy has two dispatch variants: the instrumented path (taken
whenever anything subscribes to ``MemoryAccess`` -- profilers, faults,
telemetry) builds a full :class:`AccessResult` per request, and the
detached fast path walks the same caches through a pooled request and
returns only the latency. These are *performance* variants, not
semantic ones: a run must produce bit-identical timing, energy,
statistics, and functional output no matter which path it took, and
attached runs must observe identical ``AccessResult`` streams.
"""

import pytest

import repro.workloads.hashtable as hashtable
from repro.sim.faults import FaultSession
from repro.sim.stats import AccessProfile
from repro.sim.telemetry.session import TelemetrySession

#: fig18 scaled to unit-test size (a run is a few thousand steps).
SMALL = dict(n_buckets=16, nodes_per_bucket=8, n_threads=4, lookups_per_thread=8)
TILES = 4


def fingerprint(result):
    """Everything a run produces except the (optional) access profile."""
    return (
        result.cycles,
        result.energy_pj,
        result.stats,
        repr(result.output),
        result.energy_breakdown,
    )


class _NullProfile:
    """Stand-in that never subscribes: forces the detached fast path."""

    def __init__(self, machine=None):
        self.requests = 0

    def detach(self):
        return self

    def breakdown(self):
        return {}


class _RecordingProfile(AccessProfile):
    """AccessProfile that also logs the full MemoryAccess stream."""

    instances = []

    def __init__(self, machine=None):
        self.stream = []
        super().__init__(machine)
        _RecordingProfile.instances.append(self)

    def _on_access(self, event):
        self.stream.append(
            (
                event.tile,
                event.addr,
                event.size,
                event.is_write,
                event.engine,
                event.near_memory,
                repr(event.result),
            )
        )
        super()._on_access(event)


def _run(runner, **kwargs):
    return runner(dict(SMALL), n_tiles=TILES, **kwargs)


@pytest.mark.parametrize(
    "runner", [hashtable.run_baseline, hashtable.run_leviathan], ids=["baseline", "leviathan"]
)
class TestAttachedDetachedIdentity:
    def test_detached_matches_attached(self, runner, monkeypatch):
        attached = _run(runner)
        assert attached.access_profile  # default runner really instruments
        monkeypatch.setattr(hashtable, "AccessProfile", _NullProfile)
        detached = _run(runner)
        assert detached.access_profile == {}
        assert fingerprint(detached) == fingerprint(attached)

    def test_fault_attached_matches(self, runner):
        attached = _run(runner)
        # An inert plan (probability 0) attaches the fault machinery --
        # and with it the instrumented access path -- without ever
        # perturbing the run.
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


class TestAccessResultStream:
    @pytest.mark.parametrize(
        "runner",
        [hashtable.run_baseline, hashtable.run_leviathan],
        ids=["baseline", "leviathan"],
    )
    def test_repeated_attached_runs_identical_streams(self, runner, monkeypatch):
        monkeypatch.setattr(hashtable, "AccessProfile", _RecordingProfile)
        monkeypatch.setattr(_RecordingProfile, "instances", [])
        first = _run(runner)
        second = _run(runner)
        streams = [p.stream for p in _RecordingProfile.instances]
        assert len(streams) == 2
        assert streams[0], "instrumented run observed no accesses"
        assert streams[0] == streams[1]
        assert fingerprint(first) == fingerprint(second)
        assert first.access_profile == second.access_profile
