"""The request-latency probe (repro.sim.telemetry.requests).

- its subscription surface: the request path only, so an attached probe
  leaves the cache, NoC and DRAM emit sites off while lifecycle events
  (and so correlation-ID draws) stay on;
- its fields equal the ones a full ``Telemetry`` computes over the same
  run, because both close spans through one ``RequestSpans``;
- declared-but-idle classes, repeated ``finalize`` and ``detach``.
"""

import pytest

from repro.core.actor import Actor, action
from repro.core.future import WaitFuture
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim import events
from repro.sim.config import small_config
from repro.sim.ops import Compute, Load
from repro.sim.system import Machine
from repro.sim.telemetry import Telemetry, TelemetrySession
from repro.sim.telemetry.critpath import COMPONENTS
from repro.sim.telemetry.requests import (
    ATTRIBUTION_FIELDS,
    PERCENTILE_FIELDS,
    RequestLatencyProbe,
)
from repro.workloads.serving import kvpaging, kvserve, nearstorage
from tests.conftest import run_program
from tests.test_serving import KV_SMALL, PAGING_SMALL, STORAGE_SMALL

#: Events only the fabric metrics of a full Telemetry (or a recorder)
#: want; a probe must leave every one of them unbuilt.
_FABRIC_EVENTS = (
    events.CacheAccess,
    events.FlitHop,
    events.DramAccess,
    events.Eviction,
    events.CoherenceAction,
)


def _fabric_flags(machine):
    """The cached emit flags of the cache, NoC and DRAM sites."""
    hierarchy = machine.hierarchy
    return {
        "cache": hierarchy.private.emit_cache_access,
        "shared-cache": hierarchy.shared.emit_cache_access,
        "noc": hierarchy.noc._emit_flit_hop,
        "dram": [c._emit_dram_access for c in hierarchy.mem.controllers],
    }


class _Cell(Actor):
    SIZE = 8

    @action
    def read(self, env):
        yield Load(self.addr, 8)
        yield Compute(5)
        return 7


def _run_reads(machine, n=3):
    """``n`` REMOTE ``read`` invokes with futures; returns the values."""
    runtime = Leviathan(machine)
    cell = runtime.allocator_for(_Cell, capacity=8).allocate()
    values = []

    def client():
        for _ in range(n):
            future = yield Invoke(
                cell, "read", location=Location.REMOTE, with_future=True
            )
            values.append((yield WaitFuture(future)))

    run_program(machine, client())
    return values


class TestSubscriptionSurface:
    def test_probe_builds_no_fabric_event(self):
        machine = Machine(small_config())
        machine.events.subscribe(events.MemoryAccess, lambda e: None)
        RequestLatencyProbe(machine, {"read": "read"})
        for event_type in _FABRIC_EVENTS:
            assert not machine.events.wants(event_type), event_type.__name__
        assert machine.emit_lifecycle
        assert _fabric_flags(machine) == {
            "cache": False,
            "shared-cache": False,
            "noc": False,
            "dram": [False] * len(machine.hierarchy.mem.controllers),
        }

    def test_telemetry_turns_fabric_flags_on_and_detach_off(self):
        machine = Machine(small_config())
        machine.events.subscribe(events.MemoryAccess, lambda e: None)
        RequestLatencyProbe(machine, {"read": "read"})
        telemetry = Telemetry(machine)
        flags = _fabric_flags(machine)
        assert flags["cache"] and flags["shared-cache"] and flags["noc"]
        assert all(flags["dram"])
        telemetry.detach()
        for event_type in _FABRIC_EVENTS:
            assert not machine.events.wants(event_type), event_type.__name__
        flags = _fabric_flags(machine)
        assert not (flags["cache"] or flags["shared-cache"] or flags["noc"])
        assert not any(flags["dram"])
        assert machine.emit_lifecycle  # the probe still wants them


def _telemetry_fields(telemetry, classes):
    """The probe's ``stat_fields`` recomputed from a full Telemetry."""
    fields = {}
    for cls in classes:
        snap = telemetry.metrics.value(f"request.latency.{cls}")
        for field in PERCENTILE_FIELDS:
            fields[f"request.{cls}.{field}"] = 0.0 if snap is None else float(snap[field])
    attribution = telemetry.attribution.snapshot()
    for cls in classes:
        entry = attribution.get(cls)
        base = f"attribution.{cls}"
        fields[f"{base}.count"] = float(entry["count"]) if entry else 0.0
        fields[f"{base}.cycles"] = float(entry["cycles"]) if entry else 0.0
        fields[f"{base}.coverage"] = float(entry["coverage"]) if entry else 1.0
        for component in COMPONENTS:
            comp = entry["components"][component] if entry else None
            for field in ATTRIBUTION_FIELDS:
                fields[f"{base}.{component}.{field}"] = float(comp[field]) if comp else 0.0
    return fields


class TestProbeMatchesTelemetry:
    @pytest.mark.parametrize(
        "run,params",
        [
            (kvserve.run_leviathan, KV_SMALL),
            (nearstorage.run_leviathan, STORAGE_SMALL),
            (kvpaging.run_leviathan, PAGING_SMALL),
        ],
        ids=["kvserve", "nearstorage", "kvpaging"],
    )
    def test_stat_fields_equal_session_telemetry(self, run, params):
        """One span-close path: the probe's request histograms and
        attribution equal a session Telemetry's over the same run."""
        with TelemetrySession() as session:
            result = run(params, n_tiles=4)
        (telemetry,) = session.attached
        telemetry.finalize()
        classes = sorted(set(telemetry.machine.request_classes.values()))
        probe_fields = {
            key: value
            for key, value in result.stats.items()
            if key.startswith(("request.", "attribution."))
        }
        assert probe_fields == _telemetry_fields(telemetry, classes)
        assert any(probe_fields[f"request.{cls}.count"] for cls in classes)


class TestProbeLifecycle:
    def test_idle_class_reports_zeros_and_full_coverage(self):
        machine = Machine(small_config())
        probe = RequestLatencyProbe(machine, {"read": "read", "write": "write"})
        assert _run_reads(machine) == [7, 7, 7]
        fields = probe.finalize().stat_fields()
        assert fields["request.read.count"] == 3.0
        assert fields["request.read.p99"] > 0.0
        for field in PERCENTILE_FIELDS:
            assert fields[f"request.write.{field}"] == 0.0
        assert probe.percentiles()["write"] is None
        assert fields["attribution.write.coverage"] == 1.0
        assert fields["attribution.write.count"] == 0.0
        assert fields["attribution.write.cycles"] == 0.0
        for component in COMPONENTS:
            for field in ATTRIBUTION_FIELDS:
                assert fields[f"attribution.write.{component}.{field}"] == 0.0

    def test_finalize_twice_changes_nothing(self):
        machine = Machine(small_config())
        probe = RequestLatencyProbe(machine, {"read": "read"})
        _run_reads(machine)
        first = probe.finalize().stat_fields()
        spans = len(probe.spans.finished)
        second = probe.finalize().stat_fields()
        assert first == second
        assert len(probe.spans.finished) == spans
        assert probe.attribution().snapshot()["read"]["count"] == 3

    def test_detached_probe_observes_nothing(self):
        machine = Machine(small_config())
        probe = RequestLatencyProbe(machine, {"read": "read"})
        probe.detach()
        probe.detach()  # idempotent
        assert machine.events.subscriber_count() == 0
        assert _run_reads(machine) == [7, 7, 7]
        fields = probe.finalize().stat_fields()
        assert probe.spans.finished == []
        assert fields["request.read.count"] == 0.0
        assert fields["attribution.read.coverage"] == 1.0
