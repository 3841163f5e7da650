"""Telemetry over the event bus: metrics, causal spans, Perfetto export.

Nothing here runs unless attached: the simulator's emit sites are
guarded by flags that follow the bus registry (the lifecycle sites by
``Machine.emit_lifecycle``), so a machine without telemetry pays one
attribute load per potential emit and allocates nothing. Attach a
:class:`Telemetry` to one machine, or install a
:class:`TelemetrySession` to capture every machine an experiment
builds (what ``--telemetry-out`` does).
"""

from repro.sim.telemetry.flightrec import FlightRecorder, FlightRecorderSession
from repro.sim.telemetry.log import (
    configure_run_logging,
    get_logger,
    set_log_context,
)
from repro.sim.telemetry.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.sim.telemetry.perfetto import (
    chrome_trace,
    load_and_validate,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.telemetry.requests import (
    RequestLatencyProbe,
    declare_request_classes,
)
from repro.sim.telemetry.session import Telemetry, TelemetrySession
from repro.sim.telemetry.spans import Span, SpanTracker

__all__ = [
    "FlightRecorder",
    "FlightRecorderSession",
    "configure_run_logging",
    "get_logger",
    "set_log_context",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "TimeSeries",
    "RequestLatencyProbe",
    "declare_request_classes",
    "Span",
    "SpanTracker",
    "Telemetry",
    "TelemetrySession",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_and_validate",
]
