"""Per-request-class tail-latency tracking for serving workloads.

The span tracker already times every offload (``invoke:<action>``
spans, dispatch to future fill) and every stream entry
(``<stream>[<index>]`` spans, push to pop). Serving workloads want
those same durations bucketed by *request class* -- GET vs PUT vs
SCAN -- so tail percentiles (p50/p95/p99) can be reported per class.

Two pieces:

- :func:`declare_request_classes` tags a machine with a map from span
  key (invoke action name, or stream base name) to request-class
  label. :class:`~repro.sim.telemetry.session.RequestSpans` consults
  it as each span closes and observes ``request.latency.<class>``
  histograms.
- :class:`RequestLatencyProbe` is the workload-side helper: it
  declares the classes *and* subscribes its own
  :class:`~repro.sim.telemetry.session.RequestSpans` -- the spans,
  per-invoke memory split, request histograms and attribution that
  :class:`~repro.sim.telemetry.session.Telemetry` also uses, without
  Telemetry's fabric metrics -- so percentiles are available even
  when no ``--telemetry-out`` session is installed. It wants no cache,
  NoC or DRAM event, so those emit sites stay off. Like all telemetry
  it is a pure observer -- simulated results are bit-identical with
  and without it -- but serving workloads attach it unconditionally so
  correlation-ID draws (which only happen while some subscriber wants
  a lifecycle event, ``Machine.emit_lifecycle``) are identical across
  configurations.

Usage::

    probe = RequestLatencyProbe(machine, {"get": "get", "put": "put"})
    ... build and run the machine ...
    probe.finalize()
    result.stats.update(probe.stat_fields())   # request.get.p95, ...
"""

from repro.sim.telemetry.critpath import COMPONENTS
from repro.sim.telemetry.metrics import MetricsRegistry
from repro.sim.telemetry.session import RequestSpans

#: Snapshot fields copied into flat per-class stats, in report order.
PERCENTILE_FIELDS = ("count", "p50", "p95", "p99", "mean", "max")

#: Per-component fields copied into flat attribution stats.
ATTRIBUTION_FIELDS = ("total", "p50", "p95", "p99")


def declare_request_classes(machine, classes):
    """Tag ``machine`` so telemetry buckets span latencies per class.

    ``classes`` maps a span key to a request-class label. Keys are
    matched against the invoke *action name* (an ``invoke:lookup``
    span matches key ``"lookup"``) and the stream *base name* (a
    ``kv-scan3[7]`` span matches key ``"kv-scan3"``). Several keys may
    share one class -- e.g. every per-client scan stream mapping to
    ``"scan"``. Returns the machine for chaining.
    """
    machine.request_classes = dict(classes)
    return machine


class RequestLatencyProbe:
    """Attach per-request-class latency histograms to one machine.

    Declares the request classes on the machine and subscribes a
    :class:`~repro.sim.telemetry.session.RequestSpans` to the events
    :meth:`~repro.sim.telemetry.session.RequestSpans.feeds` names. After
    ``machine.run()``, call :meth:`finalize` once, then read
    :meth:`percentiles` or merge :meth:`stat_fields` into a
    ``RunResult``'s stats.
    """

    def __init__(self, machine, classes):
        self.machine = machine
        self.classes = dict(classes)
        declare_request_classes(machine, self.classes)
        #: Holds only the ``request.latency.<class>`` histograms.
        self.metrics = MetricsRegistry()
        self._requests = RequestSpans(machine, self.metrics)
        self.spans = self._requests.spans
        self._feeds = self._requests.feeds()
        self._finalized = False
        for event_type in self._feeds:
            machine.events.subscribe(event_type, self._on_event)
        self._attached = True

    def _on_event(self, ev):
        self._feeds[type(ev)](ev)

    def finalize(self):
        """Close out unfinished spans (idempotent; call after the run)."""
        if not self._finalized:
            self._finalized = True
            self.spans.finalize(self.machine.scheduler.now)
        return self

    def detach(self):
        """Stop observing the bus (recorded data stays readable)."""
        if self._attached:
            for event_type in self._feeds:
                self.machine.events.unsubscribe(event_type, self._on_event)
            self._attached = False
        return self

    def percentiles(self):
        """Latency snapshot per request class.

        Returns ``{class: snapshot}`` where snapshot is the
        :class:`~repro.sim.telemetry.metrics.LogHistogram` snapshot
        dict (count/sum/min/max/mean/p50/p95/p99/buckets). Classes
        with no completed requests map to ``None``.
        """
        out = {}
        for cls in sorted(set(self.classes.values())):
            out[cls] = self.metrics.value(f"request.latency.{cls}")
        return out

    def attribution(self):
        """The probe's latency-attribution rollup (finalize first)."""
        return self._requests.attribution

    def stat_fields(self):
        """Flat JSON-safe floats for ``RunResult.stats``.

        One ``request.<class>.<field>`` entry per class and percentile
        field, e.g. ``request.get.p99``, plus the latency-attribution
        waterfall: ``attribution.<class>.<component>.<field>`` for every
        taxonomy component (see
        :data:`~repro.sim.telemetry.critpath.COMPONENTS`) and
        ``attribution.<class>.{count,cycles,coverage}``. Classes that
        saw no requests report zeros, so reruns always produce the same
        key set.
        """
        fields = {}
        for cls, snap in self.percentiles().items():
            for field in PERCENTILE_FIELDS:
                value = 0.0 if snap is None else float(snap[field])
                fields[f"request.{cls}.{field}"] = value
        attribution = self._requests.attribution.snapshot()
        for cls in sorted(set(self.classes.values())):
            entry = attribution.get(cls)
            base = f"attribution.{cls}"
            fields[f"{base}.count"] = float(entry["count"]) if entry else 0.0
            fields[f"{base}.cycles"] = float(entry["cycles"]) if entry else 0.0
            fields[f"{base}.coverage"] = (
                float(entry["coverage"]) if entry else 1.0
            )
            for component in COMPONENTS:
                comp = entry["components"][component] if entry else None
                for field in ATTRIBUTION_FIELDS:
                    fields[f"{base}.{component}.{field}"] = (
                        float(comp[field]) if comp else 0.0
                    )
        return fields
