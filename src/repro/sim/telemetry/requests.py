"""Per-request-class tail-latency tracking for serving workloads.

The span tracker already times every offload (``invoke:<action>``
spans, dispatch to future fill) and every stream entry
(``<stream>[<index>]`` spans, push to pop). Serving workloads want
those same durations bucketed by *request class* -- GET vs PUT vs
SCAN -- so tail percentiles (p50/p95/p99) can be reported per class.

Two pieces:

- :func:`declare_request_classes` tags a machine with a map from span
  key (invoke action name, or stream base name) to request-class
  label. :meth:`Telemetry._span_closed
  <repro.sim.telemetry.session.Telemetry>` consults it and observes
  ``request.latency.<class>`` histograms alongside the generic ones.
- :class:`RequestLatencyProbe` is the workload-side helper: it
  declares the classes *and* attaches its own :class:`Telemetry`
  instance, so percentiles are available even when no
  ``--telemetry-out`` session is installed. Like all telemetry it is a
  pure observer -- simulated results are bit-identical with and
  without it -- but serving workloads attach it unconditionally so
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
from repro.sim.telemetry.session import Telemetry

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

    Wraps a dedicated :class:`Telemetry` instance (probe-labelled so a
    saved artifact directory is distinguishable) and declares the
    request classes on the machine. After ``machine.run()``, call
    :meth:`finalize` once, then read :meth:`percentiles` or merge
    :meth:`stat_fields` into a ``RunResult``'s stats.
    """

    def __init__(self, machine, classes, max_spans=200_000):
        self.machine = machine
        self.classes = dict(classes)
        declare_request_classes(machine, self.classes)
        self.telemetry = Telemetry(
            machine, label="request-probe", max_spans=max_spans
        )

    def finalize(self):
        """Close out unfinished spans (call once, after the run)."""
        self.telemetry.finalize()
        return self

    def detach(self):
        """Stop observing the bus (recorded data stays readable)."""
        self.telemetry.detach()
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
            out[cls] = self.telemetry.metrics.value(f"request.latency.{cls}")
        return out

    def attribution(self):
        """The probe's latency-attribution rollup (finalize first)."""
        return self.telemetry.attribution

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
        attribution = self.telemetry.attribution.snapshot()
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
