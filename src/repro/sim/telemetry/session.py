"""The telemetry facade: attach, collect, save.

:class:`Telemetry` subscribes one machine's event bus to a
:class:`~repro.sim.telemetry.metrics.MetricsRegistry` and a
:class:`RequestSpans` (spans, their memory split, request-class
histograms and latency attribution, the part it shares with
:class:`~repro.sim.telemetry.requests.RequestLatencyProbe`), and knows
how to write the artifacts a run produces:

- ``trace.json``  -- the Perfetto/Chrome trace (spans + counter tracks);
- ``metrics.json`` -- the JSON metrics snapshot;
- ``metrics.prom`` -- the Prometheus-style text dump;
- ``attribution.json`` -- the per-class latency-attribution report.

:class:`TelemetrySession` scales that to whole experiment runs: while
*installed*, every :class:`~repro.sim.system.Machine` constructed
anywhere in the process gets a ``Telemetry`` attached automatically
through the machine-observer list (:mod:`repro.sim.observers`; an
uninstalled session costs nothing per machine or per event).
``session.save(outdir)`` then writes one artifact directory per
machine. This is what the experiment runner's ``--telemetry-out`` flag
drives.

Telemetry is an observer: it subscribes to the bus and reads machine
state, but never advances time or mutates anything, so simulated
results are bit-identical with and without it attached.
"""

import json
import os

from repro.sim.events import (
    CacheAccess,
    DegradedToFallback,
    DramAccess,
    EngineFailed,
    EngineTask,
    EngineTaskDone,
    EngineTaskStart,
    FaultInjected,
    FlitHop,
    FutureFilled,
    InvokeDispatched,
    InvokeRetried,
    InvokeStalled,
    MemoryAccess,
    StreamBlocked,
    StreamPop,
    StreamPush,
    WatchdogFired,
)
from repro.sim.observers import MachineSession
from repro.sim.telemetry.critpath import (
    AccessCostModel,
    AttributionRollup,
    critical_path_flows,
)
from repro.sim.telemetry.metrics import MetricsRegistry
from repro.sim.telemetry.perfetto import write_chrome_trace
from repro.sim.telemetry.spans import SpanTracker


class RequestSpans:
    """Request spans and what each closed one feeds.

    The work every request-latency consumer needs, and nothing more:
    causal spans (:class:`SpanTracker`), each invoke's memory cycles
    split into cache/NoC/DRAM (:class:`AccessCostModel`), the
    ``request.latency.<class>`` histograms in ``metrics``, and the
    :class:`AttributionRollup`. :class:`Telemetry` and
    :class:`~repro.sim.telemetry.requests.RequestLatencyProbe` each own
    one and subscribe the bus themselves; :meth:`feeds` names the events
    this needs. ``on_close`` is called with each closed span after the
    shared work.
    """

    def __init__(self, machine, metrics, on_close=None):
        self.machine = machine
        self.metrics = metrics
        self.spans = SpanTracker(on_close=self._span_closed)
        self.attribution = AttributionRollup()
        self.on_close = on_close
        #: cid -> accumulated [cache, noc, dram] memory cycles, stashed
        #: onto the invoke span's args at close time.
        self._mem = {}
        self._cost_model = None

    def feeds(self):
        """Event type -> the callable that feeds it in.

        The nine lifecycle events, ``MemoryAccess`` for the memory
        split, and the two resilience events that annotate spans. No
        cache, NoC or DRAM event: a consumer of this alone leaves those
        emit sites off.
        """
        spans = self.spans
        return {
            InvokeDispatched: spans.invoke_dispatched,
            InvokeStalled: spans.invoke_stalled,
            EngineTask: spans.engine_task,
            EngineTaskStart: spans.engine_start,
            EngineTaskDone: spans.engine_done,
            FutureFilled: spans.future_filled,
            StreamPush: spans.stream_push,
            StreamPop: spans.stream_pop,
            StreamBlocked: spans.stream_blocked,
            MemoryAccess: self.memory_access,
            InvokeRetried: spans.invoke_retried,
            DegradedToFallback: spans.degraded,
        }

    def memory_access(self, ev):
        """Add one access's memory split to the invoke that issued it.

        Engine task contexts carry their invoke's cid, and the
        scheduler's current context is exactly who issued this access.
        The split accumulates per cid and lands on the span at close.
        """
        current = self.machine.scheduler.current
        cid = getattr(current, "cid", None) if current is not None else None
        if cid is None or not self.spans.is_open(cid):
            return
        if self._cost_model is None:
            self._cost_model = AccessCostModel(self.machine)
        cache, noc, dram = self._cost_model.decompose(ev.result)
        acc = self._mem.get(cid)
        if acc is None:
            self._mem[cid] = [cache, noc, dram]
        else:
            acc[0] += cache
            acc[1] += noc
            acc[2] += dram

    def _span_closed(self, span):
        if span.cat == "invoke":
            mem = self._mem.pop(span.cid, None)
            if mem is not None:
                span.args["mem_cycles"] = {
                    "cache": mem[0],
                    "noc": mem[1],
                    "dram": mem[2],
                }
            self._observe_request(span.name.partition(":")[2], span.duration)
        elif span.cat == "stream":
            self._observe_request(span.name.split("[", 1)[0], span.duration)
        if span.cat in ("invoke", "stream"):
            self.attribution.observe_span(span, self.machine.request_classes)
        if self.on_close is not None:
            self.on_close(span)

    def _observe_request(self, key, duration):
        """Bucket a closed span into its request-class latency histogram.

        Serving workloads declare ``machine.request_classes`` -- a map
        from invoke action name / stream base name to request class (see
        :mod:`repro.sim.telemetry.requests`). Machines that never
        declare one (every non-serving workload) skip this entirely.
        """
        classes = self.machine.request_classes
        if not classes:
            return
        cls = classes.get(key)
        if cls is None:
            return
        self.metrics.histogram(
            f"request.latency.{cls}",
            help="request issue to completion per request class, cycles",
        ).observe(duration)


class Telemetry:
    """Metrics + spans for one machine, fed by its event bus."""

    def __init__(self, machine, label=None):
        self.machine = machine
        self.label = label
        self.metrics = MetricsRegistry()
        self._requests = RequestSpans(machine, self.metrics, on_close=self._span_closed)
        self.spans = self._requests.spans
        #: Per-request latency attribution (see critpath.COMPONENTS).
        self.attribution = self._requests.attribution
        self._finalized = False
        self._attached = False
        self._handlers = (
            (InvokeDispatched, self._on_invoke_dispatched),
            (InvokeStalled, self._on_invoke_stalled),
            (EngineTask, self._on_engine_task),
            (EngineTaskStart, self._on_engine_start),
            (EngineTaskDone, self._on_engine_done),
            (FutureFilled, self._on_future_filled),
            (StreamPush, self._on_stream_push),
            (StreamPop, self._on_stream_pop),
            (StreamBlocked, self._on_stream_blocked),
            (CacheAccess, self._on_cache_access),
            (FlitHop, self._on_flit_hop),
            (DramAccess, self._on_dram_access),
            (MemoryAccess, self._on_memory_access),
            (FaultInjected, self._on_fault_injected),
            (EngineFailed, self._on_engine_failed),
            (InvokeRetried, self._on_invoke_retried),
            (DegradedToFallback, self._on_degraded),
            (WatchdogFired, self._on_watchdog_fired),
        )
        self.attach()

    # ------------------------------------------------------------------
    # bus wiring
    # ------------------------------------------------------------------
    def attach(self):
        if not self._attached:
            for event_type, handler in self._handlers:
                self.machine.events.subscribe(event_type, handler)
            self._attached = True
        return self

    def detach(self):
        """Stop observing (idempotent; recorded data stays readable)."""
        if self._attached:
            for event_type, handler in self._handlers:
                self.machine.events.unsubscribe(event_type, handler)
            self._attached = False
        return self

    # ------------------------------------------------------------------
    # handlers: offload lifecycle
    # ------------------------------------------------------------------
    def _on_invoke_dispatched(self, ev):
        self.metrics.counter(
            "invoke.dispatched", labels={"location": ev.location}
        ).inc()
        if ev.inline:
            self.metrics.counter("invoke.inline").inc()
        runtime = self.machine.leviathan
        if runtime is not None:
            buffer = runtime.invoke_buffers[ev.tile]
            self.metrics.timeseries(
                "invoke_buffer.occupancy",
                labels={"tile": ev.tile},
                help="in-flight (un-ACKed) invokes per core buffer",
            ).record(ev.time, buffer.in_flight)
        self.spans.invoke_dispatched(ev)

    def _on_invoke_stalled(self, ev):
        self.metrics.counter("invoke.stall_events").inc()
        if ev.wait is not None:
            self.metrics.histogram(
                "invoke.buffer_wait", help="cycles stalled on a full invoke buffer"
            ).observe(ev.wait)
        self.spans.invoke_stalled(ev)

    def _on_engine_task(self, ev):
        outcome = "accepted" if ev.accepted else "nacked"
        self.metrics.counter("engine.arrivals", labels={"outcome": outcome}).inc()
        engines = self.machine.engines
        if engines is not None:
            engine = engines[ev.tile]
            t = ev.time if ev.time is not None else self.machine.now
            self.metrics.timeseries(
                "engine.task_contexts",
                labels={"tile": ev.tile},
                help="busy offload task contexts + spill-queued tasks",
            ).record(t, engine.busy_offload + engine.queued_tasks)
        self.spans.engine_task(ev)

    def _on_engine_start(self, ev):
        self.spans.engine_start(ev)

    def _on_engine_done(self, ev):
        self.spans.engine_done(ev)

    def _on_future_filled(self, ev):
        self.metrics.counter("future.fills").inc()
        self.spans.future_filled(ev)

    def _span_closed(self, span):
        """Telemetry's own per-span histograms (after the shared close)."""
        if span.cat == "invoke":
            self.metrics.histogram(
                "invoke.latency",
                help="invoke issue to completion (incl. future fill), cycles",
            ).observe(span.duration)
            for phase, metric in (
                ("execute", "invoke.execute_cycles"),
                ("nack-wait", "invoke.nack_wait"),
                ("buffer-wait", "invoke.buffer_wait_observed"),
                ("future-wait", "invoke.future_wait"),
            ):
                cycles = span.phase_cycles(phase)
                if cycles:
                    self.metrics.histogram(metric).observe(cycles)
            if span.args.get("nacks"):
                self.metrics.counter("invoke.nacked_spans").inc()
        elif span.cat == "stream":
            self.metrics.histogram(
                "stream.entry_latency",
                labels={"stream": span.name.split("[", 1)[0]},
                help="push to pop, cycles",
            ).observe(span.duration)
        elif span.cat == "stream-wait":
            self.metrics.histogram(
                "stream.block_cycles", labels={"side": span.args.get("side", "?")}
            ).observe(span.duration)

    # ------------------------------------------------------------------
    # handlers: resilience (fault injection, retries, degradation)
    # ------------------------------------------------------------------
    def _on_fault_injected(self, ev):
        self.metrics.counter("faults.injected", labels={"kind": ev.kind}).inc()
        if ev.extra_cycles:
            self.metrics.histogram(
                "faults.extra_cycles",
                labels={"kind": ev.kind},
                help="latency added on the victim path per injection",
            ).observe(ev.extra_cycles)

    def _on_engine_failed(self, ev):
        self.metrics.counter("faults.engine_failures").inc()

    def _on_invoke_retried(self, ev):
        self.metrics.counter("invoke.retries_observed").inc()
        self.metrics.histogram(
            "invoke.retry_backoff", help="backoff cycles before each re-send"
        ).observe(ev.backoff)
        self.spans.invoke_retried(ev)

    def _on_degraded(self, ev):
        self.metrics.counter("faults.degraded", labels={"kind": ev.kind}).inc()
        self.spans.degraded(ev)

    def _on_watchdog_fired(self, ev):
        self.metrics.counter("watchdog.fired").inc()
        self.metrics.gauge("watchdog.parked_at_fire").set(ev.parked)

    # ------------------------------------------------------------------
    # handlers: streaming
    # ------------------------------------------------------------------
    def _on_stream_push(self, ev):
        self.metrics.counter("stream.pushes", labels={"stream": ev.stream}).inc()
        if ev.time is not None:
            self.metrics.timeseries(
                "stream.occupancy",
                labels={"stream": ev.stream},
                help="circular-buffer entries outstanding",
            ).record(ev.time, ev.occupancy)
        self.spans.stream_push(ev)

    def _on_stream_pop(self, ev):
        self.metrics.counter("stream.pops", labels={"stream": ev.stream}).inc()
        if ev.time is not None:
            self.metrics.timeseries(
                "stream.occupancy", labels={"stream": ev.stream}
            ).record(ev.time, ev.occupancy)
        self.spans.stream_pop(ev)

    def _on_stream_blocked(self, ev):
        self.metrics.counter(
            "stream.blocked", labels={"stream": ev.stream, "side": ev.side}
        ).inc()
        self.spans.stream_blocked(ev)

    # ------------------------------------------------------------------
    # handlers: fabric pressure
    # ------------------------------------------------------------------
    def _on_cache_access(self, ev):
        if ev.level != "llc":
            return
        self.metrics.counter("llc.bank_accesses", labels={"bank": ev.tile}).inc()
        if not ev.hit:
            self.metrics.counter("llc.bank_misses", labels={"bank": ev.tile}).inc()
        self.metrics.timeseries(
            "llc.bank_pressure",
            labels={"bank": ev.tile},
            mode="sum",
            help="LLC bank lookups per window",
        ).record(self.machine.sim_time(), 1)

    def _on_flit_hop(self, ev):
        flit_hops = ev.flits * ev.hops
        self.metrics.counter("noc.flits").inc(ev.flits)
        self.metrics.counter("noc.flit_hops").inc(flit_hops)
        t = self.machine.sim_time()
        self.metrics.timeseries(
            "noc.utilization", mode="sum", help="flit-hops per window"
        ).record(t, flit_hops)
        if ev.hops:
            noc = self.machine.hierarchy.noc
            for src, dst in self._xy_links(noc, ev.src, ev.dst):
                self.metrics.counter(
                    "noc.link_flits", labels={"link": f"{src}>{dst}"}
                ).inc(ev.flits)

    @staticmethod
    def _xy_links(noc, src, dst):
        """The directed (tile, tile) links an XY-routed message crosses."""
        x, y = noc.coords(src)
        dx, dy = noc.coords(dst)
        at = src
        while x != dx:
            x += 1 if dx > x else -1
            nxt = y * noc.width + x
            yield at, nxt
            at = nxt
        while y != dy:
            y += 1 if dy > y else -1
            nxt = y * noc.width + x
            yield at, nxt
            at = nxt

    def _on_dram_access(self, ev):
        self.metrics.counter("dram.accesses").inc()
        if ev.fifo_hit:
            self.metrics.counter("dram.fifo_hits").inc()

    def _on_memory_access(self, ev):
        who = "engine" if ev.engine else "core"
        self.metrics.histogram(
            "mem.request_latency", labels={"by": who}
        ).observe(ev.result.latency)
        self._requests.memory_access(ev)

    # ------------------------------------------------------------------
    # teardown and artifacts
    # ------------------------------------------------------------------
    def finalize(self):
        """Close open spans and record run-level gauges (idempotent)."""
        if self._finalized:
            return self
        self._finalized = True
        now = self.machine.scheduler.now
        self.spans.finalize(now)
        self.metrics.gauge("machine.cycles").set(now)
        self.metrics.gauge("spans.finished").set(len(self.spans.finished))
        self.metrics.counter("spans.unclosed").inc(self.spans.unclosed)
        self.metrics.counter("spans.dropped").inc(self.spans.dropped)
        self.metrics.counter("spans.orphans").inc(self.spans.orphans)
        if self.attribution:
            self.metrics.gauge(
                "attribution.coverage",
                help="fraction of request cycles a named component explains",
            ).set(self.attribution.coverage())
        return self

    def meta(self):
        return {
            "label": self.label,
            "n_tiles": self.machine.config.n_tiles,
            "cycles": self.machine.scheduler.now,
            "spans": len(self.spans.finished),
            "spans_unclosed": self.spans.unclosed,
            "spans_dropped": self.spans.dropped,
            "spans_orphaned": self.spans.orphans,
        }

    def attribution_report(self):
        """The JSON-safe ``latency_attribution`` block (finalizes first)."""
        self.finalize()
        return {
            "meta": self.meta(),
            "coverage": self.attribution.coverage(),
            "classes": self.attribution.snapshot(),
        }

    def save(self, outdir):
        """Write trace.json / metrics.json / metrics.prom / attribution.json."""
        self.finalize()
        os.makedirs(outdir, exist_ok=True)
        meta = self.meta()
        write_chrome_trace(
            os.path.join(outdir, "trace.json"),
            self.spans.finished,
            metrics=self.metrics,
            meta=meta,
            extra_events=critical_path_flows(self.spans.finished),
        )
        with open(os.path.join(outdir, "metrics.json"), "w") as handle:
            handle.write(self.metrics.to_json(meta=meta))
        with open(os.path.join(outdir, "metrics.prom"), "w") as handle:
            handle.write(self.metrics.render_prometheus(meta=meta))
        with open(os.path.join(outdir, "attribution.json"), "w") as handle:
            json.dump(self.attribution_report(), handle, indent=2, sort_keys=True)
        return outdir


# ----------------------------------------------------------------------
# the process-wide session (what --telemetry-out installs)
# ----------------------------------------------------------------------
class TelemetrySession(MachineSession):
    """Attach telemetry to every machine built while installed."""

    def attach(self, machine):
        return Telemetry(machine, label=f"machine-{len(self.attached):02d}")

    # -- artifacts ------------------------------------------------------
    def save(self, outdir):
        """One artifact directory per observed machine; returns the paths."""
        return [
            telemetry.save(os.path.join(outdir, telemetry.label))
            for telemetry in self.attached
        ]
