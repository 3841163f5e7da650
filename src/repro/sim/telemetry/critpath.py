"""Critical-path extraction and latency attribution.

Every closed request span (invoke or stream) already carries its causal
skeleton: the phase intervals stitched by
:class:`~repro.sim.telemetry.spans.SpanTracker` bound where the
request's sim-time went. This module turns that skeleton into an
*exact* attribution -- every cycle of the span's end-to-end latency is
assigned to exactly one component of the taxonomy:

==================  ====================================================
component           meaning
==================  ====================================================
``dispatch_queue``  core-side queueing on a full invoke buffer
                    (``buffer-wait`` phase)
``nack_retry``      engine task-context contention: NACK/spill/retry
                    wait (``nack-wait`` phase)
``noc_transit``     on-chip network cycles: dispatch transit to the
                    engine plus the NoC share of memory accesses
``cache_walk``      SRAM lookups down the cache hierarchy (L1/L2/LLC
                    tag and hit latencies)
``dram_service``    memory-controller queueing + service + DRAM latency
``engine_execute``  execute-phase cycles not spent in the memory
                    hierarchy (the action's own compute)
``future_wait``     completion store-update in flight back to the
                    waiting core (``future-wait`` phase)
``stream_wait``     stream-entry residence (push to pop) and
                    producer/consumer blocking episodes
``unattributed``    critical-path cycles no component explains --
                    the honesty bucket behind the coverage metric
==================  ====================================================

The partition is exact by construction: estimated sub-components are
scaled to fit their measured envelope and the final element of every
split is computed by subtraction, so ``sum(components) == duration``
bit-for-bit up to float addition order. Attribution runs once, live:
each span is attributed as it closes and folded into an
:class:`AttributionRollup`, whose snapshot is each machine's
``attribution.json`` and the ``attribution.*`` fields of
``RunResult.stats``. ``leviathan-repro explain`` and the sweep
dashboard merge those files; nothing re-derives attribution from a
``trace.json``.
"""

import math

from repro.sim.telemetry.metrics import LogHistogram

#: The attribution taxonomy, in waterfall display order.
COMPONENTS = (
    "dispatch_queue",
    "nack_retry",
    "noc_transit",
    "cache_walk",
    "dram_service",
    "engine_execute",
    "future_wait",
    "stream_wait",
    "unattributed",
)

#: Components that count toward coverage (everything but the residue).
ATTRIBUTED = tuple(c for c in COMPONENTS if c != "unattributed")

#: Payload sizes used by the access-path estimates (hierarchy constants).
_CTRL_BYTES = 8
_DATA_BYTES = 64


def _fit_exact(parts, total):
    """Scale non-negative ``parts`` to sum *exactly* to ``total``.

    The float residue of the scale goes to the largest part, so the
    returned list fsums to ``total`` and no element goes negative.
    """
    est = math.fsum(parts)
    if est <= 0.0 or total <= 0.0:
        return [0.0] * len(parts)
    scale = total / est
    fitted = [p * scale for p in parts]
    largest = max(range(len(fitted)), key=lambda i: fitted[i])
    fitted[largest] += total - math.fsum(fitted)
    return fitted


class AccessCostModel:
    """Splits one access-path latency into (cache, noc, dram) cycles.

    The hierarchy reports a single ``latency`` per access plus the
    per-level outcome trail; this model re-prices each trail step from
    the machine's own timing constants, then scales the estimates so
    they sum exactly to the measured latency (the measurement is ground
    truth; the estimates only apportion it).
    """

    def __init__(self, machine):
        hier = machine.hierarchy
        priv = hier.private
        shared = hier.shared
        noc = hier.noc
        mc = hier.mem.controllers[0]
        dram = float(mc._latency + mc._service)
        # Distance is unknown per access (the trail has no bank/MC
        # tile), so NoC sends are priced at the mesh's average XY hop
        # count; the scale-to-fit normalization absorbs the error.
        n = noc.n_tiles
        avg_hops = min(
            int(round(sum(map(sum, noc._hops)) / float(n * n))),
            len(noc._hop_latency) - 1,
        )
        ctrl = self._send(noc, avg_hops, _CTRL_BYTES)
        data = self._send(noc, avg_hops, _DATA_BYTES)
        l2_hit = float(priv._l2_hit)
        llc_hit = float(shared._llc_hit)
        #: (level, outcome) -> (cache, noc, dram) per-step estimate.
        self.table = {
            ("l1", "hit"): (float(priv._l1_hit), 0.0, 0.0),
            ("l1", "miss"): (float(priv._l1_tag), 0.0, 0.0),
            ("l2", "hit"): (l2_hit, 0.0, 0.0),
            ("l2", "miss"): (float(priv._l2_tag), 0.0, 0.0),
            ("l2", "snoop_hit"): (l2_hit, 0.0, 0.0),
            ("l2", "snoop_miss"): (0.0, 0.0, 0.0),
            ("engine_l1", "hit"): (2.0, 0.0, 0.0),
            ("engine_l1", "miss"): (1.0, 0.0, 0.0),
            ("engine_l1", "bypass"): (1.0, 0.0, 0.0),
            ("llc", "hit"): (llc_hit, ctrl + data, 0.0),
            ("llc", "miss"): (float(shared._llc_tag), ctrl, 0.0),
            ("llc", "construct"): (llc_hit, 0.0, 0.0),
            ("llc", "bypass"): (llc_hit, ctrl + data, 0.0),
            ("dram", "fill"): (0.0, ctrl + data, dram),
            # Near-memory engines read DRAM at the controller: no NoC.
            ("dram", "direct"): (0.0, 0.0, dram),
        }

    @staticmethod
    def _send(noc, hops, payload_bytes):
        flits = noc.config.flits(payload_bytes)
        if hops:
            return float(noc._hop_latency[hops] + (flits - 1))
        return float(noc._hop_latency[0])

    def decompose(self, result):
        """Exact (cache, noc, dram) split of one ``AccessResult``."""
        cache = noc = dram = 0.0
        table = self.table
        for step in result.outcomes:
            est = table.get(step)
            if est is None:
                # Unknown step (future outcome kinds): price as one
                # SRAM lookup so it lands in cache_walk, not nowhere.
                cache += 1.0
                continue
            cache += est[0]
            noc += est[1]
            dram += est[2]
        latency = float(result.latency)
        fitted = _fit_exact((cache, noc, dram), latency)
        if latency > 0.0 and not any(fitted):
            # Zero-estimate trail (pure constructs): it is all SRAM work.
            return (latency, 0.0, 0.0)
        return tuple(fitted)


def span_class(span, request_classes):
    """The rollup key for one span.

    Serving workloads declare request classes; anything undeclared
    falls back to the span's action/stream name so macro figures
    (fig18 etc.) still get a per-action waterfall.
    """
    if span.cat == "invoke":
        key = span.name.partition(":")[2]
    elif span.cat == "stream":
        key = span.name.split("[", 1)[0]
    else:
        key = span.name
    if request_classes:
        return request_classes.get(key, key)
    return key


def attribute_span(span):
    """Exact partition of one closed span's duration over COMPONENTS.

    Invariant: ``sum(returned.values()) == span.duration`` (up to float
    addition order) and every value is non-negative. ``unattributed``
    holds whatever the phase skeleton could not explain.
    """
    comps = dict.fromkeys(COMPONENTS, 0.0)
    duration = span.duration
    if duration is None or duration <= 0.0:
        return comps
    if span.cat in ("stream", "stream-wait"):
        comps["stream_wait"] = duration
        return comps
    if span.cat != "invoke":
        comps["unattributed"] = duration
        return comps

    dispatch = span.phase_cycles("buffer-wait")
    nack = span.phase_cycles("nack-wait")
    future = span.phase_cycles("future-wait")
    execute = span.phase_cycles("execute")

    # Memory decomposition accumulated at access time (exact already);
    # clamp-to-fit guards against accesses charged outside the execute
    # envelope (overlapping retries).
    mem = span.args.get("mem_cycles") or {}
    mem_parts = [
        float(mem.get("cache", 0.0)),
        float(mem.get("noc", 0.0)),
        float(mem.get("dram", 0.0)),
    ]
    mem_total = math.fsum(mem_parts)
    if execute <= 0.0:
        mem_parts = [0.0, 0.0, 0.0]
        mem_total = 0.0
    elif mem_total > execute:
        mem_parts = _fit_exact(mem_parts, execute)
        mem_total = execute
    cache, mem_noc, dram = mem_parts
    engine = execute - mem_total

    # The stretch between issue and the first execute start that no
    # wait phase covers is the dispatch transit: router + wire to the
    # engine tile (plus accept bookkeeping). Anything uncovered after
    # execution starts has no causal explanation and stays residue.
    covered = math.fsum((dispatch, nack, execute, future))
    gap = duration - covered
    transit = 0.0
    first_exec = min(
        (p[1] for p in span.phases if p[0] == "execute"), default=None
    )
    if first_exec is not None and gap > 0.0:
        pre = (first_exec - span.start) - (dispatch + nack)
        transit = min(gap, max(pre, 0.0))

    parts = {
        "dispatch_queue": dispatch,
        "nack_retry": nack,
        "noc_transit": mem_noc + transit,
        "cache_walk": cache,
        "dram_service": dram,
        "engine_execute": engine,
        "future_wait": future,
    }
    attributed = math.fsum(parts.values())
    if attributed > duration:
        keys = list(parts)
        parts = dict(zip(keys, _fit_exact([parts[k] for k in keys], duration)))
        comps.update(parts)
        comps["unattributed"] = 0.0
        return comps
    comps.update(parts)
    comps["unattributed"] = duration - attributed
    return comps


class AttributionRollup:
    """Per-request-class accumulation of span attributions.

    The one record of where request cycles went: its :meth:`snapshot`
    is written to ``attribution.json`` and flattened into
    ``RunResult.stats``, and every report reads it from there.
    """

    def __init__(self):
        #: class -> accumulation state.
        self._classes = {}

    def _entry(self, cls):
        entry = self._classes.get(cls)
        if entry is None:
            entry = self._classes[cls] = {
                "count": 0,
                "cycles": 0.0,
                "unattributed": 0.0,
                "latency": LogHistogram(),
                "totals": dict.fromkeys(COMPONENTS, 0.0),
                "hists": {c: LogHistogram() for c in COMPONENTS},
            }
        return entry

    def observe(self, cls, comps, duration):
        entry = self._entry(cls)
        entry["count"] += 1
        entry["cycles"] += duration
        entry["unattributed"] += comps.get("unattributed", 0.0)
        entry["latency"].observe(duration)
        totals = entry["totals"]
        hists = entry["hists"]
        for name, value in comps.items():
            totals[name] += value
            if value > 0.0:
                hists[name].observe(value)

    def observe_span(self, span, request_classes):
        comps = attribute_span(span)
        self.observe(
            span_class(span, request_classes), comps, span.duration or 0.0
        )
        return comps

    def __bool__(self):
        return bool(self._classes)

    @property
    def classes(self):
        return sorted(self._classes)

    def coverage(self, cls=None):
        """Fraction of request cycles a named component explains."""
        if cls is None:
            cycles = sum(e["cycles"] for e in self._classes.values())
            residue = sum(e["unattributed"] for e in self._classes.values())
        else:
            entry = self._classes[cls]
            cycles, residue = entry["cycles"], entry["unattributed"]
        if cycles <= 0.0:
            return 1.0
        return 1.0 - residue / cycles

    def snapshot(self):
        """The JSON-safe ``latency_attribution`` block."""
        out = {}
        for cls in sorted(self._classes):
            entry = self._classes[cls]
            comps = {}
            for name in COMPONENTS:
                # The full histogram snapshot (incl. buckets) rides
                # along so sweep dashboards can merge percentiles
                # across machines the same way latency histograms do.
                comps[name] = dict(
                    entry["hists"][name].snapshot(),
                    total=entry["totals"][name],
                    share=(
                        entry["totals"][name] / entry["cycles"]
                        if entry["cycles"]
                        else 0.0
                    ),
                )
            out[cls] = {
                "count": entry["count"],
                "cycles": entry["cycles"],
                "coverage": self.coverage(cls),
                "latency": entry["latency"].snapshot(),
                "components": comps,
            }
        return out


# ----------------------------------------------------------------------
# Perfetto flow events (the critical path drawn through the trace)
# ----------------------------------------------------------------------
def critical_path_flows(spans, limit=50):
    """Flow events threading the critical path of the slowest requests.

    One ``s``/``t``.../``f`` chain per span (cat ``critpath``), stepping
    through the phase boundaries in time order, so Chrome/Perfetto draws
    the request's causal arrow across its lanes. Only the ``limit``
    slowest invoke spans get a flow -- the interesting ones -- keeping
    the trace size bounded.
    """
    closed = [s for s in spans if s.end is not None and s.cat == "invoke"]
    closed.sort(key=lambda s: s.duration, reverse=True)
    events = []
    for flow_id, span in enumerate(closed[:limit]):
        pid = span.pid if span.pid is not None else 4095
        base = {
            "cat": "critpath",
            "name": f"critical-path:{span.name}",
            "id": flow_id,
            "pid": pid,
            "tid": 0,
        }
        events.append(dict(base, ph="s", ts=span.start))
        boundaries = sorted(
            {p[2] for p in span.phases if p[2] is not None and p[2] < span.end}
        )
        for ts in boundaries:
            events.append(dict(base, ph="t", ts=ts))
        events.append(dict(base, ph="f", bp="e", ts=span.end))
    return events
