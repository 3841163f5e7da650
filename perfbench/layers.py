"""Per-layer metrics from one traced cold section.

Times come from the span tracer (:mod:`spans`); the simulated counts
that divide them are summed from the runs' ``RunResult.stats``, so a
change meant only to speed up the simulator leaves every count -- and
so every denominator -- unchanged.
"""

from collections import Counter

from measure import median, tail
from spans import CORE_OPS, LAYERS

_OPS = tuple(f"repro.sim.ops:{op}.execute" for op in CORE_OPS) + (
    "repro.core.offload:Invoke.execute",
    "repro.core.future:WaitFuture.execute",
)
_ACCESSES = (
    "repro.sim.hierarchy:Hierarchy.access",
    "repro.sim.hierarchy:Hierarchy.access_latency",
)
_SENDS = ("repro.sim.noc:MeshNoc.send", "repro.sim.noc:MeshNoc.round_trip")
DISPATCH = (
    "repro.experiments.backends:LocalInlineBackend.submit",
    "repro.experiments.backends:LocalProcessBackend.submit",
)
_CACHE_READ = ("repro.experiments.pool:ExperimentPool._load_cached",)
_CACHE_WRITE = (
    "repro.experiments.pool:ExperimentPool._store_cached",
    "repro.experiments.pool:ExperimentPool._append_manifest",
)
TELEMETRY_FINALIZE = "repro.sim.telemetry.session:Telemetry.finalize"


def telemetry_counts(tracer):
    """A post-call hook counting spans and orphans once per Telemetry."""
    seen = set()

    def after(args, _result):
        telemetry = args[0]
        if id(telemetry) not in seen:
            seen.add(id(telemetry))
            tracer.count("telemetry.spans", len(telemetry.spans.finished))
            tracer.count("telemetry.orphans", telemetry.spans.orphans)

    return {TELEMETRY_FINALIZE: after}


def dispatch_ms(tracer):
    """Self time of every sampled backend ``submit``, in milliseconds."""
    return [ns / 1e6 for path in DISPATCH for ns in tracer.samples.get(path, ())]


def summed_stats(outcomes):
    """Unphased numeric stats summed over every successful run."""
    total = Counter()
    for outcome in outcomes:
        if outcome.get("status") != "ok":
            continue
        for key, value in outcome["result"]["stats"].items():
            if "/" not in key and isinstance(value, (int, float)):
                total[key] += value
    return total


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _coverage(outcomes):
    """Request cycles a named critical-path component explains, over all."""
    cycles = explained = 0.0
    for outcome in outcomes:
        if outcome.get("status") != "ok":
            continue
        stats = outcome["result"]["stats"]
        for key, value in stats.items():
            if key.startswith("attribution.") and key.endswith(".cycles"):
                cycles += value
                explained += value * stats[key[: -len("cycles")] + "coverage"]
    return _ratio(explained, cycles)


def layer_metrics(tracer, section, untraced_seconds):
    """``{name: (value, unit)}`` for every per-layer metric."""
    wall = tracer.wall_ns()
    table = tracer.layer_table()
    metrics = {}
    for layer in LAYERS:
        calls, own = table[layer]
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (own / 1e9, "s")
        metrics[f"{layer}.share"] = (_ratio(own, wall), "ratio")
    residue = tracer.residue_ns()
    metrics["harness.residue_s"] = (residue / 1e9, "s")
    metrics["harness.share"] = (_ratio(residue, wall), "ratio")
    metrics["trace.wall_s"] = (wall / 1e9, "s")
    metrics["trace_overhead"] = (section.seconds / untraced_seconds, "ratio")

    stats = summed_stats(section.outcomes)
    instructions = stats["core.instructions"] + stats["engine.instructions"]
    metrics["sim.instructions"] = (instructions, "count")
    ops = tracer.calls_of(*_OPS)
    metrics["sim.scheduler.ns_per_op"] = (_ratio(table["sim.scheduler"][1], ops), "ns")
    accesses = tracer.calls_of(*_ACCESSES)
    metrics["sim.cache.ns_per_access"] = (_ratio(table["sim.cache"][1], accesses), "ns")
    metrics["llc.hit_ratio"] = (_ratio(stats["llc.hits"], stats["llc.accesses"]), "ratio")
    metrics["noc.flit_hops"] = (stats["noc.flit_hops"], "count")
    sends = tracer.calls_of(*_SENDS)
    metrics["sim.noc.ns_per_send"] = (_ratio(table["sim.noc"][1], sends), "ns")
    metrics["dram.accesses"] = (stats["dram.accesses"], "count")
    metrics["dram.queue_cycles"] = (stats["dram.queue_cycles"], "cycles")

    issued = stats["invoke.issued"]
    metrics["invoke.issued"] = (issued, "count")
    metrics["invoke.buffered"] = (stats["invoke.buffered"], "count")
    tasks = stats["engine.tasks"]
    metrics["invoke.accept_ratio"] = (_ratio(tasks, tasks + stats["engine.nacks"]), "ratio")
    metrics["core.offload.us_per_invoke"] = (_ratio(table["core.offload"][1] / 1e3, issued), "us")
    pops = stats["stream.pops"]
    metrics["stream.pops"] = (pops, "count")
    metrics["stream.consume_blocks"] = (stats["stream.consume_blocks"], "count")
    metrics["core.stream.us_per_pop"] = (_ratio(table["core.stream"][1] / 1e3, pops), "us")
    constructions = sum(
        value
        for key, value in stats.items()
        if key.startswith("morph.") and key.endswith("_constructions")
    )
    metrics["morph.constructions"] = (constructions, "count")

    spans = tracer.counts["telemetry.spans"]
    metrics["telemetry.spans"] = (spans, "count")
    metrics["telemetry.orphans"] = (tracer.counts["telemetry.orphans"], "count")
    metrics["attribution.coverage"] = (_coverage(section.outcomes), "ratio")
    metrics["telemetry.us_per_span"] = (_ratio(table["telemetry"][1] / 1e3, spans), "us")

    dispatch = dispatch_ms(tracer)
    metrics["pool.dispatch_ms.p50"] = (median(dispatch), "ms")
    metrics["pool.dispatch_ms.tail"] = (tail(dispatch)[0], "ms")
    worker = [o["elapsed"] * 1e3 for o in section.outcomes if "elapsed" in o]
    metrics["pool.worker_ms.p50"] = (median(worker), "ms")
    metrics["pool.cache_read_ms"] = (tracer.total_ns_of(*_CACHE_READ) / 1e6, "ms")
    metrics["pool.cache_write_ms"] = (tracer.total_ns_of(*_CACHE_WRITE) / 1e6, "ms")
    metrics["pool.retries"] = (section.retries, "count")
    hits = sum(report.get("cached", 0) for report in section.reports)
    lookups = hits + sum(report.get("executed", 0) for report in section.reports)
    metrics["pool.cache_hit_ratio"] = (_ratio(hits, lookups), "ratio")
    return metrics
