"""Summarize ``--telemetry-out`` artifact directories.

``python -m repro.experiments telemetry DIR`` walks ``DIR`` for run
directories (any directory containing both ``trace.json`` and
``metrics.json``), re-validates every trace, and prints a digest of
the headline metrics: span counts, invoke-latency percentiles, NACK
and stall totals, and which windowed time series were captured. It is
the one report that reads a ``trace.json``.

The sweep dashboard (:func:`write_dashboard`) aggregates the same run
directories from their ``metrics.json`` and ``attribution.json``; its
attribution merge (:func:`aggregate_attribution`) and waterfall table
(:func:`render_waterfall`) are also what ``leviathan-repro explain``
reports.
"""

import json
import os

from repro.sim.telemetry.critpath import COMPONENTS
from repro.sim.telemetry.metrics import LogHistogram
from repro.sim.telemetry.perfetto import load_and_validate


def find_runs(root):
    """Run directories (holding trace.json + metrics.json) under ``root``."""
    runs = []
    for dirpath, _dirnames, filenames in os.walk(root):
        if "trace.json" in filenames and "metrics.json" in filenames:
            runs.append(dirpath)
    return sorted(runs)


def count_with_label(counters, name, label):
    """Sum every ``name{...}`` counter series carrying ``label``.

    Series keys are ``name{k="v",...}`` with sorted labels; matching the
    full key literally would silently read 0 as soon as an extra label
    (an engine id, a tile) is added to the family, so we match the base
    name and membership of the one label we care about.
    """
    total = 0
    for key, value in counters.items():
        base, _brace, labels = key.partition("{")
        if base != name:
            continue
        if label in labels.rstrip("}").split(","):
            total += value
    return total


def _read_json(path):
    """``(payload, problem)`` -- problem is a string when the file is
    missing, torn (killed mid-write), or not a JSON object."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None, f"missing {os.path.basename(path)}"
    except (OSError, ValueError) as exc:
        return None, f"unreadable {os.path.basename(path)}: {exc}"
    if not isinstance(payload, dict):
        return None, f"malformed {os.path.basename(path)}: not an object"
    return payload, None


def _attribution_coverage(run_dir):
    """Coverage from ``attribution.json``, or None when not captured."""
    payload, _problem = _read_json(os.path.join(run_dir, "attribution.json"))
    if not payload or not payload.get("classes"):
        return None
    return payload.get("coverage")


def summarize_run(run_dir):
    """The digest dict for one run directory (validates the trace).

    A partially-written run -- a worker killed mid-sweep leaves a torn
    ``trace.json`` or no ``metrics.json`` at all -- degrades to a digest
    whose ``trace_problems`` names what is wrong, instead of raising and
    taking the whole report down with it.
    """
    try:
        trace, problems = load_and_validate(os.path.join(run_dir, "trace.json"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        trace, problems = {"traceEvents": []}, [f"unreadable trace.json: {exc}"]
    if not isinstance(trace.get("traceEvents"), list):
        trace, problems = {"traceEvents": []}, problems + [
            "malformed trace.json: no traceEvents list"
        ]
    metrics, metrics_problem = _read_json(os.path.join(run_dir, "metrics.json"))
    if metrics is None:
        metrics = {}
        problems = problems + [metrics_problem]
    meta = metrics.get("meta", {})
    histograms = metrics.get("histograms", {})
    counters = metrics.get("counters", {})
    spans = sum(
        1
        for e in trace["traceEvents"]
        if isinstance(e, dict) and e.get("ph") == "b"
    )
    return {
        "dir": run_dir,
        "cycles": meta.get("cycles"),
        "trace_events": len(trace["traceEvents"]),
        "trace_spans": spans,
        "trace_problems": problems,
        "spans_unclosed": meta.get("spans_unclosed", 0),
        "spans_dropped": meta.get("spans_dropped", 0),
        "spans_orphaned": meta.get("spans_orphaned", 0),
        "attribution_coverage": _attribution_coverage(run_dir),
        "invoke_latency": histograms.get("invoke.latency"),
        "nacks": count_with_label(
            counters, "engine.arrivals", 'outcome="nacked"'
        ),
        "stalls": counters.get("invoke.stall_events", 0),
        "timeseries": sorted(metrics.get("timeseries", {})),
    }


def render(summary):
    """Human-readable lines for one :func:`summarize_run` digest."""
    lines = [f"-- {summary['dir']}"]
    status = "VALID" if not summary["trace_problems"] else "INVALID"
    lines.append(
        f"   trace: {status}, {summary['trace_events']} events, "
        f"{summary['trace_spans']} spans "
        f"(unclosed {summary['spans_unclosed']}, dropped {summary['spans_dropped']}, "
        f"orphaned segments {summary['spans_orphaned']})"
    )
    if summary.get("attribution_coverage") is not None:
        lines.append(
            f"   attribution coverage: "
            f"{summary['attribution_coverage'] * 100:.2f}% "
            f"(run `leviathan-repro explain {summary['dir']}` for the waterfall)"
        )
    for problem in summary["trace_problems"][:5]:
        lines.append(f"   !! {problem}")
    if summary["cycles"] is not None:
        lines.append(f"   cycles: {summary['cycles']:.0f}")
    latency = summary["invoke_latency"]
    if latency and latency.get("count"):
        lines.append(
            f"   invoke.latency: n={latency['count']} mean={latency['mean']:.0f}"
            f" p50<={latency['p50']:.0f} p95<={latency['p95']:.0f}"
            f" p99<={latency['p99']:.0f} max={latency['max']:.0f}"
        )
    lines.append(f"   nacks: {summary['nacks']}  stall events: {summary['stalls']}")
    if summary["timeseries"]:
        names = sorted({key.split("{", 1)[0] for key in summary["timeseries"]})
        lines.append(
            f"   time series: {len(summary['timeseries'])} "
            f"({', '.join(names)})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the sweep dashboard: one digest across every run of a sweep
# ----------------------------------------------------------------------
#: ``attribution.json`` meta fields that add up across machines.
_META_TOTALS = ("cycles", "spans_orphaned", "spans_unclosed", "spans_dropped")


def aggregate_attribution(run_dirs):
    """Merge the ``attribution.json`` of every run in ``run_dirs``.

    Per request class, counts and cycles add up; the end-to-end
    ``latency`` histogram and each component's histogram merge
    bucket-wise (the same scheme the latency histograms use), so the
    waterfall percentiles are sweep-wide; coverage is cycle-weighted
    across machines. The cycle and span counts of each file's ``meta``
    add up too. A missing or torn file is named in ``problems`` and
    the other runs are still merged. Returns ``{"machines", "problems",
    "meta", "classes"}``; ``classes`` is ``{}`` when no run captured
    attribution.
    """
    machines = []
    problems = []
    meta = dict.fromkeys(_META_TOTALS, 0)
    merged = {}
    for run_dir in run_dirs:
        payload, problem = _read_json(os.path.join(run_dir, "attribution.json"))
        if payload is None:
            problems.append(f"{run_dir}: {problem}")
            continue
        machines.append(run_dir)
        run_meta = payload.get("meta") or {}
        for field in _META_TOTALS:
            meta[field] += run_meta.get(field) or 0
        for cls, entry in (payload.get("classes") or {}).items():
            dest = merged.setdefault(
                cls,
                {
                    "count": 0,
                    "cycles": 0.0,
                    "residue": 0.0,
                    "latency": LogHistogram(),
                    "components": {},
                },
            )
            dest["count"] += entry.get("count", 0)
            cycles = entry.get("cycles", 0.0)
            dest["cycles"] += cycles
            dest["residue"] += (1.0 - entry.get("coverage", 1.0)) * cycles
            dest["latency"].merge(entry.get("latency") or {})
            for component, comp in (entry.get("components") or {}).items():
                slot = dest["components"].setdefault(component, [0.0, LogHistogram()])
                slot[0] += comp.get("total", 0.0)
                slot[1].merge(comp)
    for dest in merged.values():
        cycles = dest["cycles"]
        residue = dest.pop("residue")
        dest["coverage"] = 1.0 - residue / cycles if cycles else 1.0
        dest["latency"] = dest["latency"].snapshot()
        dest["components"] = {
            component: dict(
                hist.snapshot(),
                total=total,
                share=total / cycles if cycles else 0.0,
            )
            for component, (total, hist) in dest["components"].items()
        }
    return {
        "machines": machines,
        "problems": problems,
        "meta": meta,
        "classes": merged,
    }


def _fmt(value):
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 10 else f"{value:.2f}"
    return str(value)


def render_waterfall(classes):
    """Markdown lines of one waterfall table per request class.

    ``classes`` is the ``classes`` block of :func:`aggregate_attribution`
    (or of a cached result unflattened by ``explain``); components are
    listed in :data:`~repro.sim.telemetry.critpath.COMPONENTS` order.
    """
    lines = []
    for cls in sorted(classes):
        entry = classes[cls]
        lines += [
            "",
            f"## {cls}  (n={entry['count']}, "
            f"coverage {entry.get('coverage', 1.0) * 100:.2f}%)",
            "",
            "| component | cycles | share | p50 | p95 | p99 |",
            "|---|---|---|---|---|---|",
        ]
        for component in COMPONENTS:
            comp = entry["components"].get(component)
            # Sub-cycle totals are float residue of the exact
            # partition, not a real contribution -- drop the row.
            if comp is None or comp.get("total", 0.0) < 0.5:
                continue
            lines.append(
                f"| {component} | {comp['total']:,.0f} "
                f"| {comp.get('share', 0.0) * 100:.1f}% "
                f"| {_fmt(comp.get('p50', 0.0))} "
                f"| {_fmt(comp.get('p95', 0.0))} "
                f"| {_fmt(comp.get('p99', 0.0))} |"
            )
        latency = entry.get("latency")
        if latency and latency.get("count"):
            lines.append(
                f"\nend-to-end: n={latency['count']:.0f} "
                f"mean={latency['mean']:.1f} p50<={latency['p50']:.0f} "
                f"p95<={latency['p95']:.0f} p99<={latency['p99']:.0f}"
            )
    return lines


def aggregate_sweep(root):
    """Cross-run aggregation of one sweep's telemetry artifacts.

    One walk finds the runs, and each run's ``metrics.json`` is read
    once. Counters are summed across runs (and grouped by subsystem --
    the dotted prefix of the family name); histograms merge their log2
    buckets, so the tail percentiles are sweep-wide, not per-run; fault
    injections and retries come from the telemetry counters plus each
    run's ``fault_report.json`` when one was armed; the attribution
    waterfall merges each run's ``attribution.json``
    (:func:`aggregate_attribution`). Traces are not read: validating
    them is the ``telemetry`` report's job. A run whose ``metrics.json``
    or ``attribution.json`` is missing, torn or malformed is tallied
    once as a problem.
    """
    runs = find_runs(root)
    counters = {}
    subsystems = {}
    histograms = {}
    cycles = []
    faults_injected = 0
    fault_reports_seen = set()
    nacks = 0
    problem_runs = set()
    spans_orphaned = 0
    for run_dir in runs:
        metrics, _problem = _read_json(os.path.join(run_dir, "metrics.json"))
        if metrics is None:
            problem_runs.add(run_dir)
            metrics = {}
        meta = metrics.get("meta") or {}
        if meta.get("cycles") is not None:
            cycles.append(meta["cycles"])
        spans_orphaned += meta.get("spans_orphaned", 0)
        run_counters = metrics.get("counters") or {}
        nacks += count_with_label(
            run_counters, "engine.arrivals", 'outcome="nacked"'
        )
        for key, value in run_counters.items():
            base = key.partition("{")[0]
            counters[base] = counters.get(base, 0) + value
            prefix = base.split(".", 1)[0]
            subsystems[prefix] = subsystems.get(prefix, 0) + value
        for key, snap in (metrics.get("histograms") or {}).items():
            histograms.setdefault(key.partition("{")[0], LogHistogram()).merge(snap)
        # The fault session writes fault_report.json one level above the
        # per-machine dirs (runs/<slug>/fault_report.json, beside
        # machine-NN/); tolerate either placement, dedup by path.
        for candidate in (run_dir, os.path.dirname(run_dir)):
            path = os.path.join(candidate, "fault_report.json")
            if path in fault_reports_seen:
                continue
            fault_report, _problem = _read_json(path)
            if fault_report:
                fault_reports_seen.add(path)
                faults_injected += fault_report.get("total_injected") or sum(
                    (fault_report.get("injected") or {}).values()
                )
    histograms = {name: hist.snapshot() for name, hist in histograms.items()}
    attribution = aggregate_attribution(runs)
    problem_runs.update(set(runs) - set(attribution["machines"]))
    # Serving workloads declare request classes (GET/PUT/SCAN/...); each
    # surfaces as a request.latency.<class> histogram family. Roll them
    # up under their own key so dashboards and CI can assert on
    # per-class tail percentiles without string-matching family names.
    requests = {
        name.partition("request.latency.")[2]: hist
        for name, hist in histograms.items()
        if name.startswith("request.latency.")
    }
    return {
        "kind": "leviathan-dashboard",
        "root": root,
        "runs": len(runs),
        "runs_with_problems": len(problem_runs),
        "cycles": {
            "total": sum(cycles),
            "min": min(cycles) if cycles else None,
            "max": max(cycles) if cycles else None,
        },
        "counters": dict(sorted(counters.items())),
        "subsystems": dict(sorted(subsystems.items())),
        "histograms": dict(sorted(histograms.items())),
        "requests": dict(sorted(requests.items())),
        "attribution": attribution["classes"],
        "spans_orphaned": spans_orphaned,
        "faults_injected": faults_injected,
        "retries": counters.get("invoke.retries_observed", 0),
        "nacks": nacks,
        "stalls": counters.get("invoke.stall_events", 0),
        "watchdog_fired": counters.get("watchdog.fired", 0),
    }


def render_dashboard(agg):
    """The markdown dashboard for one :func:`aggregate_sweep` digest."""
    lines = [
        f"# Sweep dashboard: {agg['root']}",
        "",
        f"- runs aggregated: **{agg['runs']}**"
        + (
            f" ({agg['runs_with_problems']} with problems)"
            if agg["runs_with_problems"]
            else ""
        ),
    ]
    supervision = agg.get("supervision")
    if supervision is not None:
        lines.append(
            f"- host supervision: **{supervision.get('retries', 0)}** retries,"
            f" **{supervision.get('worker_deaths', 0)}** worker deaths,"
            f" **{supervision.get('timeouts', 0)}** deadline kills,"
            f" **{supervision.get('hangs', 0)}** hang kills,"
            f" **{supervision.get('quarantined', 0)}** cache entries quarantined"
        )
    lines += [
        f"- total simulated cycles: **{agg['cycles']['total']:.0f}**"
        f" (min {agg['cycles']['min']}, max {agg['cycles']['max']})"
        if agg["cycles"]["min"] is not None
        else "- total simulated cycles: n/a",
        f"- faults injected: **{agg['faults_injected']}**,"
        f" retries observed: **{agg['retries']}**,"
        f" NACKs: **{agg['nacks']}**,"
        f" stall events: **{agg['stalls']}**,"
        f" watchdog firings: **{agg['watchdog_fired']}**",
        "",
        "## Latency percentiles (sweep-wide)",
        "",
        "| histogram | n | mean | p50 | p95 | p99 | max |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, hist in agg["histograms"].items():
        if not hist["count"]:
            continue
        lines.append(
            f"| {name} | {hist['count']} | {hist['mean']:.1f} "
            f"| {hist['p50']:.0f} | {hist['p95']:.0f} | {hist['p99']:.0f} "
            f"| {hist['max']:.0f} |"
        )
    requests = agg.get("requests") or {}
    if any(hist["count"] for hist in requests.values()):
        lines += [
            "",
            "## Request-class latency percentiles (serving workloads)",
            "",
            "| class | n | mean | p50 | p95 | p99 | max |",
            "|---|---|---|---|---|---|---|",
        ]
        for cls, hist in requests.items():
            if not hist["count"]:
                continue
            lines.append(
                f"| {cls} | {hist['count']} | {hist['mean']:.1f} "
                f"| {hist['p50']:.0f} | {hist['p95']:.0f} | {hist['p99']:.0f} "
                f"| {hist['max']:.0f} |"
            )
    attribution = agg.get("attribution") or {}
    if any(entry["count"] for entry in attribution.values()):
        lines += [
            "",
            "## Latency attribution waterfall (critical-path cycles per class)",
        ]
        if agg.get("spans_orphaned"):
            lines += [
                "",
                f"orphaned span segments (excluded from attribution): "
                f"**{agg['spans_orphaned']}**",
            ]
        lines += render_waterfall(attribution)
    lines += [
        "",
        "## Per-subsystem counter totals",
        "",
        "| subsystem | total |",
        "|---|---|",
    ]
    for name, total in agg["subsystems"].items():
        lines.append(f"| {name} | {total} |")
    lines.append("")
    return "\n".join(lines)


def write_dashboard(root, supervision=None):
    """Aggregate ``root`` and drop ``dashboard.json`` + ``dashboard.md``.

    ``supervision`` is the pool's host-side rollup (retries, hang and
    deadline kills, quarantined cache entries -- see
    :meth:`~repro.experiments.pool.ExperimentPool.supervision_summary`)
    and is embedded verbatim when given. Returns the aggregate dict, or
    None when the sweep left no runs to aggregate (nothing is written
    in that case).
    """
    agg = aggregate_sweep(root)
    if supervision is not None:
        agg["supervision"] = supervision
    if not agg["runs"]:
        return None
    with open(os.path.join(root, "dashboard.json"), "w") as handle:
        json.dump(agg, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(root, "dashboard.md"), "w") as handle:
        handle.write(render_dashboard(agg))
    return agg


def report(root):
    """Summarize every run under ``root``; returns (text, ok)."""
    runs = find_runs(root)
    if not runs:
        return f"no telemetry runs under {root}", False
    sections = []
    ok = True
    for run_dir in runs:
        summary = summarize_run(run_dir)
        sections.append(render(summary))
        if summary["trace_problems"]:
            ok = False
    sections.append(
        f"{len(runs)} run(s); open trace.json files in https://ui.perfetto.dev"
    )
    return "\n".join(sections), ok
