"""``leviathan-repro explain``: why is this run slow?

Turns a run's telemetry artifacts (or a cached result entry) into a
per-request-class critical-path waterfall -- every request cycle
attributed to one taxonomy component (see
:data:`~repro.sim.telemetry.critpath.COMPONENTS`) -- and, with
``--diff``, attributes the end-to-end latency delta between two runs
to those components. This is the tool that converts a bench REGRESSION
flag or a serve-* speedup number into a one-screen causal story.

Nothing is attributed here: the live session attributed every request
as it closed and wrote the rollup to each machine's
``attribution.json`` (see :mod:`repro.sim.telemetry.critpath`). Three
input shapes are accepted:

- a **machine directory** (``.../machine-00``): the classes of its
  ``attribution.json`` are reported exactly as the session wrote them;
- a **run/sweep directory**: the ``attribution.json`` of every machine
  directory underneath is merged per request class by
  :func:`~repro.experiments.telemetry_report.aggregate_attribution`,
  the merge the sweep dashboard uses; a missing or torn file is named
  in ``problems`` and the other machines are still reported;
- a **cache entry** (``<hash>.json`` written by the experiment pool):
  the flat ``attribution.*`` stats merged into the cached
  ``RunResult`` are unflattened back into a waterfall.

The waterfall table is
:func:`~repro.experiments.telemetry_report.render_waterfall`, shared
with the sweep dashboard.
"""

import json
import math
import os

from repro.experiments.telemetry_report import (
    _read_json,
    aggregate_attribution,
    find_runs,
    render_waterfall,
)
from repro.sim.telemetry.critpath import ATTRIBUTED, COMPONENTS

#: Waterfall fields reported per component.
WATERFALL_FIELDS = ("total", "share", "p50", "p95", "p99")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def analyze(target):
    """The explain report for ``target`` (run dir or cache entry)."""
    if os.path.isfile(target):
        return analyze_cache_entry(target)
    if os.path.isdir(target):
        return analyze_run_dir(target)
    raise FileNotFoundError(
        f"{target}: neither a telemetry directory nor a cache entry"
    )


def analyze_run_dir(target):
    """Merge the ``attribution.json`` of every machine under ``target``."""
    machine_dirs = find_runs(target)
    if not machine_dirs and os.path.isfile(
        os.path.join(target, "attribution.json")
    ):
        machine_dirs = [target]
    merged = aggregate_attribution(machine_dirs)
    meta = merged["meta"]
    classes = merged["classes"]
    return {
        "kind": "leviathan-explain",
        "source": target,
        "source_kind": "run-dir",
        "machines": merged["machines"],
        "machine_cycles": float(meta["cycles"]),
        "requests": sum(e["count"] for e in classes.values()),
        "request_cycles": math.fsum(e["cycles"] for e in classes.values()),
        "coverage": _weighted_coverage(classes),
        "spans_orphaned": meta["spans_orphaned"],
        "spans_unclosed": meta["spans_unclosed"],
        "spans_dropped": meta["spans_dropped"],
        "problems": merged["problems"],
        "classes": classes,
    }


def analyze_cache_entry(path):
    """Unflatten the ``attribution.*`` stats of one cached result."""
    payload, problem = _read_json(path)
    if payload is None:
        raise ValueError(f"{path}: {problem}")
    result = payload.get("result", payload)
    if result.get("kind") != "run_result":
        raise ValueError(f"{path}: cached value is not a RunResult")
    stats = result.get("stats") or {}
    classes = {}

    def entry(cls):
        found = classes.get(cls)
        if found is None:
            found = classes[cls] = {
                "count": 0,
                "cycles": 0.0,
                "coverage": 1.0,
                "latency": None,
                "components": {
                    c: dict.fromkeys(WATERFALL_FIELDS, 0.0) for c in COMPONENTS
                },
            }
        return found

    for key, value in stats.items():
        if not key.startswith("attribution."):
            continue
        rest = key[len("attribution.") :]
        parts = rest.rsplit(".", 2)
        if (
            len(parts) == 3
            and parts[1] in COMPONENTS
            and parts[2] in ("total", "p50", "p95", "p99")
        ):
            cls, component, field = parts
            entry(cls)["components"][component][field] = float(value)
        else:
            cls, _dot, field = rest.rpartition(".")
            if cls and field in ("count", "cycles", "coverage"):
                entry(cls)[field] = (
                    int(value) if field == "count" else float(value)
                )
    for cls, data in classes.items():
        cycles = data["cycles"]
        for component in COMPONENTS:
            comp = data["components"][component]
            comp["share"] = comp["total"] / cycles if cycles else 0.0
        latency = {
            field: float(stats.get(f"request.{cls}.{field}", 0.0))
            for field in ("count", "p50", "p95", "p99", "mean", "max")
        }
        if latency["count"]:
            data["latency"] = latency
    return {
        "kind": "leviathan-explain",
        "source": path,
        "source_kind": "cache-entry",
        "machines": [],
        "machine_cycles": float(result.get("cycles") or 0.0),
        "requests": sum(e["count"] for e in classes.values()),
        "request_cycles": math.fsum(e["cycles"] for e in classes.values()),
        "coverage": _weighted_coverage(classes),
        "spans_orphaned": 0,
        "spans_unclosed": 0,
        "spans_dropped": 0,
        "problems": [],
        "classes": classes,
    }


def _weighted_coverage(classes):
    cycles = math.fsum(e["cycles"] for e in classes.values())
    if cycles <= 0.0:
        return 1.0
    residue = math.fsum(
        (1.0 - e.get("coverage", 1.0)) * e["cycles"] for e in classes.values()
    )
    return 1.0 - residue / cycles


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_markdown(report):
    """The one-screen waterfall for one :func:`analyze` report."""
    lines = [
        f"# Latency attribution: {report['source']}",
        "",
        f"- requests attributed: **{report['requests']}** across "
        f"**{len(report['classes'])}** class(es)",
        f"- request cycles: **{report['request_cycles']:,.0f}**"
        + (
            f" (machine cycles {report['machine_cycles']:,.0f})"
            if report.get("machine_cycles")
            else ""
        ),
        f"- attribution coverage: **{report['coverage'] * 100:.2f}%**"
        f" (orphaned segments: {report['spans_orphaned']},"
        f" unclosed: {report['spans_unclosed']},"
        f" dropped: {report['spans_dropped']})",
    ]
    for problem in report.get("problems", []):
        lines.append(f"- !! {problem}")
    lines += render_waterfall(report["classes"])
    if not report["classes"]:
        lines += ["", "_No request spans recorded (baseline/core-only run?)._"]
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def diff_reports(report_a, report_b):
    """Attribute the latency delta between two explain reports.

    Per shared request class the per-request component means are
    differenced; a class present on only one side diffs against zeros
    (a baseline without offloads legitimately has no attribution -- the
    delta then reads as "everything the variant spends per request").
    """
    classes = sorted(set(report_a["classes"]) | set(report_b["classes"]))
    out_classes = {}
    for cls in classes:
        entry_a = report_a["classes"].get(cls)
        entry_b = report_b["classes"].get(cls)
        count_a = entry_a["count"] if entry_a else 0
        count_b = entry_b["count"] if entry_b else 0
        mean_a = (entry_a["cycles"] / count_a) if count_a else 0.0
        mean_b = (entry_b["cycles"] / count_b) if count_b else 0.0
        components = {}
        for component in COMPONENTS:
            total_a = (
                entry_a["components"][component]["total"] if entry_a else 0.0
            )
            total_b = (
                entry_b["components"][component]["total"] if entry_b else 0.0
            )
            per_req_a = total_a / count_a if count_a else 0.0
            per_req_b = total_b / count_b if count_b else 0.0
            components[component] = {
                "total_a": total_a,
                "total_b": total_b,
                "per_request_a": per_req_a,
                "per_request_b": per_req_b,
                "delta_per_request": per_req_b - per_req_a,
            }
        out_classes[cls] = {
            "count_a": count_a,
            "count_b": count_b,
            "mean_a": mean_a,
            "mean_b": mean_b,
            "delta_mean": mean_b - mean_a,
            "components": components,
        }
    cycles_a = report_a.get("machine_cycles") or 0.0
    cycles_b = report_b.get("machine_cycles") or 0.0
    return {
        "kind": "leviathan-explain-diff",
        "a": report_a["source"],
        "b": report_b["source"],
        "machine_cycles_a": cycles_a,
        "machine_cycles_b": cycles_b,
        "machine_cycles_delta": cycles_b - cycles_a,
        "speedup_b_over_a": (cycles_a / cycles_b) if cycles_b else None,
        "classes": out_classes,
    }


def render_diff_markdown(diff):
    """The one-screen causal story for one :func:`diff_reports` result."""
    lines = [
        "# Latency attribution diff",
        "",
        f"- A: `{diff['a']}`",
        f"- B: `{diff['b']}`",
    ]
    if diff["machine_cycles_a"] and diff["machine_cycles_b"]:
        speedup = diff["speedup_b_over_a"]
        direction = "faster" if speedup >= 1.0 else "slower"
        lines.append(
            f"- machine cycles: {diff['machine_cycles_a']:,.0f} -> "
            f"{diff['machine_cycles_b']:,.0f} "
            f"(B is **{max(speedup, 1 / speedup) if speedup else 0:.2f}x "
            f"{direction}**)"
        )
    for cls in sorted(diff["classes"]):
        entry = diff["classes"][cls]
        if not entry["count_a"] and not entry["count_b"]:
            continue
        lines += [
            "",
            f"## {cls}  (n: {entry['count_a']} -> {entry['count_b']}, "
            f"mean/request: {entry['mean_a']:,.1f} -> {entry['mean_b']:,.1f}, "
            f"delta {entry['delta_mean']:+,.1f})",
            "",
            "| component | A cycles/req | B cycles/req | delta | of mean delta |",
            "|---|---|---|---|---|",
        ]
        denom = entry["delta_mean"]
        ranked = sorted(
            (
                (component, entry["components"][component])
                for component in ATTRIBUTED + ("unattributed",)
            ),
            key=lambda item: abs(item[1]["delta_per_request"]),
            reverse=True,
        )
        for component, comp in ranked:
            # Skip components that are float residue on both sides.
            if (
                abs(comp["per_request_a"]) < 0.05
                and abs(comp["per_request_b"]) < 0.05
            ):
                continue
            of_delta = (
                f"{comp['delta_per_request'] / denom * 100:.0f}%"
                if denom
                else "n/a"
            )
            lines.append(
                f"| {component} | {comp['per_request_a']:,.1f} "
                f"| {comp['per_request_b']:,.1f} "
                f"| {comp['delta_per_request']:+,.1f} | {of_delta} |"
            )
    if not any(
        entry["count_a"] or entry["count_b"]
        for entry in diff["classes"].values()
    ):
        lines += [
            "",
            "_Neither side recorded request spans; only the machine-cycle "
            "delta above is attributable._",
        ]
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# entry point (driven by the CLI's ``explain`` subcommand)
# ----------------------------------------------------------------------
def explain(target, out_dir=None):
    """Analyze ``target``; write + print the report. Returns (text, report)."""
    report = analyze(target)
    text = render_markdown(report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "explain.json"), "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        with open(os.path.join(out_dir, "explain.md"), "w") as handle:
            handle.write(text)
    return text, report


def explain_diff(target_a, target_b, out_dir=None):
    """Diff two targets; write + print the report. Returns (text, diff)."""
    diff = diff_reports(analyze(target_a), analyze(target_b))
    text = render_diff_markdown(diff)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "explain-diff.json"), "w") as handle:
            json.dump(diff, handle, indent=2, sort_keys=True)
            handle.write("\n")
        with open(os.path.join(out_dir, "explain-diff.md"), "w") as handle:
            handle.write(text)
    return text, diff
