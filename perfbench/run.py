"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig18 --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout (it imports ``repro`` from ``src/``).
With ``--trace 0`` it repeats cold sections of the workload for
``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced cold section and prints the per-layer
metrics. Every line before the last is for people; the last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each workload and metric is.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

from layers import DISPATCH, dispatch_ms, layer_metrics, telemetry_counts
from measure import PAPER_SPEEDUPS, failed_frac, format_tail, median, tail
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch and trace output, inside the checkout.
OUT = os.path.join(ROOT, ".perfbench")
#: Fresh-process set-ups per untraced run; setup_s is their median.
SETUP_PROBES = 10

END_TO_END = {
    "sweep_s": "s",
    "sim_ips": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("fig18", "hats", "serve", "serve-kv", "sweep")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb(children):
    """Peak resident memory of this process (or its largest child), MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup_seconds(workload, seed, workdir):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "setup_probe.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--workdir",
            workdir,
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.split()[-1])


def check_repeats(sections):
    """Runs of the sections whose digest differs from the first section's."""
    return sum(s.attempted for s in sections[1:] if s.digest != sections[0].digest)


def untraced_run(bench, args, workdir):
    from workloads import SimTimer

    spill = os.path.join(workdir, "machine-run")
    os.makedirs(spill)
    timer = SimTimer(spill).install()
    sections, rates, setups = [], [], []
    start = time.perf_counter()
    try:
        while True:
            section = bench.cold(workdir)
            instructions, seconds = timer.take()
            sections.append(section)
            rates.append(instructions / seconds)
            if len(sections) == 1:
                # Later sections would raise the peak by their leftovers,
                # so it would depend on how many fit in the run. Read it
                # before any set-up probe has run as a child.
                peak = peak_rss_mb(children=bench.name == "sweep")
            # Set-up probes between sections, as many as the share of the
            # run gone by, so that they sample the host across the run.
            while len(setups) < SETUP_PROBES * (time.perf_counter() - start) / args.seconds:
                setups.append(setup_seconds(bench.name, args.seed, workdir))
            elapsed = time.perf_counter() - start
            # Stop when one more section, at the mean pace, would overrun.
            if elapsed * (len(sections) + 1) / len(sections) > args.seconds:
                break
    finally:
        timer.uninstall()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(bench.name, args.seed, workdir))
    metrics = {
        "sweep_s": median([s.seconds for s in sections]),
        "sim_ips": median(rates),
        "setup_s": median(setups),
        "peak_rss_mb": peak,
    }
    attempted = sum(s.attempted for s in sections)
    repeats = check_repeats(sections)
    failed = sum(s.failed for s in sections) + repeats
    errors = sum(s.errors for s in sections) + repeats
    lines = [
        f"perfbench {bench.name} seed={args.seed}: {len(sections)} cold section(s) "
        f"in {elapsed:.1f} s: " + " ".join(f"{s.seconds:.3f}" for s in sections) + " s",
        f"  sweep_s      {metrics['sweep_s']:.4f} s    lower is better; median cold section",
        f"  sim_ips      {metrics['sim_ips']:.1f} 1/s   higher is better; simulated "
        f"instructions per host second in Machine.run",
        f"  setup_s      {metrics['setup_s']:.4f} s    lower is better; median of "
        f"{len(setups)} fresh-process set-ups",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB  lower is better",
    ]
    reruns = [s.rerun_seconds for s in sections if s.rerun_seconds is not None]
    if reruns:
        lines.append(
            f"  rerun_s      {median(reruns):.4f} s    lower is better; median "
            f"full-cache-hit rerun"
        )
    lines += summary_lines(bench.name, sections[0], attempted, failed, errors)
    return metrics, attempted, failed, errors, lines


def summary_lines(name, section, attempted, failed, errors):
    if section.paper_err is not None:
        paper = f"{section.paper_err:.6f} ratio  lower is better; simulated, mean |ln(sim/paper)|"
    elif name in PAPER_SPEEDUPS:
        paper = "not computed: a run failed"
    else:
        paper = "unvalidated: no paper reference for this workload"
    return [
        f"  paper_err    {paper}",
        f"  failed_frac  {failed_frac(failed, attempted):.4f} ratio  "
        f"({failed} of {attempted} runs failed or failed a check; "
        f"{errors} with wrong outputs)",
        f"  digest       {section.digest}  (simulated cycles and stats)",
    ]


def traced_run(bench, args, workdir):
    from workloads import SWEEP_JOBS

    untraced = bench.cold(workdir)
    tracer = Tracer()
    tracer.install(after=telemetry_counts(tracer), sample=DISPATCH)
    # Forked pool workers run untraced: their spans could not come back.
    os.register_at_fork(after_in_child=tracer.uninstall)
    tracer.begin()
    try:
        section = bench.cold(workdir)
        tracer.end()
    finally:
        leaked = tracer.uninstall()
    # Last: running the grid inline warms the parent (lazy imports, heap)
    # that later forked workers would inherit.
    inline = bench.inline_seconds() if bench.name == "sweep" else None
    trace_path = tracer.write(os.path.join(OUT, f"trace-{bench.name}-seed{args.seed}.json"))
    metrics = layer_metrics(tracer, section, untraced.seconds)
    layer_sum = sum(own for _calls, own in tracer.layer_table().values())
    checked, wrong = tracer.check_self_times()
    attempted = untraced.attempted + section.attempted
    repeats = check_repeats([untraced, section])
    failed = untraced.failed + section.failed + repeats
    errors = untraced.errors + section.errors + repeats
    lines = [
        f"perfbench {bench.name} seed={args.seed}: traced cold section "
        f"{section.seconds:.3f} s vs {untraced.seconds:.3f} s untraced",
        f"  layer self times {layer_sum / 1e9:.6f} s + harness residue "
        f"{tracer.residue_ns() / 1e9:.6f} s = traced wall time {tracer.wall_ns() / 1e9:.6f} s "
        f"(by construction)",
        f"  self times recomputed offline from {checked} kept spans: {wrong} differ or are negative",
        f"  wrappers left installed after the trace: {leaked}",
        f"  spans: {len(tracer.spans)} kept, {tracer.dropped} dropped -> {trace_path}",
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32s} {value:.6g} {unit}")
    lines.append(f"  pool dispatch tail: {format_tail(*tail(dispatch_ms(tracer)))}")
    if inline:
        lines.append(
            f"  cold sweep on {SWEEP_JOBS} workers / same grid inline: "
            f"{untraced.seconds / inline:.2f} ({untraced.seconds:.3f} s vs {inline:.3f} s)"
        )
    lines += summary_lines(bench.name, section, attempted, failed, errors)
    values = {name: value for name, (value, _unit) in metrics.items()}
    units = {name: unit for name, (_value, unit) in metrics.items()}
    correct = errors == 0 and checked > 0 and wrong == 0 and leaked == 0
    return values, units, attempted, failed, lines, correct


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: {SRC}/repro not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "sweep":
        import repro.experiments.cli  # noqa: F401  (the CLI's import, before any fork)
    import workloads

    bench = workloads.make(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            values, units, attempted, failed, lines, correct = traced_run(bench, args, workdir)
        else:
            values, attempted, failed, errors, lines = untraced_run(bench, args, workdir)
            units = END_TO_END
            correct = errors == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
