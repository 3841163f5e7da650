"""Command-line entry point: ``python -m repro.experiments <name>``.

``leviathan-repro list`` shows every registered experiment;
``leviathan-repro all`` regenerates every table and figure.

Simulation runs execute on an :class:`~repro.experiments.pool.
ExperimentPool`: ``--jobs N`` fans independent runs out over worker
processes (default: one per CPU), results are content-hash cached
under ``--cache-dir`` (default ``results-cache/``, or
``$LEVIATHAN_CACHE_DIR``), ``--resume`` replays a sweep's completed
manifest entries after an interruption, and ``--no-cache`` forces
re-execution. The pool is *supervised*: ``--run-timeout`` puts a
wall-clock deadline on every run, transient failures (killed, hung,
or timed-out workers) are retried with backoff up to ``--run-retries``
attempts, corrupt cache entries are quarantined and re-executed, and
Ctrl-C drains gracefully (manifest intact; ``--resume`` continues).
``--backend`` selects the executor backend. See
``docs/experiments.md``.

``--telemetry-out DIR`` additionally captures telemetry (Perfetto
trace + metrics snapshot) for every machine each run builds, under
``DIR/runs/<label>-<hash>/machine-NN/``;
``leviathan-repro telemetry DIR`` summarizes a captured directory.
``--faults SPEC`` arms a :class:`~repro.sim.faults.FaultPlan` inside
every run (chaos runs); a run that raises makes the sweep exit
nonzero, with the exception and fault report written into the
telemetry directory when one is given.

``--profile DIR`` runs every pool execution under the
:class:`~repro.perf.profile.ProfileHarness`, dropping ``profile.json``,
``profile.pstats``, and ``stacks.folded`` beside each run's telemetry
artifacts.

Observability (see ``docs/observability.md``): ``--flight-recorder [N]``
arms a bounded event ring in every worker that drains into
``postmortem.json`` when a run dies; ``--log FILE`` appends structured
JSONL lifecycle records; multi-worker sweeps write per-run heartbeat
files that ``leviathan-repro status <cache-dir>`` tails from another
terminal; sweeps with ``--telemetry-out`` finish by aggregating every
run into ``dashboard.md`` / ``dashboard.json``.

``leviathan-repro bench`` runs the host-performance lab
(:mod:`repro.perf`): the registered micro/macro benchmarks with
``--trials``/``--warmup``, writing ``BENCH_<git-sha>.json`` into
``--out``. ``bench --compare BASELINE`` additionally renders a
verdict table against a baseline file, on calls per unit and on
wall-clock medians (nonzero exit on a regression); ``bench --compare
OLD NEW`` compares two recorded files without running anything. See
``docs/performance.md``.
"""

import argparse
import json
import os
import sys
import time
import traceback

from repro.experiments import ablations, figures, sensitivity, serving, tables
from repro.experiments.pool import ExperimentPool, SweepInterrupted
from repro.experiments.retry import RetryPolicy

#: Experiment name -> (runner, description). Every runner takes the
#: invocation's shared ``pool`` and returns an ``Experiment``.
_EXPERIMENTS = {
    "table1": (tables.run_table1, "Table I: NDC taxonomy"),
    "table2": (tables.run_table2, "Table II: actions per paradigm"),
    "table3": (tables.run_table3, "Table III: per-paradigm microarchitecture"),
    "table4": (tables.run_table4, "Table IV: hardware overhead"),
    "table5": (tables.run_table5, "Table V: system parameters"),
    "fig5": (figures.run_fig5, "Fig. 5: PHI / commutative scatter-updates"),
    "fig16": (figures.run_fig16, "Fig. 16: near-cache decompression"),
    "fig18": (figures.run_fig18, "Fig. 18: hash-table lookups"),
    "fig20": (figures.run_fig20, "Fig. 20: HATS decoupled traversal"),
    "fig21": (figures.run_fig21, "Fig. 21: HATS breakdown"),
    "fig22": (sensitivity.run_fig22, "Fig. 22: invoke-buffer sensitivity"),
    "fig23": (sensitivity.run_fig23, "Fig. 23: stream-buffer sensitivity"),
    "fig24": (sensitivity.run_fig24, "Fig. 24: input-size sensitivity"),
    "fig25": (sensitivity.run_fig25, "Fig. 25: system-size sensitivity"),
    "ablation-mc-cache": (ablations.run_mc_cache, "MC FIFO-cache ablation"),
    "ablation-migration": (ablations.run_migration, "DYNAMIC migration ablation"),
    "ablation-compaction": (ablations.run_compaction, "DRAM compaction ablation"),
    "ablation-near-memory": (
        ablations.run_near_memory,
        "near-memory engines extension (Sec. IX future work)",
    ),
    "ablation-components": (
        ablations.run_components,
        "PHI generality: connected components with min-combining",
    ),
    "serve-kv": (serving.run_serve_kv, "serving zoo: KV request serving"),
    "serve-paging": (serving.run_serve_paging, "serving zoo: LLM KV-cache paging"),
    "serve-scan": (serving.run_serve_scan, "serving zoo: near-storage scan pushdown"),
    "serve-replay": (serving.run_serve_replay, "serving zoo: JSONL trace replay"),
}

#: Positional names that are commands, not registered experiments.
_COMMANDS = ("all", "list", "telemetry", "status", "explain", "bench")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="leviathan-repro",
        description="Regenerate the tables and figures of the Leviathan paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="list",
        help="experiment name, 'all', 'list' (default), 'telemetry', "
        "'status', 'explain', or 'bench'",
    )
    parser.add_argument(
        "target",
        nargs="?",
        help="for 'telemetry': the --telemetry-out directory to summarize; "
        "for 'status': the cache dir of the sweep to watch "
        "(default: --cache-dir); for 'explain': a telemetry run "
        "directory or a cached-result .json entry",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="print results without asserting the paper-shape expectations",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="also write the reports as a markdown document",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation runs (default: CPU count); "
        "results are identical for any N",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("LEVIATHAN_CACHE_DIR", "results-cache"),
        metavar="DIR",
        help="content-addressed result cache (default: results-cache/, "
        "or $LEVIATHAN_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore cached results and re-execute every run",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep: serve the runs the cache "
        "manifest records ok from their cache entries, even under "
        "--no-cache. With the cache on, a plain rerun does the same; a "
        "sweep run with --no-cache wrote no entries to serve",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="executor backend: 'auto' (default: inline for one worker, "
        "long-lived worker processes otherwise), 'local-inline', or "
        "'local-process'",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per run; an over-deadline worker is "
        "killed and the run retried as a transient failure",
    )
    parser.add_argument(
        "--run-retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts per run for transient failures (worker "
        "killed, timeout, hang); 1 disables retry (default: 3)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="DIR",
        help="capture telemetry (Perfetto trace + metrics) per simulation "
        "run under DIR/runs/<label>-<hash>/machine-NN/",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="arm a fault plan on every machine, e.g. "
        "'crash:1@2000; noc-delay:0.01@20; seed:7' "
        "(see repro.sim.faults for the grammar)",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        help="profile every pool run (cProfile + collapsed stacks), "
        "writing profile.json / profile.pstats / stacks.folded per run "
        "under DIR (or beside --telemetry-out artifacts); for 'bench', "
        "profile each benchmark once after its timed trials",
    )
    parser.add_argument(
        "--flight-recorder",
        nargs="?",
        const=256,
        default=None,
        type=int,
        metavar="N",
        help="keep the last N events (default 256) of every run in a ring "
        "buffer; a failed run drains it into postmortem.json",
    )
    parser.add_argument(
        "--log",
        metavar="FILE",
        help="append structured JSONL run logs (run.start/run.end/faults/"
        "watchdog records, correlated by run id and spec hash) to FILE",
    )
    explain_group = parser.add_argument_group(
        "explain (latency attribution)"
    )
    explain_group.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="attribute the latency delta between two runs (telemetry "
        "run dirs or cached-result .json entries) to taxonomy "
        "components, instead of explaining a single run",
    )
    bench_group = parser.add_argument_group("bench (host-performance lab)")
    bench_group.add_argument(
        "--trials",
        type=int,
        default=5,
        metavar="N",
        help="timed trials per benchmark (default: 5)",
    )
    bench_group.add_argument(
        "--warmup",
        type=int,
        default=1,
        metavar="N",
        help="untimed warmup runs per benchmark (default: 1)",
    )
    bench_group.add_argument(
        "--filter",
        metavar="SUBSTR",
        help="only run benchmarks whose name contains SUBSTR",
    )
    bench_group.add_argument(
        "--out",
        metavar="DIR",
        help="directory for the BENCH_<git-sha>.json history file "
        "(default: current directory); for explain, where its reports go",
    )
    bench_group.add_argument(
        "--compare",
        nargs="+",
        metavar="FILE",
        help="one file: run the suite, then compare against this baseline; "
        "two files: compare OLD NEW without running anything. "
        "Exits 1 on a regression: calls per unit more than 1%% over the "
        "baseline's, or a median beyond 3x the baseline's and its q3.",
    )
    args = parser.parse_args(argv)

    if args.run_retries is not None and args.run_retries < 1:
        parser.error(
            f"--run-retries must be >= 1 (1 disables retry), "
            f"got {args.run_retries}"
        )
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if args.experiment not in _COMMANDS and args.experiment not in _EXPERIMENTS:
        parser.error(
            f"unknown experiment {args.experiment!r}; "
            f"known: {', '.join(sorted(_EXPERIMENTS))}"
        )

    if args.experiment == "bench":
        return _run_bench(args)

    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(f"{name:22s} {_EXPERIMENTS[name][1]}")
        return 0

    if args.experiment == "telemetry":
        from repro.experiments.telemetry_report import report

        if not args.target:
            print("usage: leviathan-repro telemetry DIR", file=sys.stderr)
            return 2
        text, ok = report(args.target)
        print(text)
        return 0 if ok else 1

    if args.experiment == "status":
        from repro.experiments.monitor import render_status

        text, ok = render_status(args.target or args.cache_dir)
        print(text)
        return 0 if ok else 1

    if args.experiment == "explain":
        from repro.experiments.explain import explain, explain_diff

        # Reports land beside the data: a run-dir target gets
        # explain.{json,md} inside it; --out (the bench history flag)
        # overrides, which is how CI collects them as artifacts.
        try:
            if args.diff:
                text, _ = explain_diff(args.diff[0], args.diff[1], out_dir=args.out)
            elif args.target:
                out_dir = args.out or (
                    args.target if os.path.isdir(args.target) else None
                )
                text, _ = explain(args.target, out_dir=out_dir)
            else:
                print(
                    "usage: leviathan-repro explain RUN_DIR_OR_CACHE_ENTRY"
                    " | explain --diff A B",
                    file=sys.stderr,
                )
                return 2
        except (FileNotFoundError, ValueError) as exc:
            print(f"explain: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 0

    from repro.experiments.plotting import speedup_chart

    if args.faults:
        # Validate the fault spec up front (each pool worker re-parses
        # it per run); a bad spec is a usage error, not a chaos crash.
        from repro.sim.faults import FaultPlan

        FaultPlan.parse(args.faults)

    retry = (
        RetryPolicy(max_attempts=args.run_retries)
        if args.run_retries is not None
        else None
    )
    pool = ExperimentPool(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        resume=args.resume,
        telemetry_dir=args.telemetry_out,
        profile_dir=args.profile,
        faults=args.faults,
        flightrec=args.flight_recorder,
        log_path=args.log,
        backend=args.backend,
        retry=retry,
        run_timeout=args.run_timeout,
    )

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed = []
    crashed = []
    markdown_sections = []
    for name in names:
        started = time.time()
        error = None
        error_text = None
        try:
            experiment = _EXPERIMENTS[name][0](pool=pool)
        except SweepInterrupted as exc:
            # Graceful drain already happened (manifest flushed and
            # fsynced); exit nonzero with the resume hint.
            print(f"\ninterrupted: {exc}", file=sys.stderr)
            return 130
        except Exception as exc:  # workload crashed (chaos runs do this)
            error = exc
            error_text = traceback.format_exc()
        elapsed = time.time() - started

        report = pool.consume_report()
        executed = report.get("executed", 0)
        cached = report.get("cached", 0)
        outdir = None
        if args.telemetry_out:
            outdir = os.path.join(args.telemetry_out, name)
            print(
                f"telemetry: {report.get('telemetry_machines', 0)} machine(s) -> "
                f"{os.path.join(args.telemetry_out, 'runs')}"
            )
        if args.faults:
            print(
                f"faults: {report.get('faults_injected', 0)} injected over "
                f"{executed} run(s)"
            )
        if args.profile:
            print(
                f"profiles: {report.get('profiled', 0)} run(s) -> "
                f"{os.path.join(args.telemetry_out or args.profile, 'runs')}"
            )
        if executed or cached:
            line = (
                f"pool: {executed} executed, {cached} cached "
                f"({pool.jobs} job(s))"
            )
            retried = report.get("retried", 0)
            quarantined = report.get("quarantined", 0)
            if retried:
                line += f", {retried} retried"
            if quarantined:
                line += f", {quarantined} cache entr(ies) quarantined"
            print(line)

        if error is not None:
            crashed.append(name)
            print(f"ERROR: {name} raised {type(error).__name__}: {error}", file=sys.stderr)
            print(error_text, file=sys.stderr)
            if outdir is not None:
                os.makedirs(outdir, exist_ok=True)
                with open(os.path.join(outdir, "error.json"), "w") as handle:
                    json.dump(
                        {
                            "experiment": name,
                            "error": type(error).__name__,
                            "message": str(error),
                            "traceback": error_text,
                        },
                        handle,
                        indent=2,
                    )
                    handle.write("\n")
            continue

        print(experiment.report())
        if any("speedup" in row for row in experiment.rows):
            print()
            print(speedup_chart(experiment))
        print(f"({elapsed:.1f}s)\n")
        if args.markdown:
            markdown_sections.append(
                f"{experiment.markdown()}\n\n"
                f"_Regenerate with `leviathan-repro {name}` ({elapsed:.1f}s)._\n"
            )
        if not args.no_check and not experiment.passed:
            failed.append(name)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write("# Reproduced tables and figures\n\n")
            handle.write("\n".join(markdown_sections))
        print(f"wrote {args.markdown}")
    if args.telemetry_out:
        summary = pool.write_dashboard()
        if summary is not None:
            print(
                f"dashboard: {summary['runs']} run(s) aggregated -> "
                f"{os.path.join(args.telemetry_out, 'dashboard.md')}"
            )
    if crashed:
        print(f"CRASHED: {', '.join(crashed)}", file=sys.stderr)
        return 1
    if failed:
        print(f"FAILED shape checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _run_bench(args):
    """The ``bench`` subcommand: run, record, and/or compare benchmarks."""
    from repro.perf import registry as bench_registry
    from repro.perf.bench import render_results, run_benchmark
    from repro.perf.compare import compare, has_regression, render_verdicts
    from repro.perf.history import bench_payload, load_history, write_history

    compare_paths = args.compare or []
    if len(compare_paths) > 2:
        print("usage: bench --compare BASELINE | --compare OLD NEW", file=sys.stderr)
        return 2
    # Load every baseline before running anything: a bad path is a usage
    # error, not a regression after minutes of benchmarks.
    try:
        baselines = [load_history(path) for path in compare_paths]
    except (OSError, ValueError) as exc:
        print(f"bench --compare: {exc}", file=sys.stderr)
        return 2

    if len(baselines) == 2:
        # Pure file comparison: no benchmarks are executed.
        verdicts = compare(*baselines)
        print(render_verdicts(verdicts))
        return 1 if has_regression(verdicts) else 0

    benches = bench_registry.select(args.filter)
    if not benches:
        print(
            f"no benchmarks match {args.filter!r}; "
            f"known: {', '.join(bench_registry.names())}",
            file=sys.stderr,
        )
        return 2

    results = []
    for bench in benches:
        started = time.time()
        result = run_benchmark(bench, trials=args.trials, warmup=args.warmup)
        results.append(result)
        print(
            f"{bench.name}: median {result.median_s:.4f}s "
            f"iqr {result.iqr_s:.4f}s "
            f"{result.steps_per_sec:.0f} {result.unit}/s "
            f"({time.time() - started:.1f}s total)"
        )
    print()
    print(render_results(results))

    payload = bench_payload(results, args.trials, args.warmup)
    path = write_history(payload, out_dir=args.out or ".")
    print(f"wrote {path}")

    if args.profile:
        from repro.perf.profile import ProfileHarness

        for bench in benches:
            harness = ProfileHarness()
            harness.run(bench.make())
            outdir = harness.save(os.path.join(args.profile, bench.name))
            print(f"profiled {bench.name} -> {outdir}")
            if bench.kind == "macro":
                print(harness.report.render(top=10))

    if baselines:
        verdicts = compare(baselines[0], payload)
        print()
        print(render_verdicts(verdicts))
        if has_regression(verdicts):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
