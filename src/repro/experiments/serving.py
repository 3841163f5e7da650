"""Serving-zoo experiments: KV serving, KV-cache paging, storage pushdown.

The zoo workloads (:mod:`repro.workloads.serving`) are not paper
figures -- they are the generality claim of Sec. V exercised on
serving- and storage-shaped traffic. Each ``run_serve_*`` enumerates
its study into :class:`~repro.experiments.pool.RunSpec` entries,
executes them on an experiment pool (parallel and cached like the
figure sweeps), and checks:

- functional equality against each workload's oracle (enforced inside
  the runs themselves -- a wrong answer raises);
- measured speedup bands for the regimes where near-data execution
  should win, and honest near-ties where it should not;
- request-class latency percentile sanity (``p50 <= p95 <= p99``) from
  the :class:`~repro.sim.telemetry.requests.RequestLatencyProbe`
  fields that the sweep dashboard also renders;
- for trace replay, bit-identical cycles/output between a replayed
  synthesized trace and the direct run it was synthesized from.
"""

from repro.experiments.pool import RunSpec, default_pool, run_study
from repro.experiments.runner import Experiment
from repro.workloads.common import StudyResult
from repro.workloads.serving import tracereplay

_KV = "repro.workloads.serving.kvserve:"
_PAGE = "repro.workloads.serving.kvpaging:"
_SCAN = "repro.workloads.serving.nearstorage:"
_REPLAY = "repro.workloads.serving.tracereplay:"


def _kv_specs(params):
    return [
        RunSpec(_KV + "run_baseline", {"params": params}, "serve-kv/baseline"),
        RunSpec(_KV + "run_leviathan", {"params": params}, "serve-kv/leviathan"),
        RunSpec(_KV + "run_leviathan", {"params": params, "ideal": True}, "serve-kv/ideal"),
    ]


def _percentile_expectations(exp, result, classes):
    """Shared percentile sanity: populated, ordered, dashboard-ready."""
    for cls in classes:
        count = result.stat(f"request.{cls}.count")
        p50 = result.stat(f"request.{cls}.p50")
        p95 = result.stat(f"request.{cls}.p95")
        p99 = result.stat(f"request.{cls}.p99")
        exp.expect(f"{cls}: requests observed", "greater", count, 0)
        exp.expect(f"{cls}: p50 <= p95 <= p99", "ordering", [p50, p95, p99])
        exp.expect(f"{cls}: latencies positive", "greater", p50, 0)


def run_serve_kv(params=None, pool=None):
    """KV request serving: offloaded GET/PUT + streamed scans."""
    pool = pool or default_pool()
    study = run_study(pool, "KV serving", "baseline", _kv_specs(params), params=params)
    exp = Experiment(
        name="KV request serving (serving zoo)",
        paper_reference="Sec. V generality; memcached-shaped traffic",
        notes=(
            "Open-loop Poisson clients; GET/PUT offload to bucket actors at "
            "their banks, range scans stream back. Leviathan should beat the "
            "host-side server modestly (requests are small; the win is "
            "locality, not bandwidth) with per-class tail latency recorded."
        ),
    )
    speedups = study.speedups()
    for name, result in study.results.items():
        exp.add_row(
            variant=name,
            speedup=speedups[name],
            cycles=result.cycles,
            get_p99=result.stat("request.get.p99"),
            put_p99=result.stat("request.put.p99"),
            scan_p99=result.stat("request.scan.p99"),
        )
    exp.expect("Leviathan beats host-side serving", "greater", speedups["leviathan"], 1.02)
    exp.expect("win is modest (locality-bound)", "less", speedups["leviathan"], 1.6)
    if "ideal" in study.results:
        gap = abs(speedups["ideal"] - speedups["leviathan"]) / speedups["leviathan"]
        exp.expect("Leviathan close to ideal", "less", gap, 0.10)
    _percentile_expectations(exp, study["leviathan"], ("get", "put", "scan"))
    exp.expect(
        "scans are slower than point GETs (tail)",
        "greater",
        study["leviathan"].stat("request.scan.p99"),
        study["leviathan"].stat("request.get.p99"),
    )
    # Fault-free runs must attribute essentially every request cycle to
    # a named critical-path component (`leviathan-repro explain` honesty bar).
    for cls in ("get", "put", "scan"):
        exp.expect(
            f"{cls}: attribution coverage >= 99%",
            "greater",
            study["leviathan"].stat(f"attribution.{cls}.coverage"),
            0.99,
        )
    return exp


def run_serve_paging(params=None, pool=None, reuse_distances=(8, 128)):
    """KV-cache paging across locality regimes (morph vs software pager)."""
    pool = pool or default_pool()
    fit, thrash = reuse_distances
    grid = {}
    flat = []
    for rd in reuse_distances:
        p = dict(params or {})
        p["reuse_distance"] = rd
        specs = [
            RunSpec(_PAGE + "run_baseline", {"params": p}, f"serve-paging/rd{rd}/baseline"),
            RunSpec(_PAGE + "run_leviathan", {"params": p}, f"serve-paging/rd{rd}/leviathan"),
        ]
        grid[rd] = (p, specs)
        flat.extend(specs)
    results = pool.run_results(flat)
    studies = {}
    cursor = 0
    for rd, (p, specs) in grid.items():
        study = StudyResult(study=f"KV-cache paging rd={rd}", baseline="baseline", params=p)
        for result in results[cursor : cursor + len(specs)]:
            study.add(result)
        cursor += len(specs)
        studies[rd] = study
    exp = Experiment(
        name="LLM KV-cache paging (serving zoo)",
        paper_reference="Sec. V generality; Proxics-shaped far memory",
        notes=(
            "Warm stack-distance traffic. When the reuse window fits the "
            "fast tier the morph only matches the software pager; when it "
            "thrashes, data-triggered page-in/out beats fault software and "
            "static partitioning clearly."
        ),
    )
    speed = {}
    for rd, study in studies.items():
        speedups = study.speedups()
        speed[rd] = speedups["leviathan"]
        for name, result in study.results.items():
            exp.add_row(
                reuse_distance=rd,
                variant=name,
                speedup=speedups[name],
                cycles=result.cycles,
                decode_p99=result.stat("request.decode.p99"),
            )
    exp.expect(
        "baseline degrades as the reuse window outgrows the fast tier",
        "ordering",
        [studies[fit]["baseline"].cycles, studies[thrash]["baseline"].cycles],
    )
    exp.expect(
        "morph degrades more gently than the software pager",
        "greater",
        (studies[thrash]["baseline"].cycles / studies[fit]["baseline"].cycles)
        - (studies[thrash]["leviathan"].cycles / studies[fit]["leviathan"].cycles),
        0.0,
    )
    exp.expect("fitting regime: near-tie (no regression)", "between", speed[fit], 0.9, 1.3)
    exp.expect("thrashing regime: clear morph win", "between", speed[thrash], 1.5, 3.0)
    _percentile_expectations(exp, studies[thrash]["leviathan"], ("decode",))
    return exp


def _scan_specs(params):
    return [
        RunSpec(_SCAN + "run_baseline", {"params": params}, "serve-scan/baseline"),
        RunSpec(_SCAN + "run_leviathan", {"params": params}, "serve-scan/leviathan"),
        RunSpec(
            _SCAN + "run_leviathan", {"params": params, "ideal": True}, "serve-scan/ideal"
        ),
    ]


def run_serve_scan(params=None, pool=None):
    """Near-storage scan/filter/join pushdown vs host-side scanning."""
    pool = pool or default_pool()
    study = run_study(
        pool, "Near-storage scan", "baseline", _scan_specs(params), params=params
    )
    exp = Experiment(
        name="Near-storage scan/filter/join (serving zoo)",
        paper_reference="Sec. V generality; Conduit-shaped pushdown",
        notes=(
            "A fact table 8x the LLC, scanned by per-chunk tasks at their "
            "banks; only aggregates return. Bank-parallel pushdown should "
            "win big over shipping every row to the cores."
        ),
    )
    speedups = study.speedups()
    for name, result in study.results.items():
        exp.add_row(
            variant=name,
            speedup=speedups[name],
            cycles=result.cycles,
            scan_p99=result.stat("request.storage_scan.p99"),
            scan_count=result.stat("request.storage_scan.count"),
        )
    exp.expect("pushdown wins big", "between", speedups["leviathan"], 2.5, 5.5)
    if "ideal" in study.results:
        gap = abs(speedups["ideal"] - speedups["leviathan"]) / speedups["leviathan"]
        exp.expect("Leviathan close to ideal", "less", gap, 0.10)
    _percentile_expectations(exp, study["leviathan"], ("storage_scan",))
    exp.expect(
        "every chunk scan observed",
        "greater",
        study["leviathan"].stat("request.storage_scan.count"),
        100,
    )
    # The pushdown story in one number: the attribution waterfall should
    # blame the memory system (NoC transit + DRAM service + cache walk),
    # not engine compute, for the bulk of scan-request cycles.
    lev = study["leviathan"]
    memory_bound = sum(
        lev.stat(f"attribution.storage_scan.{component}.total")
        for component in ("noc_transit", "dram_service", "cache_walk")
    )
    cycles = lev.stat("attribution.storage_scan.cycles")
    exp.expect(
        "scan requests are memory-bound (NoC+DRAM+cache majority)",
        "greater",
        memory_bound / cycles if cycles else 0.0,
        0.5,
    )
    exp.expect(
        "storage_scan: attribution coverage >= 99%",
        "greater",
        lev.stat("attribution.storage_scan.coverage"),
        0.99,
    )
    return exp


def run_serve_replay(params=None, pool=None):
    """Trace replay: a synthesized JSONL trace reproduces the direct run."""
    pool = pool or default_pool()
    trace = tracereplay.synthesize_trace(params)
    specs = [
        RunSpec(_KV + "run_leviathan", {"params": params}, "serve-replay/direct"),
        RunSpec(
            _REPLAY + "run_replay",
            {"trace": trace, "params": params},
            "serve-replay/replay",
        ),
    ]
    direct, replay = pool.run_results(specs)
    exp = Experiment(
        name="KV trace replay (serving zoo)",
        paper_reference="RunSpec-compatible JSONL trace driver",
        notes=(
            "The synthetic schedule round-trips through the flat JSONL trace "
            "format and replays bit-identically: same cycles, same output, "
            "same request-class percentiles as the direct run."
        ),
    )
    for result in (direct, replay):
        exp.add_row(
            variant=result.name,
            cycles=result.cycles,
            output_len=len(result.output) if result.output is not None else 0,
            get_p99=result.stat("request.get.p99"),
        )
    exp.expect("trace parsed", "greater", len(trace), 0)
    exp.expect(
        "replay cycles bit-identical", "between", replay.cycles, direct.cycles, direct.cycles
    )
    exp.expect(
        "replay output identical", "between", int(replay.output == direct.output), 1, 1
    )
    exp.expect(
        "replay stats identical (all request-class fields)",
        "between",
        int(
            all(
                replay.stat(key) == value
                for key, value in direct.stats.items()
                if key.startswith("request.")
            )
        ),
        1,
        1,
    )
    return exp
