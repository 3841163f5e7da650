"""Figures 5, 16, 18, 20, 21: the case-study results.

Each ``run_figN`` enumerates the corresponding case study into
:class:`~repro.experiments.pool.RunSpec` entries (one simulator
execution each), executes them on an experiment pool -- in parallel
when the pool has ``jobs>1``, with content-addressed result caching --
and checks the paper's qualitative claims on the reassembled study.
Absolute factors are checked against generous bands around the paper's
numbers (the substrate is a coarse simulator, not the authors'
testbed); orderings are checked strictly.

Figs. 20 and 21 enumerate identical HATS specs, so the second figure
is served entirely from the pool's cache.
"""

from repro.experiments.pool import RunSpec, default_pool, run_study
from repro.experiments.runner import Experiment
from repro.workloads import hats
from repro.workloads.common import StudyResult

_PHI = "repro.workloads.phi:"
_DEC = "repro.workloads.decompress:"
_HT = "repro.workloads.hashtable:"
_HATS = "repro.workloads.hats:"


def _phi_specs(params):
    return [
        RunSpec(_PHI + "run_baseline", {"params": params}, "fig5/baseline"),
        RunSpec(_PHI + "run_tako", {"params": params, "relaxed": False}, "fig5/tako_fence"),
        RunSpec(_PHI + "run_tako", {"params": params, "relaxed": True}, "fig5/tako_relax"),
        RunSpec(_PHI + "run_leviathan", {"params": params}, "fig5/leviathan"),
        RunSpec(_PHI + "run_leviathan", {"params": params, "ideal": True}, "fig5/ideal"),
    ]


def _decompress_specs(params):
    return [
        RunSpec(_DEC + "run_baseline", {"params": params}, "fig16/baseline"),
        RunSpec(_DEC + "run_offload", {"params": params}, "fig16/offload"),
        RunSpec(_DEC + "run_no_padding", {"params": params}, "fig16/no_padding"),
        RunSpec(_DEC + "run_leviathan", {"params": params}, "fig16/leviathan"),
        RunSpec(_DEC + "run_leviathan", {"params": params, "ideal": True}, "fig16/ideal"),
    ]


def _hats_specs(params):
    return [
        RunSpec(_HATS + "run_baseline", {"params": params}, "hats/baseline"),
        RunSpec(_HATS + "run_sw_bdfs", {"params": params}, "hats/sw_bdfs"),
        RunSpec(_HATS + "run_tako", {"params": params}, "hats/tako"),
        RunSpec(_HATS + "run_leviathan", {"params": params}, "hats/leviathan"),
        RunSpec(_HATS + "run_leviathan", {"params": params, "ideal": True}, "hats/ideal"),
    ]


def _fig18_specs(params, sizes):
    """Per-size spec lists; flattened into ONE pool submission so every
    run of the grid is in flight at once under ``--jobs N``."""
    by_size = {}
    for size in sizes:
        p = dict(params or {})
        p["object_size"] = size
        specs = [
            RunSpec(_HT + "run_baseline", {"params": p}, f"fig18/{size}B/baseline"),
            RunSpec(_HT + "run_leviathan", {"params": p}, f"fig18/{size}B/leviathan"),
        ]
        if size == 24:
            specs.append(
                RunSpec(_HT + "run_no_padding", {"params": p}, f"fig18/{size}B/no_padding")
            )
        if size == 128:
            specs.append(
                RunSpec(
                    _HT + "run_no_llc_mapping",
                    {"params": p},
                    f"fig18/{size}B/no_llc_mapping",
                )
            )
        by_size[size] = (p, specs)
    return by_size


def _study_rows(exp, study):
    speedups = study.speedups()
    savings = study.energy_savings()
    for name, result in study.results.items():
        exp.add_row(
            variant=name,
            speedup=speedups[name],
            energy_savings_pct=savings[name] * 100,
            cycles=result.cycles if result.functional else float("nan"),
            functional="yes" if result.functional else "NO (" + result.notes[:40] + ")",
        )
    return speedups, savings


def run_fig5(params=None, pool=None):
    pool = pool or default_pool()
    study = run_study(pool, "PHI (Fig. 5)", "baseline", _phi_specs(params), params=params)
    exp = Experiment(
        name="PHI / commutative scatter-updates",
        paper_reference="Fig. 5",
        notes=(
            "Paper: tako Fence 1.4x, tako Relax 3.1x, Leviathan 3.7x "
            "(within 1.3% of ideal); energy -12% (tako), -22% (Leviathan)."
        ),
    )
    speedups, savings = _study_rows(exp, study)
    exp.expect(
        "ordering base < fence < relax < leviathan",
        "ordering",
        [
            speedups["baseline"],
            speedups["tako_fence"],
            speedups["tako_relax"],
            speedups["leviathan"],
        ],
    )
    exp.expect("Leviathan speedup ~3.7x", "between", speedups["leviathan"], 2.5, 5.0)
    exp.expect("tako Relax ~3.1x", "between", speedups["tako_relax"], 1.8, 4.0)
    exp.expect("tako Fence ~1.4x", "between", speedups["tako_fence"], 1.05, 2.0)
    if "ideal" in study.results:
        gap = abs(speedups["ideal"] - speedups["leviathan"]) / speedups["leviathan"]
        exp.expect("Leviathan close to ideal", "less", gap, 0.08)
    exp.expect("Leviathan saves energy", "greater", savings["leviathan"], 0.10)
    exp.expect(
        "Leviathan saves more energy than tako",
        "greater",
        savings["leviathan"] - savings["tako_fence"],
        0.0,
    )
    return exp


def run_fig16(params=None, pool=None):
    pool = pool or default_pool()
    study = run_study(
        pool, "Decompression (Fig. 16)", "baseline", _decompress_specs(params), params=params
    )
    exp = Experiment(
        name="Near-cache data transformation (decompression)",
        paper_reference="Fig. 16",
        notes=(
            "Paper: Leviathan 2.4x / -65% energy; offload (OL) is worse "
            "than the baseline; no-padding does not work at all."
        ),
    )
    speedups, savings = _study_rows(exp, study)
    exp.expect("Leviathan speedup ~2.4x", "between", speedups["leviathan"], 1.5, 3.5)
    exp.expect("offload is worse than baseline", "less", speedups["offload"], 1.0)
    exp.expect(
        "no-padding does not work",
        "between",
        int(study["no_padding"].functional),
        0,
        0,
    )
    exp.expect("Leviathan energy ~-65%", "between", savings["leviathan"], 0.4, 0.9)
    if "ideal" in study.results:
        gap = abs(speedups["ideal"] - speedups["leviathan"]) / speedups["leviathan"]
        exp.expect("Leviathan close to ideal", "less", gap, 0.15)
    return exp


def run_fig18(params=None, sizes=(24, 64, 128), pool=None):
    pool = pool or default_pool()
    spec_grid = _fig18_specs(params, sizes)
    flat = [spec for _, specs in spec_grid.values() for spec in specs]
    results = pool.run_results(flat)
    studies = {}
    cursor = 0
    for size, (p, specs) in spec_grid.items():
        study = StudyResult(
            study=f"Hash table {size}B (Fig. 18)", baseline="baseline", params=p
        )
        for result in results[cursor : cursor + len(specs)]:
            study.add(result)
        cursor += len(specs)
        studies[size] = study
    exp = Experiment(
        name="Hash-table lookups across object sizes",
        paper_reference="Fig. 18",
        notes=(
            "Paper: up to 2.0x and -77% energy across 24/64/128 B objects; "
            "no-padding drops 24 B to 1.5x; no-LLC-mapping drops 128 B to 0.91x."
        ),
    )
    by_size = {}
    for size, study in studies.items():
        speedups = study.speedups()
        savings = study.energy_savings()
        by_size[size] = (speedups, savings, study)
        for name, result in study.results.items():
            # Per-level attribution from the hierarchy's outcome counts
            # (RunResult.access_profile): where each variant's
            # chain-walk loads were actually served.
            exp.add_row(
                object_size=size,
                variant=name,
                speedup=speedups[name],
                energy_savings_pct=savings[name] * 100,
                l1_hits=result.accesses("l1", "hit"),
                engine_l1_hits=result.accesses("engine_l1", "hit"),
                llc_hits=result.accesses("llc", "hit"),
                dram_fills=result.accesses("dram", "fill"),
            )
    lev = [by_size[s][0]["leviathan"] for s in sizes]
    headline = sizes[len(sizes) // 2] if sizes else None
    if headline is not None:
        base_r = by_size[headline][2]["baseline"]
        lev_r = by_size[headline][2]["leviathan"]
        exp.expect(
            "offloaded lookups run at engines (engine-L1 traffic appears)",
            "greater",
            lev_r.accesses("engine_l1"),
            0,
        )
        exp.expect(
            "baseline has no engine-side accesses",
            "between",
            base_r.accesses("engine_l1"),
            0,
            0,
        )
        exp.expect(
            "the table is LLC-resident: most node loads hit the LLC, not DRAM",
            "greater",
            lev_r.accesses("llc", "hit") - lev_r.accesses("dram", "fill"),
            0,
        )
    exp.expect("Leviathan wins at every size", "greater", min(lev), 1.1)
    exp.expect(
        "performance is consistent across sizes (max/min < 1.5)",
        "less",
        max(lev) / min(lev),
        1.5,
    )
    if 24 in by_size and "no_padding" in by_size[24][2]:
        exp.expect(
            "padding helps 24 B objects",
            "greater",
            by_size[24][0]["leviathan"] - by_size[24][0]["no_padding"],
            0.0,
        )
    if 128 in by_size and "no_llc_mapping" in by_size[128][2]:
        exp.expect(
            "LLC mapping helps 128 B objects",
            "greater",
            by_size[128][0]["leviathan"] - by_size[128][0]["no_llc_mapping"],
            0.0,
        )
        exp.expect(
            "without mapping, close to or below baseline",
            "less",
            by_size[128][0]["no_llc_mapping"],
            1.25,
        )
    exp.expect(
        "Leviathan saves energy at every size",
        "greater",
        min(by_size[s][1]["leviathan"] for s in sizes),
        0.15,
    )
    return exp


def run_fig20(params=None, pool=None):
    pool = pool or default_pool()
    study = run_study(
        pool, "HATS (Figs. 20-21)", "baseline", _hats_specs(params), params=params
    )
    exp = Experiment(
        name="Decoupled graph traversal (HATS)",
        paper_reference="Fig. 20",
        notes=(
            "Paper: software BDFS 1.2x, tako 1.4x, Leviathan 1.7x "
            "(nearly identical to ideal), energy -26%."
        ),
    )
    speedups, savings = _study_rows(exp, study)
    exp.expect(
        "ordering base < tako < leviathan",
        "ordering",
        [speedups["baseline"], speedups["tako"], speedups["leviathan"]],
    )
    exp.expect("software BDFS helps", "greater", speedups["sw_bdfs"], 1.0)
    exp.expect("Leviathan ~1.7x", "between", speedups["leviathan"], 1.4, 2.2)
    exp.expect("tako ~1.4x", "between", speedups["tako"], 1.15, 1.8)
    if "ideal" in study.results:
        gap = abs(speedups["ideal"] - speedups["leviathan"]) / speedups["leviathan"]
        exp.expect("Leviathan nearly identical to ideal", "less", gap, 0.05)
    exp.expect("Leviathan saves energy", "greater", savings["leviathan"], 0.05)
    return exp


def run_fig21(params=None, study=None, pool=None):
    if study is None:
        pool = pool or default_pool()
        study = run_study(
            pool, "HATS (Figs. 20-21)", "baseline", _hats_specs(params), params=params
        )
    exp = Experiment(
        name="HATS performance breakdown",
        paper_reference="Fig. 21",
        notes=(
            "Paper: BDFS versions cut edge-phase DRAM accesses ~40%; tako and "
            "Leviathan eliminate branch mispredictions; tako needs more engine "
            "instructions per edge than Leviathan (stack re-initialization)."
        ),
    )
    edges = study.params.get("n_edges") or hats.DEFAULT_PARAMS["n_edges"]
    for name, result in study.results.items():
        exp.add_row(
            variant=name,
            dram_vertex_phase=result.stat("vertex/dram.accesses"),
            dram_edge_phase=result.stat("edge/dram.accesses"),
            mispredicts_per_edge=result.stat("core.branch_mispredictions") / edges,
            engine_instr_per_edge=result.stat("edge/engine.instructions") / edges,
        )
    base = study["baseline"]
    lev = study["leviathan"]
    tako = study["tako"]
    exp.expect(
        "vertex-phase DRAM equal across versions",
        "less",
        abs(lev.stat("vertex/dram.accesses") - base.stat("vertex/dram.accesses"))
        / max(1, base.stat("vertex/dram.accesses")),
        0.1,
    )
    reduction = 1 - lev.stat("edge/dram.accesses") / base.stat("edge/dram.accesses")
    exp.expect("BDFS cuts edge-phase DRAM (~40% in paper)", "between", reduction, 0.1, 0.6)
    exp.expect(
        "tako/Leviathan eliminate mispredictions",
        "less",
        lev.stat("core.branch_mispredictions") + tako.stat("core.branch_mispredictions"),
        1,
    )
    exp.expect(
        "tako needs more engine instructions per edge",
        "greater",
        tako.stat("edge/engine.instructions") - lev.stat("edge/engine.instructions"),
        0,
    )
    return exp
