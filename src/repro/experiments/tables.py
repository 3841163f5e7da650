"""Tables I-V: taxonomy, actions, microarchitecture support, area, config.

These runners are analytic (no simulation), so they never submit work
to the experiment pool; they still accept ``pool=None`` so the CLI
can drive every experiment through one uniform interface.
"""

from repro import taxonomy
from repro.core.area import AreaModel
from repro.experiments.runner import Experiment
from repro.sim.config import SystemConfig


def run_table1(pool=None):
    exp = Experiment(
        name="NDC taxonomy",
        paper_reference="Table I",
        notes="Paradigms characterized by task size and core communication.",
    )
    for name, small, talks, prior in taxonomy.table1():
        exp.add_row(
            paradigm=name,
            small_tasks="yes" if small else "no",
            talks_to_cores="yes" if talks else "no",
            prior_work=prior[:60] + ("..." if len(prior) > 60 else ""),
        )
    exp.expect("four paradigms", "between", len(exp.rows), 4, 4)
    # The 2x2 taxonomy covers all combinations exactly once.
    coords = {(r["small_tasks"], r["talks_to_cores"]) for r in exp.rows}
    exp.expect("paradigms cover the 2x2 space", "between", len(coords), 4, 4)
    return exp


def run_table2(pool=None):
    exp = Experiment(name="Actions per paradigm", paper_reference="Table II")
    for name, actions in taxonomy.table2():
        exp.add_row(paradigm=name, actions=actions)
    exp.expect(
        "data-triggered uses constructors/destructors",
        "between",
        int("constructor" in dict(taxonomy.table2())["Data-triggered actions"]),
        1,
        1,
    )
    return exp


def run_table3(pool=None):
    exp = Experiment(
        name="Per-paradigm microarchitecture support", paper_reference="Table III"
    )
    for name, core, cache, engine in taxonomy.table3():
        exp.add_row(paradigm=name, core=core, cache=cache, engine=engine)
    exp.expect("three rows (offload/long-lived share)", "between", len(exp.rows), 3, 3)
    return exp


def run_table4(pool=None):
    model = AreaModel()
    exp = Experiment(
        name="Hardware overhead per LLC bank",
        paper_reference="Table IV",
        notes="Paper: 32.8 KB per 512 KB bank = 6.4%.",
    )
    for label, nbytes in model.breakdown().items():
        exp.add_row(component=label, kilobytes=nbytes / 1024)
    total_kb = model.total_bytes() / 1024
    exp.add_row(component="Total", kilobytes=total_kb)
    exp.expect("total ~32.8 KB", "between", total_kb, 30.0, 35.0)
    exp.expect(
        "overhead ~6.4% of bank", "between", model.overhead_fraction(), 0.058, 0.070
    )
    return exp


def run_table5(pool=None):
    cfg = SystemConfig()
    exp = Experiment(
        name="System parameters", paper_reference="Table V",
        notes="The unscaled simulated machine (case studies scale caches per study).",
    )
    exp.add_row(component="Cores", value=f"{cfg.n_tiles} cores, {cfg.core.freq_ghz} GHz, OOO (IPC {cfg.core.ipc})")
    exp.add_row(component="Invoke buffer", value=f"{cfg.core.invoke_buffer_entries} entries")
    exp.add_row(
        component="Engines",
        value=(
            f"{cfg.n_tiles} engines, {cfg.engine.int_fus} int + "
            f"{cfg.engine.mem_fus} mem FUs, {cfg.engine.l1d_kb} KB L1d, "
            f"{cfg.engine.rtlb_entries}-entry rTLB, {cfg.engine.task_contexts} contexts"
        ),
    )
    exp.add_row(component="L1", value=f"{cfg.l1.size_kb} KB, {cfg.l1.ways}-way")
    exp.add_row(
        component="L2",
        value=f"{cfg.l2.size_kb} KB, {cfg.l2.ways}-way, {cfg.l2.tag_latency}/{cfg.l2.data_latency} cycle tag/data",
    )
    exp.add_row(
        component="LLC",
        value=(
            f"{cfg.llc_total_kb // 1024} MB ({cfg.llc.size_kb} KB/tile), "
            f"{cfg.llc.ways}-way, inclusive"
        ),
    )
    exp.add_row(
        component="NoC",
        value=(
            f"{cfg.mesh_width}x{cfg.n_tiles // cfg.mesh_width} mesh, "
            f"{cfg.noc.flit_bits}-bit flits, {cfg.noc.router_delay}/{cfg.noc.link_delay} cycle router/link"
        ),
    )
    exp.add_row(
        component="Memory",
        value=(
            f"{cfg.memory.controllers} controllers, {cfg.memory.latency}-cycle latency, "
            f"{cfg.memory.fifo_lines}-entry FIFO cache"
        ),
    )
    exp.expect("16 tiles", "between", cfg.n_tiles, 16, 16)
    exp.expect("8 MB LLC", "between", cfg.llc_total_kb, 8192, 8192)
    exp.expect("4 memory controllers", "between", cfg.memory.controllers, 4, 4)
    return exp
