"""Tests of the benchmark's own arithmetic, tracer and gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.pool import RunSpec, spec_hash  # noqa: E402
from repro.experiments.runner import Experiment  # noqa: E402

TINY = {
    "n_buckets": 4,
    "nodes_per_bucket": 4,
    "n_threads": 4,
    "lookups_per_thread": 4,
    "object_size": 64,
}


# -- paper_err ---------------------------------------------------------
def test_paper_err_is_zero_when_simulation_matches_the_paper():
    paper = measure.PAPER_SPEEDUPS["fig18"]
    assert measure.paper_err(dict(paper), paper) == 0.0


def test_paper_err_is_mean_absolute_log_ratio():
    paper = {"a": 2.0, "b": 1.0}
    simulated = {"a": 1.0, "b": 2.0, "ignored": 9.0}
    assert measure.paper_err(simulated, paper) == pytest.approx(math.log(2.0))
    simulated = {"a": 4.0, "b": 1.0}
    assert measure.paper_err(simulated, paper) == pytest.approx(math.log(2.0) / 2)


def test_paper_err_covers_every_paper_number_in_experiments_md():
    assert measure.PAPER_SPEEDUPS == {
        "fig18": {
            "24B/leviathan": 2.0,
            "64B/leviathan": 2.0,
            "128B/leviathan": 2.0,
            "24B/no_padding": 1.5,
            "128B/no_llc_mapping": 0.91,
        },
        "hats": {"sw_bdfs": 1.2, "tako": 1.4, "leviathan": 1.7},
    }


# -- the .tail rule ----------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(400, 0, -1))  # 1..400, unordered input
    value, percentile, n = measure.tail(samples)
    assert (value, percentile, n) == (390, 97.5, 400)
    assert sum(1 for s in samples if s > value) == 10
    assert measure.format_tail(value, percentile, n) == "p97.5 = 390.000 ms over 400 samples"


def test_tail_of_eleven_samples_is_the_minimum():
    value, percentile, n = measure.tail(range(11))
    assert (value, n) == (0, 11)
    assert percentile == pytest.approx(100 / 11)


def test_tail_without_enough_samples_is_labelled_maximum():
    value, percentile, n = measure.tail([3.0, 1.0, 2.0])
    assert (value, percentile, n) == (3.0, 100.0, 3)
    assert measure.format_tail(value, percentile, n) == "p100.0 = 3.000 ms over 3 samples"


# -- self time on synthetic nested spans -------------------------------
class FakeClock:
    """Advances one tick per reading; tests advance it by hand in between."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def test_self_time_subtracts_children_and_sums_exactly():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    outer_id = tracer.register("workloads", "outer")
    inner_id = tracer.register("sim.cache", "inner")
    leaf_id = tracer.register("sim.noc", "leaf")

    def leaf():
        clock.now += 5

    def inner():
        clock.now += 10
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 20

    def outer():
        clock.now += 100
        wrapped_inner()
        clock.now += 7

    wrapped_leaf = tracer.wrap(leaf_id, leaf)
    wrapped_inner = tracer.wrap(inner_id, inner)
    wrapped_outer = tracer.wrap(outer_id, outer)
    tracer.begin()
    wrapped_outer()
    clock.now += 3
    tracer.end()

    # Each reading advances the clock by 1, so a span's duration is its
    # body plus one tick; a parent also sees its children's readings.
    assert tracer.self_ns[leaf_id] == 2 * (5 + 1)
    assert tracer.self_ns[inner_id] == (10 + 20 + 1) + 2  # + the leaf's two inner ticks
    assert tracer.calls == [1, 1, 2]
    assert sum(tracer.self_ns) + tracer.residue_ns() == tracer.wall_ns()
    assert tracer.residue_ns() >= 0
    table = tracer.layer_table()
    assert table["sim.noc"] == (2, tracer.self_ns[leaf_id])

    offline = spans.self_times([(start, end, parent) for _n, start, end, parent, _o in tracer.spans])
    by_name = {}
    for (nid, _s, _e, _p, _o), own in zip(tracer.spans, offline):
        by_name[nid] = by_name.get(nid, 0) + own
    assert by_name == {outer_id: tracer.self_ns[outer_id], inner_id: tracer.self_ns[inner_id],
                       leaf_id: tracer.self_ns[leaf_id]}
    assert tracer.check_self_times() == (4, 0)


def test_self_time_check_skips_spans_with_dropped_children(monkeypatch):
    monkeypatch.setattr(spans, "MAX_SPANS", 3)
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    outer = tracer.wrap(tracer.register("workloads", "outer"), lambda: [leaf() for _ in range(4)])
    leaf = tracer.wrap(tracer.register("sim.noc", "leaf"), lambda: None)
    tracer.begin()
    outer()
    tracer.end()
    assert (len(tracer.spans), tracer.dropped) == (3, 2)
    # The outer span lost two children: only the two kept leaves are checked.
    assert tracer.check_self_times() == (2, 0)
    tracer.spans[1][4] += 1  # an online tally that disagrees
    assert tracer.check_self_times() == (2, 1)


def test_self_times_on_handmade_spans():
    #   A [0, 100) contains B [10, 40) and C [50, 90); C contains D [60, 70)
    triples = [(0, 100, -1), (10, 40, 0), (50, 90, 0), (60, 70, 2)]
    assert spans.self_times(triples) == [30, 30, 30, 10]


def test_generator_entry_points_get_a_span_per_resumption():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    nid = tracer.register("core.stream", "gen")

    def produce():
        clock.now += 10
        received = yield "a"
        clock.now += 20
        yield received
        return "done"

    traced = tracer.wrap(nid, produce)
    tracer.begin()
    generator = traced()
    assert next(generator) == "a"
    assert generator.send("b") == "b"
    with pytest.raises(StopIteration) as stop:
        next(generator)
    tracer.end()
    assert stop.value.value == "done"
    assert tracer.calls[nid] == 1
    assert len(tracer.spans) == 3
    assert tracer.self_ns[nid] == (10 + 1) + (20 + 1) + 1


def test_tracer_removes_every_wrapper():
    points = spans.entry_points()
    before = {path: spans.resolve(path)[2] for _layer, path in points}
    tracer = spans.Tracer().install(points)
    assert any(spans.resolve(path)[2] is not before[path] for path in before)
    assert tracer.uninstall() == 0
    assert all(spans.resolve(path)[2] is before[path] for path in before)


def test_tracer_counts_a_wrapper_copied_while_tracing():
    from repro.experiments import pool

    tracer = spans.Tracer().install([("experiments.pool", "repro.experiments.pool:spec_hash")])
    pool.copied_while_tracing = pool.spec_hash  # as a late ``from x import f`` would
    try:
        assert tracer.uninstall() == 1
    finally:
        del pool.copied_while_tracing


# -- sim_ips timer -------------------------------------------------------
def test_sim_timer_counts_each_phase_of_a_machine_once(tmp_path):
    from repro.workloads import hats

    params = dict(hats.DEFAULT_PARAMS, n_vertices=256, n_edges=2048, n_communities=4)
    timer = workloads.SimTimer(str(tmp_path)).install()
    try:
        # Machine.run twice on one machine: the vertex phase, then the edge phase.
        result = hats.run_baseline(params, n_tiles=4)
    finally:
        timer.uninstall()
    instructions, seconds = timer.take()
    stats = result.stats
    assert instructions == stats["core.instructions"] + stats.get("engine.instructions", 0)
    assert seconds > 0
    assert timer.take() == (0, 0.0)


# -- the gate: failed_frac ---------------------------------------------
def test_failed_frac_helper():
    assert measure.failed_frac(1, 4) == 0.25
    assert measure.failed_frac(0, 0) == 0.0


def _study(specs):
    def runner(pool):
        pool.run_results(specs)
        return Experiment(name="study", paper_reference="test")

    return runner


class _Probe(workloads.StudyWorkload):
    name = "probe"

    def inputs(self, seed):
        good = RunSpec("repro.workloads.hashtable:run_baseline", {"params": TINY, "n_tiles": 4})
        broken = RunSpec(
            "repro.workloads.hashtable:run_baseline", {"params": TINY, "n_tiles": 0}
        )
        other = RunSpec(
            "repro.workloads.hashtable:run_leviathan", {"params": TINY, "n_tiles": 4}
        )
        return [(_study([good]), {}), (_study([other, broken]), {})]


def test_failed_frac_counts_a_run_that_fails(tmp_path):
    section = _Probe(0).cold(str(tmp_path))
    # The failing run sinks its whole study; the passing study counts clean.
    assert (section.attempted, section.failed) == (3, 2)
    assert measure.failed_frac(section.failed, section.attempted) == pytest.approx(2 / 3)


def test_sweep_gate_reruns_from_cache_and_compares(tmp_path):
    sweep = workloads.Sweep(0)
    sweep.specs = workloads.sweep_grid(0)[:4]
    section = sweep.cold(str(tmp_path))
    assert (section.attempted, section.failed) == (4, 0)
    assert section.reports[1] == {"cached": 4}
    assert section.rerun_seconds > 0
    assert os.listdir(tmp_path) == []


# -- seed handling -----------------------------------------------------
def test_seed_zero_gives_paper_default_inputs():
    from repro.workloads import hashtable, hats
    from repro.workloads.serving import kvpaging, kvserve, nearstorage

    assert workloads.Fig18(0).calls[0][1]["params"]["seed"] == hashtable.DEFAULT_PARAMS["seed"]
    assert workloads.Hats(0).calls[0][1]["params"]["seed"] == hats.DEFAULT_PARAMS["seed"]
    first = [kwargs["params"]["seed"] for _runner, kwargs in workloads.Serve(0).calls[:3]]
    assert first == [
        kvserve.DEFAULT_PARAMS["seed"],
        nearstorage.DEFAULT_PARAMS["seed"],
        kvpaging.DEFAULT_PARAMS["seed"],
    ]


def test_seed_drives_every_input():
    for name in ("fig18", "hats", "serve", "serve-kv"):
        assert workloads.make(name, 3).calls == workloads.make(name, 3).calls
        assert workloads.make(name, 3).calls != workloads.make(name, 4).calls
    assert workloads.sweep_grid(3) == workloads.sweep_grid(3)
    assert workloads.sweep_grid(3) != workloads.sweep_grid(4)
    grid = workloads.sweep_grid(3)
    assert len({spec_hash(spec) for spec in grid}) == len(grid) == 48 * workloads.SWEEP_REPLICAS
    serve = [k["params"]["seed"] for _r, k in workloads.Serve(1).calls]
    assert len(serve) == 3 * workloads.SERVE_SEEDS
