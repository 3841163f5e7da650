"""The profiler harness: attribution, collapsed stacks, pool artifacts."""

import cProfile
import pstats
import re
import time
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.experiments.pool import ExperimentPool, RunSpec
from repro.perf.profile import (
    ProfileHarness,
    ProfileReport,
    classify,
    fold_stacks,
    module_of,
)

#: Every folded line is ``frame;frame;... count`` -- the input format of
#: flamegraph.pl and speedscope: no spaces inside frames, one trailing
#: integer.
FOLDED_LINE = re.compile(r"^[^ ]+(;[^ ]+)* \d+$")

#: A cheap fig18 configuration for profile runs in tests.
SMALL_FIG18 = {
    "n_buckets": 8,
    "nodes_per_bucket": 8,
    "n_threads": 4,
    "lookups_per_thread": 8,
}


class TestClassify:
    @pytest.mark.parametrize(
        ("path", "label"),
        [
            ("/x/src/repro/sim/scheduler.py", "sim.scheduler"),
            ("/x/src/repro/sim/ops.py", "sim.scheduler"),
            ("/x/src/repro/sim/cache.py", "sim.cache"),
            ("/x/src/repro/sim/hierarchy.py", "sim.cache"),
            ("/x/src/repro/sim/noc.py", "sim.noc"),
            ("/x/src/repro/sim/dram.py", "sim.dram"),
            ("/x/src/repro/sim/stats.py", "sim.stats"),
            ("/x/src/repro/sim/telemetry/session.py", "telemetry"),
            ("/x/src/repro/sim/faults.py", "sim.faults"),
            ("/x/src/repro/core/offload.py", "core.offload"),
            ("/x/src/repro/core/stream.py", "core.stream"),
            ("/x/src/repro/core/morph.py", "core.morph"),
            ("/x/src/repro/workloads/hashtable.py", "workloads"),
            ("/x/src/repro/experiments/pool.py", "experiments"),
            ("/x/src/repro/perf/bench.py", "perf"),
            ("/usr/lib/python3/json/decoder.py", "other"),
            ("<built-in>", "other"),
            ("", "other"),
        ],
    )
    def test_module_to_subsystem(self, path, label):
        assert classify(path) == label

    def test_module_of_strips_to_dotted_path(self):
        assert module_of("/x/src/repro/sim/cache.py") == "repro.sim.cache"
        assert module_of("/nothing/here.py") == ""


class TestAttribution:
    @pytest.fixture(scope="class")
    def fig18_harness(self):
        from repro.perf.registry import FIG18_TILES
        from repro.workloads import hashtable

        harness = ProfileHarness()
        harness.run(
            hashtable.run_leviathan, dict(SMALL_FIG18), n_tiles=FIG18_TILES
        )
        return harness

    def test_subsystems_sum_to_total_within_5_percent(self, fig18_harness):
        """The acceptance criterion: per-subsystem wall time must sum to
        within 5% of the total profiled time on the fig18 macro. (The
        attribution is exhaustive -- unmatched frames land in 'other' --
        so the sum is exact up to float rounding.)"""
        report = fig18_harness.report
        assert report.total_s > 0
        attributed = sum(report.subsystems.values())
        assert attributed == pytest.approx(report.total_s, rel=0.05)

    def test_simulator_subsystems_dominate(self, fig18_harness):
        labels = set(fig18_harness.report.subsystems)
        assert "sim.scheduler" in labels
        assert "sim.cache" in labels

    def test_hot_rows_are_sorted_and_labelled(self, fig18_harness):
        hot = fig18_harness.report.hot
        assert hot
        times = [row["tottime_s"] for row in hot]
        assert times == sorted(times, reverse=True)
        for row in hot:
            assert {"function", "module", "subsystem", "calls"} <= set(row)

    def test_render_shows_breakdown(self, fig18_harness):
        text = fig18_harness.report.render(top=5)
        assert "per-subsystem breakdown" in text
        assert "sim.scheduler" in text

    def test_folded_stacks_are_flamegraph_input(self, fig18_harness):
        lines = fig18_harness.folded.splitlines()
        assert lines, "sampler collected no stacks on a ~1s macro run"
        for line in lines:
            assert FOLDED_LINE.match(line), f"bad folded line: {line!r}"
        assert any("repro." in line for line in lines)

    def test_save_writes_artifact_triple(self, fig18_harness, tmp_path):
        outdir = fig18_harness.save(str(tmp_path / "prof"))
        for name in ("profile.json", "profile.pstats", "stacks.folded"):
            assert (tmp_path / "prof" / name).exists()
        stats = pstats.Stats(str(tmp_path / "prof" / "profile.pstats"))
        assert stats.stats
        import json

        payload = json.loads((tmp_path / "prof" / "profile.json").read_text())
        assert payload["fingerprint"]["python"]
        assert payload["subsystems"]
        assert outdir == str(tmp_path / "prof")


class TestRawEntries:
    def test_dataclass_inits_are_summed_not_dropped(self):
        """Every dataclass-generated ``__init__`` carries the label
        ``("<string>", 2, "__init__")``. pstats keeps one entry per
        label, so a report built from it loses all but one class's
        calls and own time; the report sums the raw entries instead."""

        @dataclass
        class First:
            a: int

        @dataclass
        class Second:
            b: int

        def build():
            for i in range(1000):
                First(i)
                Second(i)

        profile = cProfile.Profile()
        profile.runcall(build)
        report = ProfileReport.from_profile(profile, top=1000)
        inits = [
            row
            for row in report.hot
            if row["function"] == "__init__" and row["module"] == "<string>"
        ]
        assert sum(row["calls"] for row in inits) == 2000
        assert report.calls == sum(row["calls"] for row in report.hot)
        own = sum(entry.inlinetime for entry in profile.getstats())
        assert report.total_s == pytest.approx(own)


class TestFoldStacks:
    def test_synthetic_counter(self):
        counts = Counter(
            {
                ("main", "run", "step"): 3,
                ("main", "idle"): 1,
                (): 5,  # empty stacks are dropped
            }
        )
        text = fold_stacks(counts)
        assert text == "main;idle 1\nmain;run;step 3\n"

    def test_empty_counter(self):
        assert fold_stacks(Counter()) == ""

    def test_report_from_trivial_profile(self):
        import cProfile

        profile = cProfile.Profile()
        profile.runcall(lambda: sum(range(1000)))
        report = ProfileReport.from_profile(profile, top=3)
        assert len(report.hot) <= 3
        assert sum(report.subsystems.values()) == pytest.approx(report.total_s)

    def test_save_before_run_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="nothing profiled"):
            ProfileHarness().save(str(tmp_path))

    def test_sampler_can_be_disabled(self):
        harness = ProfileHarness(sample=False)
        result = harness.run(lambda: 42)
        assert result == 42
        assert harness.folded == ""
        assert harness.report.total_s >= 0

    def test_sampler_observes_long_call(self):
        harness = ProfileHarness(sample_interval=0.001)

        def spin():
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                pass

        harness.run(spin)
        assert harness.folded
        assert "spin" in harness.folded


class TestPoolProfile:
    def test_pool_drops_profile_artifacts(self, tmp_path):
        """`--profile DIR` pool runs must produce the artifact triple per
        run and return the same result as a direct call."""
        from repro.workloads import hashtable

        pool = ExperimentPool(jobs=1, cache_dir=None, profile_dir=str(tmp_path))
        spec = RunSpec(
            "repro.workloads.hashtable:run_leviathan",
            {"params": dict(SMALL_FIG18), "n_tiles": 4},
            label="profile-test",
        )
        (result,) = pool.run_results([spec])
        direct = hashtable.run_leviathan(dict(SMALL_FIG18), n_tiles=4)
        assert result.cycles == direct.cycles
        assert result.stats == direct.stats

        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        for name in ("profile.json", "profile.pstats", "stacks.folded"):
            assert (run_dirs[0] / name).exists(), name
        assert pool.consume_report().get("profiled") == 1
