"""The benchmark registry and runner (repro.perf.bench / .registry)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments.cli as cli
from repro.perf import registry
from repro.perf.bench import Benchmark, BenchResult, quartiles, run_benchmark
from repro.perf.fingerprint import fingerprint, short_sha
from repro.perf.history import bench_payload, load_history, write_history


class TestRegistry:
    def test_at_least_eight_benchmarks(self):
        assert len(registry.names()) >= 8

    def test_both_kinds_present(self):
        kinds = {registry.get(name).kind for name in registry.names()}
        assert kinds == {"micro", "macro"}

    def test_expected_subsystem_coverage(self):
        names = registry.names()
        for expected in (
            "scheduler.steps",
            "cache.private_path",
            "cache.shared_path",
            "noc.hop",
            "invoke.round_trip",
            "stream.push_pop",
            "morph.trigger",
            "fig18.hashtable_leviathan",
            "fig20.hats_leviathan",
        ):
            assert expected in names

    def test_select_filters_by_substring(self):
        selected = registry.select("cache")
        assert [b.name for b in selected] == [
            "cache.private_path",
            "cache.shared_path",
        ]
        assert registry.select(None) == [
            registry.get(name) for name in registry.names()
        ]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            registry.get("no.such.benchmark")

    def test_duplicate_registration_rejected(self):
        from repro.perf.registry import register

        with pytest.raises(ValueError, match="already registered"):
            register(registry.get("noc.hop"))


class TestRunBenchmark:
    def _counting_bench(self, units=7):
        calls = {"make": 0, "run": 0}

        def make():
            calls["make"] += 1

            def timed():
                calls["run"] += 1
                return units

            return timed

        return Benchmark("t.counting", "micro", make, unit="ops"), calls

    def test_warmup_and_trials_each_get_fresh_setup(self):
        bench, calls = self._counting_bench()
        result = run_benchmark(bench, trials=3, warmup=2)
        # ... and one more, untimed, for the call count
        assert calls == {"make": 6, "run": 6}
        assert len(result.trials_s) == 3
        assert result.units == 7

    def test_statistics_from_known_timings(self):
        bench, _calls = self._counting_bench(units=100)
        ticks = iter([0.0, 1.0, 10.0, 12.0, 20.0, 24.0])
        result = run_benchmark(
            bench, trials=3, warmup=0, timer=lambda: next(ticks)
        )
        assert result.trials_s == [1.0, 2.0, 4.0]
        assert result.median_s == 2.0
        assert result.steps_per_sec == 100 / 2.0
        assert result.q1_s == pytest.approx(1.5)
        assert result.q3_s == pytest.approx(3.0)
        assert result.iqr_s == pytest.approx(1.5)

    def test_nondeterministic_unit_count_raises(self):
        counts = iter([5, 6])

        def make():
            return lambda: next(counts)

        bench = Benchmark("t.drift", "micro", make)
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_benchmark(bench, trials=2, warmup=0)

    def test_zero_trials_rejected(self):
        bench, _ = self._counting_bench()
        with pytest.raises(ValueError):
            run_benchmark(bench, trials=0)

    def test_quartiles_degenerate_single_sample(self):
        assert quartiles([3.0]) == (3.0, 3.0)

    def test_calls_repeat_across_runs_and_hash_seeds(self):
        def calls():
            bench = registry.get("morph.trigger")
            return run_benchmark(bench, trials=1, warmup=0).calls

        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        script = (
            "from repro.perf import registry\n"
            "from repro.perf.bench import run_benchmark\n"
            "bench = registry.get('morph.trigger')\n"
            "print(run_benchmark(bench, trials=1, warmup=0).calls)"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        assert calls() == calls() == int(out) > 0

    def test_micro_benchmark_executes_with_declared_units(self):
        result = run_benchmark(registry.get("morph.trigger"), trials=1, warmup=0)
        assert result.units == 4096
        assert result.median_s > 0
        assert result.steps_per_sec > 0


class TestMacroBitIdentical:
    def test_registry_run_matches_direct_runner_call(self):
        """Benchmark-registry execution (profiling disabled) must be
        bit-identical in application results to calling the workload
        runner directly -- the same guard discipline as the telemetry
        and faults detached paths."""
        from repro.perf.registry import FIG18_PARAMS, FIG18_TILES
        from repro.workloads import hashtable

        timed = registry.get("fig18.hashtable_leviathan").make()
        timed()
        via_bench = timed.result
        direct = hashtable.run_leviathan(dict(FIG18_PARAMS), n_tiles=FIG18_TILES)

        assert via_bench.cycles == direct.cycles
        assert via_bench.energy_pj == direct.energy_pj
        assert via_bench.output == direct.output
        assert via_bench.stats == direct.stats
        assert via_bench.access_profile == direct.access_profile

    def test_serve_macro_matches_direct_runner_call(self):
        """The same identity for the macro with a request-latency probe:
        its request and attribution fields included."""
        from repro.perf.registry import SERVE_KV_PARAMS, SERVE_KV_TILES
        from repro.workloads.serving import kvserve

        timed = registry.get("serve.kv_leviathan").make()
        timed()
        via_bench = timed.result
        direct = kvserve.run_leviathan(dict(SERVE_KV_PARAMS), n_tiles=SERVE_KV_TILES)

        assert via_bench.cycles == direct.cycles
        assert via_bench.energy_pj == direct.energy_pj
        assert via_bench.output == direct.output
        assert via_bench.stats == direct.stats
        assert via_bench.access_profile == direct.access_profile
        assert via_bench.stats["request.get.count"] > 0


class TestHistory:
    def _result(self, name="t.one", median=1.0):
        return BenchResult(
            name=name, kind="micro", unit="ops", units=10,
            trials_s=[median], median_s=median, q1_s=median, q3_s=median,
        )

    def test_payload_round_trip(self, tmp_path):
        payload = bench_payload([self._result()], trials=3, warmup=1)
        path = write_history(payload, out_dir=str(tmp_path))
        loaded = load_history(path)
        assert loaded["benchmarks"]["t.one"]["median_s"] == 1.0
        assert loaded["trials"] == 3
        assert loaded["fingerprint"]["python"]
        assert path.endswith(f"BENCH_{short_sha(payload['fingerprint'])}.json")

    def test_load_rejects_non_history_files(self, tmp_path):
        bad = tmp_path / "not_bench.json"
        bad.write_text(json.dumps({"something": 1}))
        with pytest.raises(ValueError, match="no 'benchmarks'"):
            load_history(str(bad))
        no_median = tmp_path / "no_median.json"
        no_median.write_text(json.dumps({"benchmarks": {"x": {}}}))
        with pytest.raises(ValueError, match="median_s"):
            load_history(str(no_median))

    def test_fingerprint_fields(self):
        fp = fingerprint()
        for key in ("git_sha", "git_dirty", "python", "platform", "cpu_count"):
            assert key in fp
        assert short_sha({"git_sha": None}) == "nogit"
        assert short_sha({"git_sha": "abcdef0123456789"}) == "abcdef012345"


class TestBenchCli:
    def test_bench_writes_history_file(self, tmp_path, capsys):
        assert (
            cli.main(
                [
                    "bench", "--trials", "1", "--warmup", "0",
                    "--filter", "morph", "--out", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "morph.trigger" in out
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1
        payload = load_history(str(files[0]))
        entry = payload["benchmarks"]["morph.trigger"]
        assert entry["median_s"] > 0
        assert entry["steps_per_sec"] > 0
        assert "iqr_s" in entry
        assert entry["calls"] > 0

    def test_bench_unknown_filter_is_usage_error(self, capsys):
        assert cli.main(["bench", "--filter", "nope-nothing"]) == 2
        assert "no benchmarks match" in capsys.readouterr().err

    def test_bench_too_many_compare_paths(self, capsys):
        assert cli.main(["bench", "--compare", "a", "b", "c"]) == 2

    def test_bad_baseline_is_usage_error_before_any_run(self, tmp_path, capsys):
        malformed = tmp_path / "malformed.json"
        malformed.write_text("[]")
        for baseline in (tmp_path / "missing.json", malformed):
            argv = ["bench", "--filter", "noc", "--out", str(tmp_path)]
            assert cli.main(argv + ["--compare", str(baseline)]) == 2
            captured = capsys.readouterr()
            assert str(baseline) in captured.err
            assert "noc.hop" not in captured.out  # nothing ran
        assert not list(tmp_path.glob("BENCH_*.json"))

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bad_trials_is_usage_error(self, trials, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bench", "--trials", trials])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        assert "--trials must be >= 1" in capsys.readouterr().err


class TestSpeedSmokeBaseline:
    """CI's bench job gates on the newest committed history file."""

    @staticmethod
    def _newest():
        history = Path(__file__).resolve().parents[1] / "benchmarks" / "history"
        return max(
            (load_history(str(path)) for path in history.glob("BENCH_*.json")),
            key=lambda payload: payload["created"],
        )

    def test_baseline_covers_full_registry(self):
        benchmarks = self._newest()["benchmarks"]
        for name in registry.names():
            entry = benchmarks[name]
            assert entry["median_s"] > 0, name
            assert entry["calls"] > 0, name
            assert entry["calls_per_unit"] > 0, name

    def test_baseline_loads_as_history_file(self):
        payload = self._newest()
        assert payload["kind"] == "leviathan-bench"
        assert payload["fingerprint"]["python"]
