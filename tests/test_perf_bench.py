"""The benchmark registry and runner (repro.perf.bench / .registry)."""

import json

import pytest

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
        assert calls == {"make": 5, "run": 5}
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

    def test_bench_unknown_filter_is_usage_error(self, capsys):
        assert cli.main(["bench", "--filter", "nope-nothing"]) == 2
        assert "no benchmarks match" in capsys.readouterr().err

    def test_bench_too_many_compare_paths(self, capsys):
        assert cli.main(["bench", "--compare", "a", "b", "c"]) == 2


class TestSpeedSmokeBaseline:
    """The committed budget baseline must cover the smoke benchmarks."""

    def test_baseline_covers_full_registry(self):
        import benchmarks.test_sim_speed as smoke

        budgets = json.loads(smoke.BASELINE_PATH.read_text())["benchmarks"]
        for name in registry.names():
            assert name in budgets, f"bench_baseline.json missing {name}"
            assert budgets[name]["median_s"] > 0
        for name in smoke.SMOKE_BENCHMARKS:
            assert name in budgets

    def test_baseline_loads_as_history_file(self):
        import benchmarks.test_sim_speed as smoke

        payload = load_history(str(smoke.BASELINE_PATH))
        assert payload["kind"] == "leviathan-bench-baseline"
