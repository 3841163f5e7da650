"""The experiment pool: hashing, caching, reruns, determinism, errors.

The determinism test is the load-bearing one: a parallel sweep
(``jobs=4``) must produce bit-identical figure data to an inline sweep
(``jobs=1``), including a trip through the on-disk JSON cache.
"""

import json
import os

import pytest

from repro.experiments import pool as pool_module
from repro.experiments.pool import (
    ExperimentPool,
    IncompleteSweepError,
    RunSpec,
    cache_entry_path,
    decode_result,
    encode_result,
    spec_hash,
)
from repro.sim.config import small_config
from repro.sim.faults import FaultSession
from repro.sim.system import Machine
from repro.sim.telemetry.session import TelemetrySession
from repro.workloads.common import RunResult

#: A hash-table instance small enough to simulate many times per test.
_TINY = dict(nodes_per_bucket=8, n_threads=4, lookups_per_thread=8)

_COMPACTION = "repro.experiments.ablations:compaction_point"
_MC_CACHE = "repro.experiments.ablations:mc_cache_point"


def _cheap_specs():
    return [
        RunSpec(_COMPACTION, {"compaction": True}, "cheap/on"),
        RunSpec(_COMPACTION, {"compaction": False}, "cheap/off"),
        RunSpec(_MC_CACHE, {"fifo_lines": 0}, "cheap/fifo0"),
    ]


class TestSpecHash:
    def test_label_excluded(self):
        a = RunSpec("m:f", {"x": 1}, "label-a")
        b = RunSpec("m:f", {"x": 1}, "label-b")
        assert spec_hash(a) == spec_hash(b)

    def test_kwargs_order_irrelevant(self):
        a = RunSpec("m:f", {"x": 1, "y": 2})
        b = RunSpec("m:f", {"y": 2, "x": 1})
        assert spec_hash(a) == spec_hash(b)

    def test_kwargs_change_hash(self):
        assert spec_hash(RunSpec("m:f", {"x": 1})) != spec_hash(
            RunSpec("m:f", {"x": 2})
        )

    def test_fn_changes_hash(self):
        assert spec_hash(RunSpec("m:f", {})) != spec_hash(RunSpec("m:g", {}))

    def test_faults_change_hash(self):
        spec = RunSpec("m:f", {"x": 1})
        assert spec_hash(spec) != spec_hash(spec, faults="crash:1@2000")
        assert spec_hash(spec, faults=None) == spec_hash(spec)

    def test_tuples_hash_like_lists(self):
        assert spec_hash(RunSpec("m:f", {"sizes": (24, 64)})) == spec_hash(
            RunSpec("m:f", {"sizes": [24, 64]})
        )

    def test_unserializable_kwargs_rejected(self):
        with pytest.raises(TypeError):
            spec_hash(RunSpec("m:f", {"machine": object()}))


class TestResultCodec:
    def test_run_result_round_trip(self):
        result = RunResult(
            name="leviathan",
            cycles=12345.5,
            energy_pj=6789.25,
            stats={"dram.accesses": 7, "noc.flit_hops": 11},
            output=[1, 2, 3],
            notes="note",
            energy_breakdown={"noc": 1.5},
            access_profile={("llc", "hit"): 3, ("dram", "fill"): 2},
        )
        # Through the same JSON layer the disk cache uses.
        payload = json.loads(json.dumps(encode_result(result)))
        back = decode_result(payload)
        assert back == result

    def test_infinite_cycles_survive(self):
        result = RunResult(
            name="no_padding", cycles=float("inf"), energy_pj=0.0, stats={}
        )
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload).cycles == float("inf")

    def test_unserializable_output_dropped(self):
        result = RunResult(
            name="x", cycles=1.0, energy_pj=1.0, stats={}, output=object()
        )
        assert encode_result(result)["output"] is None

    def test_plain_values_round_trip(self):
        payload = json.loads(
            json.dumps(encode_result({"fragmentation": 0.25, "compaction": True}))
        )
        assert decode_result(payload) == {"fragmentation": 0.25, "compaction": True}


class TestDeterminism:
    def test_fig18_parallel_matches_inline(self, tmp_path):
        """--jobs 4 must produce bit-identical figure data to --jobs 1."""
        from repro.experiments import figures

        inline = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "c1"))
        parallel = ExperimentPool(jobs=4, cache_dir=str(tmp_path / "c4"))
        exp1 = figures.run_fig18(params=_TINY, sizes=(24, 64), pool=inline)
        exp4 = figures.run_fig18(params=_TINY, sizes=(24, 64), pool=parallel)
        assert json.dumps(exp1.rows, sort_keys=True) == json.dumps(
            exp4.rows, sort_keys=True
        )

    def test_process_backend_without_retries_matches_inline(self, tmp_path):
        """The supervised backend is a pure mechanism swap: fig18 on
        LocalProcessBackend with retry disabled is byte-for-byte the
        historical pool's output."""
        from repro.experiments import figures
        from repro.experiments.retry import RetryPolicy

        inline = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "ci"))
        supervised = ExperimentPool(
            jobs=4,
            cache_dir=str(tmp_path / "cs"),
            backend="local-process",
            retry=RetryPolicy(max_attempts=1),
        )
        exp1 = figures.run_fig18(params=_TINY, sizes=(24, 64), pool=inline)
        exp4 = figures.run_fig18(params=_TINY, sizes=(24, 64), pool=supervised)
        assert json.dumps(exp1.rows, sort_keys=True) == json.dumps(
            exp4.rows, sort_keys=True
        )
        assert supervised.supervision["retries"] == 0

    def test_reused_worker_carries_no_state_between_runs(self):
        """A run may follow other runs in the same worker process: one
        worker runs a mixed batch forward, then reversed, and every
        result must equal that spec run alone on a freshly forked
        worker."""
        specs = [
            RunSpec(
                f"repro.workloads.hashtable:{variant}",
                {
                    "params": {
                        "n_buckets": buckets,
                        "nodes_per_bucket": nodes,
                        "n_threads": 4,
                        "lookups_per_thread": lookups,
                        "object_size": size,
                        "seed": seed,
                    },
                    "n_tiles": 4,
                },
                f"state/{variant}-{seed}",
            )
            for variant in ("run_baseline", "run_leviathan")
            for buckets, nodes, lookups, size, seed in (
                (4, 8, 4, 24, 1),
                (8, 4, 8, 128, 2),
            )
        ]
        specs += [
            RunSpec(_COMPACTION, {"compaction": on}, f"state/c{on}")
            for on in (True, False)
        ]
        specs += [
            RunSpec(_MC_CACHE, {"fifo_lines": n}, f"state/mc{n}") for n in (0, 4)
        ]

        def one_worker():
            return ExperimentPool(
                jobs=1, cache_dir=None, backend="local-process"
            )

        alone = [one_worker().run([spec])[0]["result"] for spec in specs]
        forward = [outcome["result"] for outcome in one_worker().run(specs)]
        backward = [outcome["result"] for outcome in one_worker().run(specs[::-1])]
        assert forward == alone
        assert backward[::-1] == alone

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        """Figure data decoded from the disk cache matches fresh data."""
        from repro.experiments import figures

        cache = str(tmp_path / "cache")
        fresh = figures.run_fig18(
            params=_TINY, sizes=(24,), pool=ExperimentPool(jobs=1, cache_dir=cache)
        )
        cached = figures.run_fig18(
            params=_TINY, sizes=(24,), pool=ExperimentPool(jobs=1, cache_dir=cache)
        )
        assert json.dumps(fresh.rows, sort_keys=True) == json.dumps(
            cached.rows, sort_keys=True
        )


class TestCaching:
    def test_cache_hit_executes_nothing(self, tmp_path, monkeypatch):
        """A second sweep over the same specs runs zero simulator steps."""
        from repro.sim.scheduler import Scheduler

        cache = str(tmp_path / "cache")
        specs = _cheap_specs()
        warm = ExperimentPool(jobs=1, cache_dir=cache)
        first = warm.run_results(specs)
        assert warm.consume_report()["executed"] == len(specs)

        def boom(self):
            raise AssertionError("simulator executed on what should be a cache hit")

        monkeypatch.setattr(Scheduler, "run", boom)
        cold = ExperimentPool(jobs=1, cache_dir=cache)
        second = cold.run_results(specs)
        report = cold.consume_report()
        assert report["cached"] == len(specs)
        assert "executed" not in report
        assert second == first

    def test_memory_memo_dedupes_within_a_pool(self, tmp_path):
        pool = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "cache"))
        spec = RunSpec(_COMPACTION, {"compaction": True})
        a, b = pool.run_results([spec, spec])
        assert pool.consume_report()["executed"] == 1
        assert a == b

    def test_no_cache_pool_reexecutes(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = _cheap_specs()[:1]
        ExperimentPool(jobs=1, cache_dir=cache).run_results(specs)
        pool = ExperimentPool(jobs=1, cache_dir=cache, cache=False)
        pool.run_results(specs)
        assert pool.consume_report()["executed"] == 1

    def test_manifest_journals_every_spec(self, tmp_path):
        cache = tmp_path / "cache"
        pool = ExperimentPool(jobs=1, cache_dir=str(cache))
        pool.run_results(_cheap_specs())
        entries = [
            json.loads(line)
            for line in (cache / "manifest.jsonl").read_text().splitlines()
        ]
        assert [e["status"] for e in entries] == ["ok"] * 3
        assert [e["label"] for e in entries] == ["cheap/on", "cheap/off", "cheap/fifo0"]

    def test_warm_rerun_appends_no_manifest_line(self, tmp_path):
        """The manifest journals executed runs; cache hits add nothing."""
        cache = tmp_path / "cache"
        specs = _cheap_specs()
        ExperimentPool(jobs=1, cache_dir=str(cache)).run_results(specs)
        manifest = cache / "manifest.jsonl"
        journal = manifest.read_text()
        rerun = ExperimentPool(jobs=1, cache_dir=str(cache))
        rerun.run_results(specs)
        assert rerun.consume_report() == {"cached": len(specs)}
        assert manifest.read_text() == journal


class TestRerun:
    """An interrupted sweep resumes by running it again."""

    def test_rerun_after_kill_mid_append_executes_nothing(self, tmp_path):
        """A kill during a manifest append tears only that line: the run's
        cache entry was written before it, so the rerun serves the run."""
        cache = tmp_path / "cache"
        specs = _cheap_specs()
        first = ExperimentPool(jobs=1, cache_dir=str(cache)).run_results(specs)

        # Simulate a kill during the final manifest append: the last
        # line is torn mid-JSON.
        manifest = cache / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])

        rerun = ExperimentPool(jobs=1, cache_dir=str(cache))
        assert rerun.run_results(specs) == first
        assert rerun.consume_report() == {"cached": len(specs)}

    def test_no_cache_rerun_executes_everything(self, tmp_path):
        """A ``cache=False`` sweep writes no entries, so its rerun executes
        every run again, though the manifest records each one ok."""
        cache = tmp_path / "cache"
        specs = _cheap_specs()[:2]
        ExperimentPool(jobs=1, cache_dir=str(cache), cache=False).run_results(specs)
        rerun = ExperimentPool(jobs=1, cache_dir=str(cache), cache=False)
        rerun.run_results(specs)
        assert rerun.consume_report() == {"executed": len(specs)}
        entries = [
            json.loads(line)
            for line in (cache / "manifest.jsonl").read_text().splitlines()
        ]
        assert [e["status"] for e in entries] == ["ok"] * 2 * len(specs)


class TestFailurePolicy:
    def test_failed_spec_does_not_stop_the_sweep(self, tmp_path):
        cache = tmp_path / "cache"
        telem = tmp_path / "telem"
        pool = ExperimentPool(
            jobs=1, cache_dir=str(cache), telemetry_dir=str(telem)
        )
        specs = [
            RunSpec(_COMPACTION, {"compaction": True}, "sweep/good"),
            RunSpec(_COMPACTION, {"bogus_kwarg": 1}, "sweep/bad"),
            RunSpec(_COMPACTION, {"compaction": False}, "sweep/also-good"),
        ]
        with pytest.raises(IncompleteSweepError) as excinfo:
            pool.run_results(specs)
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0]["label"] == "sweep/bad"

        # The healthy specs still completed and were journaled.
        entries = [
            json.loads(line)
            for line in (cache / "manifest.jsonl").read_text().splitlines()
        ]
        assert sorted(e["status"] for e in entries) == ["error", "ok", "ok"]
        bad = next(e for e in entries if e["status"] == "error")
        assert bad["error"]["type"] == "TypeError"

        # The failure left an error.json in its artifact directory.
        error_files = list(telem.glob("runs/*/error.json"))
        assert len(error_files) == 1
        saved = json.loads(error_files[0].read_text())
        assert saved["error"] == "TypeError"
        assert "bogus_kwarg" in saved["message"]

    def test_raw_run_reports_outcomes_without_raising(self, tmp_path):
        pool = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "cache"))
        outcomes = pool.run([RunSpec(_COMPACTION, {"bogus_kwarg": 1}, "bad")])
        assert outcomes[0]["status"] == "error"
        assert pool.failures and pool.failures[0]["label"] == "bad"

    def test_failures_are_not_cached(self, tmp_path):
        cache = tmp_path / "cache"
        pool = ExperimentPool(jobs=1, cache_dir=str(cache))
        spec = RunSpec(_COMPACTION, {"bogus_kwarg": 1}, "bad")
        pool.run([spec])
        digest = spec_hash(spec)
        assert not os.path.exists(cache_entry_path(str(cache), digest))
        # A later pool re-executes it rather than serving the failure.
        retry = ExperimentPool(jobs=1, cache_dir=str(cache))
        assert retry.run([spec])[0]["status"] == "error"
        assert retry.consume_report()["executed"] == 1


class TestArtifacts:
    def test_telemetry_dir_forces_execution_and_captures(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = _cheap_specs()[2:]  # the mc-cache point builds a machine
        ExperimentPool(jobs=1, cache_dir=cache).run_results(specs)

        telem = tmp_path / "telem"
        pool = ExperimentPool(jobs=1, cache_dir=cache, telemetry_dir=str(telem))
        pool.run_results(specs)
        report = pool.consume_report()
        assert report["executed"] == 1  # cache read skipped
        assert report["telemetry_machines"] >= 1
        assert list(telem.glob("runs/*/machine-*/trace.json"))

    def test_faults_recorded_per_run(self, tmp_path):
        telem = tmp_path / "telem"
        pool = ExperimentPool(
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            telemetry_dir=str(telem),
            faults="noc-delay:0.05@20; seed:3",
        )
        pool.run_results(_cheap_specs()[2:])
        reports = list(telem.glob("runs/*/fault_report.json"))
        assert reports
        saved = json.loads(reports[0].read_text())
        assert saved["seed"] == 3
        assert saved["machines"]

    def test_failed_session_install_leaks_no_session(self, tmp_path):
        # The run's TelemetrySession cannot install over the caller's;
        # the sessions installed before it must still come off.
        pool = ExperimentPool(
            jobs=1,
            cache_dir=None,
            telemetry_dir=str(tmp_path / "telem"),
            faults="noc-delay:0.5@10; seed:1",
        )
        with TelemetrySession():
            outcome = pool.run(_cheap_specs()[2:])[0]
        leaked = FaultSession.active()
        if leaked is not None:
            leaked.uninstall()  # keep a regression from arming later tests
        assert outcome["status"] == "error"
        assert "already installed" in outcome["error"]["message"]
        assert leaked is None
        assert Machine(small_config()).faults is None

    def test_default_pool_is_inline_and_memoized(self):
        pool = pool_module.default_pool()
        assert pool is pool_module.default_pool()
        assert pool.jobs == 1
        assert pool.cache_dir is None
