"""Host-side supervision: retries, deadlines, hangs, cache integrity,
fsynced manifests, and SIGINT interrupt-and-rerun.

These tests drive real worker processes (the ``local-process``
backend) through induced failures -- self-SIGKILLed workers, blown
deadlines, suspended heartbeats -- and assert the supervisor requeues
transient failures, journals attempt counts, and keeps results
bit-identical to an unperturbed sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import retry as retry_taxonomy
from repro.experiments.backends import LocalProcessBackend
from repro.experiments.pool import (
    ExperimentPool,
    IncompleteSweepError,
    RunSpec,
    SweepInterrupted,
    cache_entry_path,
    cache_entry_problem,
    compute_result_checksum,
    spec_hash,
)
from repro.experiments.retry import RetryPolicy

_SLOW = "tests.obs_helpers:slow_point"
_FLAKY = "tests.obs_helpers:flaky_point"
_SLOW_ONCE = "tests.obs_helpers:slow_once_point"
_HANG = "tests.obs_helpers:hang_point"
_BIG = "tests.obs_helpers:big_point"
_COMPACTION = "repro.experiments.ablations:compaction_point"
_MC_CACHE = "repro.experiments.ablations:mc_cache_point"

#: A fast retry policy so induced-failure tests finish in milliseconds.
_FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)


def _read_manifest(cache_dir):
    entries = []
    with open(os.path.join(cache_dir, "manifest.jsonl")) as handle:
        for line in handle:
            if line.strip():
                entries.append(json.loads(line))
    return entries


def _supervised_pool(cache_dir, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("backend", "local-process")
    kwargs.setdefault("retry", _FAST_RETRY)
    return ExperimentPool(cache_dir=str(cache_dir), **kwargs)


class TestRetryOnWorkerDeath:
    def test_killed_worker_is_requeued_and_succeeds(self, tmp_path):
        cache = tmp_path / "cache"
        sentinel = str(tmp_path / "flaky.sentinel")
        pool = _supervised_pool(cache)
        spec = RunSpec(_FLAKY, {"sentinel": sentinel}, "sup/flaky")
        [result] = pool.run_results([spec])
        assert result == {"tag": "flaky"}
        assert pool.supervision["worker_deaths"] == 1
        assert pool.supervision["retries"] == 1
        [entry] = _read_manifest(str(cache))
        assert entry["status"] == "ok"
        assert entry["attempts"] == 2  # the requeue is journaled

    def test_exhausted_retries_become_terminal_error(self, tmp_path, monkeypatch):
        from repro.experiments.backends import CHAOS_ENV

        monkeypatch.setenv(CHAOS_ENV, "p=1;seed=5")  # every attempt dies
        cache = tmp_path / "cache"
        pool = _supervised_pool(
            cache, retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)
        )
        spec = RunSpec(_SLOW, {"tag": "doomed", "seconds": 0.0}, "sup/doomed")
        with pytest.raises(IncompleteSweepError):
            pool.run_results([spec])
        [failure] = pool.failures
        assert failure["error"]["type"] == "WorkerDied"
        assert failure["attempts"] == 2
        assert failure["transient"] == retry_taxonomy.WORKER_DIED
        assert "attempt 2/2" in failure["error"]["message"]
        [entry] = _read_manifest(str(cache))
        assert entry["status"] == "error"
        assert entry["attempts"] == 2

    def test_sweep_is_bit_identical_through_requeue(self, tmp_path, monkeypatch):
        """The chaos contract: kills + retries never change the numbers."""
        from repro.experiments.backends import CHAOS_ENV

        specs = [
            RunSpec(_COMPACTION, {"compaction": on}, f"sup/chaos-{on}")
            for on in (True, False)
        ] + [
            RunSpec(_MC_CACHE, {"fifo_lines": lines}, f"sup/chaos-mc{lines}")
            for lines in (0, 4)
        ]
        serial = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "serial"))
        baseline = serial.run(specs)
        # seed=1/p=0.6 deterministically kills 3 of the 4 first attempts
        # and lets every spec survive by its third (chaos_decision is a
        # pure function of seed+hash+attempt, so this never flakes).
        monkeypatch.setenv(CHAOS_ENV, "p=0.6;seed=1")
        chaotic = _supervised_pool(
            tmp_path / "chaos",
            jobs=2,
            retry=RetryPolicy(max_attempts=6, base_delay=0.01, jitter=0.0),
        )
        survived = chaotic.run(specs)
        for clean, messy in zip(baseline, survived):
            assert clean["result"] == messy["result"]
        total_attempts = sum(
            e["attempts"] for e in _read_manifest(str(tmp_path / "chaos"))
        )
        assert total_attempts > len(specs)  # chaos actually killed someone


class _FlakySubmitBackend(LocalProcessBackend):
    """``submit`` raises OSError ``failures`` times, then delegates.

    Models a host-side fork/pipe failure (EAGAIN under fd or pid
    pressure): the job never reaches a worker, so the supervisor must
    requeue it from the dispatch path itself.
    """

    def __init__(self, failures=1):
        super().__init__()
        self.failures = failures

    def submit(self, job):
        if self.failures > 0:
            self.failures -= 1
            raise OSError("fork failed (EAGAIN)")
        return super().submit(job)


class TestDispatchErrors:
    def test_dispatch_oserror_is_retried_end_to_end(self, tmp_path):
        cache = tmp_path / "cache"
        pool = _supervised_pool(cache, backend=_FlakySubmitBackend(failures=1))
        spec = RunSpec(_SLOW, {"tag": "dispatch", "seconds": 0.0}, "sup/dispatch")
        [result] = pool.run_results([spec])
        assert result == {"tag": "dispatch"}
        assert pool.supervision["retries"] == 1
        [entry] = _read_manifest(str(cache))
        assert entry["status"] == "ok"
        assert entry["attempts"] == 2  # the requeued dispatch is journaled

    def test_exhausted_dispatch_errors_become_terminal(self, tmp_path):
        cache = tmp_path / "cache"
        pool = _supervised_pool(
            cache,
            backend=_FlakySubmitBackend(failures=99),
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
        )
        spec = RunSpec(_SLOW, {"tag": "undispatchable", "seconds": 0.0}, "sup/nodispatch")
        with pytest.raises(IncompleteSweepError):
            pool.run_results([spec])
        [failure] = pool.failures
        assert failure["transient"] == retry_taxonomy.DISPATCH_ERROR
        assert failure["attempts"] == 2
        assert "fork failed" in failure["error"]["message"]
        [entry] = _read_manifest(str(cache))
        assert entry["status"] == "error"


class TestBackendSelection:
    """A batch runs inline only when one job at a time is all there is
    and nothing needs a job killed; ``jobs=1`` is no exception."""

    @staticmethod
    def _choice(jobs, pending=1, **kwargs):
        pool = ExperimentPool(jobs=jobs, **kwargs)
        batch = [
            pool._job(RunSpec(_SLOW, {"tag": i}, f"sel/{i}"), str(i) * 64)
            for i in range(pending)
        ]
        return pool._backend_for(batch).name

    def test_single_pending_run_with_deadline_gets_process_backend(self, tmp_path):
        for jobs in (1, 4):
            choice = self._choice(jobs, cache_dir=str(tmp_path), run_timeout=30.0)
            assert choice == "local-process"

    def test_single_pending_run_with_hang_detection_gets_process_backend(
        self, tmp_path
    ):
        for jobs in (1, 4):
            choice = self._choice(jobs, cache_dir=str(tmp_path), heartbeat_interval=0.1)
            assert choice == "local-process"

    def test_single_pending_run_without_supervision_stays_inline(self):
        for jobs in (1, 4):
            assert self._choice(jobs, cache_dir=None) == "local-inline"

    def test_batch_without_supervision_is_inline_only_for_one_job(self):
        assert self._choice(1, pending=2, cache_dir=None) == "local-inline"
        assert self._choice(4, pending=2, cache_dir=None) == "local-process"

    def test_backoff_poll_timeout_is_capped(self, tmp_path):
        pool = _supervised_pool(tmp_path / "cache")
        now = 100.0
        far = [(now + 30.0, {"job": {}, "attempt": 2})]
        assert pool._poll_timeout(now, far, {}) == pool.BACKOFF_POLL_S
        near = [(now + 0.05, {"job": {}, "attempt": 2})]
        assert pool._poll_timeout(now, near, {}) == pytest.approx(0.05)


class TestDeadlines:
    def test_timeout_is_retried_then_succeeds(self, tmp_path):
        cache = tmp_path / "cache"
        sentinel = str(tmp_path / "slow.sentinel")
        pool = _supervised_pool(cache, run_timeout=0.5)
        spec = RunSpec(_SLOW_ONCE, {"sentinel": sentinel, "seconds": 30.0}, "sup/slow1")
        [result] = pool.run_results([spec])
        assert result == {"tag": "slow-once"}
        assert pool.supervision["timeouts"] == 1
        assert pool.supervision["retries"] == 1
        [entry] = _read_manifest(str(cache))
        assert entry["attempts"] == 2

    def test_deadline_kills_a_jobs1_run(self, tmp_path):
        # jobs=1 is no exception: the deadline sends the run to a worker
        # process, and the pool kills it when the deadline passes.
        pool = ExperimentPool(
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            run_timeout=0.3,
            retry=RetryPolicy(max_attempts=1),
        )
        spec = RunSpec(_SLOW, {"tag": "late", "seconds": 30.0}, "sup/late")
        started = time.monotonic()
        with pytest.raises(IncompleteSweepError):
            pool.run_results([spec])
        assert time.monotonic() - started < 10.0  # killed, not slept out
        [failure] = pool.failures
        assert failure["error"]["type"] == "RunTimeout"
        assert "deadline" in failure["error"]["message"]

    def test_bad_run_timeout_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="run_timeout"):
            ExperimentPool(cache_dir=str(tmp_path), run_timeout=0)
        with pytest.raises(ValueError, match="hang_intervals"):
            ExperimentPool(cache_dir=str(tmp_path), hang_intervals=-1)
        with pytest.raises(ValueError, match="RetryPolicy"):
            ExperimentPool(cache_dir=str(tmp_path), retry=3)


class TestHangDetection:
    def test_stale_heartbeat_kills_and_requeues(self, tmp_path):
        cache = tmp_path / "cache"
        sentinel = str(tmp_path / "hang.sentinel")
        pool = _supervised_pool(
            cache, heartbeat_interval=0.1, hang_intervals=3.0
        )
        spec = RunSpec(_HANG, {"sentinel": sentinel, "seconds": 60.0}, "sup/hang")
        started = time.monotonic()
        [result] = pool.run_results([spec])
        assert time.monotonic() - started < 30.0  # killed, not slept out
        assert result == {"tag": "hang"}
        assert pool.supervision["hangs"] == 1
        assert pool.supervision["retries"] == 1
        [entry] = _read_manifest(str(cache))
        assert entry["status"] == "ok" and entry["attempts"] == 2

    def _stub(self, cache):
        roots = []
        for dirpath, _dirs, files in os.walk(str(cache / "postmortems")):
            roots.extend(os.path.join(dirpath, f) for f in files)
        assert roots, "hang kill must leave a postmortem stub"
        with open(roots[0]) as handle:
            return json.load(handle)

    def test_hang_kill_leaves_postmortem_stub(self, tmp_path):
        # The run freezes long before its first beat is due: it is aged
        # from dispatch and killed with no heartbeat to record.
        cache = tmp_path / "cache"
        sentinel = str(tmp_path / "hang.sentinel")
        pool = _supervised_pool(cache, heartbeat_interval=0.5, hang_intervals=3.0)
        spec = RunSpec(_HANG, {"sentinel": sentinel, "seconds": 60.0}, "sup/hangpm")
        started = time.monotonic()
        [result] = pool.run_results([spec])
        assert time.monotonic() - started < 30.0
        assert result == {"tag": "hang"}
        assert pool.supervision["hangs"] == 1
        stub = self._stub(cache)
        assert stub["kind"] == "leviathan-postmortem"
        assert stub["reason"] == "hung"
        assert stub["heartbeat"] is None
        assert "SIGKILL" in stub["note"]

    def test_hang_after_a_beat_is_aged_from_that_beat(self, tmp_path):
        cache = tmp_path / "cache"
        sentinel = str(tmp_path / "hang.sentinel")
        pool = _supervised_pool(cache, heartbeat_interval=0.1, hang_intervals=3.0)
        spec = RunSpec(
            _HANG,
            {"sentinel": sentinel, "seconds": 60.0, "after_beat": True},
            "sup/hangbeat",
        )
        [result] = pool.run_results([spec])
        assert result == {"tag": "hang"}
        assert pool.supervision["hangs"] == 1
        stub = self._stub(cache)
        assert stub["heartbeat"]["phase"] == "simulating"
        assert stub["heartbeat"]["hash"] == spec_hash(spec)
        assert "no heartbeat for" in stub["detail"]

    def test_run_that_ends_is_not_called_hung(self, tmp_path):
        # Each run outlives the horizon, beating, then removes its file
        # while its large outcome is still on the way to the supervisor.
        pool = _supervised_pool(
            tmp_path / "cache", cache=False, heartbeat_interval=0.05, hang_intervals=3.0
        )
        specs = [
            RunSpec(_BIG, {"tag": i, "seconds": 0.2}, f"sup/big-{i}") for i in range(10)
        ]
        outcomes = pool.run(specs)
        assert [o["status"] for o in outcomes] == ["ok"] * len(specs)
        assert pool.supervision["hangs"] == 0
        assert pool.supervision["retries"] == 0


class TestCacheIntegrity:
    def _seed_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        spec = RunSpec(_SLOW, {"tag": "c", "seconds": 0.0}, "sup/cache")
        ExperimentPool(jobs=1, cache_dir=cache).run([spec])
        return cache, spec, spec_hash(spec)

    def test_checksum_round_trip(self, tmp_path):
        cache, spec, digest = self._seed_cache(tmp_path)
        with open(cache_entry_path(cache, digest)) as handle:
            payload = json.load(handle)
        assert payload["checksum"] == compute_result_checksum(payload["result"])
        assert cache_entry_problem(payload) is None
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        pool.run([spec])
        assert pool.consume_report().get("cached") == 1

    def test_tampered_entry_quarantined_and_reexecuted(self, tmp_path):
        cache, spec, digest = self._seed_cache(tmp_path)
        path = cache_entry_path(cache, digest)
        with open(path) as handle:
            payload = json.load(handle)
        payload["result"]["value"]["tag"] = "bitrot"  # checksum now lies
        with open(path, "w") as handle:
            json.dump(payload, handle)
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        [outcome] = pool.run([spec])
        assert outcome["result"]["value"] == {"tag": "c"}  # fresh, not rot
        report = pool.consume_report()
        assert report.get("executed") == 1 and not report.get("cached")
        assert pool.supervision["quarantined"] == 1
        quarantined = os.path.join(cache, "quarantine", digest + ".json")
        assert os.path.exists(quarantined)
        assert not os.path.exists(path) or os.path.getsize(path) > 0

    def test_truncated_entry_quarantined(self, tmp_path):
        cache, spec, digest = self._seed_cache(tmp_path)
        path = cache_entry_path(cache, digest)
        with open(path) as handle:
            torn = handle.read()[: len(handle.read()) // 2 or 40]
        with open(path, "w") as handle:
            handle.write(torn)
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        [outcome] = pool.run([spec])
        assert outcome["status"] == "ok"
        assert pool.supervision["quarantined"] == 1
        assert os.path.exists(os.path.join(cache, "quarantine", digest + ".json"))

    def test_entry_without_checksum_quarantined(self, tmp_path):
        cache, spec, digest = self._seed_cache(tmp_path)
        path = cache_entry_path(cache, digest)
        with open(path) as handle:
            payload = json.load(handle)
        del payload["checksum"]  # nothing to verify the result against
        with open(path, "w") as handle:
            json.dump(payload, handle)
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        [outcome] = pool.run([spec])
        assert outcome["result"]["value"] == {"tag": "c"}
        report = pool.consume_report()
        assert report.get("executed") == 1 and not report.get("cached")
        assert pool.supervision["quarantined"] == 1
        assert os.path.exists(os.path.join(cache, "quarantine", digest + ".json"))

    def test_changed_code_digest_misses_the_cache(self, tmp_path, monkeypatch):
        from repro.experiments import pool as pool_module

        cache, spec, digest = self._seed_cache(tmp_path)
        old_entry = cache_entry_path(cache, digest)
        monkeypatch.setattr(pool_module, "code_digest", lambda: "0" * 64)
        assert spec_hash(spec) == digest  # the run keeps its name
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        pool.run([spec])
        report = pool.consume_report()
        assert report.get("executed") == 1 and not report.get("cached")
        assert pool.supervision["quarantined"] == 0
        # Each code generation has its own directory; the old one is kept.
        new_entry = cache_entry_path(cache, digest)
        assert new_entry == os.path.join(cache, "0" * 12, digest + ".json")
        assert os.path.exists(new_entry) and os.path.exists(old_entry)

    def test_cache_entry_problem_reports_missing_result(self):
        assert "no result" in cache_entry_problem({"status": "ok"})
        assert "no checksum" in cache_entry_problem(
            {"result": {"kind": "value", "value": 1}}
        )
        assert "mismatch" in cache_entry_problem(
            {"result": {"kind": "value", "value": 1}, "checksum": "sha256:beef"}
        )


class TestManifestDurability:
    def test_append_flushes_and_fsyncs(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        cache = str(tmp_path / "cache")
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        pool.run([RunSpec(_SLOW, {"tag": "f", "seconds": 0.0}, "sup/fsync")])
        assert synced, "_append_manifest must fsync before returning"

    def test_torn_final_line_is_healed_not_compounded(self, tmp_path):
        cache = str(tmp_path / "cache")
        spec_a = RunSpec(_SLOW, {"tag": "a", "seconds": 0.0}, "sup/torn-a")
        spec_b = RunSpec(_SLOW, {"tag": "b", "seconds": 0.0}, "sup/torn-b")
        ExperimentPool(jobs=1, cache_dir=cache).run([spec_a])
        manifest = os.path.join(cache, "manifest.jsonl")
        with open(manifest, "a") as handle:
            handle.write('{"hash": "feedface", "status": "o')  # kill mid-append
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        pool.run([spec_a, spec_b])
        assert pool.consume_report() == {"cached": 1, "executed": 1}
        # The torn fragment got newline-terminated (healed), so every
        # *subsequent* append is a clean line of its own.
        parsed, junk = [], 0
        with open(manifest) as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    parsed.append(json.loads(line))
                except ValueError:
                    junk += 1
        assert junk == 1  # only the torn fragment itself is lost
        # torn-a came from the cache, which journals nothing
        assert [e["label"] for e in parsed] == ["sup/torn-a", "sup/torn-b"]


class TestHeartbeatHygiene:
    def test_pool_leaves_other_runs_heartbeats_alone(self, tmp_path):
        from repro.experiments.monitor import heartbeat_dir, read_heartbeats

        cache = str(tmp_path / "cache")
        hb_dir = heartbeat_dir(cache)
        os.makedirs(hb_dir)
        spec = RunSpec(_SLOW, {"tag": "g", "seconds": 0.3}, "sup/ghost")
        ghost = {
            "kind": "leviathan-heartbeat",
            "hash": "abcd" * 6,
            "label": "old/run",
            "phase": "simulating",
            "started": 1.0,
            "updated": 2.0,
            "interval": 1.0,
        }
        with open(os.path.join(hb_dir, ghost["hash"][:12] + ".json"), "w") as handle:
            json.dump(ghost, handle)
        live_foreign = dict(ghost, hash="ffff" * 6, updated=time.time())
        with open(
            os.path.join(hb_dir, live_foreign["hash"][:12] + ".json"), "w"
        ) as handle:
            json.dump(live_foreign, handle)
        pool = ExperimentPool(jobs=1, cache_dir=cache, heartbeat_interval=0.05)
        pool.run([spec])
        remaining = {b["hash"] for b in read_heartbeats(cache)}
        # this run's own file went with it; the files of other runs (a
        # killed run's ghost, a concurrent sweep's live run) are theirs
        assert remaining == {ghost["hash"], live_foreign["hash"]}

    def test_two_worker_sweep_leaves_no_heartbeat(self, tmp_path):
        from repro.experiments.monitor import heartbeat_dir

        cache = str(tmp_path / "cache")
        pool = _supervised_pool(cache, heartbeat_interval=0.05)
        specs = [
            RunSpec(_SLOW, {"tag": i, "seconds": 0.3 if i % 2 else 0.0}, f"sup/hb-{i}")
            for i in range(4)
        ]
        assert pool.run_results(specs) == [{"tag": i} for i in range(4)]
        assert os.listdir(heartbeat_dir(cache)) == []

    def test_pool_run_reads_no_manifest(self, tmp_path, monkeypatch):
        from repro.experiments import monitor

        def _forbidden(root):
            raise AssertionError("a pool run parsed the manifest")

        cache = str(tmp_path / "cache")
        specs = [
            RunSpec(_SLOW, {"tag": i, "seconds": 0.0}, f"sup/nomf-{i}")
            for i in range(2)
        ]
        monkeypatch.setattr(monitor, "read_manifest", _forbidden)
        pool = _supervised_pool(cache, heartbeat_interval=0.05)
        pool.run_results(specs)  # cold
        pool.run_results(specs)  # memoized
        rerun = _supervised_pool(cache, heartbeat_interval=0.05)
        rerun.run_results(specs)  # from the cache
        assert rerun.consume_report().get("cached") == 2


_INTERRUPT_DRIVER = """\
import sys

from repro.experiments.pool import ExperimentPool, RunSpec, SweepInterrupted

cache = sys.argv[1]
fast = [
    RunSpec(
        "repro.experiments.ablations:compaction_point",
        {"compaction": on},
        f"resume/fast-{on}",
    )
    for on in (True, False)
] + [
    RunSpec(
        "repro.experiments.ablations:mc_cache_point",
        {"fifo_lines": lines},
        f"resume/fast-mc{lines}",
    )
    for lines in (0, 4)
]
slow = [
    RunSpec(
        "tests.obs_helpers:slow_point",
        {"tag": f"slow-{i}", "seconds": 120.0},
        f"resume/slow-{i}",
    )
    for i in range(2)
]
pool = ExperimentPool(jobs=4, cache_dir=cache, heartbeat_interval=0.2)
try:
    pool.run(fast + slow)
except SweepInterrupted as exc:
    assert "rerun the same command" in str(exc)
    print("interrupted-ok", flush=True)
    sys.exit(130)
sys.exit(0)
"""


class TestInterruptAndResume:
    def test_sigint_drains_and_resume_completes(self, tmp_path, monkeypatch):
        from repro.experiments.monitor import heartbeat_path

        cache = str(tmp_path / "cache")
        driver = tmp_path / "driver.py"
        driver.write_text(_INTERRUPT_DRIVER)
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        # src for the package, the repo root for tests.obs_helpers
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        env.pop("LEVIATHAN_POOL_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, str(driver), cache],
            cwd=repo_root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        manifest = os.path.join(cache, "manifest.jsonl")
        # The two slow runs are the ones the drain kills.
        killed_beats = [
            heartbeat_path(
                cache,
                spec_hash(RunSpec(_SLOW, {"tag": f"slow-{i}", "seconds": 120.0})),
            )
            for i in range(2)
        ]
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                done = 0
                if os.path.exists(manifest):
                    with open(manifest) as handle:
                        done = sum(
                            1
                            for line in handle
                            if line.strip() and json.loads(line).get("status") == "ok"
                        )
                if done >= 4:  # every fast spec journaled; slow in flight
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep never journaled its fast specs")
            # Let both slow runs beat, so the drain has files to remove.
            while time.monotonic() < deadline and proc.poll() is None:
                if all(os.path.exists(path) for path in killed_beats):
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, f"stdout={out!r} stderr={err!r}"
        assert "interrupted-ok" in out
        entries = _read_manifest(cache)  # intact: every line parses
        ok_hashes = {e["hash"] for e in entries if e["status"] == "ok"}
        assert len(ok_hashes) >= 4
        # Killed on purpose, so not left for `status` to call stale.
        assert [path for path in killed_beats if os.path.exists(path)] == []

        # -- rerun: finished runs come from cache, killed runs execute --
        import repro.experiments.ablations as ablations
        import tests.obs_helpers as obs_helpers

        def _sim_forbidden(**kwargs):
            raise AssertionError("finished run was re-executed on rerun")

        monkeypatch.setattr(ablations, "compaction_point", _sim_forbidden)
        monkeypatch.setattr(ablations, "mc_cache_point", _sim_forbidden)
        monkeypatch.setattr(
            obs_helpers, "slow_point", lambda tag, seconds=0.0: {"tag": tag}
        )
        fast = [
            RunSpec(
                "repro.experiments.ablations:compaction_point",
                {"compaction": on},
                f"resume/fast-{on}",
            )
            for on in (True, False)
        ] + [
            RunSpec(
                "repro.experiments.ablations:mc_cache_point",
                {"fifo_lines": lines},
                f"resume/fast-mc{lines}",
            )
            for lines in (0, 4)
        ]
        slow = [
            RunSpec(
                "tests.obs_helpers:slow_point",
                {"tag": f"slow-{i}", "seconds": 120.0},
                f"resume/slow-{i}",
            )
            for i in range(2)
        ]
        pool = ExperimentPool(jobs=1, cache_dir=cache)
        results = pool.run_results(fast + slow)
        assert len(results) == 6
        assert results[4] == {"tag": "slow-0"} and results[5] == {"tag": "slow-1"}
        report = pool.consume_report()
        assert report.get("cached", 0) >= 4  # full reuse of finished runs
        assert report.get("executed", 0) == 6 - report["cached"]

    def test_sweep_interrupted_message_names_resume(self):
        exc = SweepInterrupted("SIGINT", 3, 7)
        assert "SIGINT" in str(exc)
        assert "3/7" in str(exc)
        assert "rerun the same command to resume" in str(exc)


class TestSupervisionSummary:
    def test_summary_feeds_dashboard(self, tmp_path):
        pool = ExperimentPool(
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            retry=RetryPolicy(max_attempts=4, base_delay=0.2, jitter=0.0),
            run_timeout=12.5,
        )
        summary = pool.supervision_summary()
        assert summary["retry_policy"]["max_attempts"] == 4
        assert summary["run_timeout"] == 12.5
        assert set(summary) >= {
            "retries",
            "worker_deaths",
            "timeouts",
            "hangs",
            "quarantined",
        }

    def test_dashboard_renders_supervision_line(self, tmp_path):
        telem = tmp_path / "telem"
        pool = ExperimentPool(
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            telemetry_dir=str(telem),
        )
        pool.run_results(
            [RunSpec(_COMPACTION, {"compaction": True}, "sup/dash")]
        )
        pool.supervision.update(
            retries=2, worker_deaths=1, timeouts=1, hangs=0, quarantined=3
        )
        summary = pool.write_dashboard()
        assert summary["supervision"]["retries"] == 2
        text = (telem / "dashboard.md").read_text()
        assert "host supervision" in text
        assert "**2** retries" in text
        assert "**3** cache entr" in text
        payload = json.loads((telem / "dashboard.json").read_text())
        assert payload["supervision"]["quarantined"] == 3
