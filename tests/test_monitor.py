"""Live monitoring: heartbeats, ``status``, the pool poller, dashboards."""

import io
import json
import os
import threading
import time

from repro.experiments.monitor import (
    HeartbeatWriter,
    PoolMonitor,
    heartbeat_dir,
    read_heartbeats,
    render_status,
    summarize_sweep,
)
from repro.experiments.pool import ExperimentPool, RunSpec
from repro.sim.config import small_config
from repro.sim.system import Machine

_COMPACTION = "repro.experiments.ablations:compaction_point"


def _write_heartbeat(root, **overrides):
    directory = heartbeat_dir(str(root))
    os.makedirs(directory, exist_ok=True)
    now = time.time()
    payload = {
        "schema": 1,
        "kind": "leviathan-heartbeat",
        "hash": "a" * 24,
        "label": "w/0",
        "pid": 4242,
        "phase": "simulating",
        "interval": 1.0,
        "started": now - 5,
        "updated": now,
        "elapsed": 5.0,
        "sim_time": 1500.0,
        "instructions": 10,
        "machines": 1,
    }
    payload.update(overrides)
    path = os.path.join(directory, payload["hash"][:12] + ".json")
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return payload


def _read_updated(path):
    with open(path) as handle:
        return json.load(handle)["updated"]


def _wait_for_file(path, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


class TestHeartbeatWriter:
    def test_beats_sample_live_machines(self, tmp_path):
        writer = HeartbeatWriter(
            heartbeat_dir(str(tmp_path)), "b" * 24, "hb/run", interval=0.05
        )
        writer.start()
        try:
            Machine(small_config())  # observed while the writer is live
            writer.phase = "simulating"
            payload = writer.beat()
            beats = read_heartbeats(str(tmp_path))
        finally:
            writer.stop()
        assert payload["machines"] == 1
        assert payload["sim_time"] == 0
        assert len(beats) == 1
        assert beats[0]["phase"] == "simulating"
        assert beats[0]["label"] == "hb/run"
        assert read_heartbeats(str(tmp_path)) == []  # gone with the run

    def test_stopped_within_first_interval_never_creates_its_file(self, tmp_path):
        directory = heartbeat_dir(str(tmp_path))
        writer = HeartbeatWriter(directory, "a" * 24, "hb/short", interval=5.0)
        writer.start()
        try:
            assert os.listdir(directory) == []  # start makes the directory only
        finally:
            writer.stop()
        assert os.listdir(directory) == []

    def test_writer_that_beat_removes_its_file_at_stop(self, tmp_path):
        writer = HeartbeatWriter(
            heartbeat_dir(str(tmp_path)), "f" * 24, "hb/beat", interval=0.05
        )
        writer.start()
        try:
            _wait_for_file(writer.path)  # the thread's first periodic beat
        finally:
            writer.stop()
        assert not os.path.exists(writer.path)
        assert os.listdir(writer.directory) == []

    def test_stop_detaches_the_machine_observer(self, tmp_path):
        writer = HeartbeatWriter(
            heartbeat_dir(str(tmp_path)), "c" * 24, "hb/x", interval=0.05
        )
        writer.start()
        writer.stop()
        before = len(writer._machines)
        Machine(small_config())
        assert len(writer._machines) == before

    def test_torn_heartbeat_is_skipped(self, tmp_path):
        directory = heartbeat_dir(str(tmp_path))
        os.makedirs(directory)
        with open(os.path.join(directory, "torn.json"), "w") as handle:
            handle.write('{"kind": "leviathan-heart')
        assert read_heartbeats(str(tmp_path)) == []


class TestStatus:
    def test_missing_root_is_not_ok(self, tmp_path):
        text, ok = render_status(str(tmp_path / "nope"))
        assert not ok
        assert "no sweep directory" in text

    def test_empty_sweep_renders_ok(self, tmp_path):
        text, ok = render_status(str(tmp_path))
        assert ok
        assert "running (0)" in text

    def test_running_and_finished_runs(self, tmp_path):
        _write_heartbeat(tmp_path, hash="a" * 24, label="live/0")
        with open(os.path.join(str(tmp_path), "manifest.jsonl"), "w") as handle:
            handle.write(
                json.dumps({"hash": "d" * 24, "label": "done/0", "status": "ok",
                            "elapsed": 1.0}) + "\n"
            )
            handle.write('{"torn": "mid-appe')  # killed mid-append
        summary = summarize_sweep(str(tmp_path))
        assert summary["counts"] == {"ok": 1, "error": 0}
        assert [b["label"] for b in summary["running"]] == ["live/0"]
        text, ok = render_status(str(tmp_path))
        assert ok
        assert "live/0" in text
        assert "1 ok" in text

    def test_stale_worker_flagged(self, tmp_path):
        _write_heartbeat(tmp_path, updated=time.time() - 60, interval=1.0)
        summary = summarize_sweep(str(tmp_path))
        assert not summary["running"]
        assert len(summary["stale"]) == 1
        text, _ok = render_status(str(tmp_path))
        assert "stale" in text

    def test_manifest_wins_over_a_live_heartbeat(self, tmp_path):
        # A worker killed before it removed its file: the manifest entry
        # for the same hash marks the run finished anyway.
        beat = _write_heartbeat(tmp_path)
        with open(os.path.join(str(tmp_path), "manifest.jsonl"), "w") as handle:
            handle.write(
                json.dumps({"hash": beat["hash"], "label": beat["label"],
                            "status": "ok"}) + "\n"
            )
        summary = summarize_sweep(str(tmp_path))
        assert not summary["running"]
        assert summary["finished_heartbeats"] == 1

    def test_failures_listed(self, tmp_path):
        with open(os.path.join(str(tmp_path), "manifest.jsonl"), "w") as handle:
            handle.write(
                json.dumps({"hash": "e" * 24, "label": "bad/0", "status": "error",
                            "error": {"type": "DeadlockError", "message": "stuck"}})
                + "\n"
            )
        text, ok = render_status(str(tmp_path))
        assert ok
        assert "failed: bad/0: DeadlockError: stuck" in text


class TestLiveSweep:
    def test_status_concurrent_with_a_jobs2_sweep(self, tmp_path):
        pool = ExperimentPool(
            jobs=2,
            cache_dir=str(tmp_path),
            heartbeat_interval=0.05,
        )
        specs = [
            RunSpec(
                "tests.obs_helpers:slow_point",
                {"tag": i, "seconds": 1.0},
                f"slow/{i}",
            )
            for i in range(2)
        ]
        thread = threading.Thread(target=pool.run, args=(specs,))
        thread.start()
        try:
            saw_running = []
            deadline = time.time() + 20
            while time.time() < deadline and not saw_running:
                summary = summarize_sweep(str(tmp_path))
                if summary["running"]:
                    saw_running = summary["running"]
                time.sleep(0.02)
        finally:
            thread.join(timeout=60)
        assert saw_running, "status never observed an in-flight run"
        assert saw_running[0]["label"].startswith("slow/")
        assert saw_running[0]["phase"] == "simulating"
        final = summarize_sweep(str(tmp_path))
        assert not final["running"]
        assert final["counts"]["ok"] == 2
        text, ok = render_status(str(tmp_path))
        assert ok
        assert "2 entr(ies)" in text


class TestPoolMonitor:
    def test_progress_line_rendering(self, tmp_path):
        class FakePool:
            def progress(self):
                return (1, 3)

        _write_heartbeat(tmp_path, label="live/0", sim_time=2500.0)
        stream = io.StringIO()
        monitor = PoolMonitor(FakePool(), str(tmp_path), stream=stream, interval=0.01)
        monitor.start()
        time.sleep(0.05)
        monitor.stop()
        out = stream.getvalue()
        assert "pool: 1/3 done" in out
        assert "live/0 t=2.5k" in out
        assert out.endswith("\n")


class TestDashboard:
    def test_dashboard_through_the_pool(self, tmp_path):
        telem = tmp_path / "telem"
        pool = ExperimentPool(
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            telemetry_dir=str(telem),
        )
        pool.run_results(
            [
                RunSpec(_COMPACTION, {"compaction": True}, "dash/on"),
                RunSpec(_COMPACTION, {"compaction": False}, "dash/off"),
            ]
        )
        summary = pool.write_dashboard()
        assert summary["runs"] == 2
        assert summary["subsystems"], "no per-subsystem counters aggregated"
        payload = json.loads((telem / "dashboard.json").read_text())
        assert payload["kind"] == "leviathan-dashboard"
        assert payload["runs"] == 2
        markdown = (telem / "dashboard.md").read_text()
        assert "Sweep dashboard" in markdown
        assert "Per-subsystem counter totals" in markdown

    def test_dashboard_without_runs_is_none(self, tmp_path):
        pool = ExperimentPool(jobs=1, cache_dir=None, telemetry_dir=str(tmp_path))
        assert pool.write_dashboard() is None


class TestHeartbeatHelpers:
    def test_read_heartbeat_round_trip(self, tmp_path):
        from repro.experiments.monitor import read_heartbeat

        payload = _write_heartbeat(tmp_path)
        beat = read_heartbeat(str(tmp_path), payload["hash"])
        assert beat["label"] == payload["label"]
        assert read_heartbeat(str(tmp_path), "f" * 24) is None

    def test_read_heartbeat_tolerates_torn_file(self, tmp_path):
        from repro.experiments.monitor import heartbeat_path, read_heartbeat

        payload = _write_heartbeat(tmp_path)
        with open(heartbeat_path(str(tmp_path), payload["hash"]), "w") as handle:
            handle.write('{"kind": "leviathan-hea')
        assert read_heartbeat(str(tmp_path), payload["hash"]) is None

    def test_suspend_skips_periodic_beats(self, tmp_path):
        writer = HeartbeatWriter(str(tmp_path), "d" * 24, "w/susp", interval=0.05)
        writer.start()
        try:
            _wait_for_file(writer.path)
            writer.suspend()
            time.sleep(0.1)  # a beat already under way lands
            stamp = _read_updated(writer.path)
            time.sleep(0.2)
            assert _read_updated(writer.path) == stamp  # no beats
        finally:
            writer.stop()
        assert not os.path.exists(writer.path)

    def test_current_heartbeat_tracks_active_writer(self, tmp_path):
        from repro.experiments.monitor import current_heartbeat

        assert current_heartbeat() is None
        writer = HeartbeatWriter(str(tmp_path), "e" * 24, "w/cur", interval=0.5)
        writer.start()
        try:
            assert current_heartbeat() is writer
        finally:
            writer.stop()
        assert current_heartbeat() is None


class TestRetriesInStatus:
    def _manifest(self, root, entries):
        os.makedirs(str(root), exist_ok=True)
        with open(os.path.join(str(root), "manifest.jsonl"), "w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")

    def test_summarize_counts_retries(self, tmp_path):
        self._manifest(
            tmp_path,
            [
                {"hash": "a" * 24, "status": "ok", "attempts": 3},
                {"hash": "b" * 24, "status": "ok", "attempts": 1},
                {"hash": "c" * 24, "status": "error", "attempts": 2},
            ],
        )
        summary = summarize_sweep(str(tmp_path))
        assert summary["retries"] == 3  # (3-1) + (2-1)

    def test_status_renders_retry_count(self, tmp_path):
        self._manifest(
            tmp_path,
            [{"hash": "a" * 24, "status": "ok", "attempts": 2}],
        )
        text, ok = render_status(str(tmp_path))
        assert ok and "1 retried" in text

    def test_status_omits_retries_when_none(self, tmp_path):
        self._manifest(
            tmp_path,
            [{"hash": "a" * 24, "status": "ok", "attempts": 1}],
        )
        text, ok = render_status(str(tmp_path))
        assert ok and "retried" not in text
