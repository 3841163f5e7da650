"""Structured JSONL run logs and their CLI/pool wiring."""

import json
import logging
import os
import re

import repro.experiments.cli as cli
from repro.experiments.pool import ExperimentPool, RunSpec
from repro.sim.telemetry.log import (
    KNOWN_EVENTS,
    ROOT_LOGGER,
    clear_log_context,
    configure_run_logging,
    ensure_run_logging,
    get_logger,
    new_run_id,
    set_log_context,
)


def _read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestJsonlLogging:
    def teardown_method(self):
        clear_log_context()

    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with configure_run_logging(path, run_id="rid-1"):
            get_logger("pool").info(
                "run.start", extra={"hash": "abc", "label": "fig18/x"}
            )
            get_logger("scheduler").error("scheduler.deadlock", extra={"kind": "d"})
        records = _read_jsonl(path)
        assert len(records) == 2
        first = records[0]
        assert first["event"] == "run.start"
        assert first["logger"] == "leviathan.pool"
        assert first["run_id"] == "rid-1"
        assert first["hash"] == "abc"
        assert first["level"] == "INFO"
        assert isinstance(first["pid"], int)
        assert records[1]["kind"] == "d"

    def test_unconfigured_logging_is_silent(self, capsys):
        get_logger("pool").info("run.start", extra={"hash": "zzz"})
        captured = capsys.readouterr()
        assert "run.start" not in captured.err
        assert "run.start" not in captured.out

    def test_context_fields_merge_and_clear(self, tmp_path):
        path = str(tmp_path / "ctx.jsonl")
        with configure_run_logging(path):
            set_log_context(run_id="rid-2", cid="c1")
            get_logger("x").info("one")
            set_log_context(cid=None)
            get_logger("x").info("two")
        one, two = _read_jsonl(path)
        assert one["cid"] == "c1"
        assert "cid" not in two

    def test_ensure_run_logging_is_idempotent_per_path(self, tmp_path):
        path = str(tmp_path / "same.jsonl")
        handle = ensure_run_logging(path)
        try:
            assert ensure_run_logging(path) is None
            get_logger("y").info("once")
        finally:
            handle.close()
        assert len(_read_jsonl(path)) == 1

    def test_new_run_ids_are_distinct_enough(self):
        assert new_run_id()  # nonempty, hex-ish
        assert "-" in new_run_id()


class TestPoolLogging:
    def teardown_method(self):
        clear_log_context()
        # Detach any handler the pool attached so later tests stay silent.
        logger = logging.getLogger(ROOT_LOGGER)
        for handler in list(logger.handlers):
            if isinstance(handler, logging.FileHandler):
                logger.removeHandler(handler)
                handler.close()

    def test_pool_journals_run_lifecycle(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        pool = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "cache"), log_path=path)
        pool.run(
            [
                RunSpec(
                    "repro.experiments.ablations:compaction_point",
                    {"compaction": True},
                    "log/on",
                ),
                RunSpec("tests.obs_helpers:deadlocking_point", {}, "log/dead"),
            ]
        )
        events = [(r["event"], r.get("label")) for r in _read_jsonl(path)]
        assert ("run.start", "log/on") in events
        assert ("run.end", "log/on") in events
        assert ("run.error", "log/dead") in events
        run_ids = {r["run_id"] for r in _read_jsonl(path) if "run_id" in r}
        assert run_ids == {pool.run_id}

    def test_pool_postmortem_is_logged(self, tmp_path):
        path = str(tmp_path / "postmortem.jsonl")
        pool = ExperimentPool(
            jobs=1, cache_dir=str(tmp_path / "cache"), flightrec=64, log_path=path
        )
        spec = RunSpec("tests.obs_helpers:deadlocking_point", {}, "log/postmortem")
        outcome = pool.run([spec])[0]
        assert outcome["status"] == "error"
        logged = [
            r for r in _read_jsonl(path) if r["event"] == "flightrec.postmortem"
        ]
        assert len(logged) == 1
        assert logged[0]["path"] == outcome["postmortem"]


class TestStatusCli:
    def test_status_exit_codes(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert cli.main(["status", missing]) == 1
        assert cli.main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "running (0)" in out


class TestKnownEvents:
    """The ``KNOWN_EVENTS`` vocabulary stays in lockstep with the code.

    Scans every emit site in ``src/`` (``<logger>.info("dotted.name",
    ...)`` and friends) and cross-checks it against the registry both
    ways: an unregistered emit is a silent vocabulary leak, a
    registered-but-never-emitted event is dead weight that log
    consumers would wait on forever.
    """

    _EMIT = re.compile(
        r"\.(?:debug|info|warning|error|critical)\(\s*\"([a-z][a-z0-9_.]*)\"",
        re.DOTALL,
    )

    def _emitted_events(self):
        root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        events = set()
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name)) as handle:
                    for match in self._EMIT.finditer(handle.read()):
                        event = match.group(1)
                        if "." in event:  # dotted names only: log events
                            events.add(event)
        return events

    def test_every_emit_site_is_registered(self):
        emitted = self._emitted_events()
        assert emitted, "event scan found nothing -- regex or layout drift"
        unregistered = emitted - KNOWN_EVENTS
        assert not unregistered, (
            f"log events emitted but missing from KNOWN_EVENTS: "
            f"{sorted(unregistered)}"
        )

    def test_every_registered_event_is_emitted(self):
        dead = KNOWN_EVENTS - self._emitted_events()
        assert not dead, f"KNOWN_EVENTS entries never emitted: {sorted(dead)}"

    def test_supervision_events_registered(self):
        assert {
            "run.worker_died",
            "run.retry",
            "run.timeout",
            "run.hung",
            "sweep.interrupted",
            "cache.quarantined",
        } <= KNOWN_EVENTS
