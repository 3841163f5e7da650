"""Executor backends: inline/process contract, worker death, chaos hook."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.backends import (
    BACKENDS,
    CHAOS_ENV,
    ExecutorBackend,
    LocalInlineBackend,
    LocalProcessBackend,
    WorkerDeath,
    chaos_decision,
    make_backend,
    parse_chaos_spec,
)
from repro.experiments.pool import ExperimentPool, RunSpec
from repro.experiments.retry import RetryPolicy

_PID = "tests.obs_helpers:pid_point"


def _collect(backend, count, timeout=30.0):
    """Poll ``backend`` until ``count`` payloads arrive, keyed by handle."""
    payloads = {}
    deadline = time.monotonic() + timeout
    while len(payloads) < count:
        assert time.monotonic() < deadline, f"only {len(payloads)}/{count} arrived"
        payloads.update(backend.poll(timeout=0.2))
    return payloads


def _run_pid(backend):
    """Run one :func:`pid_point` job; the pid of the worker that ran it."""
    handle = backend.submit(_job(fn=_PID))
    outcome = _collect(backend, 1)[handle]
    assert outcome["status"] == "ok", outcome
    return outcome["result"]["value"]


def _job(fn="tests.obs_helpers:slow_point", attempt=1, **kwargs):
    kwargs.setdefault("tag", "t")
    return {
        "fn": fn,
        "kwargs": kwargs,
        "hash": "deadbeef" * 3,
        "label": "backend/test",
        "attempt": attempt,
    }


class TestWorkerDeath:
    def test_signal_exitcode_named(self):
        assert "SIGKILL" in WorkerDeath(exitcode=-signal.SIGKILL).describe()

    def test_plain_exitcode(self):
        assert "status 3" in WorkerDeath(exitcode=3).describe()

    def test_unknown(self):
        assert "died" in WorkerDeath().describe()


class TestMakeBackend:
    def test_named(self):
        for name, cls in BACKENDS.items():
            assert isinstance(make_backend(name), cls)

    def test_instance_passthrough(self):
        backend = LocalInlineBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_backend("ssh-farm")

    def test_abstract_contract(self):
        backend = ExecutorBackend()
        assert backend.supports_kill is False
        for method in ("capacity", "submit", "poll", "kill"):
            with pytest.raises((NotImplementedError, TypeError)):
                getattr(backend, method)(*([None] if method != "capacity" else []))


class TestLocalInlineBackend:
    def test_executes_synchronously_and_polls_once(self):
        backend = LocalInlineBackend().start(1)
        assert backend.capacity() == 1
        handle = backend.submit(_job(seconds=0.0))
        assert backend.capacity() == 0  # result pending drain
        [(polled, outcome)] = backend.poll()
        assert polled == handle
        assert outcome["status"] == "ok"
        assert outcome["result"]["value"] == {"tag": "t"}
        assert backend.capacity() == 1
        assert backend.poll() == []

    def test_kill_is_a_noop(self):
        backend = LocalInlineBackend()
        handle = backend.submit(_job(seconds=0.0))
        backend.kill(handle)
        [(_h, outcome)] = backend.poll()
        assert outcome["status"] == "ok"


class TestLocalProcessBackend:
    def test_round_trip_outcome(self):
        with LocalProcessBackend().start(2) as backend:
            assert backend.supports_kill
            assert backend.capacity() == 2
            handle = backend.submit(_job(seconds=0.0))
            assert backend.capacity() == 1
            results = []
            while not results:
                results = backend.poll(timeout=0.2)
            [(polled, outcome)] = results
            assert polled == handle
            assert outcome["status"] == "ok"
            assert outcome["result"]["value"] == {"tag": "t"}

    def test_self_killed_worker_surfaces_as_worker_death(self, tmp_path):
        sentinel = str(tmp_path / "flaky.sentinel")
        with LocalProcessBackend().start(1) as backend:
            backend.submit(_job(fn="tests.obs_helpers:flaky_point", sentinel=sentinel))
            results = []
            while not results:
                results = backend.poll(timeout=0.2)
            [(_h, payload)] = results
        assert isinstance(payload, WorkerDeath)
        assert payload.exitcode == -signal.SIGKILL
        assert "SIGKILL" in payload.describe()
        assert os.path.exists(sentinel)  # the attempt did start executing

    def test_kill_terminates_one_running_job(self):
        with LocalProcessBackend().start(2) as backend:
            victim = backend.submit(_job(seconds=60.0))
            survivor = backend.submit(_job(seconds=0.0, tag="ok"))
            backend.kill(victim, reason="timeout")
            payloads = {}
            while len(payloads) < 2:
                for handle, payload in backend.poll(timeout=0.2):
                    payloads[handle] = payload
        assert isinstance(payloads[victim], WorkerDeath)
        assert payloads[survivor]["status"] == "ok"  # the kill was surgical

    def test_shutdown_reaps_in_flight_workers(self):
        backend = LocalProcessBackend().start(1)
        backend.submit(_job(seconds=60.0))
        backend.shutdown()
        assert backend.capacity() == 1
        assert backend.poll() == []


class TestWorkerLifecycle:
    """Long-lived workers: reuse, replacement after a kill, and reaping."""

    def test_one_worker_runs_jobs_in_sequence(self):
        with LocalProcessBackend().start(1) as backend:
            first, second = _run_pid(backend), _run_pid(backend)
        assert first == second != os.getpid()

    def test_killed_worker_is_replaced(self):
        with LocalProcessBackend().start(1) as backend:
            old_pid = _run_pid(backend)
            victim = backend.submit(_job(seconds=60.0))
            backend.kill(victim, reason="timeout")
            payload = _collect(backend, 1)[victim]
            assert isinstance(payload, WorkerDeath)
            assert payload.exitcode == -signal.SIGKILL
            assert _run_pid(backend) != old_pid

    def test_kill_after_the_outcome_is_in_the_pipe(self):
        """The outcome is delivered, but the killed worker is never reused."""
        with LocalProcessBackend().start(1) as backend:
            old_pid = _run_pid(backend)
            handle = backend.submit(_job(fn=_PID))
            assert backend._running[handle].conn.poll(30.0)  # outcome sent
            backend.kill(handle, reason="timeout")
            outcome = _collect(backend, 1)[handle]
            assert outcome["status"] == "ok"
            assert outcome["result"]["value"] == old_pid
            assert _run_pid(backend) != old_pid  # submit did not raise

    def test_worker_killed_while_idle_is_replaced(self):
        with LocalProcessBackend().start(1) as backend:
            old_pid = _run_pid(backend)
            os.kill(old_pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while old_pid in {p.pid for p in multiprocessing.active_children()}:
                assert time.monotonic() < deadline, "SIGKILLed worker never exited"
                time.sleep(0.01)
            # The first attempt on the replacement succeeds: no WorkerDeath.
            assert _run_pid(backend) != old_pid

    def test_no_worker_outlives_shutdown_or_a_pool_run(self, tmp_path):
        backend = LocalProcessBackend().start(2)
        _run_pid(backend)
        backend.submit(_job(seconds=60.0))
        backend.shutdown()
        assert multiprocessing.active_children() == []
        pool = ExperimentPool(
            jobs=2,
            cache_dir=str(tmp_path / "c"),
            backend="local-process",
        )
        pids = pool.run_results(
            [RunSpec(_PID, {"tag": f"p{i}"}, f"life/{i}") for i in range(4)]
        )
        assert multiprocessing.active_children() == []
        assert len(set(pids)) <= 2  # four runs, at most two workers


class TestChaosHook:
    def test_parse_spec(self):
        assert parse_chaos_spec("p=0.4;seed=7") == (0.4, 7)
        assert parse_chaos_spec("p=1") == (1.0, 0)
        assert parse_chaos_spec("") == (0.0, 0)

    def test_parse_spec_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="unknown chaos field"):
            parse_chaos_spec("p=0.5;rate=2")
        with pytest.raises(ValueError, match="probability"):
            parse_chaos_spec("p=1.5")

    def test_decision_is_deterministic(self):
        first = [chaos_decision(0.5, 7, f"hash{i}", 1) for i in range(64)]
        again = [chaos_decision(0.5, 7, f"hash{i}", 1) for i in range(64)]
        assert first == again
        assert any(first) and not all(first)  # p=0.5 actually splits

    def test_decision_extremes(self):
        assert not chaos_decision(0.0, 7, "h", 1)
        assert all(chaos_decision(1.0, s, "h", a) for s in range(3) for a in range(3))

    def test_retries_roll_fresh_dice(self):
        decisions = {chaos_decision(0.5, 11, "somehash", a) for a in range(1, 20)}
        assert decisions == {True, False}

    def test_chaos_env_kills_process_worker(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "p=1;seed=3")
        with LocalProcessBackend().start(1) as backend:
            backend.submit(_job(seconds=0.0))
            results = []
            while not results:
                results = backend.poll(timeout=0.2)
            [(_h, payload)] = results
        assert isinstance(payload, WorkerDeath)
        assert payload.exitcode == -signal.SIGKILL


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.allows(1)
        assert not policy.allows(policy.max_attempts)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(base_delay=-0.1),
            dict(factor=0.5),
            dict(jitter=-0.1),
            dict(jitter=1.0),
            dict(jitter_seed=1.5),
            dict(base_delay=5.0, max_delay=1.0),
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(base_delay=1.0, factor=2.0, jitter=0.0)
        assert [policy.delay(a) for a in (1, 2, 3)] == [1.0, 2.0, 4.0]

    def test_delay_capped(self):
        policy = RetryPolicy(base_delay=1.0, factor=10.0, jitter=0.0, max_delay=5.0)
        assert policy.delay(4) == 5.0

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, factor=2.0, jitter=0.25, jitter_seed=9)
        delays = [policy.delay(2, key="abc") for _ in range(3)]
        assert len(set(delays)) == 1  # same seed+key+attempt -> same delay
        assert 2.0 * 0.75 <= delays[0] <= 2.0 * 1.25
        other = RetryPolicy(base_delay=1.0, factor=2.0, jitter=0.25, jitter_seed=10)
        assert other.delay(2, key="abc") != delays[0]
