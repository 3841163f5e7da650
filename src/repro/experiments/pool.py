"""Parallel, cache-aware execution of experiment sweeps.

The paper's evaluation is dozens of *independent* simulator runs
(figure grids, sensitivity sweeps, ablations). This module turns each
sweep into a flat list of :class:`RunSpec` entries -- one simulator
execution each -- and executes them on a worker pool:

- When one run at a time is all there is (``jobs=1``, or a single
  pending spec) and no deadline or hang detection needs a run killed,
  specs execute inline in this process; otherwise they go to up to
  ``jobs`` long-lived worker processes, one run per worker at a time.
- Every spec is content-hashed (function path + canonicalized kwargs +
  the armed fault plan); completed results are written to
  ``<cache-dir>/<code>/<hash>.json``, where ``<code>`` names the
  ``repro`` sources that produced them, so re-runs and overlapping
  sweeps are free (Figs. 20 and 21 share the HATS study through the
  cache rather than through ad-hoc memoization) and results of other
  code never come back.
- An append-only ``<cache-dir>/manifest.jsonl`` journals every executed
  spec as it completes, after its cache entry is written; cache hits
  add no line. Rerunning an interrupted sweep serves its finished runs
  from the cache and executes the rest (a truncated final line -- the
  signature of a kill mid-write -- is tolerated and ignored).
- A crashed spec is recorded in the manifest (and as
  ``runs/<slug>/error.json`` when an artifact directory is configured),
  the rest of the sweep still executes, and
  :meth:`ExperimentPool.run_results` raises
  :class:`IncompleteSweepError` at the end so the CLI exits nonzero.

Execution happens on a pluggable :class:`~repro.experiments.backends.
ExecutorBackend` under a **supervision loop** that makes the host side
as fault-tolerant as PR 3 made the simulated machine:

- failures are classified (:mod:`repro.experiments.retry`) as
  *transient* (worker killed, deadline exceeded, hung, dispatch
  ``OSError``) vs *permanent* (the workload raised); transient ones
  are requeued with seeded exponential backoff up to
  ``RetryPolicy.max_attempts``, and the attempt count is journaled;
- every run gets the pool's wall-clock deadline (``run_timeout``, CLI
  ``--run-timeout``) enforced by killing the worker -- a timeout is
  transient;
- a run that has not beaten for ``hang_intervals`` beat intervals (aged
  from dispatch until its first beat) is declared hung: the worker is
  killed, a postmortem stub is written, and the run is requeued;
- cache entries carry a sha256 checksum of their result payload;
  corrupt or truncated entries are quarantined to
  ``<cache-dir>/quarantine/`` and re-executed, never returned;
- SIGINT/SIGTERM drain gracefully: dispatching stops, queued work is
  cancelled, in-flight workers are killed, the (fsynced) manifest
  stays intact, and :class:`SweepInterrupted` tells the operator that
  rerunning the same command continues the sweep.

Determinism is load-bearing: specs are pure functions of their kwargs,
results are assembled in *spec order* (never completion order), and the
float payloads survive the JSON cache bit-exactly (``repr`` round-trip),
so a ``jobs=8`` sweep produces bit-identical figure data to ``jobs=1``
-- with or without injected worker kills, timeouts, and requeues.
``tests/test_pool.py`` and ``tests/test_supervision.py`` enforce this.
"""

import collections
import functools
import hashlib
import importlib
import json
import os
import re
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.experiments import retry as retry_taxonomy
from repro.experiments.backends import WorkerDeath, make_backend
from repro.experiments.retry import RetryPolicy
from repro.sim.faults import FaultSession
from repro.sim.telemetry.flightrec import FlightRecorderSession
from repro.sim.telemetry.log import ensure_run_logging, get_logger, new_run_id
from repro.sim.telemetry.session import TelemetrySession
from repro.workloads.common import RunResult, StudyResult

_log = get_logger("pool")


# ----------------------------------------------------------------------
# specs and content hashing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One simulator execution: a function path plus its kwargs.

    ``fn`` is a ``"package.module:function"`` path resolved inside the
    worker, so a spec survives pickling into a subprocess and hashing
    into the cache. ``kwargs`` must be JSON-canonicalizable (dicts,
    lists/tuples, strings, numbers, bools, None). ``label`` is a
    human-readable sweep-local name used in the manifest and artifact
    directories; it is *excluded* from the content hash so overlapping
    sweeps that enumerate the same computation share a cache entry.
    """

    fn: str
    kwargs: dict = field(default_factory=dict)
    label: str = ""


def _canonical(value):
    """Reduce ``value`` to JSON-safe types (tuples->lists, numpy->python)."""
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return _canonical(value.item())
    raise TypeError(f"value {value!r} cannot be canonicalized for a RunSpec")


def canonical_json(payload):
    """The canonical encoding hashed by :func:`spec_hash`."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def code_digest():
    """sha256 over every ``.py`` source of the ``repro`` package.

    Names the cache directory an entry is stored in
    (:func:`cache_entry_path`), so an entry cached by other code (a
    change to a workload, to the model or to what a run returns)
    misses instead of being served. Computed on first use, once per
    process, never at import.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as handle:
                source = handle.read()
            digest.update(f"{relpath}\0{len(source)}\0".encode())
            digest.update(source)
    return digest.hexdigest()


def spec_hash(spec, faults=None):
    """Content hash of one spec (label excluded, fault plan included).

    It does not depend on the code, so a run keeps its hash -- in the
    manifest, in artifact directory names and in the chaos hook's kill
    schedule -- from one commit to the next; the cache keys entries on
    the code by their directory instead.
    """
    payload = {
        "schema": 1,  # the payload's layout; changing it renames every run
        "fn": spec.fn,
        "kwargs": _canonical(spec.kwargs),
        "faults": faults or None,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:24]


def cache_entry_path(cache_dir, digest):
    """Where the cache keeps spec ``digest``'s entry for this code.

    One directory per :func:`code_digest` (its first 12 hex digits):
    entries of other code are never read, and dropping a stale
    generation is deleting its directory.
    """
    return os.path.join(cache_dir, code_digest()[:12], digest + ".json")


# ----------------------------------------------------------------------
# result (de)serialization
# ----------------------------------------------------------------------
def encode_result(result):
    """A JSON-safe payload for a spec's return value.

    :class:`~repro.workloads.common.RunResult` is encoded field by field
    (tuple-keyed access profiles become triples); any other value must
    itself be JSON-canonicalizable.
    """
    if isinstance(result, RunResult):
        try:
            output = _canonical(result.output)
        except TypeError:
            output = None  # non-serializable workload output: drop it
        return {
            "kind": "run_result",
            "name": result.name,
            "cycles": result.cycles,
            "energy_pj": result.energy_pj,
            "stats": _canonical(result.stats),
            "output": output,
            "functional": result.functional,
            "notes": result.notes,
            "energy_breakdown": _canonical(result.energy_breakdown),
            "access_profile": [
                [level, outcome, count]
                for (level, outcome), count in result.access_profile.items()
            ],
        }
    return {"kind": "value", "value": _canonical(result)}


def decode_result(payload):
    """Inverse of :func:`encode_result`."""
    if payload["kind"] == "value":
        return payload["value"]
    return RunResult(
        name=payload["name"],
        cycles=payload["cycles"],
        energy_pj=payload["energy_pj"],
        stats=payload["stats"],
        output=payload["output"],
        functional=payload["functional"],
        notes=payload["notes"],
        energy_breakdown=payload["energy_breakdown"],
        access_profile={
            (level, outcome): count
            for level, outcome, count in payload["access_profile"]
        },
    )


def compute_result_checksum(result_payload):
    """sha256 over the canonical encoding of one cached result payload.

    Stored per cache entry and re-verified on every read, so bit rot,
    truncation, or a torn write is *detected* instead of silently
    decoded into garbage figure data.
    """
    return "sha256:" + hashlib.sha256(
        canonical_json(result_payload).encode()
    ).hexdigest()


def cache_entry_problem(payload):
    """Why a parsed cache entry cannot be trusted, or None if it can."""
    if "result" not in payload:
        return "entry has no result payload"
    stored = payload.get("checksum")
    if stored is None:
        return "entry has no checksum"
    actual = compute_result_checksum(payload["result"])
    if stored != actual:
        return f"checksum mismatch: stored {stored}, payload hashes to {actual}"
    return None


# ----------------------------------------------------------------------
# the worker (runs inline or in a worker process)
# ----------------------------------------------------------------------
def _execute_job(job):
    """Execute one spec; never raises -- errors become the outcome."""
    started = time.perf_counter()
    outcome = {
        "hash": job["hash"],
        "label": job["label"],
        "fn": job["fn"],
        "status": "ok",
        "telemetry_machines": 0,
        "faults_injected": 0,
    }
    telemetry = faults = flightrec = None
    heartbeat = None
    profiler = None
    if job.get("log_path"):
        # Idempotent: fork-started workers inherit the parent's handler.
        ensure_run_logging(job["log_path"], run_id=job.get("run_id"))
    _log.info(
        "run.start", extra={"hash": job["hash"], "label": job["label"], "fn": job["fn"]}
    )
    try:
        if job.get("heartbeat"):
            from repro.experiments.monitor import HeartbeatWriter

            heartbeat = HeartbeatWriter(
                job["heartbeat"]["dir"],
                job["hash"],
                job["label"],
                interval=job["heartbeat"]["interval"],
            ).start()
        module_name, _, fn_name = job["fn"].partition(":")
        fn = getattr(importlib.import_module(module_name), fn_name)
        if job.get("telemetry"):
            telemetry = TelemetrySession()
        if job.get("faults"):
            faults = FaultSession(job["faults"])
        if job.get("flightrec"):
            flightrec = FlightRecorderSession(job["flightrec"])
        if job.get("profile"):
            from repro.perf.profile import ProfileHarness

            profiler = ProfileHarness()
        # Each machine the run builds gets its telemetry, then its fault
        # controller, then its flight recorder: installation order.
        sessions = [s for s in (telemetry, faults, flightrec) if s is not None]
        try:
            for session in sessions:
                session.install()
            if heartbeat is not None:
                heartbeat.phase = "simulating"
            if profiler is not None:
                result = profiler.run(fn, **job["kwargs"])
            else:
                result = fn(**job["kwargs"])
        finally:
            if heartbeat is not None:
                heartbeat.phase = "artifacts"
            for session in sessions:
                session.uninstall()
        outcome["result"] = encode_result(result)
    except Exception as exc:
        outcome["status"] = "error"
        outcome["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        _log.error(
            "run.error",
            extra={
                "hash": job["hash"],
                "label": job["label"],
                "error": type(exc).__name__,
                "error_message": str(exc),  # "message" is reserved by logging
            },
        )
        # The flight recorder's whole purpose: a crash leaves evidence.
        if flightrec is not None and job.get("postmortem_dir"):
            try:
                path = flightrec.save_postmortem(job["postmortem_dir"], error=exc)
                if path is not None:
                    outcome["postmortem"] = path
            except Exception as post_exc:
                outcome["postmortem_error"] = (
                    f"{type(post_exc).__name__}: {post_exc}"
                )
    # Per-run artifacts (telemetry traces, fault reports) are written by
    # the worker -- it owns the sessions; partial artifacts from a
    # crashed run are kept for debugging.
    artifacts = job.get("artifacts")
    if artifacts is not None:
        try:
            if telemetry is not None and telemetry.attached:
                telemetry.save(artifacts)
                outcome["telemetry_machines"] = len(telemetry.attached)
            if faults is not None and faults.attached:
                faults.save(artifacts)
            if profiler is not None and profiler.report is not None:
                profiler.save(artifacts)
                outcome["profiled"] = 1
        except Exception as exc:  # artifact IO must not eat the result
            outcome["artifact_error"] = f"{type(exc).__name__}: {exc}"
    if faults is not None:
        outcome["faults_injected"] = faults.total_injected
    outcome["elapsed"] = time.perf_counter() - started
    if heartbeat is not None:
        heartbeat.stop()
    _log.info(
        "run.end",
        extra={
            "hash": job["hash"],
            "label": job["label"],
            "status": outcome["status"],
            "elapsed": outcome["elapsed"],
        },
    )
    return outcome


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class IncompleteSweepError(RuntimeError):
    """Some specs of a sweep failed; the rest completed and are cached."""

    def __init__(self, failures):
        self.failures = failures
        lines = [
            f"{f['label']}: {f['error']['type']}: {f['error']['message']}"
            for f in failures
        ]
        super().__init__(
            f"{len(failures)} run(s) of the sweep failed:\n" + "\n".join(lines)
        )


class SweepInterrupted(RuntimeError):
    """The operator stopped the sweep (SIGINT/SIGTERM graceful drain).

    The manifest is flushed and fsynced before this is raised, so
    every *finished* run is journaled. Rerunning the same command
    serves the finished runs from the cache and re-executes only what
    was still in flight or queued -- except under ``--no-cache``, which
    wrote no entries to serve.
    """

    def __init__(self, signame, done, total):
        self.signame = signame
        self.done = done
        self.total = total
        super().__init__(
            f"sweep interrupted by {signame}: {done}/{total} pending run(s) "
            f"finished; the manifest is intact -- rerun the same command to "
            f"resume (finished runs come from the cache, except under "
            f"--no-cache)"
        )


class ExperimentPool:
    """Executes :class:`RunSpec` lists with caching and fan-out.

    Parameters
    ----------
    jobs:
        Runs in flight at once; ``None`` means ``os.cpu_count()``.
        With more than one, a sweep on a TTY renders a live progress
        line on stderr.
    cache_dir:
        Root of the result cache and manifest journal. ``None`` disables
        all disk state (results are still memoized in-process).
    cache:
        When False, existing ``<hash>.json`` entries are ignored and no
        new ones are written (the manifest is still journaled), so a
        rerun re-executes every spec.
    telemetry_dir:
        When set, every executed spec captures telemetry (and its fault
        report / error report) under ``<telemetry_dir>/runs/<slug>/``.
        Artifact capture forces execution: cached results carry no
        fresh traces, so cache *reads* are skipped (writes still happen).
    profile_dir:
        When set, every executed spec runs under the
        :class:`~repro.perf.profile.ProfileHarness` and drops
        ``profile.json`` + ``profile.pstats`` + ``stacks.folded`` beside
        its telemetry artifacts (or under ``<profile_dir>/runs/<slug>/``
        when no telemetry directory is configured). Like telemetry
        capture, profiling forces execution; the profiled results remain
        bit-identical (the harness only observes).
    faults:
        A fault-plan spec string armed on every machine each worker
        builds. Part of the content hash -- faulted results never
        collide with clean ones.
    flightrec:
        Ring capacity (events per machine) for a flight recorder armed
        in every executing worker. On a failed run the ring drains into
        ``postmortem.json`` under the run's artifact directory (or
        ``<cache-dir>/postmortems/<slug>/`` without one). Unlike
        telemetry capture it does NOT force execution -- cached results
        stay served from cache (a cached ``ok`` needs no postmortem).
    log_path:
        JSONL run-log file; the pool and every worker append lifecycle
        records (``run.start``/``run.end``/``run.error``) to it,
        correlated by ``run_id`` and spec hash.
    heartbeat_interval:
        Seconds between per-run heartbeat files under
        ``<cache-dir>/heartbeats/``. ``None`` enables heartbeats at the
        default cadence only for multi-worker sweeps (``jobs > 1``);
        pass a number to force them on (needs a cache dir either way).
    backend:
        Executor backend: an :class:`~repro.experiments.backends.
        ExecutorBackend` instance or a registered name
        (``"local-inline"``, ``"local-process"``). ``None`` lets the
        pool choose per batch (:meth:`_backend_for`).
    retry:
        The :class:`~repro.experiments.retry.RetryPolicy` for
        transient failures (worker killed, timeout, hang). ``None``
        uses the default policy; ``RetryPolicy(max_attempts=1)``
        disables retry.
    run_timeout:
        Wall-clock deadline per run, in seconds; None disables
        deadlines. A deadline sends every batch to worker processes,
        which the pool can kill.
    hang_intervals:
        A run that has not beaten for this many beat intervals (counted
        from dispatch until its first beat) is declared hung: the
        worker is killed and the run requeued. None disables hang
        detection (it is also off whenever heartbeats are off).
    """

    def __init__(
        self,
        jobs=None,
        cache_dir="results-cache",
        cache=True,
        telemetry_dir=None,
        profile_dir=None,
        faults=None,
        flightrec=None,
        log_path=None,
        heartbeat_interval=None,
        backend=None,
        retry=None,
        run_timeout=None,
        hang_intervals=10.0,
    ):
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache_dir = cache_dir
        self.cache = bool(cache and cache_dir)
        self.telemetry_dir = telemetry_dir
        self.profile_dir = profile_dir
        self.faults = faults
        self.flightrec = int(flightrec) if flightrec else None
        self.log_path = log_path
        self.heartbeat_interval = heartbeat_interval
        self.backend = backend
        self.retry = retry if retry is not None else RetryPolicy()
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(f"retry must be a RetryPolicy, got {self.retry!r}")
        if run_timeout is not None and not float(run_timeout) > 0:
            raise ValueError(f"run_timeout must be > 0 seconds, got {run_timeout!r}")
        self.run_timeout = float(run_timeout) if run_timeout is not None else None
        if hang_intervals is not None and not float(hang_intervals) > 0:
            raise ValueError(
                f"hang_intervals must be > 0 intervals, got {hang_intervals!r}"
            )
        self.hang_intervals = (
            float(hang_intervals) if hang_intervals is not None else None
        )
        self.run_id = new_run_id()
        #: Outcomes of every failed spec across the pool's lifetime.
        self.failures = []
        #: Host-side supervision counters across the pool's lifetime.
        self.supervision = {
            "retries": 0,
            "worker_deaths": 0,
            "timeouts": 0,
            "hangs": 0,
            "quarantined": 0,
        }
        self._memory = {}
        self._report = {}
        self._pending_done = 0
        self._pending_total = 0
        self._log_handle = None
        self._interrupt = None
        if log_path:
            self._log_handle = ensure_run_logging(log_path, run_id=self.run_id)

    # -- journal and cache ---------------------------------------------
    def _manifest_path(self):
        return os.path.join(self.cache_dir, "manifest.jsonl")

    def _append_manifest(self, outcome):
        if not self.cache_dir:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        self._heal_torn_manifest()
        entry = {
            "hash": outcome["hash"],
            "label": outcome["label"],
            "fn": outcome["fn"],
            "status": outcome["status"],
            "elapsed": outcome.get("elapsed", 0.0),
            "attempts": outcome.get("attempts", 1),
        }
        if outcome["status"] != "ok":
            entry["error"] = {
                "type": outcome["error"]["type"],
                "message": outcome["error"]["message"],
            }
        # flush + fsync before returning: a host crash can then tear at
        # most the final line, which the self-healing path tolerates.
        with open(self._manifest_path(), "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _heal_torn_manifest(self):
        """Terminate a torn final line (kill mid-append) before appending.

        Without this, the first append of a rerun would glue its JSON
        onto the torn fragment and corrupt one more entry.
        """
        if getattr(self, "_manifest_healed", False):
            return
        self._manifest_healed = True
        try:
            with open(self._manifest_path(), "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
        except FileNotFoundError:
            pass

    def _load_cached(self, digest):
        if not self.cache or self.telemetry_dir or self.profile_dir:
            return None  # off, or artifacts require a fresh execution
        try:
            with open(cache_entry_path(self.cache_dir, digest)) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except ValueError:
            self._quarantine(digest, "unparseable JSON (truncated or torn write)")
            return None
        if not isinstance(payload, dict) or payload.get("status") != "ok":
            return None
        problem = cache_entry_problem(payload)
        if problem is not None:
            self._quarantine(digest, problem)
            return None
        return payload

    def _quarantine(self, digest, reason):
        """Move a corrupt cache entry aside; the run will re-execute.

        Quarantined entries land in ``<cache-dir>/quarantine/`` under
        their original name for operator inspection -- never served,
        never silently deleted.
        """
        source = cache_entry_path(self.cache_dir, digest)
        quarantine_dir = os.path.join(self.cache_dir, "quarantine")
        os.makedirs(quarantine_dir, exist_ok=True)
        try:
            os.replace(
                source, os.path.join(quarantine_dir, os.path.basename(source))
            )
        except FileNotFoundError:
            pass
        self.supervision["quarantined"] += 1
        self._bump("quarantined")
        _log.warning("cache.quarantined", extra={"hash": digest, "reason": reason})

    def _store_cached(self, outcome):
        if not self.cache or outcome["status"] != "ok":
            return
        outcome["checksum"] = compute_result_checksum(outcome["result"])
        path = cache_entry_path(self.cache_dir, outcome["hash"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(outcome, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)  # atomic: a kill never leaves a torn entry

    # -- execution ------------------------------------------------------
    def _job(self, spec, digest):
        job = {
            "fn": spec.fn,
            "kwargs": spec.kwargs,
            "hash": digest,
            "label": spec.label or spec.fn,
        }
        if self.faults:
            job["faults"] = self.faults
        if self.telemetry_dir:
            job["telemetry"] = True
        if self.profile_dir:
            job["profile"] = True
        if self.telemetry_dir or self.profile_dir:
            job["artifacts"] = self.run_dir(digest, job["label"])
        if self.flightrec:
            job["flightrec"] = self.flightrec
            postmortem_dir = job.get("artifacts") or self._postmortem_dir(
                digest, job["label"]
            )
            if postmortem_dir:
                job["postmortem_dir"] = postmortem_dir
        if self.log_path:
            job["log_path"] = self.log_path
            job["run_id"] = self.run_id
        interval = self._heartbeat_interval()
        if interval is not None:
            from repro.experiments.monitor import heartbeat_dir

            job["heartbeat"] = {
                "dir": heartbeat_dir(self.cache_dir),
                "interval": interval,
            }
        return job

    def _heartbeat_interval(self):
        """The heartbeat cadence, or None when heartbeats are off.

        Heartbeats live under the cache dir; without one there is
        nowhere for ``status`` to look, so they stay off. An explicit
        interval forces them on; otherwise only fanned-out sweeps beat
        (inline test/benchmark runs skip the writer thread).
        """
        if not self.cache_dir:
            return None
        from repro.experiments.monitor import DEFAULT_INTERVAL, MIN_INTERVAL

        if self.heartbeat_interval is not None:
            return max(MIN_INTERVAL, float(self.heartbeat_interval))
        return DEFAULT_INTERVAL if self.jobs > 1 else None

    def _postmortem_dir(self, digest, label):
        """Postmortem home when no artifact directory is configured."""
        if not self.cache_dir:
            return None
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", label).strip("-")[:60]
        return os.path.join(self.cache_dir, "postmortems", f"{slug}-{digest[:12]}")

    def run_dir(self, digest, label):
        """Artifact directory for one run under the artifact root.

        Telemetry and profile artifacts share one directory per run; the
        telemetry root wins when both are configured.
        """
        root = self.telemetry_dir or self.profile_dir
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", label).strip("-")[:60]
        return os.path.join(root, "runs", f"{slug}-{digest[:12]}")

    def run(self, specs):
        """Execute ``specs``; returns raw outcome dicts in spec order.

        Every spec executes (or is served from cache) even when others
        fail; failures are journaled and collected on ``self.failures``.
        """
        specs = list(specs)
        order = []
        pending = []
        queued = set()
        for spec in specs:
            digest = spec_hash(spec, self.faults)
            order.append(digest)
            if digest in self._memory or digest in queued:
                continue
            cached = self._load_cached(digest)
            if cached is not None:
                self._memory[digest] = cached
                self._bump("cached")
                continue
            queued.add(digest)
            pending.append(self._job(spec, digest))
        self._execute(pending)
        return [self._memory[digest] for digest in order]

    def run_results(self, specs):
        """Execute ``specs`` and decode their results, in spec order.

        Raises :class:`IncompleteSweepError` after the whole sweep has
        run if any spec failed.
        """
        outcomes = self.run(specs)
        failed = [o for o in outcomes if o["status"] != "ok"]
        if failed:
            raise IncompleteSweepError(failed)
        return [decode_result(o["result"]) for o in outcomes]

    def _execute(self, pending):
        if not pending:
            return
        self._pending_done, self._pending_total = 0, len(pending)
        monitor = self._start_monitor()
        try:
            self._execute_pending(pending)
        finally:
            if monitor is not None:
                monitor.stop()

    def _backend_for(self, pending):
        """The executor backend instance for this batch of jobs.

        Inline runs one job at a time and cannot preempt it, so the
        batch runs inline only when one job at a time is all there is
        (``jobs=1``, or a single pending run) and neither a deadline
        nor hang detection needs a job killed; otherwise it gets worker
        processes.
        """
        if self.backend is not None:
            return make_backend(self.backend)
        one_at_a_time = self.jobs == 1 or len(pending) == 1
        needs_kill = self.run_timeout is not None or (
            self.hang_intervals is not None
            and self._heartbeat_interval() is not None
        )
        return make_backend(
            "local-inline" if one_at_a_time and not needs_kill else "local-process"
        )

    def _execute_pending(self, pending):
        backend = self._backend_for(pending)
        backend.start(min(self.jobs, len(pending)) or 1)
        self._interrupt = None
        restore = self._install_signal_handlers() if backend.supports_kill else None
        try:
            self._supervise(backend, pending)
        finally:
            backend.shutdown()
            if restore:
                for signum, previous in restore.items():
                    signal.signal(signum, previous)

    def _install_signal_handlers(self):
        """SIGINT/SIGTERM set a drain flag instead of killing the sweep.

        Only possible from the main thread (a pool driven from a
        worker thread keeps the process's default handlers).
        """
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def _request_drain(signum, frame):
            self._interrupt = signum

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _request_drain)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
        return previous

    # -- the supervision loop ------------------------------------------
    #: Seconds between supervisor wakeups while work is in flight.
    POLL_S = 0.05
    #: Cap on one poll sleep while only backoff waits exist: PEP 475
    #: resumes an interrupted sleep after the SIGINT handler returns,
    #: so an uncapped backoff wait (up to RetryPolicy.max_delay) would
    #: stall the graceful drain for its full duration.
    BACKOFF_POLL_S = 0.25

    def _supervise(self, backend, pending):
        """Dispatch, watch, retry, and journal one batch of jobs.

        The loop owns three collections: ``queue`` (ready to
        dispatch), ``waiting`` (retries backing off), and ``running``
        (handle -> attempt record). It exits when all three are empty
        -- or raises :class:`SweepInterrupted` after a graceful drain.
        """
        queue = collections.deque(
            {"job": dict(job), "attempt": 1} for job in pending
        )
        waiting = []  # (not_before_monotonic, attempt record)
        running = {}  # backend handle -> attempt record
        while queue or waiting or running:
            if self._interrupt is not None:
                self._drain(backend, queue, waiting, running)
            now = time.monotonic()
            if waiting:
                due = [w for w in waiting if w[0] <= now]
                waiting = [w for w in waiting if w[0] > now]
                queue.extend(record for _t, record in due)
            while queue and backend.capacity() > 0 and self._interrupt is None:
                self._dispatch(backend, queue.popleft(), running, waiting)
            timeout = self._poll_timeout(now, waiting, running)
            for handle, payload in backend.poll(timeout):
                record = running.pop(handle)
                self._complete(record, payload, waiting)
            if running and backend.supports_kill:
                self._enforce_deadlines(backend, running)
                self._detect_hangs(backend, running)

    def _poll_timeout(self, now, waiting, running):
        if running:
            return self.POLL_S
        if waiting:
            due = max(0.0, min(t for t, _r in waiting) - now)
            return min(due, self.BACKOFF_POLL_S)
        return 0.0

    def _dispatch(self, backend, record, running, waiting):
        job = record["job"]
        job["attempt"] = record["attempt"]
        record["started"] = time.monotonic()
        record["started_wall"] = time.time()
        record["kill_reason"] = None
        record["kill_detail"] = ""
        record["missing_since"] = None  # hang detection: see _detect_hangs
        try:
            handle = backend.submit(job)
        except OSError as exc:  # fork/pipe failure: host-side, transient
            self._transient_failure(
                record,
                retry_taxonomy.DISPATCH_ERROR,
                f"{type(exc).__name__}: {exc}",
                waiting,
            )
            return
        running[handle] = record

    def _enforce_deadlines(self, backend, running):
        deadline = self.run_timeout
        if deadline is None:
            return
        now = time.monotonic()
        for handle, record in running.items():
            if record["kill_reason"] is not None:
                continue
            elapsed = now - record["started"]
            if elapsed > deadline:
                record["kill_reason"] = retry_taxonomy.TIMEOUT
                record["kill_detail"] = (
                    f"run exceeded its {deadline:.1f}s deadline "
                    f"({elapsed:.1f}s elapsed); worker killed"
                )
                self.supervision["timeouts"] += 1
                _log.warning(
                    "run.timeout",
                    extra={
                        "hash": record["job"]["hash"],
                        "label": record["job"]["label"],
                        "attempt": record["attempt"],
                        "run_timeout": deadline,
                    },
                )
                backend.kill(handle, reason=retry_taxonomy.TIMEOUT)

    def _detect_hangs(self, backend, running):
        """Kill workers that have not beaten within the hang horizon.

        A run is aged from this attempt's last beat, or from its
        dispatch while it has not beaten yet; its heartbeat file is
        read only once the run is older than the horizon. A run also
        removes its file just before it sends its outcome, so a missing
        file counts only once it has stayed missing for an interval:
        by then a run that ended has reported.
        """
        interval = self._heartbeat_interval()
        if self.hang_intervals is None or interval is None:
            return
        from repro.experiments.monitor import read_heartbeat

        horizon = self.hang_intervals * interval
        now_wall = time.time()
        for handle, record in running.items():
            dispatched = record["started_wall"]
            if record["kill_reason"] is not None or now_wall - dispatched <= horizon:
                continue
            beat = read_heartbeat(self.cache_dir, record["job"]["hash"])
            if beat is not None and beat.get("started", 0) >= dispatched - 1.0:
                record["missing_since"] = None
                last = beat.get("updated", dispatched)
            else:
                beat = None  # none yet, or a ghost of an earlier attempt or sweep
                if record["missing_since"] is None:
                    record["missing_since"] = now_wall
                if now_wall - record["missing_since"] <= interval:
                    continue
                last = dispatched
            age = now_wall - last
            if age <= horizon:
                continue
            record["kill_reason"] = retry_taxonomy.HUNG
            record["kill_detail"] = (
                f"no heartbeat for {age:.1f}s "
                f"(> {horizon:.1f}s); worker killed"
            )
            self.supervision["hangs"] += 1
            _log.warning(
                "run.hung",
                extra={
                    "hash": record["job"]["hash"],
                    "label": record["job"]["label"],
                    "attempt": record["attempt"],
                    "stale_s": age,
                },
            )
            self._write_hang_postmortem(record, beat)
            backend.kill(handle, reason=retry_taxonomy.HUNG)

    def _complete(self, record, payload, waiting):
        """Classify one finished attempt: done, permanent, or retry."""
        job = record["job"]
        if isinstance(payload, WorkerDeath):
            kind = record["kill_reason"] or retry_taxonomy.WORKER_DIED
            detail = record["kill_detail"] or payload.describe()
            if kind == retry_taxonomy.WORKER_DIED:
                self.supervision["worker_deaths"] += 1
                _log.error(
                    "run.worker_died",
                    extra={
                        "hash": job["hash"],
                        "label": job["label"],
                        "attempt": record["attempt"],
                        "exitcode": payload.exitcode,
                    },
                )
            self._transient_failure(record, kind, detail, waiting)
            return
        # A real outcome dict: ok, or the workload raised (permanent).
        payload["attempts"] = record["attempt"]
        self._finish(payload)

    def _transient_failure(self, record, kind, detail, waiting):
        """Requeue with backoff, or journal a terminal transient error."""
        job = record["job"]
        self._discard_heartbeat(job["hash"])
        if self.retry.allows(record["attempt"]):
            delay = self.retry.delay(record["attempt"], key=job["hash"])
            self.supervision["retries"] += 1
            self._bump("retried")
            _log.info(
                "run.retry",
                extra={
                    "hash": job["hash"],
                    "label": job["label"],
                    "kind": kind,
                    "attempt": record["attempt"] + 1,
                    "max_attempts": self.retry.max_attempts,
                    "delay_s": round(delay, 3),
                },
            )
            waiting.append(
                (
                    time.monotonic() + delay,
                    {"job": job, "attempt": record["attempt"] + 1},
                )
            )
            return
        started = record.get("started")
        self._finish(
            {
                "hash": job["hash"],
                "label": job["label"],
                "fn": job["fn"],
                "status": "error",
                "elapsed": time.monotonic() - started if started else 0.0,
                "telemetry_machines": 0,
                "faults_injected": 0,
                "attempts": record["attempt"],
                "transient": kind,
                "error": {
                    "type": retry_taxonomy.KIND_ERROR_TYPES.get(kind, "WorkerDied"),
                    "message": f"{detail} (attempt {record['attempt']}"
                    f"/{self.retry.max_attempts})",
                    "traceback": "",
                },
            }
        )

    def _discard_heartbeat(self, digest):
        """Drop the dead attempt's heartbeat so the next attempt (and
        hang detection) never reads a stale file."""
        if not self.cache_dir:
            return
        from repro.experiments.monitor import heartbeat_path

        try:
            os.unlink(heartbeat_path(self.cache_dir, digest))
        except OSError:
            pass

    def _write_hang_postmortem(self, record, beat):
        """A SIGKILLed worker cannot drain its flight recorder, so the
        supervisor leaves the postmortem stub in its place (``beat`` is
        None when the run never beat)."""
        job = record["job"]
        outdir = job.get("postmortem_dir") or self._postmortem_dir(
            job["hash"], job["label"]
        )
        if not outdir:
            return None
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "postmortem.json")
        if os.path.exists(path):  # keep an earlier attempt's evidence
            path = os.path.join(
                outdir, f"postmortem-attempt{record['attempt']}.json"
            )
        payload = {
            "kind": "leviathan-postmortem",
            "reason": "hung",
            "detail": record["kill_detail"],
            "hash": job["hash"],
            "label": job["label"],
            "attempt": record["attempt"],
            "heartbeat": beat,
            "machines": [],
            "note": "worker was SIGKILLed by the pool supervisor; "
            "no in-worker flight-recorder drain was possible",
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def _drain(self, backend, queue, waiting, running):
        """Graceful shutdown: cancel, kill, flush, and raise."""
        signum = self._interrupt
        try:
            signame = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            signame = f"signal {signum}"
        cancelled = len(queue) + len(waiting)
        killed = [record["job"]["hash"] for record in running.values()]
        queue.clear()
        waiting.clear()
        for handle in list(running):
            backend.kill(handle, reason="interrupted")
        backend.shutdown()
        running.clear()
        # The workers are reaped: their heartbeat files are ghosts now.
        for digest in killed:
            self._discard_heartbeat(digest)
        # Every _append_manifest already flushed + fsynced its line;
        # nothing buffered remains to lose.
        _log.warning(
            "sweep.interrupted",
            extra={
                "signal": signame,
                "finished": self._pending_done,
                "total": self._pending_total,
                "cancelled": cancelled,
                "killed": len(killed),
            },
        )
        raise SweepInterrupted(signame, self._pending_done, self._pending_total)

    def _start_monitor(self):
        import sys

        if not (self.jobs > 1 and self.cache_dir and sys.stderr.isatty()):
            return None
        from repro.experiments.monitor import PoolMonitor

        return PoolMonitor(self, self.cache_dir).start()

    def progress(self):
        """``(done, total)`` of the currently executing batch."""
        return self._pending_done, self._pending_total

    def _finish(self, outcome):
        self._memory[outcome["hash"]] = outcome
        self._pending_done += 1
        self._bump("executed")
        self._bump("telemetry_machines", outcome.get("telemetry_machines", 0))
        self._bump("faults_injected", outcome.get("faults_injected", 0))
        self._bump("profiled", outcome.get("profiled", 0))
        if outcome["status"] == "ok":
            self._store_cached(outcome)
        else:
            self._bump("failed")
            self.failures.append(outcome)
            self._write_error_artifact(outcome)
        self._append_manifest(outcome)

    def _write_error_artifact(self, outcome):
        if not (self.telemetry_dir or self.profile_dir):
            return
        run_dir = self.run_dir(outcome["hash"], outcome["label"])
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "error.json"), "w") as handle:
            json.dump(
                {
                    "label": outcome["label"],
                    "fn": outcome["fn"],
                    "hash": outcome["hash"],
                    "error": outcome["error"]["type"],
                    "message": outcome["error"]["message"],
                    "traceback": outcome["error"]["traceback"],
                },
                handle,
                indent=2,
            )
            handle.write("\n")

    # -- reporting ------------------------------------------------------
    def write_dashboard(self, root=None):
        """Aggregate the sweep's per-run telemetry into the dashboard.

        Writes ``dashboard.json`` + ``dashboard.md`` under ``root``
        (default: the telemetry directory) and returns the summary dict,
        or None when there is nothing to aggregate.
        """
        root = root or self.telemetry_dir
        if not root:
            return None
        from repro.experiments.telemetry_report import write_dashboard

        summary = write_dashboard(root, supervision=self.supervision_summary())
        if summary is not None:
            _log.info(
                "sweep.dashboard",
                extra={"root": root, "runs": summary.get("runs", 0)},
            )
        return summary

    def supervision_summary(self):
        """Host-side supervision rollup for the dashboard and CLI."""
        summary = dict(self.supervision)
        summary["retry_policy"] = {
            "max_attempts": self.retry.max_attempts,
            "base_delay": self.retry.base_delay,
            "factor": self.retry.factor,
            "jitter": self.retry.jitter,
            "jitter_seed": self.retry.jitter_seed,
        }
        summary["run_timeout"] = self.run_timeout
        summary["hang_intervals"] = self.hang_intervals
        return summary

    def _bump(self, key, amount=1):
        if amount:
            self._report[key] = self._report.get(key, 0) + amount

    def consume_report(self):
        """Counters accumulated since the last call (executed/cached/...)."""
        report, self._report = self._report, {}
        return report


# ----------------------------------------------------------------------
# assembly helpers and the shared default pool
# ----------------------------------------------------------------------
def run_study(pool, name, baseline, specs, params=None):
    """Run a study's variant specs and rebuild its ``StudyResult``."""
    study = StudyResult(study=name, baseline=baseline, params=params or {})
    for result in pool.run_results(specs):
        study.add(result)
    return study


_default_pool = None


def default_pool():
    """Process-wide inline pool for direct runner calls (``pool=None``).

    No disk state -- results are memoized in memory only, which is what
    lets Figs. 20 and 21 share one HATS study when called back to back
    (replacing the old module-global memo in ``figures.py``).
    """
    global _default_pool
    if _default_pool is None:
        _default_pool = ExperimentPool(jobs=1, cache_dir=None)
    return _default_pool
