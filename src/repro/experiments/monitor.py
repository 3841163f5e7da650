"""Live pool monitoring: heartbeats, the sweep poller, and ``status``.

A long ``--jobs N`` sweep used to be a black box until the manifest was
written. This module opens three windows into a running fleet:

- **Heartbeats** (worker side): a run that has been executing for at
  least one beat interval (default 1 s of wall time) keeps a small JSON
  file ``<cache-dir>/heartbeats/<hash12>.json`` carrying its phase, its
  simulated time, and instruction counts; the file is removed when the
  run ends, so a heartbeat file means a live run. Writes are atomic
  (``tmp`` + ``os.replace``), so a reader never sees a torn file. The
  writer is a daemon thread sampling the worker's live machine (it sees
  every machine built through the machine-observer list,
  :func:`repro.sim.observers.add_machine_observer`, the same hook the
  telemetry, fault and flight-recorder sessions use); it only *reads*
  scheduler time and stats counters, so the simulation stays
  bit-identical.

- **The pool poller** (:class:`PoolMonitor`): while an
  :class:`~repro.experiments.pool.ExperimentPool` executes, a thread
  aggregates heartbeats + completion counts into a single live TTY
  progress line (lithops-style job monitor).

- **``leviathan-repro status <dir>``** (:func:`render_status`): tails
  the heartbeats and the manifest journal of a sweep *from another
  terminal*, reporting per-run progress, ok/failed counts of the
  executed runs, and stale workers (heartbeat older than
  ``STALE_AFTER_INTERVALS`` x its own cadence -- the signature of a
  hung or killed worker).
"""

import json
import os
import sys
import threading
import time

from repro.sim.observers import add_machine_observer, remove_machine_observer
from repro.sim.telemetry.session import TelemetrySession

#: Heartbeat payload layout version.
HEARTBEAT_SCHEMA = 1

#: Subdirectory of the cache dir holding one heartbeat file per run.
HEARTBEAT_DIRNAME = "heartbeats"

#: Default seconds between beats.
DEFAULT_INTERVAL = 1.0

#: Shortest cadence a writer beats at, whatever it is asked for.
MIN_INTERVAL = 0.05

#: A heartbeat older than this many intervals is stale.
STALE_AFTER_INTERVALS = 5.0


def heartbeat_dir(root):
    return os.path.join(root, HEARTBEAT_DIRNAME)


def heartbeat_path(root, run_hash):
    """The heartbeat file of one run under sweep directory ``root``."""
    return os.path.join(heartbeat_dir(root), f"{run_hash[:12]}.json")


def read_heartbeat(root, run_hash):
    """One run's parsed heartbeat, or None (missing/torn/foreign)."""
    try:
        with open(heartbeat_path(root, run_hash)) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if isinstance(payload, dict) and payload.get("kind") == "leviathan-heartbeat":
        return payload
    return None


#: Stack of this process's live writers; the top is the current run's.
_active_writers = []


def current_heartbeat():
    """The executing run's :class:`HeartbeatWriter`, or None.

    Test hook (also used by chaos workloads): lets a running spec
    reach its own writer, e.g. to :meth:`~HeartbeatWriter.suspend`
    beats and simulate a hung worker.
    """
    return _active_writers[-1] if _active_writers else None


# ----------------------------------------------------------------------
# worker side: the heartbeat writer
# ----------------------------------------------------------------------
class HeartbeatWriter:
    """Beat one run's progress into ``<dir>/<hash12>.json``.

    The file exists only while the run is live: the thread writes it
    once per interval, the first time one interval after :meth:`start`,
    and :meth:`stop` removes it. A run that ends within its first
    interval never creates it.

    The writer observes every machine its worker process builds while
    running (the run's simulator, usually exactly one) and samples the
    most recent one's scheduler clock and instruction counters --
    read-only, cross-thread, which CPython's GIL makes safe for the
    plain attribute and dict reads involved.
    """

    def __init__(self, directory, run_hash, label, interval=DEFAULT_INTERVAL):
        self.directory = directory
        self.run_hash = run_hash
        self.label = label
        self.interval = max(MIN_INTERVAL, float(interval))
        self.path = os.path.join(directory, f"{run_hash[:12]}.json")
        self.phase = "setup"
        self.started = time.time()
        self._machines = []
        self._suspended = False
        self._wrote = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{run_hash[:12]}", daemon=True
        )

    # -- lifecycle ------------------------------------------------------
    def start(self):
        # Created now, so an unusable directory fails the run at start
        # instead of looking like a hang.
        os.makedirs(self.directory, exist_ok=True)
        add_machine_observer(self._on_machine)
        _active_writers.append(self)
        self._thread.start()
        return self

    def stop(self):
        """End the thread, then remove the file if it was written."""
        remove_machine_observer(self._on_machine)
        if self in _active_writers:
            _active_writers.remove(self)
        self._stop.set()
        self._thread.join()  # no beat can land after the removal
        if self._wrote:
            try:
                os.unlink(self.path)
            except OSError:
                pass  # a beat must never kill the run it observes
        return self

    def suspend(self):
        """Stop beating without stopping the run (hang simulation).

        Periodic beats are skipped until :meth:`stop`; to the pool's
        hang detector this run now looks exactly like a frozen worker
        (SIGSTOPped, or blocked in a call that holds the GIL, so this
        thread cannot run).
        """
        self._suspended = True
        return self

    def _on_machine(self, machine):
        self._machines.append(machine)

    def _loop(self):
        while not self._stop.wait(self.interval):
            if self._suspended:
                continue
            try:
                self.beat()
            except OSError:
                pass  # a beat must never kill the run it observes

    # -- the beat -------------------------------------------------------
    def sample(self):
        """The live progress fields read off the newest machine."""
        if not self._machines:
            return {"sim_time": None, "instructions": None, "machines": 0}
        machine = self._machines[-1]
        counters = machine.stats.counters
        sampled = {
            "sim_time": machine.scheduler.now,
            "instructions": counters.get("core.instructions", 0)
            + counters.get("engine.instructions", 0),
            "machines": len(self._machines),
        }
        request_p95 = _live_request_p95(machine)
        if request_p95:
            sampled["request_p95"] = request_p95
        return sampled

    def beat(self):
        now = time.time()
        payload = {
            "schema": HEARTBEAT_SCHEMA,
            "kind": "leviathan-heartbeat",
            "hash": self.run_hash,
            "label": self.label,
            "pid": os.getpid(),
            "phase": self.phase,
            "interval": self.interval,
            "started": self.started,
            "updated": now,
            "elapsed": now - self.started,
        }
        payload.update(self.sample())
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp, self.path)
        self._wrote = True
        return payload


def _live_request_p95(machine):
    """Per-request-class p95 off the machine's live telemetry, or None.

    Only available when a telemetry session is installed (the
    ``--telemetry-out`` sweep path): the session's registry holds the
    ``request.latency.<class>`` histograms. Reads race the simulation
    thread by design -- plain dict/attribute reads under the GIL -- so
    any torn iteration is simply skipped until the next beat.
    """
    session = TelemetrySession.active()
    if session is None:
        return None
    try:
        for telemetry in reversed(session.attached):
            if telemetry.machine is not machine:
                continue
            out = {}
            for name in telemetry.metrics.names():
                cls = name.partition("request.latency.")[2]
                if not cls:
                    continue
                snap = telemetry.metrics.value(name)
                if snap and snap.get("count"):
                    out[cls] = snap["p95"]
            return out or None
    except RuntimeError:
        pass  # registry mutated mid-iteration; next beat retries
    return None


# ----------------------------------------------------------------------
# reader side: heartbeats + manifest -> sweep state
# ----------------------------------------------------------------------
def read_heartbeats(root):
    """Every parseable heartbeat under ``root`` (torn files skipped)."""
    directory = heartbeat_dir(root)
    beats = []
    try:
        names = sorted(os.listdir(directory))
    except (FileNotFoundError, NotADirectoryError):
        return beats
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue  # mid-replace or torn: the next poll will see it
        if isinstance(payload, dict) and payload.get("kind") == "leviathan-heartbeat":
            beats.append(payload)
    return beats


def read_manifest(root):
    """Manifest entries under ``root`` (torn final line tolerated)."""
    entries = []
    try:
        with open(os.path.join(root, "manifest.jsonl")) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue  # killed mid-append
    except FileNotFoundError:
        pass
    return entries


def summarize_sweep(root, now=None):
    """The live state of one sweep directory, machine-readable.

    Manifest entries are ground truth for finished runs; heartbeats
    cover the in-flight ones. A run with a heartbeat *and* a manifest
    entry is finished (its worker was killed before it could remove the
    file, or the removal lost the race) -- the manifest wins.
    """
    now = time.time() if now is None else now
    manifest = read_manifest(root)
    finished_hashes = {entry.get("hash") for entry in manifest}
    counts = {"ok": 0, "error": 0}
    retries = 0
    for entry in manifest:
        retries += max(0, int(entry.get("attempts", 1) or 1) - 1)
        counts["ok" if entry.get("status") == "ok" else "error"] += 1
    running, stale, finished_beats = [], [], []
    for beat in read_heartbeats(root):
        if beat.get("hash") in finished_hashes:
            finished_beats.append(beat)
            continue
        age = now - beat.get("updated", 0)
        horizon = STALE_AFTER_INTERVALS * beat.get("interval", DEFAULT_INTERVAL)
        (stale if age > horizon else running).append(dict(beat, age=age))
    failures = [entry for entry in manifest if entry.get("status") not in (None, "ok")]
    return {
        "root": root,
        "exists": os.path.isdir(root),
        "manifest_entries": len(manifest),
        "counts": counts,
        "retries": retries,
        "running": running,
        "stale": stale,
        "finished_heartbeats": len(finished_beats),
        "failures": failures[-5:],
    }


def _fmt_sim_time(value):
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def _beat_line(beat):
    line = (
        f"{beat.get('label', '?')}  phase={beat.get('phase', '?')}"
        f"  t={_fmt_sim_time(beat.get('sim_time'))}"
        f"  up {beat.get('elapsed', 0.0):.1f}s  (pid {beat.get('pid', '?')})"
    )
    request_p95 = beat.get("request_p95")
    if request_p95:
        tails = " ".join(
            f"{cls}<={request_p95[cls]:.0f}" for cls in sorted(request_p95)
        )
        line += f"  p95[{tails}]"
    return line


def render_status(root, now=None):
    """Human-readable sweep status; returns ``(text, ok)``.

    ``ok`` is False only when ``root`` is not a directory -- an empty
    or mid-write sweep still renders (that is the whole point: this is
    safe to run concurrently with the sweep it watches).
    """
    summary = summarize_sweep(root, now=now)
    if not summary["exists"]:
        return f"no sweep directory at {root}", False
    counts = summary["counts"]
    manifest_line = (
        f"  manifest: {summary['manifest_entries']} entr(ies) -- "
        f"{counts['ok']} ok, {counts['error']} failed"
    )
    if summary["retries"]:
        manifest_line += f", {summary['retries']} retried"
    lines = [f"sweep: {root}", manifest_line]
    if summary["running"]:
        lines.append(f"  running ({len(summary['running'])}):")
        for beat in summary["running"]:
            lines.append(f"    {_beat_line(beat)}")
    else:
        lines.append("  running (0)")
    if summary["stale"]:
        lines.append(f"  stale ({len(summary['stale'])}) -- worker hung or killed?")
        for beat in summary["stale"]:
            lines.append(f"    {_beat_line(beat)}  last beat {beat['age']:.0f}s ago")
    for entry in summary["failures"]:
        error = entry.get("error", {})
        lines.append(
            f"  failed: {entry.get('label', '?')}: "
            f"{error.get('type', '?')}: {error.get('message', '')}"
        )
    requests = _dashboard_requests(root)
    if requests:
        tails = ", ".join(
            f"{cls} p95<={hist['p95']:.0f}"
            for cls, hist in sorted(requests.items())
            if hist.get("count")
        )
        if tails:
            lines.append(f"  request-class tails (dashboard): {tails}")
    return "\n".join(lines), True


def _dashboard_requests(root):
    """The ``requests`` block of ``root``'s sweep dashboard, if written.

    A finished ``--telemetry-out`` sweep aggregates per-request-class
    latency into ``dashboard.json``; when status is pointed at (or
    beside) that directory the per-class tails ride along.
    """
    for candidate in (root, os.path.dirname(root.rstrip(os.sep)) or "."):
        try:
            with open(os.path.join(candidate, "dashboard.json")) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if (
            isinstance(payload, dict)
            and payload.get("kind") == "leviathan-dashboard"
        ):
            return payload.get("requests") or None
    return None


# ----------------------------------------------------------------------
# the pool's monitoring poller (TTY progress line)
# ----------------------------------------------------------------------
class PoolMonitor:
    """Aggregate heartbeats into one live progress line while a sweep
    executes. Owned by :class:`~repro.experiments.pool.ExperimentPool`;
    rendering goes to ``stream`` (stderr by default) and is rewritten
    in place with ``\\r``."""

    def __init__(self, pool, root, stream=None, interval=0.5):
        self.pool = pool
        self.root = root
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._stop = threading.Event()
        self._thread = None
        self._width = 0

    def start(self):
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="pool-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2 * self.interval)
            self._thread = None
        self._render(final=True)
        return self

    def _loop(self):
        while not self._stop.wait(self.interval):
            try:
                self._render()
            except (OSError, ValueError):
                pass  # monitoring must never take the sweep down

    def _render(self, final=False):
        done, total = self.pool.progress()
        running = read_heartbeats(self.root)
        detail = ", ".join(
            f"{beat.get('label', '?')} t={_fmt_sim_time(beat.get('sim_time'))}"
            for beat in running[:3]
        )
        if len(running) > 3:
            detail += f", +{len(running) - 3} more"
        line = f"pool: {done}/{total} done"
        if detail:
            line += f" | running: {detail}"
        self._width = max(self._width, len(line))
        self.stream.write("\r" + line.ljust(self._width))
        if final:
            self.stream.write("\n")
        self.stream.flush()
