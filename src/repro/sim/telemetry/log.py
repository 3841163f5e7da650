"""Structured run logs: stdlib ``logging`` rendered as JSONL.

Every logger in the repo hangs off the ``"leviathan"`` namespace
(:func:`get_logger`), so one call to :func:`configure_run_logging`
captures the whole fleet -- pool workers, the CLI, the fault layer,
and the scheduler watchdog -- into a single append-only ``.jsonl``
file that survives worker crashes (each record is one ``write()`` of
one line, so concurrent workers appending to the same file interleave
whole records, never fragments).

Each record is one JSON object::

    {"ts": 1723190400.12, "level": "INFO", "logger": "leviathan.pool",
     "event": "run.start", "run_id": "a3f1...", "hash": "9c2e...",
     "label": "fig18/24B/leviathan", "pid": 4242}

- ``event`` is the log *message* -- a stable dotted name, grep-able
  and machine-parseable (free-text goes in extra fields);
- correlation fields (``run_id``, ``hash``, ``cid``, ...) ride along as
  ``extra={...}`` keyword fields and are merged into the record;
- a process-wide *context* (:func:`set_log_context`) injects fields
  (the sweep's ``run_id``, the worker ``pid``) into every record so
  emit sites never need to thread them through.

Nothing is written until :func:`configure_run_logging` attaches a
handler: the package logger carries a ``NullHandler``, so an
unconfigured simulation pays one disabled-logger check per (rare) log
site and produces zero output. Hot paths never log per event -- logging
is for run/fault/failure *lifecycle* records, the event bus is for
per-event observability.
"""

import json
import logging
import os
import time

ROOT_LOGGER = "leviathan"

#: The stable record-type vocabulary. Every ``event`` field written by
#: the repo comes from this set, so log consumers (dashboards, CI
#: assertions, ad-hoc ``jq`` filters) can match on exact names instead
#: of guessing. New emit sites must register their event here --
#: ``tests/test_runlog.py`` cross-checks the source tree against it.
KNOWN_EVENTS = frozenset(
    {
        # pool lifecycle (one record per run attempt)
        "run.start",
        "run.end",
        "run.error",
        # host-side supervision (PR 8)
        "run.worker_died",  # worker vanished without an outcome
        "run.retry",  # transient failure requeued with backoff
        "run.timeout",  # wall-clock deadline exceeded; worker killed
        "run.hung",  # no heartbeat within the hang horizon; worker killed
        "sweep.interrupted",  # SIGINT/SIGTERM graceful drain
        "cache.quarantined",  # corrupt cache entry moved aside
        # sweep aggregation
        "sweep.dashboard",
        # simulator-side lifecycle
        "faults.armed",
        "faults.injected",
        "flightrec.postmortem",
        "scheduler.watchdog_fired",
        "scheduler.deadlock",
    }
)

#: LogRecord attributes that are bookkeeping, not user fields. Anything
#: else found on a record (i.e. passed via ``extra=``) is exported.
_RESERVED = frozenset(
    (
        "args", "asctime", "created", "exc_info", "exc_text", "filename",
        "funcName", "levelname", "levelno", "lineno", "message", "module",
        "msecs", "msg", "name", "pathname", "process", "processName",
        "relativeCreated", "stack_info", "taskName", "thread", "threadName",
    )
)

#: Process-wide fields merged into every record (run_id etc.).
_context = {}

logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


def get_logger(name=None):
    """The logger for one subsystem: ``get_logger("pool")``."""
    if not name:
        return logging.getLogger(ROOT_LOGGER)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def set_log_context(**fields):
    """Merge ``fields`` into every subsequent record (None deletes)."""
    for key, value in fields.items():
        if value is None:
            _context.pop(key, None)
        else:
            _context[key] = value
    return dict(_context)


def clear_log_context():
    _context.clear()


def _json_safe(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


class JsonlFormatter(logging.Formatter):
    """One JSON object per record; extra fields and context merged in."""

    def format(self, record):
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
            "pid": record.process,
        }
        for key, value in _context.items():
            payload.setdefault(key, _json_safe(value))
        for key, value in record.__dict__.items():
            if key not in _RESERVED and key not in payload:
                payload[key] = _json_safe(value)
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc_type"] = record.exc_info[0].__name__
            payload["exc_message"] = str(record.exc_info[1])
        return json.dumps(payload, sort_keys=True)


class RunLogHandle:
    """The configured handler plus enough state to tear it down."""

    def __init__(self, handler, path=None):
        self.handler = handler
        self.path = path

    def close(self):
        logger = logging.getLogger(ROOT_LOGGER)
        logger.removeHandler(self.handler)
        self.handler.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def configure_run_logging(path=None, stream=None, level=logging.INFO, run_id=None):
    """Attach a JSONL handler to the ``leviathan`` logger tree.

    ``path`` appends to a JSONL file (parent directories are created);
    ``stream`` writes to a file-like object instead (tests); ``run_id``
    is convenience for ``set_log_context(run_id=...)``. Returns a
    :class:`RunLogHandle`; call ``close()`` (or use as a context
    manager) to detach. Calling it again for the same path in the same
    process returns a fresh handle for a second handler -- callers own
    deduplication (the pool worker keeps one per process).
    """
    if path is not None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        handler = logging.FileHandler(path, encoding="utf-8", delay=True)
    else:
        handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonlFormatter())
    handler.setLevel(level)
    logger = logging.getLogger(ROOT_LOGGER)
    if logger.level == logging.NOTSET or logger.level > level:
        logger.setLevel(level)
    logger.addHandler(handler)
    if run_id is not None:
        set_log_context(run_id=run_id)
    return RunLogHandle(handler, path=path)


def ensure_run_logging(path, level=logging.INFO, run_id=None):
    """Like :func:`configure_run_logging`, but idempotent per file.

    Fork-started pool workers inherit the parent's handler (same file
    descriptor); attaching another would double every record. Returns
    None when a handler for ``path`` is already attached in this
    process.
    """
    target = os.path.abspath(path)
    for handler in logging.getLogger(ROOT_LOGGER).handlers:
        if getattr(handler, "baseFilename", None) == target:
            if run_id is not None:
                set_log_context(run_id=run_id)
            return None
    return configure_run_logging(path, level=level, run_id=run_id)


def new_run_id():
    """A short unique id correlating one sweep's records (not seeded:
    log identity is operational, never part of simulated results)."""
    return f"{int(time.time() * 1000):x}-{os.getpid():x}"
