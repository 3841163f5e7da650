"""The flight recorder: a bounded ring of recent events + postmortems.

A :class:`FlightRecorder` subscribes one handler to every event type in
the :mod:`repro.sim.events` vocabulary and keeps the **last N events**
in a ring buffer (a ``deque(maxlen=N)``), so the cost of being attached
is one append per event and memory stays bounded no matter how long the
run is. Detached, nothing subscribes, the bus guard stays cold, and the
simulation is bit-identical -- the same contract every telemetry
subscriber honors.

Its purpose is the *postmortem*: when a run dies -- a
:class:`~repro.sim.scheduler.DeadlockError`, an unsurvivable fault
plan, a worker crash -- :meth:`FlightRecorder.postmortem` drains the
ring into a machine-readable dict combining

- the last N events (type + fields, JSON-safe),
- the structured stall state
  (:meth:`~repro.sim.system.Machine.stall_snapshot`, preferring the
  snapshot captured at raise time on the :class:`DeadlockError`),
- a stats-counter snapshot, and
- the fault controller's report when a plan was armed,

which :meth:`save_postmortem` writes as ``postmortem.json``. A
:class:`FlightRecorderSession` (a
:class:`~repro.sim.observers.MachineSession`) attaches a recorder to
every machine built while it is installed; the experiment pool installs
one in every worker when ``--flight-recorder`` is set, so a crash that
happened in a subprocess hours into a sweep still leaves structured
evidence behind. Either way, writing a postmortem logs one
``flightrec.postmortem`` record.

It is also the debugging trace. :meth:`FlightRecorder.watch_range`
narrows the ring to the events that touch watched address ranges (an
``addr``, or a ``line`` times the line size), and
:meth:`FlightRecorder.render` prints what the ring kept, one labelled
line per event::

    recorder = FlightRecorder(machine, capacity=1000)
    recorder.watch_range(region.base, region.end, "deltas")
    ... run ...
    print(recorder.render(limit=50))
    recorder.detach()
"""

import dataclasses
import json
import os

from repro.sim import events as _events
from repro.sim.observers import MachineSession
from repro.sim.telemetry.log import get_logger

_log = get_logger("flightrec")

#: Postmortem payload layout version.
POSTMORTEM_SCHEMA = 1

#: Default ring capacity (events kept per machine).
DEFAULT_CAPACITY = 256


def event_vocabulary():
    """Every event dataclass the bus can carry, sorted by name."""
    types = [
        obj
        for obj in vars(_events).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    ]
    return sorted(types, key=lambda t: t.__name__)


def _header(reason, error):
    """The fields every postmortem payload starts with."""
    if not reason:
        reason = (
            getattr(error, "kind", None) or type(error).__name__
            if error is not None
            else "requested"
        )
    return {
        "schema": POSTMORTEM_SCHEMA,
        "kind": "leviathan-postmortem",
        "reason": reason,
        "error": (
            {"type": type(error).__name__, "message": str(error)}
            if error is not None
            else None
        ),
    }


def _write_postmortem(outdir, payload, events):
    """Write ``payload`` as ``outdir/postmortem.json`` and log the write;
    ``events`` is how many ring events it carries. Returns the path."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "postmortem.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _log.info(
        "flightrec.postmortem",
        extra={"path": path, "reason": payload["reason"], "events": events},
    )
    return path


#: Field values kept as they are; :meth:`FlightRecorder.render` prints
#: only these (an access's ``result`` object is left out).
_SCALARS = (type(None), bool, int, float, str)


def _json_safe(value):
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


class FlightRecorder:
    """Record the last ``capacity`` events of one machine."""

    def __init__(self, machine, capacity=DEFAULT_CAPACITY, label=None):
        from collections import deque

        self.machine = machine
        self.label = label
        self.capacity = int(capacity)
        self.ring = deque(maxlen=self.capacity)
        #: Events that entered the ring; those beyond ``capacity`` have
        #: overwritten older ones.
        self.events_seen = 0
        self._ranges = []  # (lo, hi, label)
        self._types = tuple(event_vocabulary())
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------
    # bus wiring
    # ------------------------------------------------------------------
    def attach(self):
        if not self._attached:
            for event_type in self._types:
                self.machine.events.subscribe(event_type, self._record)
            self._attached = True
        return self

    def detach(self):
        """Stop recording (idempotent; the ring stays readable)."""
        if self._attached:
            for event_type in self._types:
                self.machine.events.unsubscribe(event_type, self._record)
            self._attached = False
        return self

    def watch_range(self, lo, hi, label):
        """Keep only events inside a watched ``[lo, hi)`` range."""
        self._ranges.append((lo, hi, label))
        return self

    def _label_of(self, event):
        """The watched range's label for ``event``, or None."""
        addr = getattr(event, "addr", None)
        if addr is None:
            line = getattr(event, "line", None)
            if line is None:
                return None
            addr = line * self.machine.config.line_size
        for lo, hi, label in self._ranges:
            if lo <= addr < hi:
                return label
        return None

    def _record(self, event):
        if self._ranges and self._label_of(event) is None:
            return
        self.events_seen += 1
        self.ring.append(event)

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def recent_events(self):
        """The ring as JSON-safe dicts, oldest first."""
        out = []
        for event in self.ring:
            entry = {"type": type(event).__name__}
            for field in dataclasses.fields(event):
                entry[field.name] = _json_safe(getattr(event, field.name))
            out.append(entry)
        return out

    def render(self, limit=None):
        """The ring as text, oldest first: one line per event (the
        newest ``limit`` when given), then how many it overwrote."""
        events = list(self.ring)
        lines = []
        if limit is not None and len(events) > limit:
            lines.append(f"... ({len(events) - limit} older events in the ring)")
            events = events[len(events) - limit :]
        for event in events:
            label = self._label_of(event)
            name = type(event).__name__
            parts = [name if label is None else f"{label}: {name}"]
            for field in dataclasses.fields(event):
                value = getattr(event, field.name)
                if not isinstance(value, _SCALARS):
                    continue
                if field.name in ("addr", "line") and type(value) is int:
                    value = hex(value)
                parts.append(f"{field.name}={value}")
            lines.append(" ".join(parts))
        overwritten = self.events_seen - len(self.ring)
        if overwritten:
            lines.append(
                f"... ({overwritten} events overwritten past capacity={self.capacity})"
            )
        return "\n".join(lines)

    def postmortem(self, reason=None, error=None):
        """The machine-readable crash report for this machine.

        ``reason`` overrides the classification derived from ``error``
        (a :class:`~repro.sim.scheduler.DeadlockError` carries its own
        ``kind``/``snapshot``; anything else is reported by type).
        """
        snapshot = getattr(error, "snapshot", None)
        if snapshot is None:
            snapshot = self.machine.stall_snapshot()
        faults = self.machine.faults
        payload = _header(reason, error)
        payload.update(
            label=self.label,
            sim_time=self.machine.scheduler.now,
            ring_capacity=self.capacity,
            events_seen=self.events_seen,
            events=self.recent_events(),
            stall=snapshot,
            stats=dict(sorted(self.machine.stats.counters.items())),
            fault_report=faults.report() if faults is not None else None,
        )
        return payload

    def save_postmortem(self, outdir, reason=None, error=None):
        """Write ``postmortem.json`` into ``outdir``; returns the path."""
        payload = self.postmortem(reason=reason, error=error)
        return _write_postmortem(outdir, payload, len(payload["events"]))

    def __repr__(self):
        return (
            f"FlightRecorder({len(self.ring)}/{self.capacity} events, "
            f"{self.events_seen} seen)"
        )


# ----------------------------------------------------------------------
# the process-wide session (what --flight-recorder installs)
# ----------------------------------------------------------------------
class FlightRecorderSession(MachineSession):
    """Attach a flight recorder to every machine built while installed."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        super().__init__()
        self.capacity = int(capacity) if capacity else DEFAULT_CAPACITY

    def attach(self, machine):
        return FlightRecorder(
            machine,
            capacity=self.capacity,
            label=f"machine-{len(self.attached):02d}",
        )

    # -- artifacts ------------------------------------------------------
    def postmortem(self, reason=None, error=None):
        """One payload covering every recorded machine."""
        payload = _header(reason, error)
        payload["machines"] = [
            recorder.postmortem(reason=reason, error=error)
            for recorder in self.attached
        ]
        return payload

    def save_postmortem(self, outdir, reason=None, error=None):
        """Write a combined ``postmortem.json``; returns the path (or
        None when no machine was recorded -- nothing to report)."""
        if not self.attached:
            return None
        payload = self.postmortem(reason=reason, error=error)
        events = sum(len(machine["events"]) for machine in payload["machines"])
        return _write_postmortem(outdir, payload, events)
