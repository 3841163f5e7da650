"""Deterministic fault injection (robustness harness, Sec. VI-C).

A :class:`FaultPlan` is a seeded, composable set of fault rules applied
to one or more machines. The plan is *data*: it can be parsed from and
rendered to a compact spec string (the ``--faults`` CLI flag), compared,
and replayed bit-identically -- every probabilistic decision draws from
one ``random.Random(seed)`` stream, so the same plan over the same
workload injects the same faults at the same points.

Rules and their spec clauses::

    crash:T[@TIME]          engine at tile T fails (fail-stop) at TIME
    stall:T@TIME+DUR        engine at tile T NACKs arrivals in the window
    exhaust:T@TIME+DUR      task-context exhaustion window at tile T
    noc-delay:P@CYCLES      each NoC message delayed CYCLES with prob. P
    noc-drop:P[@RETRANS]    message "dropped": retransmit penalty w/ prob. P
    dram-err:LO-HI@P[@PEN]  transient error on DRAM lines [LO, HI]:
                            ECC-retry penalty PEN with probability P
    seed:S                  the plan's RNG seed

Clauses are ``;``-separated; ``FaultPlan.parse(FaultPlan.spec())`` is
the identity. Injection is split between *timing* faults (NoC, DRAM:
extra latency on the victim path; functional values untouched) and
*state* faults (engine crash/stall/exhaustion: the engine stops
accepting and the Sec. VI-C degradation paths take over). Survivable
plans therefore leave application *results* bit-identical to the
fault-free run -- only timing and routing change -- which is exactly
what the chaos harness asserts.

Hook overhead mirrors the event bus: every hot-path hook site guards on
``faults is None`` (one attribute load and branch), so a machine with no
plan attached pays nothing and simulates bit-identically.

:class:`FaultSession` is the process-wide installer (a
:class:`~repro.sim.observers.MachineSession`, like
:class:`~repro.sim.telemetry.session.TelemetrySession`): while
installed, every :class:`~repro.sim.system.Machine` constructed gets a
fresh :class:`FaultController` for the plan.
"""

import json
import os
import random
from dataclasses import dataclass

from repro.sim.events import (
    DegradedToFallback,
    EngineTask,
    EngineTaskDone,
    EngineTaskStart,
    FaultInjected,
    FutureFilled,
    InvokeDispatched,
    InvokeRetried,
    InvokeStalled,
)
from repro.sim.observers import MachineSession
from repro.sim.telemetry.log import get_logger
from repro.sim.telemetry.spans import SpanTracker

_log = get_logger("faults")


class FaultPlanError(ValueError):
    """A fault plan spec could not be parsed or applied."""


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineCrash:
    """Fail-stop the engine at ``tile`` from ``at_time`` on."""

    tile: int
    at_time: float = 0.0
    kind = "engine-crash"

    def spec(self):
        if self.at_time:
            return f"crash:{self.tile}@{_num(self.at_time)}"
        return f"crash:{self.tile}"


@dataclass(frozen=True)
class EngineStall:
    """The engine at ``tile`` NACKs every arrival inside the window."""

    tile: int
    at_time: float
    duration: float
    kind = "engine-stall"

    def spec(self):
        return f"stall:{self.tile}@{_num(self.at_time)}+{_num(self.duration)}"


@dataclass(frozen=True)
class ContextExhaustion:
    """Task-context-buffer exhaustion at ``tile`` for the window."""

    tile: int
    at_time: float
    duration: float
    kind = "ctx-exhaust"

    def spec(self):
        return f"exhaust:{self.tile}@{_num(self.at_time)}+{_num(self.duration)}"


@dataclass(frozen=True)
class NocDelay:
    """Delay each NoC message by ``delay`` cycles with probability ``prob``."""

    prob: float
    delay: float
    kind = "noc-delay"

    def spec(self):
        return f"noc-delay:{_num(self.prob)}@{_num(self.delay)}"


@dataclass(frozen=True)
class NocDrop:
    """"Drop" a message with probability ``prob``.

    The mesh guarantees delivery, so a drop is modeled as the detect-
    and-retransmit penalty on the same message -- functional delivery is
    preserved (a survivable fault), timing degrades.
    """

    prob: float
    retransmit_delay: float = 256.0
    kind = "noc-drop"

    def spec(self):
        if self.retransmit_delay != 256.0:
            return f"noc-drop:{_num(self.prob)}@{_num(self.retransmit_delay)}"
        return f"noc-drop:{_num(self.prob)}"


@dataclass(frozen=True)
class DramError:
    """Transient (correctable) error on DRAM lines ``[lo_line, hi_line]``.

    Hits pay an ECC-detect-and-retry penalty (defaults to one extra DRAM
    access latency); data is corrected, so results stay bit-identical.
    """

    lo_line: int
    hi_line: int
    prob: float
    penalty: float = None
    kind = "dram-err"

    def spec(self):
        base = f"dram-err:{self.lo_line}-{self.hi_line}@{_num(self.prob)}"
        if self.penalty is not None:
            base += f"@{_num(self.penalty)}"
        return base


def _num(value):
    """Render a number without a trailing ``.0`` (specs stay compact)."""
    value = float(value)
    return str(int(value)) if value == int(value) else repr(value)


_ENGINE_RULES = (EngineCrash, EngineStall, ContextExhaustion)
_NOC_RULES = (NocDelay, NocDrop)
_DRAM_RULES = (DramError,)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
class FaultPlan:
    """An immutable, seeded set of fault rules.

    ``attach(machine)`` arms the plan on one machine and returns the
    :class:`FaultController` doing the injecting; one plan can be
    attached to any number of machines (each gets its own controller
    and its own ``random.Random(seed)`` stream).
    """

    def __init__(self, rules=(), seed=0):
        self.rules = tuple(rules)
        self.seed = int(seed)
        for rule in self.rules:
            self._validate(rule)

    @staticmethod
    def _validate(rule):
        if isinstance(rule, _ENGINE_RULES):
            if rule.tile < 0:
                raise FaultPlanError(f"negative tile in {rule.spec()}")
            if not isinstance(rule, EngineCrash) and rule.duration <= 0:
                raise FaultPlanError(f"non-positive window in {rule.spec()}")
        elif isinstance(rule, _NOC_RULES):
            if not 0.0 <= rule.prob <= 1.0:
                raise FaultPlanError(f"probability out of [0, 1] in {rule.spec()}")
        elif isinstance(rule, _DRAM_RULES):
            if not 0.0 <= rule.prob <= 1.0:
                raise FaultPlanError(f"probability out of [0, 1] in {rule.spec()}")
            if rule.lo_line > rule.hi_line or rule.lo_line < 0:
                raise FaultPlanError(f"bad line range in {rule.spec()}")
        else:
            raise FaultPlanError(f"unknown fault rule {rule!r}")

    # -- spec grammar ---------------------------------------------------
    @classmethod
    def parse(cls, spec):
        """Parse a ``;``-separated spec string (see module docstring)."""
        rules = []
        seed = 0
        for clause in str(spec).split(";"):
            clause = clause.strip()
            if not clause:
                continue
            try:
                head, _, body = clause.partition(":")
                head = head.strip()
                body = body.strip()
                if head == "seed":
                    seed = int(body)
                elif head == "crash":
                    tile, _, at_time = body.partition("@")
                    rules.append(EngineCrash(int(tile), float(at_time or 0.0)))
                elif head in ("stall", "exhaust"):
                    tile, _, window = body.partition("@")
                    at_time, _, duration = window.partition("+")
                    rule_cls = EngineStall if head == "stall" else ContextExhaustion
                    rules.append(rule_cls(int(tile), float(at_time), float(duration)))
                elif head == "noc-delay":
                    prob, _, delay = body.partition("@")
                    rules.append(NocDelay(float(prob), float(delay)))
                elif head == "noc-drop":
                    prob, _, retrans = body.partition("@")
                    if retrans:
                        rules.append(NocDrop(float(prob), float(retrans)))
                    else:
                        rules.append(NocDrop(float(prob)))
                elif head == "dram-err":
                    lines, _, rest = body.partition("@")
                    lo, _, hi = lines.partition("-")
                    prob, _, penalty = rest.partition("@")
                    rules.append(
                        DramError(
                            int(lo),
                            int(hi),
                            float(prob),
                            float(penalty) if penalty else None,
                        )
                    )
                else:
                    raise FaultPlanError(f"unknown fault clause {clause!r}")
            except FaultPlanError:
                raise
            except (TypeError, ValueError) as exc:
                raise FaultPlanError(f"bad fault clause {clause!r}: {exc}") from exc
        return cls(rules, seed=seed)

    def spec(self):
        """The plan's spec string; ``parse(spec())`` round-trips."""
        parts = [rule.spec() for rule in self.rules]
        parts.append(f"seed:{self.seed}")
        return "; ".join(parts)

    def attach(self, machine):
        """Arm the plan on ``machine``; returns the controller."""
        return FaultController(self, machine)

    def __eq__(self, other):
        return (
            isinstance(other, FaultPlan)
            and self.rules == other.rules
            and self.seed == other.seed
        )

    def __hash__(self):
        return hash((self.rules, self.seed))

    def __repr__(self):
        return f"FaultPlan({self.spec()!r})"


# ----------------------------------------------------------------------
# the controller: one plan armed on one machine
# ----------------------------------------------------------------------
class FaultController:
    """Injects one :class:`FaultPlan` into one machine.

    Attaching installs the ``faults`` hook on the machine, its NoC, and
    its memory controllers (only where the plan has matching rules, so
    un-faulted components keep their ``None`` guard), spawns *driver*
    contexts that apply engine rules at their scheduled times, and
    subscribes a :class:`~repro.sim.telemetry.spans.SpanTracker` to the
    invoke lifecycle so the watchdog's diagnostic dump can list in-flight
    invokes.
    """

    def __init__(self, plan, machine):
        self.plan = plan
        self.machine = machine
        self.rng = random.Random(plan.seed)
        #: kind -> count of injections performed so far.
        self.injected = {}
        self.spans = SpanTracker(max_spans=10_000)
        self._noc_rules = [r for r in plan.rules if isinstance(r, _NOC_RULES)]
        self._dram_rules = [r for r in plan.rules if isinstance(r, _DRAM_RULES)]
        self._engine_rules = [r for r in plan.rules if isinstance(r, _ENGINE_RULES)]
        for rule in self._engine_rules:
            if rule.tile >= machine.config.n_tiles:
                raise FaultPlanError(
                    f"rule {rule.spec()} targets tile {rule.tile} but the "
                    f"machine has {machine.config.n_tiles} tiles"
                )
        # Cached once per controller: per-injection DEBUG records are
        # emitted only when a handler actually wants them (noc-delay
        # plans inject thousands of times).
        self._log_injections = _log.isEnabledFor(10)  # logging.DEBUG
        self._handlers = (
            (InvokeDispatched, self.spans.invoke_dispatched),
            (InvokeStalled, self.spans.invoke_stalled),
            (EngineTask, self.spans.engine_task),
            (EngineTaskStart, self.spans.engine_start),
            (EngineTaskDone, self.spans.engine_done),
            (FutureFilled, self.spans.future_filled),
            (InvokeRetried, self.spans.invoke_retried),
            (DegradedToFallback, self.spans.degraded),
        )
        self._attached = False
        self.attach()

    # -- wiring ---------------------------------------------------------
    def attach(self):
        if self._attached:
            return self
        machine = self.machine
        machine.faults = self
        if self._noc_rules:
            machine.hierarchy.noc.faults = self
        if self._dram_rules:
            for controller in machine.hierarchy.mem.controllers:
                controller.faults = self
        for event_type, handler in self._handlers:
            machine.events.subscribe(event_type, handler)
        for rule in self._engine_rules:
            machine.spawn(
                self._engine_rule_driver(rule),
                tile=min(rule.tile, machine.config.n_tiles - 1),
                name=f"fault:{rule.kind}@tile{rule.tile}",
                at_time=rule.at_time,
            )
        self._attached = True
        _log.info(
            "faults.armed",
            extra={"spec": self.plan.spec(), "rules": len(self.plan.rules)},
        )
        return self

    def detach(self):
        """Stop injecting (idempotent). Already-applied state faults
        (failed engines, open windows) are not undone."""
        if not self._attached:
            return self
        machine = self.machine
        if machine.faults is self:
            machine.faults = None
        if machine.hierarchy.noc.faults is self:
            machine.hierarchy.noc.faults = None
        for controller in machine.hierarchy.mem.controllers:
            if controller.faults is self:
                controller.faults = None
        for event_type, handler in self._handlers:
            machine.events.unsubscribe(event_type, handler)
        self._attached = False
        return self

    # -- injection ------------------------------------------------------
    def _record(self, kind, where=None, extra_cycles=0.0):
        self.injected[kind] = self.injected.get(kind, 0) + 1
        machine = self.machine
        machine.stats.add("faults.injected")
        if machine.events.active:
            machine.events.emit(
                FaultInjected(kind, where, machine.sim_time(), extra_cycles)
            )
        if self._log_injections:
            _log.debug(
                "faults.injected",
                extra={
                    "kind": kind,
                    "where": where,
                    "sim_time": machine.sim_time(),
                    "extra_cycles": extra_cycles,
                },
            )

    def _engine_rule_driver(self, rule):
        """A zero-duration context applying ``rule`` at its fire time."""
        engines = self.machine.engines
        if engines is None:
            # A baseline machine (no Leviathan runtime) has no engines
            # to fault; the rule is inert.
            self.machine.stats.add("faults.inert_rules")
            return
        engine = engines[rule.tile]
        now = self.machine.now
        if isinstance(rule, EngineCrash):
            self._record(rule.kind, rule.tile)
            engine.fail(at_time=max(now, rule.at_time))
            return
        until = rule.at_time + rule.duration
        self._record(rule.kind, rule.tile)
        if isinstance(rule, EngineStall):
            engine.stall(until)
        else:
            engine.exhaust(until)
        self.machine.spawn(
            self._recovery_driver(engine),
            tile=rule.tile,
            name=f"fault:{rule.kind}-recover@tile{rule.tile}",
            at_time=until,
        )
        return
        yield  # pragma: no cover -- makes this a generator function

    def _recovery_driver(self, engine):
        """Drain the spill queue when a stall/exhaustion window closes."""
        engine.kick(self.machine.now)
        return
        yield  # pragma: no cover

    def on_noc_message(self, src, dst, payload_bytes):
        """Extra cycles to add to one NoC message (timing fault)."""
        extra = 0.0
        for rule in self._noc_rules:
            if self.rng.random() >= rule.prob:
                continue
            added = rule.delay if isinstance(rule, NocDelay) else rule.retransmit_delay
            self.machine.stats.add("faults.noc")
            self._record(rule.kind, dst, added)
            extra += added
        return extra

    def on_dram_access(self, controller, dram_line, is_write):
        """Extra cycles to add to one DRAM-cycling access (ECC retry)."""
        extra = 0.0
        for rule in self._dram_rules:
            if not rule.lo_line <= dram_line <= rule.hi_line:
                continue
            if self.rng.random() >= rule.prob:
                continue
            penalty = rule.penalty
            if penalty is None:
                penalty = self.machine.config.memory.latency
            self.machine.stats.add("faults.dram_errors")
            self._record(rule.kind, controller, penalty)
            extra += penalty
        return extra

    # -- reporting ------------------------------------------------------
    @property
    def total_injected(self):
        return sum(self.injected.values())

    def report(self):
        """A JSON-ready summary of what this controller injected."""
        counters = self.machine.stats.counters
        return {
            "spec": self.plan.spec(),
            "seed": self.plan.seed,
            "injected": dict(sorted(self.injected.items())),
            "total_injected": self.total_injected,
            "engine_failures": counters.get("faults.engine_failures", 0),
            "rerouted_tasks": counters.get("faults.rerouted_tasks", 0),
            "on_core_tasks": counters.get("faults.on_core_tasks", 0),
            "invoke_retries": counters.get("invoke.retries", 0),
            "invoke_spill_bytes": counters.get("invoke.spill_bytes", 0),
            "degraded_streams": counters.get("stream.degraded", 0),
            "open_invokes": len(self.spans.open_spans),
        }

    def __repr__(self):
        return f"FaultController({self.plan.spec()!r}, injected={self.total_injected})"


# ----------------------------------------------------------------------
# the process-wide session (what --faults installs)
# ----------------------------------------------------------------------
class FaultSession(MachineSession):
    """Attach a fault plan to every machine built while installed."""

    def __init__(self, plan):
        super().__init__()
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.plan = plan

    def attach(self, machine):
        return self.plan.attach(machine)

    # -- reporting ------------------------------------------------------
    @property
    def total_injected(self):
        return sum(controller.total_injected for controller in self.attached)

    def report(self):
        return {
            "spec": self.plan.spec(),
            "seed": self.plan.seed,
            "machines": [controller.report() for controller in self.attached],
            "total_injected": self.total_injected,
        }

    def save(self, outdir):
        """Write ``fault_report.json`` into ``outdir``; returns the path."""
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "fault_report.json")
        with open(path, "w") as handle:
            json.dump(self.report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
