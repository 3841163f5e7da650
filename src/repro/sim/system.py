"""The :class:`Machine`: one simulated multicore.

``Machine`` owns the hierarchy, the scheduler, the statistics, the
energy model, the address space, and a value store that gives workloads
*functional* memory semantics (data values keyed by address) on top of
the tag-only timing model.

A bare ``Machine`` is the paper's baseline multicore. The Leviathan
runtime (:class:`repro.core.runtime.Leviathan`) augments a machine with
engines and installs its hierarchy hooks.
"""

from repro.sim.address import AddressSpace
from repro.sim.energy import EnergyModel
from repro.sim.events import LIFECYCLE_EVENTS, EventBus
from repro.sim.hierarchy import Hierarchy
from repro.sim.observers import machine_observers
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats
from repro.sim.thread import InlineContext
from repro.sim.tile import Tile


class Machine:
    """One simulated tiled multicore (Table V)."""

    # Slotted: every operation's execute() loads several attributes off
    # the machine, and slot access skips the instance-dict lookup.
    __slots__ = (
        "config",
        "stats",
        "events",
        "hierarchy",
        "scheduler",
        "_core_cfg",
        "_engine_cfg",
        "address_space",
        "energy_model",
        "mem",
        "tiles",
        "engines",
        "leviathan",
        "_cid",
        "emit_lifecycle",
        "faults",
        "request_classes",
    )

    def __init__(self, config, energy_params=None):
        self.config = config
        self.stats = Stats()
        #: The unified event bus (observability plane): components emit
        #: typed events here, and tools subscribe. Created before the
        #: hierarchy so every component can cache the reference.
        self.events = EventBus()
        self.hierarchy = Hierarchy(self)
        self.scheduler = Scheduler(self)
        # Hot-path dispatch caches: sub-config references resolved once
        # (``compute_latency`` runs once per Compute/Branch op).
        self._core_cfg = config.core
        self._engine_cfg = config.engine
        self.address_space = AddressSpace(config.line_size)
        self.energy_model = EnergyModel(
            params=energy_params, ideal_engine=config.engine.ideal
        )
        #: Functional value store: address -> Python object. Workloads
        #: and near-data actions read/write it directly; the timing model
        #: only sees the addresses.
        self.mem = {}
        self.tiles = [Tile(self, t) for t in range(config.n_tiles)]
        #: Set by the Leviathan runtime when engines are attached.
        self.engines = None
        #: The Leviathan runtime, when one is installed on this machine.
        self.leviathan = None
        #: Correlation-ID source for causal span tracing. IDs are only
        #: drawn while ``emit_lifecycle`` is set, so a machine without a
        #: span consumer pays nothing; they never influence timing,
        #: keeping runs bit-identical with and without observers.
        self._cid = 0
        #: True while some subscriber wants a lifecycle event
        #: (:data:`~repro.sim.events.LIFECYCLE_EVENTS`): the offload,
        #: engine, future and stream sites build those events, and
        #: invokes draw correlation IDs, only then.
        self.emit_lifecycle = False
        self.events.on_change(self._refresh_lifecycle_flag)
        #: The attached :class:`~repro.sim.faults.FaultController`, or
        #: None (the default: no fault injection, zero overhead -- emit
        #: sites guard on ``faults is None`` like ``events.active``).
        self.faults = None
        #: Request-class map for serving workloads, or None. Maps an
        #: invoke action name or stream base name to a request-class
        #: label; telemetry buckets span latencies per class under
        #: ``request.latency.<class>``. Declared via
        #: :func:`repro.sim.telemetry.requests.declare_request_classes`.
        self.request_classes = None
        # Last: hand the fully-built machine to every registered
        # observer (installed sessions, heartbeat writers).
        for observer in machine_observers:
            observer(self)

    def _refresh_lifecycle_flag(self, bus):
        self.emit_lifecycle = any(bus.wants(event) for event in LIFECYCLE_EVENTS)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def spawn(self, program, tile, name=None, is_engine=False, engine=None, at_time=None):
        """Schedule a generator program as a new context."""
        if not 0 <= tile < self.config.n_tiles:
            raise ValueError(f"tile {tile} out of range")
        return self.scheduler.spawn(
            program, tile, name=name, is_engine=is_engine, engine=engine, at_time=at_time
        )

    def run(self):
        """Run to completion; returns the final simulated time (cycles)."""
        return self.scheduler.run()

    def run_inline(self, program, tile, is_engine=True, name="inline-action"):
        """Execute a short action synchronously.

        Returns ``(latency, return_value)``. Used for data-triggered
        constructors/destructors (which execute inside a cache fill or
        eviction) and for DYNAMIC invokes that hit in the invoker's L1.
        Inline programs must not block.
        """
        ctx = InlineContext(tile, is_engine=is_engine, name=name)
        ctx.time = self.now
        latency = 0.0
        result = None
        try:
            op = next(program)
            while True:
                latency += op.execute(self, ctx)
                op = program.send(op.result)
        except StopIteration as stop:
            result = getattr(stop, "value", None)
        return latency, result

    # ------------------------------------------------------------------
    # services used by operations
    # ------------------------------------------------------------------
    @property
    def now(self):
        return self.scheduler.now

    def sim_time(self):
        """The running context's local time (falls back to global now).

        Event emitters use this for timestamps: during an operation the
        context's clock is ahead of the scheduler's global ``now``,
        which only advances when contexts are re-queued.
        """
        current = self.scheduler.current
        return current.time if current is not None else self.scheduler.now

    def next_cid(self):
        """Allocate the next correlation ID (see ``_cid`` above)."""
        self._cid += 1
        return self._cid

    def compute_latency(self, ctx, instructions):
        """Latency of ``instructions`` on the context's compute resource."""
        if instructions <= 0:
            return 0.0
        if ctx.is_engine:
            self.stats.counters["engine.instructions"] += instructions
            engine = self._engine_cfg
            if engine.ideal:
                return 0.0
            return instructions * engine.pe_latency / engine.issue_width
        self.stats.counters["core.instructions"] += instructions
        return instructions / self._core_cfg.ipc

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def stall_snapshot(self, steps=None):
        """A structured (JSON-ready) dump of why the machine is stuck.

        The machine-readable twin of :meth:`describe_stall` -- the
        flight recorder embeds it in ``postmortem.json`` so a crash in a
        worker process hours ago can still be debugged field by field:
        every parked context with its awaited condition, runnable
        contexts, engine and invoke-buffer state, and (when a fault
        controller is attached) the open invoke spans.
        """
        sched = self.scheduler
        parked = sched.parked_contexts
        runnable = {}
        for ctx, time in sched.runnable_snapshot():
            if not ctx.done and ctx not in runnable:
                runnable[ctx] = time
        snapshot = {
            "t": sched.now,
            "steps_without_progress": steps,
            "running": (
                {"name": sched.current.name, "tile": sched.current.tile}
                if sched.current is not None and not sched.current.done
                else None
            ),
            "parked_total": len(parked),
            "parked": [
                {
                    "name": ctx.name,
                    "tile": ctx.tile,
                    "condition": str(ctx.parked_on),
                }
                for ctx in parked[:32]
            ],
            "runnable_total": len(runnable),
            "runnable": [
                {"name": ctx.name, "tile": ctx.tile, "t": time}
                for ctx, time in sorted(
                    runnable.items(), key=lambda item: item[0].ctid
                )[:16]
            ],
            "engines": [],
            "invoke_buffers": {},
            "open_invokes_total": 0,
            "open_invokes": [],
        }
        if self.leviathan is not None:
            snapshot["engines"] = [
                repr(engine)
                for engine in self.leviathan.engines
                if engine.busy_offload or engine.queued_tasks or engine.failed
            ]
            snapshot["invoke_buffers"] = {
                f"tile{buffer.tile}": buffer.in_flight
                for buffer in self.leviathan.invoke_buffers
                if buffer.in_flight
            }
        spans = getattr(self.faults, "spans", None)
        if spans is not None and spans.open_spans:
            open_spans = spans.open_spans
            snapshot["open_invokes_total"] = len(open_spans)
            snapshot["open_invokes"] = [repr(span) for span in open_spans[:16]]
        return snapshot

    def describe_stall(self, steps=None):
        """A human-readable dump of why the machine cannot progress.

        Used by :class:`~repro.sim.scheduler.DeadlockError`; rendered
        from the same :meth:`stall_snapshot` fields that postmortems
        persist, so the exception text and the artifact never disagree.
        """
        snap = self.stall_snapshot(steps=steps)
        header = f"at t={snap['t']:.0f}"
        if steps is not None:
            header += f" after {steps} operations without progress"
        lines = [header]

        lines.append(f"parked contexts ({snap['parked_total']}):")
        for ctx in snap["parked"]:
            lines.append(
                f"  - {ctx['name']} [tile {ctx['tile']}] waiting on {ctx['condition']}"
            )
        if snap["parked_total"] > len(snap["parked"]):
            lines.append(
                f"  ... and {snap['parked_total'] - len(snap['parked'])} more"
            )

        if snap["running"] is not None:
            lines.append(
                f"running: {snap['running']['name']} [tile {snap['running']['tile']}]"
            )
        lines.append(f"runnable contexts ({snap['runnable_total']}):")
        for ctx in snap["runnable"]:
            lines.append(f"  - {ctx['name']} [tile {ctx['tile']}] at t={ctx['t']:.0f}")

        if snap["engines"]:
            lines.append("engines: " + ", ".join(snap["engines"]))
        if snap["invoke_buffers"]:
            lines.append(
                "invoke buffers in flight: "
                + ", ".join(
                    f"{tile}={count}" for tile, count in snap["invoke_buffers"].items()
                )
            )
        if snap["open_invokes"]:
            lines.append(f"in-flight invokes ({snap['open_invokes_total']}):")
            for span in snap["open_invokes"]:
                lines.append(f"  - {span}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def energy_pj(self):
        return self.energy_model.energy_pj(self.stats)

    def seconds(self, cycles=None):
        cycles = self.scheduler.now if cycles is None else cycles
        return cycles / (self.config.core.freq_ghz * 1e9)

    def __repr__(self):
        return (
            f"Machine({self.config.n_tiles} tiles, "
            f"LLC {self.config.llc_total_kb} KB, t={self.scheduler.now:.0f})"
        )
