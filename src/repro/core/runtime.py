"""The :class:`Leviathan` runtime facade (Sec. III, VI).

Attaching a ``Leviathan`` to a :class:`~repro.sim.system.Machine`:

- adds one near-data engine per tile,
- creates the per-core invoke buffers,
- and installs the hierarchy hooks that implement the LLC object
  mapping, DRAM compaction, and data-triggered actions.

A machine without a runtime is the paper's baseline multicore; all of
Leviathan's hardware additions are "minimally disruptive" (Sec. VI-D)
and a runtime with no registered morphs/pools behaves identically to
the baseline.
"""

from repro.core.allocator import Allocator
from repro.core.engine import NACK_BYTES, Engine
from repro.core.mapping import MappingRegistry
from repro.core.offload import InvokeBuffer
from repro.sim.events import DegradedToFallback, EngineTaskDone, EngineTaskStart
from repro.sim.hierarchy import HierarchyHooks


class LeviathanHooks(HierarchyHooks):
    """Hierarchy hooks backed by the runtime's registries."""

    def __init__(self, runtime):
        self.runtime = runtime
        # The mapping registry answers both address hooks itself; binding
        # its methods here saves a forwarding call on every LLC access.
        self.bank_shift = runtime.mapping.bank_shift
        self.translate = runtime.mapping.translate
        # The runtime's own list, kept by register/unregister_morph.
        self.morphs = runtime._morphs

    def on_miss(self, level, tile, line):
        morph = self.runtime.find_morph(line, level)
        if morph is None:
            return None
        return morph.handle_miss(tile, line)

    def on_evict(self, level, tile, line, dirty):
        morph = self.runtime.find_morph(line, level)
        if morph is None:
            return False
        return morph.handle_evict(tile, line, dirty)

    def morph_level(self, line):
        for base_line, bound_line, morph_level, _ in self.morphs:
            if base_line <= line < bound_line:
                return morph_level
        return None

    def allow_prefetch(self, level, tile, line):
        morph = self.runtime.find_morph(line, level)
        if morph is None:
            return True
        return morph.handle_prefetch_probe(tile, line)


class Leviathan:
    """The runtime: allocators, morphs, engines, and invoke machinery."""

    def __init__(self, machine):
        if machine.leviathan is not None:
            raise RuntimeError("machine already has a Leviathan runtime")
        self.machine = machine
        machine.leviathan = self
        cfg = machine.config
        self.mapping = MappingRegistry(cfg.line_size)
        self.engines = [Engine(self, t) for t in range(cfg.n_tiles)]
        machine.engines = self.engines
        self.invoke_buffers = [
            InvokeBuffer(machine, t, cfg.core.invoke_buffer_entries)
            for t in range(cfg.n_tiles)
        ]
        self.migration_ticks = 0
        #: (base_line, bound_line, level, morph) registration records.
        self._morphs = []
        self.hooks = LeviathanHooks(self)
        machine.hierarchy.hooks = self.hooks

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocator(
        self,
        object_size,
        capacity=4096,
        padding=True,
        compaction=True,
        llc_mapping=True,
        actor_cls=None,
    ):
        """Create an ``Allocator<T>`` for objects of ``object_size`` bytes.

        ``padding=False`` / ``compaction=False`` / ``llc_mapping=False``
        reproduce the prior-work layouts used by the paper's ablations.
        """
        return Allocator(
            self,
            object_size,
            capacity=capacity,
            padding=padding,
            compaction=compaction,
            llc_mapping=llc_mapping,
            actor_cls=actor_cls,
        )

    def allocator_for(self, actor_cls, capacity=4096, **kwargs):
        """An allocator producing instances of an Actor subclass."""
        return self.allocator(
            actor_cls.SIZE, capacity=capacity, actor_cls=actor_cls, **kwargs
        )

    def allocator_auto(self, object_size, capacity=4096, **kwargs):
        """An allocator that transparently falls back beyond the
        hardware maximum (Sec. VI-C).

        Objects up to ``max_object_lines`` cache lines get the full
        padded/compacted/bank-mapped treatment; larger objects resort to
        plain malloc (line-aligned, padded in DRAM, spread across
        banks) -- functionally correct, without the near-data benefit,
        and with no change to the programming interface.
        """
        from repro.core.fallback import MallocAllocator, exceeds_hardware_limit

        if exceeds_hardware_limit(object_size, self.machine.config):
            self.machine.stats.add("allocator.fallbacks")
            return MallocAllocator(self, object_size)
        return self.allocator(object_size, capacity=capacity, **kwargs)

    # ------------------------------------------------------------------
    # morph registry
    # ------------------------------------------------------------------
    def register_morph(self, morph):
        line_size = self.machine.config.line_size
        base_line = morph.base // line_size
        bound_line = (morph.bound + line_size - 1) // line_size
        for existing_base, existing_bound, _, existing in self._morphs:
            if base_line < existing_bound and existing_base < bound_line:
                raise ValueError(
                    f"morph {morph.name} overlaps registered morph {existing.name}"
                )
        self._morphs.append((base_line, bound_line, morph.level, morph))
        morph.registered = True
        self.machine.stats.add("morph.registrations")

    def unregister_morph(self, morph):
        for i, (_, _, _, existing) in enumerate(self._morphs):
            if existing is morph:
                del self._morphs[i]
                morph.registered = False
                return
        raise KeyError(f"morph {morph.name} is not registered")

    def find_morph(self, line, level):
        for base_line, bound_line, morph_level, morph in self._morphs:
            if morph_level == level and base_line <= line < bound_line:
                return morph
        return None

    @property
    def morphs(self):
        return [record[3] for record in self._morphs]

    # ------------------------------------------------------------------
    # resilience (Sec. VI-C degradation, driven by repro.sim.faults)
    # ------------------------------------------------------------------
    def healthy_engine_near(self, tile):
        """The healthy engine closest to ``tile`` (XY hops, tile id ties).

        Returns None when every engine is failed. Deterministic: the
        same fault state always yields the same reroute target.
        """
        noc = self.machine.hierarchy.noc
        best = None
        best_key = None
        for engine in self.engines:
            if engine.failed:
                continue
            key = (noc.hops(tile, engine.tile), engine.tile)
            if best is None or key < best_key:
                best, best_key = engine, key
        return best

    def reroute_task(self, failed_engine, task, at_time):
        """Move a not-yet-started task off a failed engine.

        Spill-queued tasks bounce to the nearest healthy engine (paying
        the NACK-back plus re-send NoC traffic); with no healthy engine
        left they run on the failed tile's core instead.
        """
        machine = self.machine
        machine.stats.add("faults.rerouted_tasks")
        target = self.healthy_engine_near(failed_engine.tile)
        if target is None:
            if machine.events.active:
                machine.events.emit(
                    DegradedToFallback(
                        "on-core", failed_engine.tile, failed_engine.tile,
                        task.name, task.cid, at_time,
                    )
                )
            self.run_task_on_core(task, failed_engine.tile, at_time=at_time)
            return
        if machine.events.active:
            machine.events.emit(
                DegradedToFallback(
                    "reroute", failed_engine.tile, target.tile,
                    task.name, task.cid, at_time,
                )
            )
        machine.hierarchy.noc.send(failed_engine.tile, target.tile, NACK_BYTES)
        if not target.offer(task, at_time):
            target._queue.append(task)

    def run_task_on_core(self, task, tile, at_time=None):
        """Execute a pending engine task on ``tile``'s core (Sec. VI-C).

        The last-resort degradation: the task's program runs as an
        ordinary core thread, with completion callbacks (buffer release,
        future fill) preserved so invokes stay functionally identical.
        """
        machine = self.machine
        machine.stats.add("faults.on_core_tasks")
        at_time = machine.now if at_time is None else at_time
        if task.on_accept is not None:
            task.on_accept(at_time)
        name = f"{task.name}@core-fallback"

        def wrapper():
            if machine.emit_lifecycle:
                machine.events.emit(
                    EngineTaskStart(tile, name, task.cid, machine.sim_time())
                )
            result = yield from task.program
            if machine.emit_lifecycle:
                machine.events.emit(
                    EngineTaskDone(tile, name, task.cid, machine.sim_time())
                )
            if task.on_complete is not None:
                task.on_complete(result)
            return result

        return machine.spawn(wrapper(), tile=tile, name=name, at_time=at_time)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def spawn(self, program, tile, name=None):
        """Spawn a regular (core) thread on ``tile``."""
        return self.machine.spawn(program, tile, name=name)

    def __repr__(self):
        return (
            f"Leviathan({len(self.engines)} engines, "
            f"{len(self._morphs)} morphs, {len(self.mapping)} pools)"
        )
