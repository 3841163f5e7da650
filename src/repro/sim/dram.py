"""Memory controllers and DRAM.

DRAM is modeled as a fixed access latency plus per-access accounting
(the evaluation's "DRAM accesses" and DRAM energy are event counts).
Each controller carries the small FIFO cache from Sec. VI-A3: because
Leviathan packs objects densely in DRAM, consecutive *cache* lines often
map to the same *DRAM* line, and the FIFO cache absorbs the repeats
("can reduce DRAM accesses by up to ~3x").
"""

from collections import OrderedDict

from repro.sim.events import DramAccess, EventBus


class FifoCache:
    """A small FIFO cache of DRAM lines at one memory controller."""

    def __init__(self, n_lines):
        self.n_lines = n_lines
        self._fifo = OrderedDict()

    def probe(self, dram_line):
        """True if ``dram_line`` is resident (FIFO order is not updated)."""
        return dram_line in self._fifo

    def insert(self, dram_line):
        if dram_line in self._fifo:
            return
        if self.n_lines <= 0:
            return
        while len(self._fifo) >= self.n_lines:
            self._fifo.popitem(last=False)
        self._fifo[dram_line] = True

    def invalidate(self, dram_line):
        self._fifo.pop(dram_line, None)

    def __len__(self):
        return len(self._fifo)


class MemoryController:
    """One memory controller: FIFO cache in front of bandwidth-limited DRAM.

    Bandwidth is modeled as controller occupancy: each DRAM-line
    transfer holds the controller for ``service_cycles`` and accesses
    queue behind each other, so scatter-heavy workloads saturate and
    become bandwidth-bound (the regime PHI's write-combining attacks).
    """

    #: Latency of a hit in the FIFO cache (SRAM probe, far below DRAM).
    FIFO_HIT_LATENCY = 6

    def __init__(self, index, config, stats, line_bytes=64, bus=None):
        self.index = index
        self.config = config.memory
        self.stats = stats
        self.bus = bus if bus is not None else EventBus()
        self.fifo = FifoCache(self.config.fifo_lines)
        self.line_bytes = line_bytes
        self._busy_until = 0.0
        # Static config resolved once per controller, not per access.
        self._service = self.config.service_cycles(line_bytes)
        self._latency = self.config.latency
        #: Fault hook (:mod:`repro.sim.faults`): set by a controller with
        #: DRAM-error rules; ``None`` (default) adds no per-access work.
        self.faults = None
        #: DramAccess emit flag, kept coherent with the bus registry.
        self._emit_dram_access = False
        self.bus.on_change(self._refresh_emit_flags)

    def _refresh_emit_flags(self, bus):
        self._emit_dram_access = bus.wants(DramAccess)

    def _queue_for_service(self, now):
        """Occupy the controller; returns the queueing + service delay."""
        start = now if now > self._busy_until else self._busy_until
        service = self._service
        self._busy_until = start + service
        queueing = start - now
        self.stats.counters["dram.queue_cycles"] += queueing
        return queueing + service

    def access(self, dram_line, is_write=False, now=0.0):
        """Access one DRAM line through the FIFO cache; returns latency."""
        counters = self.stats.counters
        counters["mc_cache.accesses"] += 1
        if self.fifo.probe(dram_line):
            counters["mc_cache.hits"] += 1
            if is_write:
                # Write hits still drain to DRAM; the FIFO is a read
                # combiner for compacted objects, not a write-back cache.
                counters["dram.accesses"] += 1
                counters["dram.writes"] += 1
                if self._emit_dram_access:
                    self.bus.emit(DramAccess(self.index, dram_line, True, True, True))
                latency = self._queue_for_service(now) + self._latency
                if self.faults is not None:
                    latency += self.faults.on_dram_access(self.index, dram_line, True)
                return latency
            if self._emit_dram_access:
                self.bus.emit(DramAccess(self.index, dram_line, False, True, False))
            return self.FIFO_HIT_LATENCY
        counters["dram.accesses"] += 1
        counters["dram.writes" if is_write else "dram.reads"] += 1
        if self._emit_dram_access:
            self.bus.emit(DramAccess(self.index, dram_line, is_write, False, True))
        if not is_write:
            self.fifo.insert(dram_line)
        latency = self._queue_for_service(now) + self._latency
        if self.faults is not None:
            latency += self.faults.on_dram_access(self.index, dram_line, is_write)
        return latency


class MemorySystem:
    """All memory controllers; lines are interleaved across controllers."""

    def __init__(self, config, stats, noc, bus=None):
        self.config = config
        self.stats = stats
        self.noc = noc
        bus = bus if bus is not None else EventBus()
        self.bus = bus
        self.controllers = [
            MemoryController(i, config, stats, line_bytes=config.line_size, bus=bus)
            for i in range(config.memory.controllers)
        ]
        # Controllers sit at evenly spaced tiles (edge attachment).
        step = config.n_tiles // config.memory.controllers
        self.controller_tiles = [i * step for i in range(config.memory.controllers)]

    def controller_of(self, dram_line):
        return self.controllers[dram_line % len(self.controllers)]

    def controller_tile(self, dram_line):
        return self.controller_tiles[dram_line % len(self.controllers)]

    def access(self, from_tile, dram_lines, is_write, payload_bytes, now=0.0):
        """Access a set of DRAM lines on behalf of tile ``from_tile``.

        Returns the latency of the slowest line (lines proceed in
        parallel at distinct controllers, queueing within each).
        NoC transfer to/from the controller is included.
        """
        worst = 0
        for dram_line in dram_lines:
            mc = self.controller_of(dram_line)
            mc_tile = self.controller_tile(dram_line)
            if is_write:
                transfer = self.noc.send(from_tile, mc_tile, payload_bytes)
            else:
                transfer = self.noc.round_trip(from_tile, mc_tile, 8, payload_bytes)
            worst = max(worst, transfer + mc.access(dram_line, is_write, now=now))
        return worst
