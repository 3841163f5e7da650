"""Mesh on-chip network.

Tiles are laid out on a 2D mesh with XY routing. The model is
queue-free: a message's latency is its hop count times the per-hop
router/link delay, and its cost is accounted as *flit-hops* (flits
crossing one link), which is what the paper's "NoC traffic" reductions
(e.g. 40% vs. tākō in Sec. IV-D) measure.
"""

from repro.sim.events import EventBus, FlitHop


class MeshNoc:
    """The on-chip network connecting tiles (cores, LLC banks, MCs)."""

    def __init__(self, config, stats, bus=None):
        self.config = config.noc
        self.n_tiles = config.n_tiles
        self.width = config.mesh_width
        self.height = (self.n_tiles + self.width - 1) // self.width
        self.stats = stats
        self.bus = bus if bus is not None else EventBus()
        #: Fault hook (:mod:`repro.sim.faults`): when a controller with
        #: NoC rules attaches it sets itself here; ``None`` (default)
        #: keeps the send path free of any fault check beyond this load.
        self.faults = None
        # The mesh is static, so every quantity ``send`` derives per
        # message is precomputed: the src x dst hop-count table, the
        # head-flit latency per hop count, and a payload-size ->
        # (flits, serialization) memo (payload sizes are a handful of
        # constants: CTRL_BYTES, DATA_BYTES, stream entries).
        width = self.width
        self._hops = [
            [
                abs(s % width - d % width) + abs(s // width - d // width)
                for d in range(self.n_tiles)
            ]
            for s in range(self.n_tiles)
        ]
        max_hops = (width - 1) + (self.height - 1)
        self._hop_latency = [self.config.hop_latency(h) for h in range(max_hops + 1)]
        self._flits = {}
        #: FlitHop emit flag, kept coherent with the bus registry.
        self._emit_flit_hop = False
        self.bus.on_change(self._refresh_emit_flags)

    def _refresh_emit_flags(self, bus):
        self._emit_flit_hop = bus.wants(FlitHop)

    def coords(self, tile):
        """(x, y) position of ``tile`` on the mesh."""
        if not 0 <= tile < self.n_tiles:
            raise ValueError(f"tile {tile} out of range [0, {self.n_tiles})")
        return tile % self.width, tile // self.width

    def hops(self, src, dst):
        """XY-routed hop count between two tiles."""
        if not 0 <= src < self.n_tiles:
            raise ValueError(f"tile {src} out of range [0, {self.n_tiles})")
        if not 0 <= dst < self.n_tiles:
            raise ValueError(f"tile {dst} out of range [0, {self.n_tiles})")
        return self._hops[src][dst]

    def send(self, src, dst, payload_bytes):
        """Send a message; returns its latency and accounts traffic.

        A 0-hop (same-tile) message still pays one router traversal but
        generates no link traffic.
        """
        hops = self._hops[src][dst]
        cached = self._flits.get(payload_bytes)
        if cached is None:
            flits = self.config.flits(payload_bytes)
            cached = (flits, flits - 1)
            self._flits[payload_bytes] = cached
        flits, serialization = cached
        counters = self.stats.counters
        counters["noc.messages"] += 1
        counters["noc.flits"] += flits
        counters["noc.flit_hops"] += flits * hops
        if self._emit_flit_hop:
            self.bus.emit(FlitHop(src, dst, payload_bytes, flits, hops))
        if hops:
            latency = self._hop_latency[hops] + serialization
        else:
            latency = self._hop_latency[0]
        if self.faults is not None:
            latency += self.faults.on_noc_message(src, dst, payload_bytes)
        return latency

    def round_trip(self, src, dst, request_bytes, response_bytes):
        """Request/response pair; returns combined latency."""
        return self.send(src, dst, request_bytes) + self.send(
            dst, src, response_bytes
        )
