"""Layer spans recorded from outside the program.

:class:`Tracer` replaces each layer's public entry points (class methods
and module functions of ``repro``) with wrappers that record a span per
call: a name, a start, an end and the span that was open when it began.
Spans are kept in memory and written out when the benchmark ends.

A span's *self time* is its duration minus the time its child spans
cover. Self times are tallied online in integer nanoseconds over every
span, however many are kept. The harness residue is the traced wall
time minus the outermost spans' durations, so the layer self times plus
the residue equal the traced wall time by construction.
:meth:`Tracer.check_self_times` is the independent check: it recomputes
the kept spans' self times offline from their parent links and compares
them with the online tally.

Generator entry points (``Stream.push``/``consume``) get one span per
resumption: the body of a simulated program runs between the
scheduler's ``send`` calls, so a span around the generator's creation
would measure nothing.
"""

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

#: Spans kept for the written trace; the online tally covers them all.
MAX_SPANS = 100_000

#: Layer names, as in ``repro.perf.profile.SUBSYSTEM_RULES`` plus the pool.
LAYERS = (
    "sim.scheduler",
    "sim.cache",
    "sim.noc",
    "sim.dram",
    "sim.stats",
    "core.offload",
    "core.stream",
    "core.morph",
    "telemetry",
    "workloads",
    "experiments.pool",
)

CORE_OPS = (
    "Compute",
    "Branch",
    "Load",
    "Store",
    "AtomicRMW",
    "Fence",
    "Sleep",
    "SetPhase",
    "Wait",
    "Prefetch",
)

_INPUT_GENERATORS = (
    "repro.workloads.graphs:uniform_graph",
    "repro.workloads.graphs:community_graph",
    "repro.workloads.distributions:zipfian_indices",
    "repro.workloads.distributions:uniform_indices",
    "repro.workloads.distributions:uniform_keys",
    "repro.workloads.distributions:poisson_arrivals",
    "repro.workloads.distributions:reuse_distance_indices",
    "repro.workloads.serving.kvserve:build_schedule",
    "repro.workloads.serving.kvpaging:access_sequences",
    "repro.workloads.serving.nearstorage:make_table",
    "repro.workloads.serving.tracereplay:synthesize_trace",
    "repro.workloads.common:finish_run",
)

#: Modules whose ``run_*`` functions are the specs' entry points.
_SPEC_MODULES = (
    "repro.workloads.hashtable",
    "repro.workloads.hats",
    "repro.workloads.serving.kvserve",
    "repro.workloads.serving.kvpaging",
    "repro.workloads.serving.nearstorage",
    "repro.workloads.serving.tracereplay",
)


def entry_points():
    """``(layer, "module:qualname")`` for every wrapped entry point."""
    points = [("sim.scheduler", "repro.sim.system:Machine.run")]
    points += [("sim.scheduler", f"repro.sim.ops:{op}.execute") for op in CORE_OPS]
    points += [
        ("sim.cache", "repro.sim.hierarchy:Hierarchy.access"),
        ("sim.cache", "repro.sim.hierarchy:Hierarchy.access_latency"),
        ("sim.cache", "repro.sim.hierarchy:PrivateCachePath.access_line"),
        ("sim.cache", "repro.sim.hierarchy:PrivateCachePath.engine_access_line"),
        ("sim.cache", "repro.sim.hierarchy:SharedCachePath.access_line"),
        ("sim.noc", "repro.sim.noc:MeshNoc.send"),
        ("sim.noc", "repro.sim.noc:MeshNoc.round_trip"),
        ("sim.dram", "repro.sim.dram:MemorySystem.access"),
    ]
    stats_cls = importlib.import_module("repro.sim.stats").Stats
    points += [
        ("sim.stats", f"repro.sim.stats:Stats.{name}")
        for name, value in vars(stats_cls).items()
        if inspect.isfunction(value) and not name.startswith("__")
    ]
    points += [
        ("core.offload", "repro.core.offload:Invoke.execute"),
        ("core.offload", "repro.core.future:WaitFuture.execute"),
        ("core.offload", "repro.core.engine:Engine.submit"),
        ("core.offload", "repro.core.engine:Engine.offer"),
        ("core.stream", "repro.core.stream:Stream.push"),
        ("core.stream", "repro.core.stream:Stream.consume"),
        ("core.stream", "repro.core.stream:Stream.next"),
        ("core.morph", "repro.core.morph:Morph.handle_miss"),
        ("core.morph", "repro.core.morph:Morph.handle_evict"),
    ]
    telemetry_cls = importlib.import_module("repro.sim.telemetry.session").Telemetry
    points += [
        ("telemetry", f"repro.sim.telemetry.session:Telemetry.{name}")
        for name, value in vars(telemetry_cls).items()
        if inspect.isfunction(value) and name.startswith("_on_")
    ]
    points.append(("telemetry", "repro.sim.telemetry.session:Telemetry.finalize"))
    probe_cls = importlib.import_module("repro.sim.telemetry.requests").RequestLatencyProbe
    points += [
        ("telemetry", f"repro.sim.telemetry.requests:RequestLatencyProbe.{name}")
        for name, value in vars(probe_cls).items()
        if inspect.isfunction(value)
    ]
    for module_name in _SPEC_MODULES:
        module = importlib.import_module(module_name)
        points += [
            ("workloads", f"{module_name}:{name}")
            for name, value in vars(module).items()
            if name.startswith("run_")
            and inspect.isfunction(value)
            and value.__module__ == module_name
        ]
    points += [("workloads", path) for path in _INPUT_GENERATORS]
    points += [
        ("experiments.pool", "repro.experiments.pool:ExperimentPool.run"),
        ("experiments.pool", "repro.experiments.pool:spec_hash"),
        ("experiments.pool", "repro.experiments.pool:encode_result"),
        ("experiments.pool", "repro.experiments.pool:decode_result"),
        ("experiments.pool", "repro.experiments.pool:compute_result_checksum"),
        # Private, but the only seams between cache I/O and the rest of
        # ExperimentPool.run: pool.cache_read_ms / cache_write_ms.
        ("experiments.pool", "repro.experiments.pool:ExperimentPool._load_cached"),
        ("experiments.pool", "repro.experiments.pool:ExperimentPool._store_cached"),
        ("experiments.pool", "repro.experiments.pool:ExperimentPool._append_manifest"),
        ("experiments.pool", "repro.experiments.backends:LocalInlineBackend.submit"),
        ("experiments.pool", "repro.experiments.backends:LocalInlineBackend.poll"),
        ("experiments.pool", "repro.experiments.backends:LocalProcessBackend.submit"),
        ("experiments.pool", "repro.experiments.backends:LocalProcessBackend.poll"),
    ]
    return points


def resolve(path):
    """``(owner, attribute, original)`` for a ``"module:qualname"`` path."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attribute = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attribute, vars(owner)[attribute]


class Tracer:
    """Records spans around wrapped entry points; see the module docstring."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        #: Per entry-point id: name, layer, calls, self and total nanoseconds.
        self.names = []
        self.layers = []
        self.calls = []
        self.self_ns = []
        self.total_ns = []
        #: Kept spans: ``[name_id, start_ns, end_ns, parent_index, self_ns]``.
        self.spans = []
        self.dropped = 0
        #: Kept spans still open at the first drop: some children may be
        #: missing, so their self times cannot be recomputed offline.
        self.incomplete = set()
        #: Summed duration of the spans opened with no span open.
        self.top_ns = 0
        #: Counts taken at span boundaries (see :meth:`count`).
        self.counts = Counter()
        #: Per-call self nanoseconds of the entry points named in
        #: :meth:`install`'s ``sample``, keyed by path.
        self.samples = {}
        self.start_ns = None
        self.end_ns = None
        self._stack = []  # open frames: [child_ns, span_index, start_ns]
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- recording -------------------------------------------------------
    def register(self, layer, name):
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        return len(self.names) - 1

    def open(self, nid):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([nid, 0, 0, parent, 0])
        else:
            index = -1
            if not self.dropped:
                self.incomplete = {frame[1] for frame in stack}
            self.dropped += 1
        frame = [0, index, self.clock()]
        stack.append(frame)
        return frame

    def close(self, nid, frame):
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span stack out of order closing {self.names[nid]}")
        duration = end - frame[2]
        own = duration - frame[0]
        self.self_ns[nid] += own
        self.total_ns[nid] += duration
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.top_ns += duration
        if frame[1] >= 0:
            span = self.spans[frame[1]]
            span[1] = frame[2]
            span[2] = end
            span[4] = own
        return own

    def count(self, name, amount):
        self.counts[name] += amount

    def begin(self):
        self.start_ns = self.clock()

    def end(self):
        self.end_ns = self.clock()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open at the end")

    # -- wrapping --------------------------------------------------------
    def wrap(self, nid, fn, after=None, samples=None):
        """A wrapper recording one span per call of ``fn``.

        ``after(args, result)`` runs after the span closes; ``samples``
        is a list that receives each call's self nanoseconds.
        """
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            tracer = self

            def traced_generator(*args, **kwargs):
                calls[nid] += 1
                return tracer._resumptions(nid, fn(*args, **kwargs))

            return traced_generator

        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            calls[nid] += 1
            frame = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                own = close_span(nid, frame)
                if samples is not None:
                    samples.append(own)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _resumptions(self, nid, generator):
        value = None
        while True:
            frame = self.open(nid)
            try:
                op = generator.send(value)
            except StopIteration as stop:
                self.close(nid, frame)
                return stop.value
            except BaseException:
                self.close(nid, frame)
                raise
            self.close(nid, frame)
            value = yield op

    def install(self, points=None, after=None, sample=()):
        """Wrap every entry point.

        ``after`` maps a path to a post-call hook; the paths in
        ``sample`` keep per-call self times in :attr:`samples`. A module
        function is replaced wherever a ``repro`` module holds it
        (``from x import f`` copies the reference).
        """
        after = after or {}
        for layer, path in points if points is not None else entry_points():
            owner, attribute, original = resolve(path)
            nid = self.register(layer, path)
            samples = self.samples.setdefault(path, []) if path in sample else None
            wrapper = self.wrap(nid, original, after.get(path), samples)
            if isinstance(owner, type):
                self._patch(owner, attribute, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)
        return self

    def _patch(self, owner, attribute, original, wrapper):
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original, wrapper))

    def uninstall(self):
        """Restore every original; returns how many wrappers remain anywhere.

        The count covers every ``repro`` module and class, so a module
        imported while tracing that copied a wrapper is caught too.
        """
        for owner, attribute, original, _wrapper in reversed(self._patches):
            setattr(owner, attribute, original)
        wrappers = {id(wrapper) for *_rest, wrapper in self._patches}
        self._patches = []
        return sum(1 for value in _repro_attributes() if id(value) in wrappers)

    # -- results ---------------------------------------------------------
    def wall_ns(self):
        return self.end_ns - self.start_ns

    def layer_table(self):
        """``{layer: (calls, self_ns)}`` over every registered layer."""
        table = {layer: [0, 0] for layer in LAYERS}
        for nid, layer in enumerate(self.layers):
            entry = table[layer]
            entry[0] += self.calls[nid]
            entry[1] += self.self_ns[nid]
        return {layer: tuple(entry) for layer, entry in table.items()}

    def residue_ns(self):
        """Traced wall time inside no span: the harness's own share."""
        return self.wall_ns() - self.top_ns

    def check_self_times(self):
        """``(checked, wrong)``: kept spans whose online self time was
        recomputed offline, and how many of them differ or are negative.

        A kept span is checked when every child of it was kept too, that
        is, unless it was still open when the first span was dropped.
        """
        offline = self_times([(start, end, parent) for _n, start, end, parent, _o in self.spans])
        checked = wrong = 0
        for index, (span, own) in enumerate(zip(self.spans, offline)):
            if index in self.incomplete:
                continue
            checked += 1
            if own != span[4] or own < 0:
                wrong += 1
        return checked, wrong

    def calls_of(self, *paths):
        wanted = set(paths)
        return sum(c for name, c in zip(self.names, self.calls) if name in wanted)

    def total_ns_of(self, *paths):
        """Inclusive time (children too) of the named, non-recursive entry points."""
        wanted = set(paths)
        return sum(t for name, t in zip(self.names, self.total_ns) if name in wanted)

    def write(self, path):
        """Write the kept spans (and the per-entry-point tally) as JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            "clock": "perf_counter_ns",
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "dropped": self.dropped,
            "entry_points": [
                {"name": n, "layer": layer, "calls": c, "self_ns": s}
                for n, layer, c, s in zip(self.names, self.layers, self.calls, self.self_ns)
            ],
            "fields": ["name", "start_ns", "end_ns", "parent", "self_ns"],
            "spans": [[self.names[n], s, e, p, own] for n, s, e, p, own in self.spans],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path


def _repro_attributes():
    """Every attribute value of every loaded ``repro`` module and its classes."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for value in list(vars(module).values()):
            yield value
            if isinstance(value, type):
                yield from list(vars(value).values())


def self_times(spans):
    """Self time per span from ``(start, end, parent_index)`` triples.

    The offline twin of the tracer's online tally: each span's duration
    minus the durations of the spans that name it as parent.
    """
    child = [0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[index] for index, (start, end, _p) in enumerate(spans)]
