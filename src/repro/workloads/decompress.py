"""Case study: near-cache data transformation (Sec. VIII-A, Fig. 16).

An application averages a Zipfian-indexed array of 16 K lossy-compressed
6 B pixels (base + delta per channel, Fig. 15). The variants match
Fig. 16's bars:

- ``baseline``    -- software decompression on *every* access: the core
  loads the bases/deltas and redoes the arithmetic each time.
- ``offload``     -- the "OL" bar: decompression offloaded to the local
  engine per access. Worse than the baseline: the work is not reduced,
  and every access now pays an invoke/future round trip while losing
  L1 locality.
- ``no_padding``  -- Leviathan's data-triggered actions *without* the
  allocator's padding: 6 B objects straddle 64 B lines, constructors
  cannot initialize partial objects, and the configuration does not
  work at all (the tākō [66] outcome).
- ``leviathan``   -- a Morph decompresses pixels as lines enter the L2;
  the core then reuses decompressed data from its private caches.
- ``ideal``       -- Leviathan with the idealized engine.
"""

import numpy as np

from repro.core.actor import Actor, action
from repro.core.future import WaitFuture
from repro.core.morph import Morph, MorphLayoutError
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.sim.config import SystemConfig
from repro.sim.ops import Compute, Load
from repro.sim.system import Machine
from repro.workloads.common import RunResult, finish_run
from repro.workloads.distributions import zipfian_indices

#: Fig. 16's workload: 16 K pixels, 32 K Zipfian accesses (one core;
#: phantom data at the L2 is tile-private, so the study is per-core).
DEFAULT_PARAMS = dict(
    n_pixels=16384, n_accesses=32768, n_threads=1, skew=0.99, seed=11
)

PIXEL_BYTES = 6  # 3 x uint16 colors
CHANNELS = 3
PIXELS_PER_BASE = 8
#: Decompression arithmetic per pixel (load-combine, mask, shift, add,
#: and pack per channel, plus loop overhead).
DECOMPRESS_INSTRUCTIONS = 20


def decompress_config(n_tiles=16, ideal=False):
    """Table V at full size: the 16 K-pixel working set is small enough
    (compressed ~60 KB, decompressed 128 KB) that -- exactly as in the
    paper -- the decompressed data contends for the L1/L2 while the
    compressed form is comfortably cache-resident."""
    cfg = SystemConfig(n_tiles=n_tiles)
    cfg.engine.ideal = ideal
    return cfg


class _CompressedImage:
    """Compressed pixel data plus the decompression oracle (Fig. 15)."""

    def __init__(self, machine, params):
        p = dict(DEFAULT_PARAMS)
        p.update(params or {})
        self.params = p
        self.machine = machine
        n = p["n_pixels"]
        rng = np.random.default_rng(p["seed"])
        self.bases = rng.integers(0, 1 << 12, size=(CHANNELS, n // PIXELS_PER_BASE + 1))
        self.deltas = rng.integers(0, 256, size=(CHANNELS, n))
        self.n_pixels = n

        space = machine.address_space
        self.base_addrs = [
            space.alloc(self.bases.shape[1] * 2, align=64) for _ in range(CHANNELS)
        ]
        self.delta_addrs = [space.alloc(n, align=64) for _ in range(CHANNELS)]
        self.indices = zipfian_indices(
            n, p["n_accesses"], skew=p["skew"], seed=p["seed"] + 1
        )
        self.n_threads = p["n_threads"]

    def pixel_value(self, idx):
        """The decompressed channel-sum of pixel ``idx`` (the oracle)."""
        total = 0
        for c in range(CHANNELS):
            base = int(self.bases[c][idx >> 3])
            delta = int(self.deltas[c][idx])
            mantissa = delta & 0b1111
            exponent = delta >> 4
            total += base + (mantissa << exponent)
        return total

    def oracle_sum(self):
        return sum(self.pixel_value(int(i)) for i in self.indices)

    def access_slices(self):
        n = len(self.indices)
        bounds = np.linspace(0, n, self.n_threads + 1, dtype=np.int64)
        return [(int(bounds[t]), int(bounds[t + 1])) for t in range(self.n_threads)]

    def compressed_load_ops(self, idx):
        """The loads one decompression performs (bases + deltas)."""
        ops = []
        for c in range(CHANNELS):
            ops.append(Load(self.base_addrs[c] + (idx >> 3) * 2, 2))
            ops.append(Load(self.delta_addrs[c] + idx, 1))
        return ops


class _Totals:
    """Mutable accumulator shared by worker threads."""

    def __init__(self):
        self.value = 0

    def add(self, amount):
        self.value += amount


# ----------------------------------------------------------------------
# baseline: decompress in software on every access
# ----------------------------------------------------------------------
def _baseline_thread(image, lo, hi, totals):
    for k in range(lo, hi):
        idx = int(image.indices[k])
        for op in image.compressed_load_ops(idx):
            yield op
        yield Compute(DECOMPRESS_INSTRUCTIONS)
        totals.add(image.pixel_value(idx))


def run_baseline(params=None, n_tiles=16):
    machine = Machine(decompress_config(n_tiles=n_tiles))
    image = _CompressedImage(machine, params)
    totals = _Totals()
    for t, (lo, hi) in enumerate(image.access_slices()):
        machine.spawn(
            _baseline_thread(image, lo, hi, totals), tile=t % n_tiles, name=f"dc-base{t}"
        )
    machine.run()
    assert totals.value == image.oracle_sum(), "baseline decompression wrong"
    return finish_run(machine, "baseline", output=totals.value)


# ----------------------------------------------------------------------
# OL: task offload of each decompression to the local engine
# ----------------------------------------------------------------------
class DecompressorActor(Actor):
    """Offloadable decompression of one pixel (the OL variant)."""

    SIZE = 8

    def __init__(self, image):
        super().__init__()
        self.image = image

    @action
    def decompress(self, env, idx):
        for op in self.image.compressed_load_ops(idx):
            yield op
        yield Compute(DECOMPRESS_INSTRUCTIONS)
        return self.image.pixel_value(idx)


def _offload_thread(image, actor, lo, hi, totals):
    for k in range(lo, hi):
        idx = int(image.indices[k])
        future = yield Invoke(
            actor, "decompress", (idx,), location=Location.LOCAL, with_future=True
        )
        value = yield WaitFuture(future)
        totals.add(value)


def run_offload(params=None, n_tiles=16):
    machine = Machine(decompress_config(n_tiles=n_tiles))
    runtime = Leviathan(machine)
    image = _CompressedImage(machine, params)
    alloc = runtime.allocator(8, capacity=16)
    totals = _Totals()
    for t, (lo, hi) in enumerate(image.access_slices()):
        actor = DecompressorActor(image)
        actor.addr = alloc.allocate()
        machine.spawn(
            _offload_thread(image, actor, lo, hi, totals),
            tile=t % n_tiles,
            name=f"dc-ol{t}",
        )
    machine.run()
    assert totals.value == image.oracle_sum(), "offload decompression wrong"
    return finish_run(machine, "offload", output=totals.value)


# ----------------------------------------------------------------------
# Leviathan: data-triggered decompression at the L2
# ----------------------------------------------------------------------
class PixelMorph(Morph):
    """Fig. 15's Decompressor: pixels decompress as lines enter the L2."""

    def __init__(self, runtime, image, padding=True):
        self.image = image
        super().__init__(
            runtime,
            level="l2",
            n_actors=image.n_pixels,
            object_size=PIXEL_BYTES,
            name="pixel-decompressor",
            padding=padding,
        )

    def construct(self, view, index):
        for op in self.image.compressed_load_ops(index):
            yield op
        yield Compute(DECOMPRESS_INSTRUCTIONS)
        self.machine.mem[self.get_actor_addr(index)] = self.image.pixel_value(index)

    def destruct(self, view, index, dirty):
        # Decompressed pixels are a read-only view; eviction is free.
        return
        yield  # pragma: no cover


def _leviathan_thread(image, morph, lo, hi, totals):
    mem = image.machine.mem
    for k in range(lo, hi):
        idx = int(image.indices[k])
        addr = morph.get_actor_addr(idx)
        value_box = []
        yield Load(addr, PIXEL_BYTES, apply=lambda a=addr: value_box.append(mem[a]))
        yield Compute(2)
        totals.add(value_box[0])


def run_leviathan(params=None, ideal=False, n_tiles=16):
    machine = Machine(decompress_config(n_tiles=n_tiles, ideal=ideal))
    runtime = Leviathan(machine)
    image = _CompressedImage(machine, params)
    morph = PixelMorph(runtime, image)
    totals = _Totals()
    for t, (lo, hi) in enumerate(image.access_slices()):
        machine.spawn(
            _leviathan_thread(image, morph, lo, hi, totals),
            tile=t % n_tiles,
            name=f"dc-lev{t}",
        )
    machine.run()
    assert totals.value == image.oracle_sum(), "Leviathan decompression wrong"
    return finish_run(machine, "ideal" if ideal else "leviathan", output=totals.value)


def run_no_padding(params=None, n_tiles=16):
    """Leviathan without the allocator's padding: does not work.

    6 B pixels do not divide 64 B lines, so lines contain partial
    objects and constructors cannot run -- the outcome prior work such
    as tākō [66] leaves the programmer to discover.
    """
    machine = Machine(decompress_config(n_tiles=n_tiles))
    runtime = Leviathan(machine)
    image = _CompressedImage(machine, params)
    try:
        PixelMorph(runtime, image, padding=False)
    except MorphLayoutError as error:
        return RunResult(
            name="no_padding",
            cycles=float("inf"),
            energy_pj=float("inf"),
            stats={},
            functional=False,
            notes=str(error),
        )
    raise AssertionError("unpadded 6B morph unexpectedly registered")
