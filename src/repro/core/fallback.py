"""Very-large-object fallbacks (Sec. VI-C).

Leviathan's hardware paths support objects up to a microarchitectural
maximum (four cache lines in the evaluation). Beyond that, the paper
specifies functionally-correct fallbacks that need *no* change to the
programming interface:

- **Task offload**: the allocator resorts to plain ``malloc`` -- objects
  spread across LLC banks and are padded in DRAM (no compaction entry).
- **Data-triggered actions**: constructors/destructors run *on the
  core* at page granularity (page-in constructs every object in the
  page; page-out destructs them).
- **Streams**: producer and consumer become conventional threads with a
  message-passing queue (no engine, no phantom addresses).

These keep programs working unmodified while losing the near-data
benefit, which is the paper's intent.
"""

from repro.core.allocator import padded_size_of
from repro.sim.ops import Compute, Condition, Load, Store, Wait


def exceeds_hardware_limit(object_size, config):
    """True when ``object_size`` is beyond the engine-supported maximum."""
    try:
        padded_size_of(
            object_size, config.line_size, config.leviathan.max_object_lines
        )
    except ValueError:
        return True
    return False


class MallocAllocator:
    """The task-offload fallback: plain malloc, padded in DRAM.

    Objects are line-aligned but make no single-bank guarantee and
    register no translation entry, so DRAM holds the padding too.
    """

    def __init__(self, runtime, object_size):
        self.runtime = runtime
        self.object_size = object_size
        line = runtime.machine.config.line_size
        #: Line-aligned size: no compaction, fragmentation included.
        self.padded_size = ((object_size + line - 1) // line) * line

    def allocate(self):
        return self.runtime.machine.address_space.alloc(
            self.padded_size, align=self.runtime.machine.config.line_size
        )

    def deallocate(self, addr):
        self.runtime.machine.stats.add("allocator.deallocations")

    def dram_bytes_per_object(self):
        return self.padded_size

    def fragmentation(self):
        return 1.0 - self.object_size / self.padded_size


class PagedMorph:
    """The data-triggered fallback: core-run actions at page granularity.

    ``touch(index)`` must be yielded-from before accessing an object;
    first touch of a page runs constructors for every object in the page
    *on the core* (full core instruction cost, no engine involvement).
    ``evict_all`` runs destructors for every constructed page.
    """

    def __init__(self, runtime, n_actors, object_size, construct=None, destruct=None):
        self.runtime = runtime
        machine = runtime.machine
        self.machine = machine
        self.object_size = object_size
        self.n_actors = n_actors
        self.page_size = machine.config.page_size
        self.objects_per_page = max(1, self.page_size // object_size)
        self.base = machine.address_space.alloc(
            n_actors * object_size, align=self.page_size
        )
        self._construct = construct
        self._destruct = destruct
        self._constructed_pages = set()

    def actor_addr(self, index):
        return self.base + index * self.object_size

    def page_of(self, index):
        return index // self.objects_per_page

    def touch(self, index):
        """Generator: fault in the page of ``index`` if needed."""
        page = self.page_of(index)
        if page in self._constructed_pages:
            return
        self._constructed_pages.add(page)
        self.machine.stats.add("fallback.page_constructions")
        first = page * self.objects_per_page
        last = min(first + self.objects_per_page, self.n_actors)
        for obj in range(first, last):
            if self._construct is not None:
                yield from self._construct(obj)

    def evict_all(self):
        """Generator: page out everything, running destructors on the core."""
        for page in sorted(self._constructed_pages):
            self.machine.stats.add("fallback.page_destructions")
            first = page * self.objects_per_page
            last = min(first + self.objects_per_page, self.n_actors)
            for obj in range(first, last):
                if self._destruct is not None:
                    yield from self._destruct(obj)
        self._constructed_pages.clear()


class ThreadPairStream:
    """The streaming fallback: two conventional threads and a queue.

    Both producer and consumer run on cores; entries pass through a
    shared-memory queue with ordinary loads/stores and condition-based
    blocking -- no engine, no phantom space, no prefetch integration.
    """

    END = object()

    def __init__(self, runtime, object_size, buffer_entries, producer_tile, consumer_tile):
        machine = runtime.machine
        self.machine = machine
        self.object_size = object_size
        self.buffer_entries = buffer_entries
        self.producer_tile = producer_tile
        self.consumer_tile = consumer_tile
        line = machine.config.line_size
        slot = ((object_size + line - 1) // line) * line
        self.slot_size = slot
        self.buffer_base = machine.address_space.alloc(buffer_entries * slot, align=line)
        self.head = 0
        self.tail = 0
        self.done = False
        self.space_avail = Condition("fallback_stream.space")
        self.data_avail = Condition("fallback_stream.data")
        self._values = {}

    def slot_addr(self, index):
        return self.buffer_base + (index % self.buffer_entries) * self.slot_size

    def push(self, obj):
        while self.tail - self.head >= self.buffer_entries:
            yield Wait(self.space_avail)
        yield Store(self.slot_addr(self.tail), self.object_size)
        yield Compute(4)
        self._values[self.tail] = obj
        self.tail += 1
        self.machine.scheduler.wake_all(self.data_avail)

    def close(self):
        self.done = True
        self.machine.scheduler.wake_all(self.data_avail)

    def pop(self):
        while self.head >= self.tail:
            if self.done:
                return self.END
            yield Wait(self.data_avail)
        yield Load(self.slot_addr(self.head), self.object_size)
        yield Compute(4)
        value = self._values.pop(self.head)
        self.head += 1
        self.machine.scheduler.wake_all(self.space_avail)
        return value
