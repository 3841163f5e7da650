"""Unit tests for streams: ordering, flow control, termination."""

import pytest

from repro.core.stream import Stream, STREAM_END
from repro.sim.ops import Compute


class RangeStream(Stream):
    """Pushes 0..count-1."""

    def __init__(self, runtime, count=50, **kwargs):
        self.count = count
        kwargs.setdefault("object_size", 8)
        kwargs.setdefault("buffer_entries", 32)
        kwargs.setdefault("consumer_tile", 0)
        super().__init__(runtime, **kwargs)

    def gen_stream(self, env):
        for i in range(self.count):
            yield Compute(1)
            yield from self.push(i)


def drain(machine, stream, limit=None):
    got = []

    def consumer():
        while True:
            value = yield from stream.consume()
            if value is STREAM_END:
                return
            got.append(value)
            if limit is not None and len(got) >= limit:
                stream.terminate()
                return

    machine.spawn(consumer(), tile=stream.consumer_tile, name="consumer")
    machine.run()
    return got


class TestOrdering:
    def test_fifo_order(self, machine, runtime):
        stream = RangeStream(runtime, count=100)
        stream.start()
        assert drain(machine, stream) == list(range(100))

    def test_empty_stream(self, machine, runtime):
        stream = RangeStream(runtime, count=0)
        stream.start()
        assert drain(machine, stream) == []

    def test_restart_rejected(self, machine, runtime):
        stream = RangeStream(runtime, count=1)
        stream.start()
        with pytest.raises(RuntimeError):
            stream.start()
        drain(machine, stream)


class TestFlowControl:
    def test_producer_blocks_on_full_buffer(self, machine, runtime):
        stream = RangeStream(runtime, count=200, buffer_entries=16)
        stream.start()
        got = drain(machine, stream)
        assert got == list(range(200))
        assert machine.stats["stream.push_blocks"] > 0

    def test_pop_messages_per_line(self, machine, runtime):
        stream = RangeStream(runtime, count=64)
        stream.start()
        drain(machine, stream)
        # 8 entries per 64 B line -> at least one pop message per line.
        assert machine.stats["stream.pop_messages"] >= 8

    def test_buffer_too_small_rejected(self, machine, runtime):
        with pytest.raises(ValueError):
            RangeStream(runtime, count=10, buffer_entries=8)

    def test_decoupling_producer_runs_ahead(self, machine, runtime):
        """With a big buffer the producer finishes before the consumer."""
        stream = RangeStream(runtime, count=64, buffer_entries=64)
        producer_ctx = stream.start()
        slow_got = []

        def slow_consumer():
            while True:
                value = yield from stream.consume()
                if value is STREAM_END:
                    return
                yield Compute(300)  # slow consumer
                slow_got.append((value, producer_ctx.done))

        machine.spawn(slow_consumer(), tile=0)
        machine.run()
        # The producer finished while the consumer was still mid-stream.
        assert any(done for _, done in slow_got[:-1])


class TestTermination:
    def test_consumer_terminate_stops_producer(self, machine, runtime):
        stream = RangeStream(runtime, count=10_000, buffer_entries=16)
        producer_ctx = stream.start()
        got = drain(machine, stream, limit=20)
        assert got == list(range(20))
        assert producer_ctx.done
        assert machine.stats["stream.terminated_early"] == 1

    def test_stream_end_after_natural_finish(self, machine, runtime):
        stream = RangeStream(runtime, count=5)
        stream.start()
        got = drain(machine, stream)
        assert got == list(range(5))
        assert stream.producer_done


class TestDataTriggeredUnderpinnings:
    def test_consumption_constructs_phantom_lines(self, machine, runtime):
        stream = RangeStream(runtime, count=64)
        stream.start()
        drain(machine, stream)
        assert machine.stats["morph.l2_constructions"] >= 8

    def test_prefetch_never_passes_tail(self, machine, runtime):
        stream = RangeStream(runtime, count=64)
        assert stream.allow_prefetch(0) is False  # nothing produced yet
        stream.tail = 10
        assert stream.allow_prefetch(9) is True
        assert stream.allow_prefetch(10) is False

    def test_construct_copies_from_buffer(self, machine, runtime):
        stream = RangeStream(runtime, count=32)
        stream.start()
        drain(machine, stream)
        # Phantom addresses hold the pushed values.
        assert machine.mem[stream.get_actor_addr(7)] == 7

    def test_consume_blocks_counted_when_producer_slow(self, machine, runtime):
        class SlowStream(RangeStream):
            def gen_stream(self, env):
                for i in range(self.count):
                    yield Compute(500)  # slow producer
                    yield from self.push(i)

        stream = SlowStream(runtime, count=20)
        stream.start()
        got = drain(machine, stream)
        assert got == list(range(20))
        assert machine.stats["stream.consume_blocks"] > 0


class TestLargeEntries:
    def test_multi_line_stream_entries(self, machine, runtime):
        """128 B entries: each phantom object spans two cache lines."""
        stream = RangeStream(
            runtime, count=24, object_size=128, buffer_entries=16
        )
        assert stream.padded_size == 128
        stream.start()
        got = drain(machine, stream)
        assert got == list(range(24))

    def test_sub_line_odd_entries_padded(self, machine, runtime):
        """24 B entries pad to 32 B; two entries never share a boundary."""
        stream = RangeStream(runtime, count=16, object_size=24, buffer_entries=16)
        for i in range(16):
            addr = stream.get_actor_addr(i)
            assert addr // 64 == (addr + 23) // 64
        stream.start()
        assert drain(machine, stream) == list(range(16))


class TestStreamFutureApi:
    def test_next_wait_equivalent_to_consume(self, machine, runtime):
        from repro.core.stream import STREAM_END
        from tests.test_stream import RangeStream

        stream = RangeStream(runtime, count=10)
        stream.start()
        got = []

        def consumer():
            while True:
                future = stream.next()
                value = yield from future.wait()
                if value is STREAM_END:
                    return
                got.append(value)

        machine.spawn(consumer(), tile=0)
        machine.run()
        assert got == list(range(10))
