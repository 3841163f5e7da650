"""Span lifecycle tests: happy path, NACK/spill retry, buffer stalls,
stream blocking, and the bit-identical-results guarantee."""

from repro.core.actor import Actor, action
from repro.core.future import Future, WaitFuture
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.core.stream import STREAM_END
from repro.sim.config import small_config
from repro.sim.ops import Compute, Load, Store
from repro.sim.system import Machine
from repro.sim.telemetry import Telemetry, TelemetrySession


class Cell(Actor):
    SIZE = 8

    @action
    def poke(self, env, amount=1):
        yield Load(self.addr, 8)
        yield Compute(1)
        mem = env.machine.mem
        yield Store(
            self.addr, 8, apply=lambda: mem.__setitem__(
                self.addr, mem.get(self.addr, 0) + amount
            )
        )

    @action
    def read(self, env):
        yield Load(self.addr, 8)
        return env.machine.mem.get(self.addr, 0)


class Slow(Actor):
    SIZE = 8

    @action
    def slow(self, env):
        yield Compute(500)


def build(**overrides):
    machine = Machine(small_config(**overrides))
    runtime = Leviathan(machine)
    telemetry = Telemetry(machine)
    return machine, runtime, telemetry


def invoke_spans(telemetry):
    return [s for s in telemetry.spans.finished if s.cat == "invoke"]


class TestInvokeSpans:
    def test_remote_invoke_produces_closed_span(self):
        machine, runtime, telemetry = build()
        cell = runtime.allocator_for(Cell, capacity=8).allocate()

        def prog():
            yield Invoke(cell, "poke", (1,), location=Location.REMOTE)

        machine.spawn(prog(), tile=0)
        machine.run()
        telemetry.finalize()
        spans = invoke_spans(telemetry)
        assert len(spans) == 1
        span = spans[0]
        assert span.well_formed and not span.args.get("unclosed")
        assert span.phase_cycles("execute") > 0
        assert telemetry.spans.unclosed == 0

    def test_future_owner_span_closes_at_fill(self):
        machine, runtime, telemetry = build()
        cell = runtime.allocator_for(Cell, capacity=8).allocate()

        def prog():
            future = yield Invoke(
                cell, "read", with_future=True, location=Location.REMOTE
            )
            yield WaitFuture(future)

        machine.spawn(prog(), tile=1)
        machine.run()
        telemetry.finalize()
        (span,) = invoke_spans(telemetry)
        assert span.args["owns_future"]
        assert span.well_formed
        # The span extends to the store-update's arrival at the core.
        assert span.args["future_filled_at"] == span.end

    def test_nacked_invoke_retries_into_well_formed_span(self):
        """A spilled (NACKed) task produces one span with a nack-wait
        phase that ends where its execute phase begins."""
        machine, runtime, telemetry = build(**{"engine.task_contexts": 2})
        actor = runtime.allocator_for(Slow, capacity=8).allocate()

        def prog():
            for _ in range(6):
                yield Invoke(actor, "slow", location=Location.REMOTE)

        machine.spawn(prog(), tile=1)
        machine.run()
        telemetry.finalize()
        assert machine.stats["engine.nacks"] > 0
        spans = invoke_spans(telemetry)
        assert len(spans) == 6
        nacked = [s for s in spans if s.args["nacks"] > 0]
        assert nacked, "expected at least one NACKed span"
        for span in spans:
            assert span.well_formed and not span.args.get("unclosed")
        for span in nacked:
            assert span.phase_cycles("nack-wait") > 0
            waits = [p for p in span.phases if p[0] == "nack-wait"]
            execs = [p for p in span.phases if p[0] == "execute"]
            # The spill wait ends exactly when execution starts.
            assert waits[-1][2] == execs[-1][1]
        assert telemetry.spans.unclosed == 0

    def test_buffer_stalled_invoke_records_buffer_wait(self):
        """An invoke parked on a full invoke buffer re-dispatches and
        still closes into one well-formed span."""
        machine, runtime, telemetry = build(
            **{"core.invoke_buffer_entries": 1, "engine.task_contexts": 2}
        )
        cell = runtime.allocator_for(Cell, capacity=8).allocate()

        def prog():
            for _ in range(16):
                yield Invoke(cell, "poke", (1,), location=Location.REMOTE)

        machine.spawn(prog(), tile=1)
        machine.run()
        telemetry.finalize()
        assert machine.stats["invoke.stalls"] > 0
        spans = invoke_spans(telemetry)
        assert len(spans) == 16
        stalled = [s for s in spans if s.phase_cycles("buffer-wait") > 0]
        assert stalled, "expected at least one buffer-stalled span"
        for span in spans:
            assert span.well_formed and not span.args.get("unclosed")
        assert telemetry.spans.unclosed == 0
        # The park/retry path keeps one cid per invoke: no duplicates.
        cids = [s.cid for s in spans]
        assert len(cids) == len(set(cids))

    def test_continuation_chain_one_owner(self):
        machine, runtime, telemetry = build()

        class LinkedCell(Actor):
            SIZE = 16

            def __init__(self):
                super().__init__()
                self.next = None
                self.value = 0

            @action
            def sum_chain(self, env, acc, future):
                yield Load(self.addr, 16)
                yield Compute(2)
                acc = acc + self.value
                if self.next is None:
                    return acc
                yield Invoke(
                    self.next, "sum_chain", (acc, future), future=future,
                    args_bytes=16,
                )
                return None

        alloc = runtime.allocator_for(LinkedCell, capacity=8)
        cells = [alloc.allocate() for _ in range(5)]
        for i, cell in enumerate(cells):
            cell.value = i + 1
            cell.next = cells[i + 1] if i + 1 < len(cells) else None

        def prog():
            future = Future(machine, 0)
            yield Invoke(
                cells[0], "sum_chain", (0, future), future=future, args_bytes=16
            )
            yield WaitFuture(future)

        machine.spawn(prog(), tile=0)
        machine.run()
        telemetry.finalize()
        spans = invoke_spans(telemetry)
        assert len(spans) == 5
        owners = [s for s in spans if s.args["owns_future"]]
        assert len(owners) == 1  # the first hop owns the future
        for span in spans:
            assert span.well_formed
        assert telemetry.spans.unclosed == 0


class TestStreamSpans:
    def test_consumer_blocking_on_empty_buffer(self):
        """A consumer ahead of a slow producer produces stream-wait
        spans (side=consumer) closed by the push that wakes it."""
        from repro.core.stream import Stream

        machine, runtime, telemetry = build()

        class SlowStream(Stream):
            def gen_stream(self, env):
                for i in range(12):
                    yield Compute(300)  # consumer outruns this easily
                    yield from self.push(i)

        stream = SlowStream(
            runtime, object_size=8, buffer_entries=32, consumer_tile=0
        )
        stream.start()
        got = []

        def consumer():
            while True:
                value = yield from stream.consume()
                if value is STREAM_END:
                    return
                got.append(value)

        machine.spawn(consumer(), tile=0)
        machine.run()
        telemetry.finalize()
        assert got == list(range(12))
        assert machine.stats["stream.consume_blocks"] > 0
        waits = [s for s in telemetry.spans.finished if s.cat == "stream-wait"]
        consumer_waits = [s for s in waits if s.args["side"] == "consumer"]
        assert consumer_waits
        for span in consumer_waits:
            assert span.well_formed and span.duration > 0
        entries = [s for s in telemetry.spans.finished if s.cat == "stream"]
        assert len(entries) == 12
        for span in entries:
            assert span.well_formed

    def test_producer_blocking_on_full_buffer(self):
        from tests.test_stream import RangeStream, drain

        machine, runtime, telemetry = build()
        stream = RangeStream(runtime, count=200, buffer_entries=16)
        stream.start()
        assert drain(machine, stream) == list(range(200))
        assert machine.stats["stream.push_blocks"] > 0
        telemetry.finalize()
        waits = [
            s for s in telemetry.spans.finished
            if s.cat == "stream-wait" and s.args["side"] == "producer"
        ]
        assert waits
        for span in waits:
            assert span.well_formed


class TestGuarantees:
    def test_results_bit_identical_with_telemetry(self):
        def run(with_telemetry):
            machine = Machine(small_config(**{"engine.task_contexts": 2}))
            runtime = Leviathan(machine)
            telemetry = Telemetry(machine) if with_telemetry else None
            actor = runtime.allocator_for(Slow, capacity=8).allocate()
            cell = runtime.allocator_for(Cell, capacity=8).allocate()

            def prog():
                for _ in range(4):
                    yield Invoke(actor, "slow", location=Location.REMOTE)
                    yield Invoke(cell, "poke", (1,), location=Location.REMOTE)

            machine.spawn(prog(), tile=1)
            cycles = machine.run()
            return cycles, machine.stats.snapshot(), telemetry

        bare_cycles, bare_stats, _ = run(False)
        telem_cycles, telem_stats, telemetry = run(True)
        assert bare_cycles == telem_cycles
        assert bare_stats == telem_stats
        assert len(telemetry.spans.finished) > 0

    def test_session_observes_internally_built_machines(self):
        with TelemetrySession() as session:
            machine = Machine(small_config())
            machine2 = Machine(small_config())
        assert [t.machine for t in session.attached] == [machine, machine2]
        # Outside the context, construction is no longer hooked.
        Machine(small_config())
        assert len(session.attached) == 2

    def test_span_cap_counts_dropped(self):
        machine, runtime, telemetry = build()
        telemetry.spans.max_spans = 2
        cell = runtime.allocator_for(Cell, capacity=8).allocate()

        def prog():
            for _ in range(6):
                yield Invoke(cell, "poke", (1,), location=Location.REMOTE)

        machine.spawn(prog(), tile=0)
        machine.run()
        telemetry.finalize()
        assert len(telemetry.spans.finished) == 2
        assert telemetry.spans.dropped == 4
