"""Tracing with the flight recorder: watched address ranges and
``render``, the debugging view of the event ring."""

from repro.sim.config import small_config
from repro.sim.events import MemoryAccess, MorphConstruct
from repro.sim.ops import Load, Store
from repro.sim.system import Machine
from repro.sim.telemetry.flightrec import FlightRecorder
from tests.conftest import run_program


def accesses(recorder):
    return [e for e in recorder.ring if isinstance(e, MemoryAccess)]


class TestTracer:
    def test_records_watched_accesses(self, machine):
        recorder = FlightRecorder(machine).watch_range(0x10000, 0x10100, "hot")
        run_program(machine, [Load(0x10008, 8), Store(0x20000, 8)])
        assert [e.addr for e in accesses(recorder)] == [0x10008]
        lines = recorder.render().splitlines()
        # The load's cache lookups (by line) are kept with it.
        assert len(lines) == len(recorder.ring) > 1
        assert all(line.startswith("hot: ") for line in lines)
        assert "hot: MemoryAccess tile=0 addr=0x10008 size=8 is_write=False" in lines[-1]

    def test_unwatched_accesses_ignored(self, machine):
        recorder = FlightRecorder(machine).watch_range(0x10000, 0x10100, "hot")
        run_program(machine, [Load(0x50000, 8)])
        assert len(recorder.ring) == 0
        assert recorder.events_seen == 0
        assert recorder.render() == ""

    def test_events_without_an_address_are_dropped(self, machine):
        recorder = FlightRecorder(machine).watch_range(0, 1 << 30, "all")
        run_program(machine, [Load(0x10008, 8)])
        kinds = {type(e).__name__ for e in recorder.ring}
        assert "MemoryAccess" in kinds
        assert not kinds & {"FlitHop", "DramAccess"}

    def test_detach_restores_path(self, machine):
        recorder = FlightRecorder(machine).watch_range(0x10000, 0x10100, "hot")
        recorder.detach()
        run_program(machine, [Load(0x10008, 8)])
        assert len(recorder.ring) == 0

    def test_engine_accesses_labelled(self, machine):
        recorder = FlightRecorder(machine).watch_range(0x10000, 0x10100, "hot")

        def prog():
            yield Store(0x10000, 8)

        machine.spawn(prog(), tile=2, is_engine=True)
        machine.run()
        [access] = accesses(recorder)
        assert access.engine and access.tile == 2
        assert "hot: MemoryAccess tile=2 addr=0x10000" in recorder.render()

    def test_bounded(self, machine):
        recorder = FlightRecorder(machine, capacity=5).watch_range(0, 1 << 30, "all")
        run_program(machine, [Load(0x10000 + i * 64, 8) for i in range(20)])
        assert len(recorder.ring) == 5
        # The ring keeps the newest events: the last load's.
        assert accesses(recorder)[-1].addr == 0x10000 + 19 * 64

    def test_truncation_is_counted_and_rendered(self, machine):
        recorder = FlightRecorder(machine, capacity=5).watch_range(0, 1 << 30, "all")
        run_program(machine, [Load(0x10000 + i * 64, 8) for i in range(20)])
        overwritten = recorder.events_seen - 5
        assert overwritten > 0
        rendered = recorder.render().splitlines()
        assert len(rendered) == 6
        assert rendered[-1] == (
            f"... ({overwritten} events overwritten past capacity=5)"
        )

    def test_render_limit_shows_the_newest(self, machine):
        recorder = FlightRecorder(machine).watch_range(0, 1 << 30, "all")
        run_program(machine, [Load(0x10000 + i * 64, 8) for i in range(4)])
        kept = len(recorder.ring)
        lines = recorder.render(limit=2).splitlines()
        assert lines[0] == f"... ({kept - 2} older events in the ring)"
        assert lines[1:] == recorder.render().splitlines()[-2:]

    def test_no_truncation_no_dropped_line(self, machine):
        recorder = FlightRecorder(machine).watch_range(0x10000, 0x10100, "hot")
        run_program(machine, [Load(0x10008, 8)])
        assert recorder.events_seen == len(recorder.ring)
        assert "overwritten" not in recorder.render()

    def test_detach_twice_is_safe(self, machine):
        recorder = FlightRecorder(machine).watch_range(0x10000, 0x10100, "hot")
        recorder.detach()
        recorder.detach()
        run_program(machine, [Load(0x10008, 8)])
        assert len(recorder.ring) == 0
        assert not machine.events.active

    def test_two_tracers_record_independently(self, machine):
        hot = FlightRecorder(machine).watch_range(0x10000, 0x10100, "hot")
        cold = FlightRecorder(machine).watch_range(0x20000, 0x20100, "cold")
        run_program(machine, [Load(0x10008, 8), Store(0x20000, 8)])
        assert [e.addr for e in accesses(hot)] == [0x10008]
        assert [e.addr for e in accesses(cold)] == [0x20000]
        # Detaching one must not disturb the other.
        hot.detach()
        run_program(machine, [Load(0x20008, 8)])
        assert len(accesses(hot)) == 1
        assert len(accesses(cold)) == 2

    def test_morph_constructions_traced(self, machine, runtime):
        from repro.core.morph import Morph

        class Phantom(Morph):
            def construct(self, view, index):
                return
                yield  # pragma: no cover

        morph = Phantom(runtime, level="l2", n_actors=8, object_size=64)
        recorder = FlightRecorder(machine).watch_range(morph.base, morph.bound, "phantom")
        run_program(machine, [Load(morph.get_actor_addr(0), 8)])
        constructs = [e for e in recorder.ring if isinstance(e, MorphConstruct)]
        assert len(constructs) == 1
        assert "phantom: MorphConstruct level=l2" in recorder.render()

    def test_tracing_does_not_change_timing(self):
        def prog():
            for i in range(32):
                yield Load(0x10000 + i * 64, 8)

        plain = Machine(small_config())
        plain.spawn(prog(), tile=0)
        plain_time = plain.run()

        watched = Machine(small_config())
        FlightRecorder(watched).watch_range(0x10000, 0x20000, "x")
        watched.spawn(prog(), tile=0)
        assert watched.run() == plain_time

    def test_unwatched_render_prints_every_event_unlabelled(self, machine):
        recorder = FlightRecorder(machine)
        run_program(machine, [Load(0x10008, 8)])
        lines = recorder.render().splitlines()
        assert len(lines) == len(recorder.ring)
        assert any(line.startswith("FlitHop ") for line in lines)
