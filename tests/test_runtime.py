"""Unit tests for the Leviathan runtime facade and area model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.area import AreaModel
from repro.core.runtime import Leviathan
from repro.sim.config import small_config
from repro.sim.ops import Compute, Load
from repro.sim.system import Machine


class TestRuntime:
    def test_installs_engines_and_hooks(self, machine):
        runtime = Leviathan(machine)
        assert len(runtime.engines) == machine.config.n_tiles
        assert machine.engines is runtime.engines
        assert machine.hierarchy.hooks is runtime.hooks
        assert machine.leviathan is runtime

    def test_double_install_rejected(self, machine):
        Leviathan(machine)
        with pytest.raises(RuntimeError):
            Leviathan(machine)

    def test_invoke_buffers_per_tile(self, runtime):
        assert len(runtime.invoke_buffers) == runtime.machine.config.n_tiles
        entries = runtime.machine.config.core.invoke_buffer_entries
        assert all(b.entries == entries for b in runtime.invoke_buffers)

    def test_find_morph_by_level(self, runtime):
        from tests.test_morph import RecordingMorph

        l2_morph = RecordingMorph(runtime, level="l2")
        llc_morph = RecordingMorph(runtime, level="llc")
        l2_line = l2_morph.base // 64
        llc_line = llc_morph.base // 64
        assert runtime.find_morph(l2_line, "l2") is l2_morph
        assert runtime.find_morph(l2_line, "llc") is None
        assert runtime.find_morph(llc_line, "llc") is llc_morph

    def test_unregister_unknown_morph(self, runtime):
        from tests.test_morph import RecordingMorph

        morph = RecordingMorph(runtime)
        runtime.unregister_morph(morph)
        with pytest.raises(KeyError):
            runtime.unregister_morph(morph)

    def test_baseline_behaviour_unchanged_with_idle_runtime(self):
        """A runtime with no morphs/pools does not perturb the baseline
        (Sec. VI-D: no impact on non-NDC workloads)."""

        def prog():
            for i in range(64):
                yield Load(0x9_0000 + i * 64, 8)
                yield Compute(3)

        baseline = Machine(small_config())
        baseline.spawn(prog(), tile=0)
        base_time = baseline.run()

        with_runtime = Machine(small_config())
        Leviathan(with_runtime)
        with_runtime.spawn(prog(), tile=0)
        runtime_time = with_runtime.run()

        assert runtime_time == pytest.approx(base_time)
        assert (
            baseline.stats["dram.accesses"] == with_runtime.stats["dram.accesses"]
        )

    def test_spawn_passthrough(self, runtime):
        done = []

        def prog():
            yield Compute(1)
            done.append(True)

        runtime.spawn(prog(), tile=1)
        runtime.machine.run()
        assert done == [True]

    def test_repr(self, runtime):
        assert "engines" in repr(runtime)


class _Interval:
    """A stand-in morph: only the fields the runtime's registry reads."""

    def __init__(self, base, bound, level):
        self.base, self.bound, self.level = base, bound, level
        self.name = f"[{base:#x}, {bound:#x}) @ {level}"
        self.registered = False


def _morph_layout(line_size):
    """Non-overlapping line ranges with sub-line byte edges, plus a probe."""
    interval = st.tuples(
        st.integers(0, 4),  # free lines before the range
        st.integers(1, 5),  # lines in the range
        st.integers(0, line_size - 1),  # byte offset of its base
        st.integers(1, line_size),  # bytes used of its last line
        st.sampled_from(["l2", "llc"]),
    )
    probe = st.tuples(st.integers(0, 40), st.integers(1, 6))
    return st.lists(interval, max_size=8), probe


class TestMorphLookup:
    """find_morph, morph_level and register_morph against a per-line oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lookup_agrees_with_a_linear_scan(self, data):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        line_size = machine.config.line_size
        layout, probe = _morph_layout(line_size)
        morphs, cursor = [], 0
        for gap, lines, head, tail, level in data.draw(layout):
            base_line = cursor + gap
            cursor = base_line + lines
            base = base_line * line_size + (head if lines > 1 else 0)
            bound = (cursor - 1) * line_size + tail
            morphs.append(_Interval(base, bound, level))
        for morph in data.draw(st.permutations(morphs)):
            runtime.register_morph(morph)
        gone = []
        if morphs:
            gone = data.draw(st.lists(st.sampled_from(morphs), unique=True))
        for morph in gone:
            runtime.unregister_morph(morph)
        live = [m for m in morphs if m not in gone]

        def lines_of(morph):
            return range(
                morph.base // line_size,
                (morph.bound + line_size - 1) // line_size,
            )

        def scan(line, level=None):
            for morph in live:
                if line in lines_of(morph) and level in (None, morph.level):
                    return morph
            return None

        for line in range(cursor + 2):
            owner = scan(line)
            assert runtime.hooks.morph_level(line) == (owner and owner.level)
            for level in ("l2", "llc"):
                assert runtime.find_morph(line, level) is scan(line, level)

        # A new range is refused exactly when it shares a line with a live one.
        start, length = data.draw(probe)
        extra = _Interval(start * line_size, (start + length) * line_size, "llc")
        if any(set(lines_of(extra)) & set(lines_of(m)) for m in live):
            with pytest.raises(ValueError, match="overlaps"):
                runtime.register_morph(extra)
        else:
            runtime.register_morph(extra)
            assert runtime.find_morph(start, "llc") is extra


class TestAreaModel:
    def test_paper_numbers(self):
        model = AreaModel()
        assert model.total_bytes() / 1024 == pytest.approx(32.8, abs=0.1)
        assert model.overhead_fraction() == pytest.approx(0.064, abs=0.001)

    def test_breakdown_matches_table4(self):
        breakdown = AreaModel().breakdown()
        assert breakdown["LLC tags"] == 3 * 1024
        assert breakdown["LLC translation buffer"] == 200
        assert breakdown["Engine L1d, TLB, rTLB"] == 12 * 1024
        assert breakdown["Data-triggered buffer"] == 4 * 1024

    def test_larger_objects_cost_more(self):
        small = AreaModel(max_object_bytes=256)
        big = AreaModel(max_object_bytes=1024)
        assert big.total_bytes() > small.total_bytes()

    def test_report_renders(self):
        report = AreaModel().report()
        assert "Total per LLC bank" in report
        assert "6.4%" in report
