"""Unit tests for the ASCII figure rendering."""

from repro.experiments.plotting import bar_chart, speedup_chart
from repro.experiments.runner import Experiment


class TestBarChart:
    def test_renders_labels_and_values(self):
        chart = bar_chart([("baseline", 1.0), ("leviathan", 3.7)], unit="x")
        assert "baseline" in chart and "leviathan" in chart
        assert "3.7x" in chart

    def test_bar_lengths_proportional(self):
        chart = bar_chart([("a", 1.0), ("b", 2.0)])
        line_a, line_b = chart.splitlines()
        assert line_b.count("#") > line_a.count("#")

    def test_baseline_marker(self):
        chart = bar_chart([("a", 0.5), ("b", 2.0)], baseline=1.0)
        assert "|" in chart

    def test_non_finite_values(self):
        chart = bar_chart([("broken", float("nan")), ("ok", 1.0)])
        assert "(n/a)" in chart

    def test_empty(self):
        assert bar_chart([]) == "(empty chart)"


class TestSpeedupChart:
    def test_uses_experiment_rows(self):
        exp = Experiment(name="x", paper_reference="-")
        exp.add_row(variant="baseline", speedup=1.0)
        exp.add_row(variant="leviathan", speedup=2.5)
        chart = speedup_chart(exp)
        assert "leviathan" in chart and "2.5x" in chart

    def test_skips_rows_without_speedup(self):
        exp = Experiment(name="x", paper_reference="-")
        exp.add_row(variant="a", speedup=1.0)
        exp.add_row(note="not a bar")
        assert "not a bar" not in speedup_chart(exp)
