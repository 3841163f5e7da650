"""Unit tests for the experiment harness plumbing."""

import pytest

from repro.experiments.runner import Expectation, Experiment


class TestExpectation:
    def test_greater(self):
        assert Expectation("x", "greater", 2.0, (1.0,)).passed
        assert not Expectation("x", "greater", 0.5, (1.0,)).passed

    def test_less(self):
        assert Expectation("x", "less", 0.5, (1.0,)).passed
        assert not Expectation("x", "less", 2.0, (1.0,)).passed

    def test_between(self):
        assert Expectation("x", "between", 5, (1, 10)).passed
        assert Expectation("x", "between", 1, (1, 10)).passed
        assert not Expectation("x", "between", 11, (1, 10)).passed

    def test_ordering(self):
        assert Expectation("x", "ordering", [1, 2, 3], ()).passed
        assert not Expectation("x", "ordering", [2, 1, 3], ()).passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Expectation("x", "weird", 1, (1,)).passed

    def test_str_shows_status(self):
        assert "[PASS]" in str(Expectation("x", "greater", 2.0, (1.0,)))
        assert "[FAIL]" in str(Expectation("x", "greater", 0.0, (1.0,)))


class TestExperiment:
    def make(self):
        exp = Experiment(name="demo", paper_reference="Fig. 0")
        exp.add_row(variant="a", speedup=1.0)
        exp.add_row(variant="b", speedup=2.5)
        return exp

    def test_rows(self):
        exp = self.make()
        assert len(exp.rows) == 2

    def test_table_renders_all_columns(self):
        table = self.make().table()
        assert "variant" in table and "speedup" in table
        assert "2.5" in table

    def test_table_handles_missing_fields(self):
        exp = self.make()
        exp.add_row(variant="c", extra="x")
        assert "extra" in exp.table()

    def test_empty_table(self):
        assert Experiment(name="e", paper_reference="-").table() == "(no rows)"

    def test_check_passes(self):
        exp = self.make()
        exp.expect("b beats a", "greater", 2.5, 1.0)
        assert exp.check()
        assert exp.passed

    def test_check_raises_with_details(self):
        exp = self.make()
        exp.expect("impossible", "greater", 0.0, 1.0)
        with pytest.raises(AssertionError, match="impossible"):
            exp.check()
        assert not exp.passed

    def test_report_contains_everything(self):
        exp = self.make()
        exp.notes = "a note"
        exp.expect("ok", "greater", 2.0, 1.0)
        report = exp.report()
        assert "demo" in report and "a note" in report and "[PASS]" in report

    def test_markdown_shares_the_table_columns_and_format(self):
        exp = self.make()
        exp.add_row(variant="c", extra=1 / 3)
        exp.expect("ok", "greater", 2.0, 1.0)
        lines = exp.markdown().splitlines()
        assert lines[0] == "## demo (Fig. 0)"
        assert lines[2] == "| " + " | ".join(exp.columns) + " |"
        assert exp.columns == ["variant", "speedup", "extra"]
        assert lines[-3] == "| c |  | 0.333 |"
        assert lines[-1] == "- [PASS] ok: measured 2.0 vs (1.0,)"


class TestRegistry:
    """The CLI's experiment table is the one registry of tables and figures."""

    def test_cli_registry_contains_all_figures(self):
        from repro.experiments.cli import _EXPERIMENTS

        for expected in (
            "table1",
            "table4",
            "table5",
            "fig5",
            "fig16",
            "fig18",
            "fig20",
            "fig21",
            "fig22",
            "fig23",
            "fig24",
            "fig25",
        ):
            assert expected in _EXPERIMENTS

    def test_every_runner_takes_pool(self):
        import inspect

        from repro.experiments.cli import _EXPERIMENTS

        for name, (runner, description) in _EXPERIMENTS.items():
            assert "pool" in inspect.signature(runner).parameters, name
            assert description, name
