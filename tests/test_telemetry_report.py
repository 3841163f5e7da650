"""The `telemetry` report command (repro.experiments.telemetry_report)."""

import json

import repro.experiments.cli as cli
from repro.experiments.telemetry_report import (
    count_with_label,
    find_runs,
    render,
    report,
    summarize_run,
)


def span_events(name="invoke", cat="invoke", uid=0, start=10, end=50):
    base = {"cat": cat, "id": uid, "pid": 0, "tid": 0}
    return [
        dict(base, ph="b", name=name, ts=start),
        dict(base, ph="e", name=name, ts=end),
    ]


def write_run(
    root,
    name="run-a",
    trace_events=None,
    counters=None,
    timeseries=None,
    meta=None,
):
    """A synthetic telemetry run directory under ``root``."""
    run_dir = root / "runs" / name / "machine-00"
    run_dir.mkdir(parents=True)
    trace = {
        "traceEvents": span_events() if trace_events is None else trace_events,
        "displayTimeUnit": "ms",
    }
    (run_dir / "trace.json").write_text(json.dumps(trace))
    metrics = {
        "meta": dict({"cycles": 1234.0}, **(meta or {})),
        "counters": counters or {},
        "histograms": {
            "invoke.latency": {
                "count": 3, "mean": 40.0, "p50": 38.0, "p95": 60.0,
                "p99": 61.0, "max": 62.0,
            }
        },
        "timeseries": timeseries or {},
    }
    (run_dir / "metrics.json").write_text(json.dumps(metrics))
    return run_dir


class TestCountWithLabel:
    COUNTERS = {
        'engine.arrivals{engine="0",outcome="executed"}': 10,
        'engine.arrivals{engine="0",outcome="nacked"}': 3,
        'engine.arrivals{engine="2",outcome="nacked"}': 4,
        'engine.arrivals{outcome="nacked"}': 2,
        'other.counter{outcome="nacked"}': 99,
        "engine.arrivals": 50,
    }

    def test_sums_every_series_with_the_label(self):
        total = count_with_label(
            self.COUNTERS, "engine.arrivals", 'outcome="nacked"'
        )
        assert total == 3 + 4 + 2

    def test_base_name_must_match(self):
        assert (
            count_with_label(self.COUNTERS, "other.counter", 'outcome="nacked"')
            == 99
        )

    def test_unlabelled_series_do_not_match(self):
        assert (
            count_with_label(self.COUNTERS, "engine.arrivals", 'outcome="x"')
            == 0
        )

    def test_label_match_is_exact_not_substring(self):
        counters = {'a{outcome="nacked-retry"}': 5}
        assert count_with_label(counters, "a", 'outcome="nacked"') == 0


class TestReport:
    def test_empty_root_is_not_ok(self, tmp_path):
        text, ok = report(str(tmp_path))
        assert not ok
        assert "no telemetry runs" in text

    def test_valid_run_reports_ok(self, tmp_path):
        write_run(
            tmp_path,
            counters={
                'engine.arrivals{engine="1",outcome="nacked"}': 7,
                "invoke.stall_events": 2,
            },
            timeseries={'noc.utilization{tile="0"}': [[0, 0.5]]},
        )
        text, ok = report(str(tmp_path))
        assert ok
        assert "trace: VALID" in text
        assert "nacks: 7" in text
        assert "stall events: 2" in text
        assert "time series: 1 (noc.utilization)" in text
        assert "cycles: 1234" in text
        assert "invoke.latency: n=3" in text
        assert "1 run(s)" in text

    def test_invalid_trace_reports_problem_and_not_ok(self, tmp_path):
        # An end without a begin: the signature of a torn trace.
        bad = [
            {
                "cat": "invoke", "id": 0, "pid": 0, "tid": 0,
                "ph": "e", "name": "invoke", "ts": 50,
            }
        ]
        write_run(tmp_path, trace_events=bad)
        text, ok = report(str(tmp_path))
        assert not ok
        assert "trace: INVALID" in text
        assert "without begin" in text

    def test_mixed_runs_fail_overall_but_list_both(self, tmp_path):
        write_run(tmp_path, name="good")
        write_run(
            tmp_path,
            name="torn",
            trace_events=[span_events()[0]],  # begin, never closed
        )
        text, ok = report(str(tmp_path))
        assert not ok
        assert "2 run(s)" in text
        assert "VALID" in text and "INVALID" in text

    def test_find_runs_requires_both_files(self, tmp_path):
        run_dir = write_run(tmp_path)
        incomplete = tmp_path / "runs" / "half" / "machine-00"
        incomplete.mkdir(parents=True)
        (incomplete / "trace.json").write_text("{}")
        assert find_runs(str(tmp_path)) == [str(run_dir)]


class TestSummarizeAndRender:
    def test_summarize_run_digest(self, tmp_path):
        run_dir = write_run(
            tmp_path,
            counters={'engine.arrivals{outcome="nacked"}': 5},
            meta={"spans_unclosed": 1, "spans_dropped": 2},
        )
        summary = summarize_run(str(run_dir))
        assert summary["trace_spans"] == 1
        assert summary["trace_events"] == 2
        assert summary["nacks"] == 5
        assert summary["spans_unclosed"] == 1
        assert summary["spans_dropped"] == 2
        assert summary["trace_problems"] == []

    def test_render_lists_problems(self, tmp_path):
        run_dir = write_run(tmp_path, trace_events=[span_events()[0]])
        (run_dir / "attribution.json").write_text(
            json.dumps({"coverage": 0.5, "classes": {"get": {"count": 1}}})
        )
        summary = summarize_run(str(run_dir))
        text = render(summary)
        assert "INVALID" in text
        assert "!!" in text
        assert "attribution coverage: 50.00%" in text
        assert f"(run `leviathan-repro explain {run_dir}` for the waterfall)" in text


class TestTelemetryReportCli:
    def test_cli_exit_codes(self, tmp_path, capsys):
        assert cli.main(["telemetry", str(tmp_path)]) == 1
        write_run(tmp_path)
        assert cli.main(["telemetry", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ui.perfetto.dev" in out


class TestPartiallyWrittenRuns:
    """A worker killed mid-sweep leaves torn artifacts; the report and
    the dashboard must degrade, never raise."""

    def test_summarize_run_with_missing_metrics(self, tmp_path):
        run_dir = tmp_path / "runs" / "half" / "machine-00"
        run_dir.mkdir(parents=True)
        (run_dir / "trace.json").write_text(
            json.dumps({"traceEvents": span_events()})
        )
        summary = summarize_run(str(run_dir))
        assert summary["trace_spans"] == 1
        assert summary["cycles"] is None
        assert any("missing metrics.json" in p for p in summary["trace_problems"])
        render(summary)  # must render too

    def test_summarize_run_with_torn_trace(self, tmp_path):
        run_dir = tmp_path / "runs" / "torn" / "machine-00"
        run_dir.mkdir(parents=True)
        (run_dir / "trace.json").write_text('{"traceEvents": [{"ph": "b"')
        (run_dir / "metrics.json").write_text(
            json.dumps({"meta": {"cycles": 10.0}, "counters": {}})
        )
        summary = summarize_run(str(run_dir))
        assert summary["trace_events"] == 0
        assert summary["cycles"] == 10.0
        assert any("trace.json" in p for p in summary["trace_problems"])
        text, ok = report(str(tmp_path))
        assert not ok
        assert "INVALID" in text

    def test_summarize_run_with_malformed_metrics(self, tmp_path):
        run_dir = tmp_path / "runs" / "listy" / "machine-00"
        run_dir.mkdir(parents=True)
        (run_dir / "trace.json").write_text(json.dumps({"traceEvents": []}))
        (run_dir / "metrics.json").write_text("[1, 2, 3]")
        summary = summarize_run(str(run_dir))
        assert any("malformed metrics.json" in p for p in summary["trace_problems"])


class TestDashboardAggregation:
    def _run(self, tmp_path, name, buckets, count, counters):
        write_run(
            tmp_path,
            name=name,
            counters=counters,
        )
        run_dir = tmp_path / "runs" / name / "machine-00"
        metrics = json.loads((run_dir / "metrics.json").read_text())
        metrics["histograms"]["invoke.latency"] = {
            "count": count,
            "sum": float(sum(float(b) * n for b, n in buckets.items())),
            "min": 1.0,
            "max": max((float(b) for b in buckets), default=None),
            "buckets": buckets,
        }
        (run_dir / "metrics.json").write_text(json.dumps(metrics))
        # Every saved machine has one, as Telemetry.save writes it.
        (run_dir / "attribution.json").write_text('{"classes": {}, "meta": {}}')
        return run_dir

    def test_histograms_merge_across_runs(self, tmp_path):
        from repro.experiments.telemetry_report import aggregate_sweep

        self._run(
            tmp_path, "a", {"2.0": 9}, 9,
            {"dram.accesses": 5, 'engine.arrivals{outcome="nacked"}': 2},
        )
        self._run(
            tmp_path, "b", {"1024.0": 1}, 1,
            {"dram.accesses": 7, "noc.flits": 3},
        )
        agg = aggregate_sweep(str(tmp_path))
        assert agg["runs"] == 2
        hist = agg["histograms"]["invoke.latency"]
        assert hist["count"] == 10
        # Merged tail: p50 falls in the 2.0 bucket, p99 in the slow
        # run's 1024.0 bucket -- a per-run average would hide it.
        assert hist["p50"] == 2.0
        assert hist["p99"] == 1024.0
        assert agg["counters"]["dram.accesses"] == 12
        assert agg["subsystems"]["dram"] == 12
        assert agg["subsystems"]["noc"] == 3
        assert agg["nacks"] == 2
        assert agg["cycles"]["total"] == 2468.0

    def test_write_dashboard_artifacts(self, tmp_path):
        from repro.experiments.telemetry_report import write_dashboard

        self._run(tmp_path, "a", {"2.0": 4}, 4, {"dram.accesses": 1})
        agg = write_dashboard(str(tmp_path))
        assert agg["runs"] == 1
        payload = json.loads((tmp_path / "dashboard.json").read_text())
        assert payload["kind"] == "leviathan-dashboard"
        markdown = (tmp_path / "dashboard.md").read_text()
        assert "invoke.latency" in markdown

    def test_dashboard_reads_metrics_not_traces(self, tmp_path):
        from repro.experiments.telemetry_report import aggregate_sweep

        run_dir = self._run(tmp_path, "a", {"2.0": 4}, 4, {"dram.accesses": 1})
        (run_dir / "trace.json").write_text('{"traceEvents": [{"ph": "b"')
        agg = aggregate_sweep(str(tmp_path))
        assert agg["runs"] == 1
        assert agg["runs_with_problems"] == 0
        assert agg["cycles"]["total"] == 1234.0
        assert agg["histograms"]["invoke.latency"]["count"] == 4
        (run_dir / "metrics.json").write_text("[1, 2, 3]")
        agg = aggregate_sweep(str(tmp_path))
        assert agg["runs"] == 1
        assert agg["runs_with_problems"] == 1
        assert agg["cycles"]["total"] == 0

    def test_torn_attribution_counts_as_a_problem_once(self, tmp_path):
        from repro.experiments.telemetry_report import aggregate_sweep

        torn = self._run(tmp_path, "a", {"2.0": 4}, 4, {"dram.accesses": 1})
        self._run(tmp_path, "b", {"2.0": 4}, 4, {"dram.accesses": 1})
        (torn / "attribution.json").write_text('{"classes": {"get": {"cou')
        agg = aggregate_sweep(str(tmp_path))
        assert agg["runs"] == 2
        assert agg["runs_with_problems"] == 1
        (torn / "metrics.json").write_text("[1, 2, 3]")  # both files bad
        assert aggregate_sweep(str(tmp_path))["runs_with_problems"] == 1
        (torn / "attribution.json").unlink()
        assert aggregate_sweep(str(tmp_path))["runs_with_problems"] == 1

    def test_write_dashboard_empty_root(self, tmp_path):
        from repro.experiments.telemetry_report import write_dashboard

        assert write_dashboard(str(tmp_path)) is None
        assert not (tmp_path / "dashboard.json").exists()
