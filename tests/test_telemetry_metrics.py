"""Unit tests for the metrics registry: kinds, labels, exports."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.telemetry.metrics import LogHistogram, MetricsRegistry, TimeSeries


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.counter("x").value == 5

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"bank": 0}).inc()
        reg.counter("hits", labels={"bank": 1}).inc(2)
        assert reg.counter("hits", labels={"bank": 0}).value == 1
        assert reg.counter("hits", labels={"bank": 1}).value == 2
        assert len(reg.series("hits")) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x", labels={"a": 1, "b": 2}).inc()
        assert reg.counter("x", labels={"b": 2, "a": 1}).value == 1

    def test_gauge_tracks_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(7, t=100)
        reg.gauge("depth").inc(-2, t=200)
        assert reg.gauge("depth").value == 5
        assert reg.gauge("depth").updated_at == 200

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestLogHistogram:
    def test_bucket_boundaries(self):
        assert LogHistogram.bucket_of(0) == 0
        assert LogHistogram.bucket_of(1) == 0
        assert LogHistogram.bucket_of(2) == 1
        assert LogHistogram.bucket_of(3) == 2
        assert LogHistogram.bucket_of(4) == 2
        assert LogHistogram.bucket_of(1025) == 11

    def test_stats(self):
        hist = LogHistogram()
        for value in (1, 2, 4, 100):
            hist.observe(value)
        assert hist.count == 4
        assert hist.min == 1 and hist.max == 100
        assert hist.mean == pytest.approx(26.75)

    def test_percentile_upper_bound(self):
        hist = LogHistogram()
        for _ in range(99):
            hist.observe(10)  # bucket (8, 16]
        hist.observe(5000)  # bucket (4096, 8192]
        assert hist.percentile(50) == 16
        assert hist.percentile(100) == 8192

    def test_empty_percentile(self):
        assert LogHistogram().percentile(95) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 10**7).map(float), max_size=25), max_size=5
        )
    )
    def test_merge_equals_histogram_of_concatenated_samples(self, parts):
        # Integral cycle counts keep every partial sum exact, so the
        # merged and the direct histograms must agree to the bit.
        merged = LogHistogram()
        whole = LogHistogram()
        for part in parts:
            hist = LogHistogram()
            for value in part:
                hist.observe(value)
                whole.observe(value)
            merged.merge(json.loads(json.dumps(hist.snapshot())))
        assert merged.snapshot() == whole.snapshot()


class TestTimeSeries:
    def test_windows_aggregate(self):
        ts = TimeSeries(window=100, mode="last")
        ts.record(10, 1)
        ts.record(90, 3)
        ts.record(150, 7)
        samples = ts.samples()
        assert [s["t0"] for s in samples] == [0, 100]
        assert samples[0]["count"] == 2 and samples[0]["value"] == 3
        assert samples[0]["min"] == 1 and samples[0]["max"] == 3
        assert samples[1]["value"] == 7

    def test_sum_mode(self):
        ts = TimeSeries(window=10, mode="sum")
        ts.record(1, 2)
        ts.record(2, 3)
        assert ts.samples()[0]["value"] == 5

    def test_memory_bounded_by_windows(self):
        ts = TimeSeries(window=1000)
        for t in range(10_000):
            ts.record(t, t)
        assert len(ts.bins) == 10

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(window=0)
        with pytest.raises(ValueError):
            TimeSeries(mode="median")


class TestExports:
    def _registry(self):
        reg = MetricsRegistry(default_window=100)
        reg.counter("nacks", labels={"tile": 1}, help="NACK total").inc(3)
        reg.gauge("cycles").set(1234)
        hist = reg.histogram("latency")
        for value in (2, 30, 400):
            hist.observe(value)
        series = reg.timeseries("occupancy")
        series.record(50, 2)
        series.record(150, 9)
        return reg

    def test_json_snapshot_round_trips(self):
        reg = self._registry()
        snap = json.loads(reg.to_json(meta={"run": "t"}))
        assert snap["meta"]["run"] == "t"
        assert snap["counters"]['nacks{tile="1"}'] == 3
        assert snap["gauges"]["cycles"] == 1234
        assert snap["histograms"]["latency"]["count"] == 3
        assert len(snap["timeseries"]["occupancy"]["samples"]) == 2

    def test_prometheus_rendering(self):
        text = self._registry().render_prometheus()
        assert '# TYPE repro_nacks_total counter' in text
        assert 'repro_nacks_total{tile="1"} 3' in text
        assert "repro_cycles 1234" in text
        # Histogram buckets are cumulative and capped by +Inf.
        assert 'repro_latency_bucket{le="512.0"} 3' in text
        assert 'repro_latency_bucket{le="+Inf"} 3' in text
        assert "repro_latency_count 3" in text
        # Time series export their final window's value.
        assert "repro_occupancy 9" in text

    def test_value_convenience(self):
        reg = self._registry()
        assert reg.value("nacks", labels={"tile": 1}) == 3
        assert reg.value("nacks", labels={"tile": 9}) is None
        assert reg.value("missing") is None


class TestPrometheusEscaping:
    """Exposition-format escaping (satellite of the observability PR):
    label values containing backslashes, quotes, or newlines must not
    tear the rendered line; JSON snapshot keys stay raw."""

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        raw = 'a\\b"c\nd'
        reg.counter("weird.metric", labels={"path": raw}).inc(3)
        text = reg.render_prometheus()
        assert 'path="a\\\\b\\"c\\nd"' in text
        # No rendered line may contain a raw newline mid-record: every
        # line is a comment or a sample.
        for line in text.splitlines():
            if line:
                assert line.startswith("#") or line.startswith("repro_")

    def test_snapshot_keys_stay_raw(self):
        reg = MetricsRegistry()
        raw = 'x"y'
        reg.counter("weird.metric", labels={"path": raw}).inc()
        keys = list(reg.snapshot()["counters"])
        assert keys == [f'weird.metric{{path="{raw}"}}']

    def test_help_and_meta_escaped(self):
        reg = MetricsRegistry()
        reg.counter("h.m", help="line1\nline2\\tail").inc()
        text = reg.render_prometheus(meta={"note": "a\nb"})
        # HELP carries the same (suffixed) name the samples use.
        assert "# HELP repro_h_m_total line1\\nline2\\\\tail" in text
        assert "# META note a\\nb" in text

    def test_histogram_le_labels_escaped_alongside_user_labels(self):
        reg = MetricsRegistry()
        reg.histogram("lat", labels={"who": 'q"q'}).observe(3)
        text = reg.render_prometheus()
        assert 'repro_lat_bucket{le="4.0",who="q\\"q"} 1' in text
        assert 'repro_lat_count{who="q\\"q"} 1' in text


class TestPrometheusNaming:
    """Exposition-format naming rules: counters end in ``_total`` on
    every line (HELP/TYPE/samples alike, never doubled), and invalid
    characters in metric *and label* names are rewritten -- JSON
    snapshot keys stay raw."""

    def test_counter_help_type_and_samples_share_the_suffixed_name(self):
        reg = MetricsRegistry()
        reg.counter("invoke.retries", help="resend count").inc(2)
        text = reg.render_prometheus()
        assert "# HELP repro_invoke_retries_total resend count" in text
        assert "# TYPE repro_invoke_retries_total counter" in text
        assert "repro_invoke_retries_total 2" in text
        # The unsuffixed name never appears as a sample.
        assert "\nrepro_invoke_retries " not in text

    def test_counter_named_total_is_not_double_suffixed(self):
        reg = MetricsRegistry()
        reg.counter("flits.total").inc(5)
        text = reg.render_prometheus()
        assert "repro_flits_total 5" in text
        assert "repro_flits_total_total" not in text

    def test_label_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("m", labels={"bad-name": "v", "9lead": "w"}).inc()
        text = reg.render_prometheus()
        assert 'bad_name="v"' in text
        assert '_9lead="w"' in text
        # Snapshot keys keep the raw label names.
        keys = list(reg.snapshot()["counters"])
        assert keys == ['m{9lead="w",bad-name="v"}']
