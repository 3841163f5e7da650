"""Latency-attribution invariants and the ``explain`` engine.

The contract of the critical-path attribution layer:

- per span, the component partition sums EXACTLY to the span's
  end-to-end latency (the taxonomy is a partition, not a sampling);
- fault-free serving runs attribute ~100% of request cycles to named
  components;
- attribution is a pure observer: macro figures (fig18 hash table)
  are bit-identical with and without a telemetry session attached;
- ``leviathan-repro explain`` and the sweep dashboard merge the
  machines' ``attribution.json`` (the live rollup) with one function,
  and never read a ``trace.json``;
- orphaned lifecycle events (an end without a beginning) are counted,
  never silently folded into a span;
- ``leviathan-repro explain`` renders waterfalls for run dirs and
  cached results, and ``--diff`` attributes a latency delta.
"""

import json
import math
import shutil
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.actor import Actor, action
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.experiments import explain as explain_mod
from repro.experiments.cli import main as cli_main
from repro.experiments.pool import encode_result
from repro.experiments.telemetry_report import (
    aggregate_sweep,
    render_dashboard,
)
from repro.sim.config import small_config
from repro.sim.ops import Compute, Load, Store
from repro.sim.system import Machine
from repro.sim.telemetry import Telemetry, TelemetrySession
from repro.sim.telemetry.critpath import (
    ATTRIBUTED,
    COMPONENTS,
    _fit_exact,
    attribute_span,
)
from repro.sim.telemetry.spans import SpanTracker
from repro.workloads import hashtable
from repro.workloads.serving import kvserve

KV_SMALL = dict(
    n_clients=2,
    requests_per_client=8,
    n_keys=64,
    mean_gap=30,
    scan_len=4,
    stream_buffer=16,
    seed=5,
)
HT_SMALL = dict(
    n_buckets=16,
    nodes_per_bucket=8,
    n_threads=8,
    lookups_per_thread=16,
    object_size=64,
)


class Cell(Actor):
    SIZE = 8

    @action
    def poke(self, env, amount=1):
        yield Load(self.addr, 8)
        yield Compute(1)
        mem = env.machine.mem
        yield Store(
            self.addr,
            8,
            apply=lambda: mem.__setitem__(
                self.addr, mem.get(self.addr, 0) + amount
            ),
        )


def _kv_session():
    """One kvserve run observed by a telemetry session."""
    with TelemetrySession() as session:
        kvserve.run_leviathan(KV_SMALL, n_tiles=4)
    telemetry = session.attached[0]
    telemetry.finalize()
    return telemetry


def _request_spans(telemetry):
    return [
        s
        for s in telemetry.spans.finished
        if s.cat in ("invoke", "stream")
    ]


class TestFitExact:
    def test_partition_is_exact_and_proportional(self):
        fitted = _fit_exact([1.0, 3.0, 0.1], 10.0)
        assert sum(fitted) == 10.0
        assert fitted[1] == pytest.approx(3 * fitted[0], rel=1e-9)
        assert all(v >= 0.0 for v in fitted)

    def test_zero_estimates_yield_zeros(self):
        assert _fit_exact([0.0, 0.0], 10.0) == [0.0, 0.0]
        assert _fit_exact([5.0], 0.0) == [0.0]


class TestExactPartition:
    def test_every_request_span_sums_to_its_latency(self):
        telemetry = _kv_session()
        spans = _request_spans(telemetry)
        assert len(spans) > 10
        for span in spans:
            comps = attribute_span(span)
            assert set(comps) == set(COMPONENTS)
            assert all(v >= 0.0 for v in comps.values()), (span, comps)
            assert sum(comps.values()) == pytest.approx(
                span.duration, abs=1e-6
            ), (span, comps)

    def test_fault_free_coverage_is_total(self):
        telemetry = _kv_session()
        assert telemetry.attribution.coverage() == pytest.approx(
            1.0, abs=1e-9
        )
        for cls, entry in telemetry.attribution.snapshot().items():
            assert entry["coverage"] == pytest.approx(1.0, abs=1e-9), cls

    def test_rollup_cycles_equal_span_latency_total(self):
        telemetry = _kv_session()
        snapshot = telemetry.attribution.snapshot()
        total = sum(e["cycles"] for e in snapshot.values())
        spans = _request_spans(telemetry)
        assert total == pytest.approx(
            sum(s.duration for s in spans), rel=1e-12
        )
        # The waterfall itself sums to the end-to-end latency.
        for cls, entry in snapshot.items():
            component_total = sum(
                c["total"] for c in entry["components"].values()
            )
            assert component_total == pytest.approx(
                entry["cycles"], rel=1e-9, abs=1e-6
            ), cls


class TestObserverPurity:
    @pytest.mark.parametrize(
        "run", [hashtable.run_baseline, hashtable.run_leviathan]
    )
    def test_fig18_bit_identical_with_session_attached(self, run):
        bare = run(dict(HT_SMALL))
        with TelemetrySession() as session:
            observed = run(dict(HT_SMALL))
        assert session.attached, "session saw no machine"
        assert observed.cycles == bare.cycles
        assert observed.output == bare.output
        assert observed.stats == bare.stats
        assert observed.energy_pj == bare.energy_pj


def _approx_equal(a, b, path=""):
    """Recursive comparison tolerating float accumulation-order drift."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b), path
        for key in a:
            _approx_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, float) or isinstance(b, float):
        assert b == pytest.approx(a, rel=1e-9, abs=1e-6), path
    else:
        assert a == b, path


class TestOfflineAgreement:
    def test_attribution_json_round_trips(self, tmp_path):
        telemetry = _kv_session()
        outdir = tmp_path / "machine-00"
        telemetry.save(str(outdir))
        with open(outdir / "attribution.json") as handle:
            payload = json.load(handle)
        assert payload["coverage"] == pytest.approx(1.0, abs=1e-9)
        assert set(payload["classes"]) == {"get", "put", "scan"}
        assert payload["meta"]["spans_orphaned"] == 0


class TestOrphanAccounting:
    def _ev(self, cid, time=10.0):
        return SimpleNamespace(cid=cid, time=time, tile=0, accepted=True)

    def test_end_without_begin_counts_orphan(self):
        tracker = SpanTracker()
        tracker.future_filled(self._ev(cid=999))
        tracker.engine_start(self._ev(cid=998))
        assert tracker.orphans == 2

    def test_post_close_chatter_is_not_an_orphan(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        telemetry = Telemetry(machine)
        cell = runtime.allocator_for(Cell, capacity=8).allocate()

        def prog():
            yield Invoke(cell, "poke", (1,), location=Location.REMOTE)

        machine.spawn(prog(), tile=0)
        machine.run()
        telemetry.finalize()
        assert telemetry.spans.orphans == 0

    def test_cap_dropped_span_events_are_not_orphans(self):
        machine = Machine(small_config())
        runtime = Leviathan(machine)
        telemetry = Telemetry(machine)
        telemetry.spans.max_spans = 1
        cell = runtime.allocator_for(Cell, capacity=8).allocate()

        def prog():
            for _ in range(5):
                yield Invoke(cell, "poke", (1,), location=Location.REMOTE)

        machine.spawn(prog(), tile=0)
        machine.run()
        telemetry.finalize()
        assert telemetry.spans.dropped > 0
        assert telemetry.spans.orphans == 0


@pytest.fixture(scope="module")
def kv_artifacts(tmp_path_factory):
    """Saved artifacts + cached-result entries for one kvserve study."""
    root = tmp_path_factory.mktemp("explain")
    with TelemetrySession() as session:
        lev = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
    telemetry = session.attached[0]
    run_dir = root / "runs" / "serve-kv-leviathan-abc" / "machine-00"
    telemetry.save(str(run_dir))
    base = kvserve.run_baseline(KV_SMALL, n_tiles=4)
    lev_entry = root / "lev.json"
    base_entry = root / "base.json"
    lev_entry.write_text(json.dumps({"result": encode_result(lev)}))
    base_entry.write_text(json.dumps({"result": encode_result(base)}))
    return {
        "root": root,
        "run_dir": run_dir,
        "telemetry": telemetry,
        "lev": lev,
        "lev_entry": lev_entry,
        "base_entry": base_entry,
    }


class TestExplain:
    def test_run_dir_report_matches_live_session(self, kv_artifacts):
        report = explain_mod.analyze(str(kv_artifacts["run_dir"]))
        telemetry = kv_artifacts["telemetry"]
        assert report["source_kind"] == "run-dir"
        assert report["coverage"] == pytest.approx(
            telemetry.attribution.coverage(), abs=1e-9
        )
        _approx_equal(
            telemetry.attribution.snapshot(), report["classes"]
        )

    def test_sweep_root_aggregates(self, kv_artifacts):
        report = explain_mod.analyze(str(kv_artifacts["root"]))
        assert report["machines"] == [str(kv_artifacts["run_dir"])]
        assert report["requests"] > 0

    def test_waterfall_markdown_fields(self, kv_artifacts):
        report = explain_mod.analyze(str(kv_artifacts["run_dir"]))
        text = explain_mod.render_markdown(report)
        assert "# Latency attribution:" in text
        assert "attribution coverage: **100.00%**" in text
        for cls in ("get", "put", "scan"):
            assert f"## {cls}" in text
        assert "| component | cycles | share | p50 | p95 | p99 |" in text

    def test_cache_entry_unflattens_stats(self, kv_artifacts):
        report = explain_mod.analyze(str(kv_artifacts["lev_entry"]))
        lev = kv_artifacts["lev"]
        assert report["source_kind"] == "cache-entry"
        assert report["coverage"] >= 0.99
        for cls in ("get", "put", "scan"):
            entry = report["classes"][cls]
            assert entry["count"] == lev.stat(f"attribution.{cls}.count")
            assert entry["cycles"] == pytest.approx(
                lev.stat(f"attribution.{cls}.cycles")
            )
            for component in COMPONENTS:
                assert entry["components"][component][
                    "total"
                ] == pytest.approx(
                    lev.stat(f"attribution.{cls}.{component}.total")
                )

    def test_diff_attributes_the_delta(self, kv_artifacts):
        diff = explain_mod.diff_reports(
            explain_mod.analyze(str(kv_artifacts["base_entry"])),
            explain_mod.analyze(str(kv_artifacts["lev_entry"])),
        )
        assert diff["machine_cycles_delta"] != 0
        get = diff["classes"]["get"]
        # Baseline records zero offloads; the whole mean is the delta.
        assert get["count_a"] == 0 and get["count_b"] > 0
        assert get["delta_mean"] == pytest.approx(get["mean_b"])
        component_delta = sum(
            c["delta_per_request"] for c in get["components"].values()
        )
        assert component_delta == pytest.approx(
            get["delta_mean"], rel=1e-9, abs=1e-6
        )
        text = explain_mod.render_diff_markdown(diff)
        assert "# Latency attribution diff" in text
        assert "| component | A cycles/req | B cycles/req |" in text

    def test_nonexistent_target_raises(self):
        with pytest.raises(FileNotFoundError):
            explain_mod.analyze("/nonexistent/run-dir")


class TestExplainCli:
    def test_explain_run_dir_writes_artifacts(self, kv_artifacts, capsys):
        run_dir = kv_artifacts["run_dir"]
        assert cli_main(["explain", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Latency attribution" in out
        report = json.loads((run_dir / "explain.json").read_text())
        assert report["kind"] == "leviathan-explain"
        assert (run_dir / "explain.md").exists()

    def test_explain_out_dot_writes_to_current_directory(
        self, kv_artifacts, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["explain", str(kv_artifacts["run_dir"]), "--out", "."]) == 0
        report = json.loads((tmp_path / "explain.json").read_text())
        assert report["kind"] == "leviathan-explain"
        assert (tmp_path / "explain.md").exists()

    def test_explain_diff_exit_code_and_output(self, kv_artifacts, capsys):
        code = cli_main(
            [
                "explain",
                "--diff",
                str(kv_artifacts["base_entry"]),
                str(kv_artifacts["lev_entry"]),
            ]
        )
        assert code == 0
        assert "Latency attribution diff" in capsys.readouterr().out

    def test_explain_without_target_is_usage_error(self, capsys):
        assert cli_main(["explain"]) == 2

    def test_explain_bad_target_is_usage_error(self, capsys):
        assert cli_main(["explain", "/nonexistent/whatever"]) == 2


class TestDocsExample:
    """docs/observability.md's "Why is this run slow?" section is
    executed, not aspirational: the documented commands run and emit
    the documented report shape."""

    DOC = Path(__file__).resolve().parent.parent / "docs" / "observability.md"

    def test_section_documents_the_real_commands(self):
        text = self.DOC.read_text()
        assert "## Why is this run slow? (`leviathan-repro explain`)" in text
        assert "leviathan-repro explain zoo-telemetry" in text
        assert "explain --diff" in text
        for component in ATTRIBUTED:
            assert f"`{component}`" in text or component in text

    def test_documented_explain_runs_and_matches_shape(
        self, kv_artifacts, capsys
    ):
        assert cli_main(["explain", str(kv_artifacts["run_dir"])]) == 0
        out = capsys.readouterr().out
        for marker in (
            "# Latency attribution:",
            "attribution coverage: **100.00%**",
            "| component | cycles | share | p50 | p95 | p99 |",
        ):
            assert marker in out
            assert marker.split("**")[0].strip() in self.DOC.read_text()

    def test_documented_diff_runs_and_matches_shape(
        self, kv_artifacts, capsys
    ):
        code = cli_main(
            [
                "explain",
                "--diff",
                str(kv_artifacts["base_entry"]),
                str(kv_artifacts["lev_entry"]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        doc = self.DOC.read_text()
        for marker in (
            "# Latency attribution diff",
            "| component | A cycles/req | B cycles/req | delta |",
        ):
            assert marker in out
            assert marker in doc


class TestDashboardWaterfall:
    def test_sweep_aggregation_carries_attribution(self, kv_artifacts):
        agg = aggregate_sweep(str(kv_artifacts["root"]))
        attribution = agg["attribution"]
        assert set(attribution) == {"get", "put", "scan"}
        for entry in attribution.values():
            assert entry["coverage"] == pytest.approx(1.0, abs=1e-9)
            total = sum(c["total"] for c in entry["components"].values())
            assert total == pytest.approx(
                entry["cycles"], rel=1e-9, abs=1e-6
            )
        text = render_dashboard(agg)
        assert "Latency attribution waterfall" in text
        assert "| component | cycles | share | p50 | p95 | p99 |" in text
        assert "| class | component |" not in text
        # The same per-class tables explain prints for the same runs.
        report = explain_mod.render_markdown(
            explain_mod.analyze(str(kv_artifacts["root"]))
        )
        waterfall = report[report.index("\n## get") :].rstrip("\n")
        assert waterfall in text
        assert "end-to-end: n=" in waterfall


@pytest.fixture(scope="module")
def kv_pair(tmp_path_factory):
    """A root holding two saved kvserve machines (different seeds)."""
    root = tmp_path_factory.mktemp("pair")
    with TelemetrySession() as session:
        kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        kvserve.run_leviathan(dict(KV_SMALL, seed=6), n_tiles=4)
    session.save(str(root))
    return root


def _percentile(buckets, p):
    """Upper bound of the bucket holding the ``p``-th percentile rank."""
    count = sum(buckets.values())
    if not count:
        return 0.0
    rank = math.ceil(count * p / 100.0)
    seen = 0
    for bound in sorted(buckets, key=float):
        seen += buckets[bound]
        if seen >= rank:
            return float(bound)
    raise AssertionError("rank beyond the buckets")


def _assert_merged(hist, parts):
    """``hist`` is the bucket-wise merge of the histogram ``parts``."""
    buckets = Counter()
    for part in parts:
        buckets.update(part["buckets"])
    assert hist["count"] == sum(part["count"] for part in parts)
    assert hist["buckets"] == dict(buckets)
    for p in (50, 95, 99):
        assert hist[f"p{p}"] == _percentile(buckets, p)


class TestSingleAttributionPath:
    """explain and the dashboard read the live rollup's files, merged
    by one function; no report re-derives attribution from a trace."""

    def test_truncated_trace_leaves_explain_unchanged(self, kv_artifacts, tmp_path):
        machine = tmp_path / "runs" / "kv" / "machine-00"
        shutil.copytree(kv_artifacts["run_dir"], machine)
        before = explain_mod.analyze(str(tmp_path))
        trace = machine / "trace.json"
        trace.write_bytes(trace.read_bytes()[:100])
        after = explain_mod.analyze(str(tmp_path))
        assert after == before
        assert after["machines"] == [str(machine)]
        assert after["problems"] == []

    def test_explain_and_dashboard_share_one_merge(self, kv_pair):
        report = explain_mod.analyze(str(kv_pair))
        files = [
            json.loads((kv_pair / name / "attribution.json").read_text())
            for name in ("machine-00", "machine-01")
        ]
        assert report["machines"] == [
            str(kv_pair / "machine-00"),
            str(kv_pair / "machine-01"),
        ]
        assert report["classes"] == aggregate_sweep(str(kv_pair))["attribution"]
        assert report["spans_orphaned"] == sum(
            f["meta"]["spans_orphaned"] for f in files
        )
        assert report["machine_cycles"] == sum(f["meta"]["cycles"] for f in files)
        for cls, entry in report["classes"].items():
            parts = [f["classes"][cls] for f in files]
            assert entry["count"] == sum(part["count"] for part in parts)
            assert entry["cycles"] == pytest.approx(
                sum(part["cycles"] for part in parts), rel=1e-12
            )
            _assert_merged(entry["latency"], [part["latency"] for part in parts])
            for component in COMPONENTS:
                comps = [part["components"][component] for part in parts]
                _assert_merged(entry["components"][component], comps)
                assert entry["components"][component]["total"] == pytest.approx(
                    sum(c["total"] for c in comps), rel=1e-12, abs=1e-9
                )

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (lambda path: path.unlink(), "missing attribution.json"),
            (
                lambda path: path.write_text(path.read_text()[:50]),
                "unreadable attribution.json",
            ),
        ],
        ids=["missing", "torn"],
    )
    def test_bad_attribution_file_is_a_problem(
        self, kv_pair, tmp_path, damage, problem
    ):
        root = tmp_path / "root"
        shutil.copytree(kv_pair, root)
        damage(root / "machine-00" / "attribution.json")
        report = explain_mod.analyze(str(root))
        assert len(report["problems"]) == 1
        assert report["problems"][0].startswith(str(root / "machine-00"))
        assert problem in report["problems"][0]
        assert report["machines"] == [str(root / "machine-01")]
        alone = json.loads((root / "machine-01" / "attribution.json").read_text())
        assert report["classes"] == alone["classes"]
        assert "!! " in explain_mod.render_markdown(report)
