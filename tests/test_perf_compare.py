"""The regression verdict engine (repro.perf.compare)."""

import json

import pytest

import repro.experiments.cli as cli
from repro.perf.compare import compare, has_regression, render_verdicts


def payload(**benchmarks):
    """A minimal bench payload: name -> (median, q1, q3)."""
    return {
        "benchmarks": {
            name: {"median_s": m, "q1_s": q1, "q3_s": q3}
            for name, (m, q1, q3) in benchmarks.items()
        }
    }


def calls_payload(calls_per_unit, python="3.11.7"):
    """One benchmark ``b`` with calls per unit, recorded on ``python``."""
    entry = {"median_s": 1.0, "calls_per_unit": calls_per_unit}
    return {"fingerprint": {"python": python}, "benchmarks": {"b": entry}}


def one_verdict(old, new):
    verdicts = compare(old, new)
    assert len(verdicts) == 1
    return verdicts[0]


class TestVerdicts:
    def test_regression_needs_both_magnitude_and_iqr(self):
        old = payload(b=(1.0, 0.9, 1.1))
        verdict = one_verdict(old, payload(b=(3.5, 3.4, 3.6)))
        assert verdict.status == "REGRESSION"
        assert verdict.ratio == pytest.approx(3.5)
        assert "3x baseline" in verdict.note and "q3" in verdict.note

    def test_slowdown_below_factor_is_ok(self):
        # 2.9x the baseline median and above q3, but under the 3x
        # magnitude threshold: jitter, not a verdict.
        old = payload(b=(1.0, 0.9, 1.1))
        assert one_verdict(old, payload(b=(2.9, 2.8, 3.0))).status == "ok"

    def test_slowdown_within_baseline_iqr_is_ok(self):
        # A wildly noisy baseline whose own trials spread past 3x the
        # median: the magnitude test alone would cry regression.
        old = payload(b=(1.0, 0.5, 4.0))
        assert one_verdict(old, payload(b=(3.5, 3.4, 3.6))).status == "ok"

    def test_faster_is_symmetric(self):
        old = payload(b=(1.0, 0.9, 1.1))
        verdict = one_verdict(old, payload(b=(0.3, 0.2, 0.4)))
        assert verdict.status == "faster"

    def test_small_speedup_is_ok(self):
        old = payload(b=(1.0, 0.9, 1.1))
        assert one_verdict(old, payload(b=(0.8, 0.7, 0.9))).status == "ok"

    def test_new_and_missing_never_fail(self):
        old = payload(gone=(1.0, 0.9, 1.1))
        new = payload(added=(1.0, 0.9, 1.1))
        verdicts = {v.name: v for v in compare(old, new)}
        assert verdicts["gone"].status == "missing"
        assert verdicts["added"].status == "new"
        assert not has_regression(list(verdicts.values()))

    def test_missing_iqr_falls_back_to_median(self):
        old = {"benchmarks": {"b": {"median_s": 1.0}}}
        new = payload(b=(3.5, 3.4, 3.6))
        assert one_verdict(old, new).status == "REGRESSION"

    def test_zero_baseline_median_never_regresses(self):
        old = payload(b=(0.0, 0.0, 0.0))
        verdict = one_verdict(old, payload(b=(1.0, 0.9, 1.1)))
        assert verdict.status == "ok"
        assert verdict.ratio is None


class TestCallsVerdict:
    def test_calls_rise_over_one_percent_is_regression(self):
        # Another patch release of the same minor still compares calls.
        old = calls_payload(10.0, python="3.11.2")
        verdict = one_verdict(old, calls_payload(10.15))
        assert verdict.status == "REGRESSION"
        assert "calls per unit" in verdict.note
        assert (verdict.old_calls, verdict.new_calls) == (10.0, 10.15)

    def test_calls_rise_under_one_percent_is_ok(self):
        verdict = one_verdict(calls_payload(10.0), calls_payload(10.05))
        assert verdict.status == "ok"
        assert verdict.note == ""

    @pytest.mark.parametrize(
        "old, reason",
        [
            (
                calls_payload(10.0, python="3.12.1"),
                "baseline Python 3.12, current 3.11",
            ),
            (payload(b=(1.0, 1.0, 1.0)), "baseline Python ?, current 3.11"),
            (calls_payload(None), "no calls in the baseline"),
        ],
        ids=["other-minor", "no-fingerprint", "no-calls"],
    )
    def test_calls_not_compared_and_said_so(self, old, reason):
        verdict = one_verdict(old, calls_payload(15.0))
        assert verdict.status == "ok"
        assert verdict.note == f"calls not compared: {reason}"
        assert verdict.old_calls is None and verdict.new_calls is None


class TestRender:
    def test_render_mentions_counts_and_rule(self):
        old = payload(bad=(1.0, 0.9, 1.1), fine=(1.0, 0.9, 1.1))
        new = payload(bad=(9.0, 8.9, 9.1), fine=(1.0, 0.9, 1.1))
        text = render_verdicts(compare(old, new))
        assert "1 regression(s)" in text
        assert (
            "calls per unit more than 1% over baseline, "
            "or median beyond 3x baseline AND above its q3"
        ) in text
        assert "REGRESSION" in text
        assert "9.00x" in text


class TestCompareCli:
    """`bench --compare OLD NEW` must exit nonzero on a synthetic
    regression fixture and zero when the runs agree."""

    def _write(self, tmp_path, name, **benchmarks):
        path = tmp_path / name
        path.write_text(json.dumps(payload(**benchmarks)))
        return str(path)

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", b=(1.0, 0.9, 1.1))
        new = self._write(tmp_path, "new.json", b=(5.0, 4.9, 5.1))
        assert cli.main(["bench", "--compare", old, new]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_matching_runs_exit_zero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", b=(1.0, 0.9, 1.1))
        new = self._write(tmp_path, "new.json", b=(1.05, 1.0, 1.1))
        assert cli.main(["bench", "--compare", old, new]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_calls_regression_exits_nonzero(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(calls_payload(10.0)))
        new.write_text(json.dumps(calls_payload(10.5)))
        assert cli.main(["bench", "--compare", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION  (calls per unit 10.50 > baseline 10.00 + 1%)" in out

    def test_run_then_compare_against_fresh_self_passes(self, tmp_path, capsys):
        """Running one cheap benchmark and comparing against a baseline
        recorded from the same machine must not regress."""
        run_rc = cli.main(
            [
                "bench", "--trials", "1", "--warmup", "0",
                "--filter", "noc", "--out", str(tmp_path),
            ]
        )
        assert run_rc == 0
        baseline = next(tmp_path.glob("BENCH_*.json"))
        generous = json.loads(baseline.read_text())
        for entry in generous["benchmarks"].values():
            entry["median_s"] *= 10
            entry["q1_s"] = entry["median_s"] * 0.9
            entry["q3_s"] = entry["median_s"] * 1.1
        baseline.write_text(json.dumps(generous))
        rc = cli.main(
            [
                "bench", "--trials", "1", "--warmup", "0",
                "--filter", "noc", "--out", str(tmp_path / "again"),
                "--compare", str(baseline),
            ]
        )
        capsys.readouterr()
        assert rc == 0
