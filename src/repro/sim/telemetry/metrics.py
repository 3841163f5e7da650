"""The metrics registry: counters, gauges, log histograms, time series.

Four metric kinds cover what the evaluation needs:

- :class:`Counter` -- a monotonically increasing total (NACKs, flits);
- :class:`Gauge` -- a point-in-time value (final cycle count);
- :class:`LogHistogram` -- a log2-bucketed distribution (invoke
  latency: values span four orders of magnitude, so linear buckets
  would be useless);
- :class:`TimeSeries` -- windowed sampling over simulated time (queue
  depths, buffer occupancy, NoC utilization, per-bank LLC pressure).
  Samples are aggregated per fixed-width window of simulated cycles, so
  memory stays bounded no matter how many events a run emits.

Metrics are created (and found again) through a
:class:`MetricsRegistry`, keyed by name plus an optional label dict
(``registry.counter("llc.accesses", labels={"bank": 3})``), mirroring
the Prometheus data model. The registry exports a JSON snapshot
(:meth:`MetricsRegistry.snapshot`) and a Prometheus-style text dump
(:meth:`MetricsRegistry.render_prometheus`).
"""

import json
import math
import re


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value with its last-update timestamp."""

    __slots__ = ("value", "updated_at")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self.updated_at = None

    def set(self, value, t=None):
        self.value = value
        self.updated_at = t

    def inc(self, amount=1, t=None):
        self.value += amount
        self.updated_at = t

    def snapshot(self):
        return self.value


class LogHistogram:
    """A histogram with log2-scaled buckets.

    Bucket ``b`` counts observations in ``(2**(b-1), 2**b]``; values
    below 1 land in bucket 0. Percentiles are estimated as the upper
    bound of the bucket containing the requested rank -- coarse, but
    the buckets are what make the histogram O(64) no matter how skewed
    the latency distribution is.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")
    kind = "histogram"

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.buckets = {}

    @staticmethod
    def bucket_of(value):
        if value <= 1:
            return 0
        return int(math.ceil(math.log2(value)))

    @staticmethod
    def bucket_bound(bucket):
        return float(2**bucket)

    def observe(self, value):
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        b = self.bucket_of(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def merge(self, snapshot):
        """Fold in another histogram's :meth:`snapshot`, bucket by bucket.

        The result is the histogram of both sample sets together, so
        sweep-wide percentiles follow the same rule as per-run ones.
        An empty snapshot changes nothing.
        """
        if not snapshot.get("count"):
            return self
        self.count += snapshot["count"]
        self.sum += snapshot["sum"]
        low, high = snapshot["min"], snapshot["max"]
        if low is not None:
            self.min = low if self.min is None else min(self.min, low)
        if high is not None:
            self.max = high if self.max is None else max(self.max, high)
        for bound, n in snapshot["buckets"].items():
            b = int(float(bound)).bit_length() - 1  # bound is 2**b
            self.buckets[b] = self.buckets.get(b, 0) + n
        return self

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p):
        """Upper-bound estimate of the ``p``-th percentile (0 < p <= 100)."""
        if not self.count:
            return 0.0
        rank = math.ceil(self.count * p / 100.0)
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= rank:
                return self.bucket_bound(b)
        return self.bucket_bound(max(self.buckets))

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": {str(self.bucket_bound(b)): n for b, n in sorted(self.buckets.items())},
        }


class TimeSeries:
    """Windowed time-series sampling over simulated cycles.

    ``record(t, value)`` folds the sample into the window containing
    ``t``; each window keeps count/sum/min/max/last. ``mode`` selects
    the representative value a window exports (for counter tracks in
    the Perfetto trace): ``"last"`` suits occupancy/queue-depth series,
    ``"sum"`` suits per-window traffic (NoC flit-hops, bank accesses),
    ``"mean"`` suits rates.
    """

    __slots__ = ("window", "mode", "bins")
    kind = "timeseries"

    def __init__(self, window=1024, mode="last"):
        if window <= 0:
            raise ValueError("window must be positive")
        if mode not in ("last", "sum", "mean", "max"):
            raise ValueError(f"unknown timeseries mode {mode!r}")
        self.window = window
        self.mode = mode
        #: window index -> [count, sum, min, max, last]
        self.bins = {}

    def record(self, t, value=1.0):
        idx = int(t // self.window)
        bin_ = self.bins.get(idx)
        if bin_ is None:
            self.bins[idx] = [1, value, value, value, value]
            return
        bin_[0] += 1
        bin_[1] += value
        if value < bin_[2]:
            bin_[2] = value
        if value > bin_[3]:
            bin_[3] = value
        bin_[4] = value

    def samples(self):
        """Per-window aggregates, sorted by window start time."""
        out = []
        for idx in sorted(self.bins):
            count, total, mn, mx, last = self.bins[idx]
            mean = total / count
            value = {"last": last, "sum": total, "mean": mean, "max": mx}[self.mode]
            out.append(
                {
                    "t0": idx * self.window,
                    "count": count,
                    "sum": total,
                    "mean": mean,
                    "min": mn,
                    "max": mx,
                    "last": last,
                    "value": value,
                }
            )
        return out

    def snapshot(self):
        return {"window": self.window, "mode": self.mode, "samples": self.samples()}


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": LogHistogram,
    "timeseries": TimeSeries,
}


def _label_key(labels):
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(label_key):
    if not label_key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in label_key) + "}"


def _escape_label_value(value):
    """Escape one label value per the Prometheus exposition format:
    backslash, double quote, and newline must be ``\\\\``, ``\\"``, and
    ``\\n`` -- otherwise a value like ``link="a\"b"`` tears the line."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text):
    """HELP text allows any UTF-8 but must escape backslash and newline."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_label_name(name):
    """Sanitize one label *name* per the exposition format.

    Label names must match ``[a-zA-Z_][a-zA-Z0-9_]*`` -- unlike label
    values they cannot be escaped, only rewritten.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_]", "_", str(name))
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_suffix(label_key):
    """Like :func:`_label_suffix`, but exposition-format escaped.

    JSON snapshot keys keep the raw names and values (they live inside
    JSON strings, which have their own escaping); only the text
    exposition needs sanitized label names and escaped values."""
    if not label_key:
        return ""
    return (
        "{"
        + ",".join(
            f'{_prom_label_name(k)}="{_escape_label_value(v)}"'
            for k, v in label_key
        )
        + "}"
    )


def _prom_name(name, kind=None):
    """The exposition-format metric name for ``name``.

    Invalid characters are rewritten to ``_``; counters get the
    conventional ``_total`` suffix exactly once (a metric already named
    ``*_total`` -- possibly only after sanitization -- is not
    double-suffixed).
    """
    prom = "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if kind == "counter" and not prom.endswith("_total"):
        prom += "_total"
    return prom


class MetricsRegistry:
    """Name + labels -> metric instance, with get-or-create semantics.

    Asking for an existing metric with a different kind raises; asking
    with the same kind returns the existing instance, so emit sites
    never need to pre-declare what they increment.
    """

    def __init__(self, default_window=1024):
        self.default_window = default_window
        #: name -> {"kind": str, "help": str, "series": {label_key: metric}}
        self._families = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------
    def _get(self, kind, name, labels, help="", **kwargs):
        family = self._families.get(name)
        if family is None:
            family = {"kind": kind, "help": help, "series": {}}
            self._families[name] = family
        elif family["kind"] != kind:
            raise TypeError(
                f"metric {name!r} already registered as {family['kind']}, "
                f"requested as {kind}"
            )
        key = _label_key(labels)
        metric = family["series"].get(key)
        if metric is None:
            metric = family["series"][key] = _KINDS[kind](**kwargs)
        return metric

    def counter(self, name, labels=None, help=""):
        return self._get("counter", name, labels, help)

    def gauge(self, name, labels=None, help=""):
        return self._get("gauge", name, labels, help)

    def histogram(self, name, labels=None, help=""):
        return self._get("histogram", name, labels, help)

    def timeseries(self, name, labels=None, help="", window=None, mode="last"):
        return self._get(
            "timeseries",
            name,
            labels,
            help,
            window=window or self.default_window,
            mode=mode,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def names(self):
        return sorted(self._families)

    def kind_of(self, name):
        return self._families[name]["kind"]

    def series(self, name):
        """``{label_key: metric}`` for one family (empty if unknown)."""
        family = self._families.get(name)
        return dict(family["series"]) if family else {}

    def value(self, name, labels=None):
        """Convenience: the snapshot of one metric (None if absent)."""
        family = self._families.get(name)
        if family is None:
            return None
        metric = family["series"].get(_label_key(labels))
        return metric.snapshot() if metric is not None else None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self, meta=None):
        """A JSON-serializable snapshot of every metric, by kind."""
        out = {"meta": dict(meta or {}), "counters": {}, "gauges": {},
               "histograms": {}, "timeseries": {}}
        section = {
            "counter": "counters",
            "gauge": "gauges",
            "histogram": "histograms",
            "timeseries": "timeseries",
        }
        for name in sorted(self._families):
            family = self._families[name]
            bucket = out[section[family["kind"]]]
            for key in sorted(family["series"]):
                bucket[name + _label_suffix(key)] = family["series"][key].snapshot()
        return out

    def to_json(self, meta=None, indent=2):
        return json.dumps(self.snapshot(meta=meta), indent=indent, sort_keys=True)

    def render_prometheus(self, meta=None):
        """A Prometheus-style text exposition of the registry.

        Counters render as ``_total``, histograms as cumulative
        ``_bucket{le=...}`` series plus ``_sum``/``_count``; time series
        render their final window's representative value as a gauge
        (Prometheus has no native history type).
        """
        lines = []
        for name in sorted(self._families):
            family = self._families[name]
            kind = family["kind"]
            # The HELP/TYPE lines must carry the same name the samples
            # use, so the counter suffix is applied before either.
            prom = _prom_name(name, kind)
            if family["help"]:
                lines.append(f"# HELP {prom} {_escape_help(family['help'])}")
            if kind == "counter":
                lines.append(f"# TYPE {prom} counter")
                for key in sorted(family["series"]):
                    value = family["series"][key].value
                    lines.append(f"{prom}{_prom_suffix(key)} {value}")
            elif kind == "gauge":
                lines.append(f"# TYPE {prom} gauge")
                for key in sorted(family["series"]):
                    value = family["series"][key].value
                    lines.append(f"{prom}{_prom_suffix(key)} {value}")
            elif kind == "histogram":
                lines.append(f"# TYPE {prom} histogram")
                for key in sorted(family["series"]):
                    hist = family["series"][key]
                    cumulative = 0
                    for b in sorted(hist.buckets):
                        cumulative += hist.buckets[b]
                        le = hist.bucket_bound(b)
                        labels = dict(key) | {"le": le}
                        lines.append(
                            f"{prom}_bucket{_prom_suffix(_label_key(labels))} {cumulative}"
                        )
                    labels = dict(key) | {"le": "+Inf"}
                    lines.append(
                        f"{prom}_bucket{_prom_suffix(_label_key(labels))} {hist.count}"
                    )
                    lines.append(f"{prom}_sum{_prom_suffix(key)} {hist.sum}")
                    lines.append(f"{prom}_count{_prom_suffix(key)} {hist.count}")
            elif kind == "timeseries":
                lines.append(f"# TYPE {prom} gauge")
                for key in sorted(family["series"]):
                    samples = family["series"][key].samples()
                    value = samples[-1]["value"] if samples else 0
                    lines.append(f"{prom}{_prom_suffix(key)} {value}")
        if meta:
            for k in sorted(meta):
                lines.append(f'# META {k} {_escape_help(meta[k])}')
        return "\n".join(lines) + "\n"

    def __repr__(self):
        n = sum(len(f["series"]) for f in self._families.values())
        return f"MetricsRegistry({len(self._families)} families, {n} series)"
