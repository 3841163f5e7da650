"""Profiler harness: cProfile with subsystem attribution + flamegraphs.

:class:`ProfileHarness` runs a callable under two collectors at once:

- **cProfile** (deterministic): every function's own time (``tottime``)
  is attributed to a *subsystem* by its module path -- ``sim.scheduler``,
  ``sim.cache``, ``sim.noc``, ``core.offload``, ``telemetry``, ... --
  giving a per-subsystem wall-time breakdown whose buckets sum exactly
  to the total profiled time (everything unmatched lands in ``other``),
  plus a top-N hot-function table and a ``pstats`` dump for ad-hoc
  digging.
- **a stack sampler** (statistical): a daemon thread snapshots the
  profiled thread's Python stack every few milliseconds and folds the
  samples into Brendan-Gregg collapsed-stack lines
  (``root;caller;callee count``), the input format of ``flamegraph.pl``
  and https://www.speedscope.app.

Both collectors observe only; the profiled function's results are
bit-identical to an unprofiled call (the simulator consults no clocks).
"""

import cProfile
import json
import os
import pstats
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field

from repro.perf.fingerprint import fingerprint

#: Module-prefix -> subsystem label, first match wins (order matters:
#: specific prefixes before their parents).
SUBSYSTEM_RULES = [
    ("repro.sim.telemetry", "telemetry"),
    ("repro.sim.faults", "sim.faults"),
    ("repro.sim.noc", "sim.noc"),
    ("repro.sim.dram", "sim.dram"),
    ("repro.sim.scheduler", "sim.scheduler"),
    ("repro.sim.thread", "sim.scheduler"),
    ("repro.sim.ops", "sim.scheduler"),
    ("repro.sim.events", "sim.scheduler"),
    ("repro.sim.system", "sim.scheduler"),
    ("repro.sim.cache", "sim.cache"),
    ("repro.sim.hierarchy", "sim.cache"),
    ("repro.sim.access", "sim.cache"),
    ("repro.sim.coherence", "sim.cache"),
    ("repro.sim.prefetch", "sim.cache"),
    ("repro.sim.address", "sim.cache"),
    ("repro.sim.stats", "sim.stats"),
    ("repro.sim", "sim.other"),
    ("repro.core.stream", "core.stream"),
    ("repro.core.morph", "core.morph"),
    ("repro.core", "core.offload"),
    ("repro.workloads", "workloads"),
    ("repro.experiments", "experiments"),
    ("repro.perf", "perf"),
    ("repro", "repro.other"),
]


def module_of(filename):
    """Best-effort dotted module path for a profiler filename."""
    if not filename or filename.startswith("<"):
        return ""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index < 0:
        return ""
    dotted = path[index + 1 :]
    if dotted.endswith(".py"):
        dotted = dotted[:-3]
    return dotted.replace("/", ".")


def classify(filename):
    """Subsystem label for one profiled file (``other`` off-repo)."""
    module = module_of(filename)
    if module:
        for prefix, label in SUBSYSTEM_RULES:
            if module == prefix or module.startswith(prefix + "."):
                return label
    return "other"


@dataclass
class ProfileReport:
    """Digested cProfile output: attribution + hot functions."""

    #: Total profiled time: the sum of every function's own time.
    total_s: float = 0.0
    #: Subsystem label -> seconds of own time. Sums to ``total_s``.
    subsystems: dict = field(default_factory=dict)
    #: Top-N functions by own time.
    hot: list = field(default_factory=list)

    @classmethod
    def from_profile(cls, profile, top=30):
        """Digest a :class:`cProfile.Profile` that has run.

        Reads the raw entries (``profile.getstats()``) rather than
        :mod:`pstats`, which keys functions by ``(file, line, name)``
        and keeps only the last entry per key. Every dataclass-generated
        ``__init__`` shares the label ``("<string>", 2, "__init__")``,
        so pstats drops all but one of them, with their calls and own
        time. Entries that share a label are summed here instead.
        """
        merged = {}
        for entry in profile.getstats():
            code = entry.code
            if isinstance(code, str):  # a builtin, labelled as pstats does
                key = ("~", 0, code)
            else:
                key = (code.co_filename, code.co_firstlineno, code.co_name)
            row = merged.setdefault(key, [0, 0.0, 0.0])
            row[0] += entry.callcount
            row[1] += entry.inlinetime
            row[2] += entry.totaltime
        total = 0.0
        subsystems = {}
        rows = []
        for (filename, lineno, funcname), (nc, tt, ct) in merged.items():
            total += tt
            label = classify(filename)
            subsystems[label] = subsystems.get(label, 0.0) + tt
            rows.append(
                {
                    "function": funcname,
                    "module": module_of(filename) or filename,
                    "line": lineno,
                    "subsystem": label,
                    "calls": nc,
                    "tottime_s": tt,
                    "cumtime_s": ct,
                }
            )
        rows.sort(key=lambda row: row["tottime_s"], reverse=True)
        return cls(total_s=total, subsystems=subsystems, hot=rows[:top])

    def to_dict(self):
        return {
            "total_s": round(self.total_s, 6),
            "subsystems": {
                label: round(seconds, 6)
                for label, seconds in sorted(
                    self.subsystems.items(), key=lambda kv: -kv[1]
                )
            },
            "hot": [
                {**row, "tottime_s": round(row["tottime_s"], 6),
                 "cumtime_s": round(row["cumtime_s"], 6)}
                for row in self.hot
            ],
        }

    def render(self, top=15):
        lines = [f"profiled {self.total_s:.3f}s of function time"]
        lines.append("per-subsystem breakdown:")
        for label, seconds in sorted(
            self.subsystems.items(), key=lambda kv: -kv[1]
        ):
            share = 100.0 * seconds / self.total_s if self.total_s else 0.0
            lines.append(f"  {label:16s} {seconds:8.3f}s  {share:5.1f}%")
        lines.append(f"top {min(top, len(self.hot))} functions by own time:")
        for row in self.hot[:top]:
            lines.append(
                f"  {row['tottime_s']:8.3f}s {row['calls']:>9d}x "
                f"{row['module']}:{row['function']} [{row['subsystem']}]"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# collapsed stacks
# ----------------------------------------------------------------------
def _frame_name(frame):
    module = frame.f_globals.get("__name__") or module_of(
        frame.f_code.co_filename
    ) or "?"
    name = f"{module}.{frame.f_code.co_name}"
    # ';' separates frames and ' ' separates the count in the folded
    # format; neither may appear inside a frame name.
    return name.replace(";", ":").replace(" ", "_")


def _stack_key(frame):
    """Root-first tuple of frame names for one sampled stack."""
    names = []
    while frame is not None:
        names.append(_frame_name(frame))
        frame = frame.f_back
    names.reverse()
    return tuple(names)


class StackSampler:
    """Samples one thread's Python stack from a daemon thread.

    ``sys._current_frames()`` snapshots are taken every ``interval``
    seconds and accumulated as ``stack-tuple -> samples``; the profiled
    code is never touched, so sampling composes with cProfile (which
    hooks only call events on its own thread).
    """

    def __init__(self, interval=0.002, target_ident=None):
        self.interval = interval
        self.target_ident = (
            threading.get_ident() if target_ident is None else target_ident
        )
        self.counts = Counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample_loop, name="perf-stack-sampler", daemon=True
        )

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _sample_loop(self):
        while not self._stop.is_set():
            frame = sys._current_frames().get(self.target_ident)
            if frame is not None:
                self.counts[_stack_key(frame)] += 1
            del frame
            self._stop.wait(self.interval)

    def folded(self):
        return fold_stacks(self.counts)


def fold_stacks(counts):
    """Collapsed-stack text: one ``frame;frame;... count`` line each."""
    lines = [
        ";".join(stack) + f" {count}"
        for stack, count in sorted(counts.items())
        if stack
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
class ProfileHarness:
    """Run a callable under cProfile + the stack sampler, keep both.

    After :meth:`run`, ``self.report`` holds the
    :class:`ProfileReport`, ``self.folded`` the collapsed-stack text,
    and :meth:`save` writes the artifact triple (``profile.json``,
    ``profile.pstats``, ``stacks.folded``) into a directory.
    """

    def __init__(self, top=30, sample_interval=0.002, sample=True):
        self.top = top
        self.sample_interval = sample_interval
        self.sample = sample
        self.profile = None
        self.report = None
        self.folded = ""

    def run(self, fn, *args, **kwargs):
        sampler = None
        if self.sample:
            sampler = StackSampler(interval=self.sample_interval).start()
        profile = cProfile.Profile()
        try:
            result = profile.runcall(fn, *args, **kwargs)
        finally:
            if sampler is not None:
                sampler.stop()
                self.folded = sampler.folded()
            self.profile = profile
            self.report = ProfileReport.from_profile(profile, top=self.top)
        return result

    def save(self, outdir):
        """Write profile.json / profile.pstats / stacks.folded."""
        if self.report is None:
            raise RuntimeError("nothing profiled yet; call run() first")
        os.makedirs(outdir, exist_ok=True)
        payload = {"fingerprint": fingerprint(), **self.report.to_dict()}
        with open(os.path.join(outdir, "profile.json"), "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        pstats.Stats(self.profile).dump_stats(
            os.path.join(outdir, "profile.pstats")
        )
        with open(os.path.join(outdir, "stacks.folded"), "w") as handle:
            handle.write(self.folded)
        return outdir
