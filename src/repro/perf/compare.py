"""Regression verdicts between two bench payloads.

A benchmark regresses on either of two signals:

- its Python calls per unit rise more than :data:`CALLS_TOLERANCE`
  over the baseline's. Counts repeat exactly, so this resolves changes
  far below wall-clock noise; they are compared only between files of
  one Python major.minor, whose interpreter and standard library make
  the same calls;
- its new median exceeds :data:`WALL_FACTOR` x the baseline median
  *and* the baseline's q3 (its own trials never spread that far). This
  backstop catches what a call count cannot see, such as a slow builtin
  or a quadratic loop inside one call.

Improvements beyond the same wall-clock margin are flagged ``faster``,
benchmarks present on only one side are reported but never fail the
comparison, and :func:`has_regression` drives the CLI's nonzero exit.
"""

from dataclasses import dataclass

#: One added call per ``Hierarchy._walk`` raises every benchmark that
#: walks the hierarchy by more than this; the smallest rise is 0.85%.
CALLS_TOLERANCE = 0.005

#: Wide because a hosted runner is slower and noisier than the machine
#: that recorded the baseline.
WALL_FACTOR = 3.0


@dataclass
class Verdict:
    """The comparison outcome for one benchmark name."""

    name: str
    status: str  # "ok" | "faster" | "REGRESSION" | "new" | "missing"
    old_median: float = None
    new_median: float = None
    ratio: float = None
    #: Calls per unit on each side; ``None`` when calls were not compared.
    old_calls: float = None
    new_calls: float = None
    note: str = ""


def _python_minor(payload):
    version = payload.get("fingerprint", {}).get("python") or "?"
    return ".".join(version.split(".")[:2])


def _verdict_for(name, old, new, calls_skipped):
    om = old["median_s"]
    nm = new["median_s"]
    ratio = (nm / om) if om > 0 else None
    q1 = old.get("q1_s", om)
    q3 = old.get("q3_s", om)
    old_calls = old.get("calls_per_unit")
    new_calls = new.get("calls_per_unit")
    if not calls_skipped and None in (old_calls, new_calls):
        side = "baseline" if old_calls is None else "current run"
        calls_skipped = f"no calls in the {side}"
    notes = []
    if not calls_skipped and new_calls > old_calls * (1 + CALLS_TOLERANCE):
        notes.append(
            f"calls per unit {new_calls:.2f} > baseline {old_calls:.2f} "
            f"+ {CALLS_TOLERANCE:.1%}"
        )
    if om > 0 and nm > om * WALL_FACTOR and nm > q3:
        notes.append(
            f"median {nm:.4f}s > {WALL_FACTOR:g}x baseline {om:.4f}s "
            f"and above its q3 {q3:.4f}s"
        )
    if notes:
        status = "REGRESSION"
    elif om > 0 and nm * WALL_FACTOR < om and nm < q1:
        status = "faster"
    else:
        status = "ok"
    if calls_skipped:
        notes.append(f"calls not compared: {calls_skipped}")
        old_calls = new_calls = None
    return Verdict(name, status, om, nm, ratio, old_calls, new_calls, "; ".join(notes))


def compare(old_payload, new_payload):
    """Verdicts for every benchmark present in either payload."""
    old_b = old_payload["benchmarks"]
    new_b = new_payload["benchmarks"]
    old_minor, new_minor = _python_minor(old_payload), _python_minor(new_payload)
    calls_skipped = None
    if old_minor != new_minor or old_minor == "?":
        calls_skipped = f"baseline Python {old_minor}, current {new_minor}"
    verdicts = []
    for name in sorted(set(old_b) | set(new_b)):
        if name not in new_b:
            verdicts.append(
                Verdict(name, "missing", old_median=old_b[name]["median_s"],
                        note="present in baseline only")
            )
        elif name not in old_b:
            verdicts.append(
                Verdict(name, "new", new_median=new_b[name]["median_s"],
                        note="no baseline entry yet")
            )
        else:
            verdicts.append(
                _verdict_for(name, old_b[name], new_b[name], calls_skipped)
            )
    return verdicts


def has_regression(verdicts):
    return any(v.status == "REGRESSION" for v in verdicts)


def render_verdicts(verdicts):
    """The verdict table the CLI prints."""
    header = (
        f"{'benchmark':28s} {'baseline':>10s} {'current':>10s} "
        f"{'ratio':>7s} {'calls/unit':>17s}  verdict"
    )
    lines = [header, "-" * len(header)]
    for v in verdicts:
        old = f"{v.old_median:9.4f}s" if v.old_median is not None else "      --  "
        new = f"{v.new_median:9.4f}s" if v.new_median is not None else "      --  "
        ratio = f"{v.ratio:6.2f}x" if v.ratio is not None else "    -- "
        calls = "--" if v.old_calls is None else f"{v.old_calls:.2f} -> {v.new_calls:.2f}"
        tail = f"  ({v.note})" if v.note else ""
        lines.append(f"{v.name:28s} {old} {new} {ratio} {calls:>17s}  {v.status}{tail}")
    regressions = sum(1 for v in verdicts if v.status == "REGRESSION")
    lines.append(
        f"{regressions} regression(s) (regression = calls per unit more than "
        f"{CALLS_TOLERANCE:.1%} over baseline, or median beyond "
        f"{WALL_FACTOR:g}x baseline AND above its q3)"
    )
    return "\n".join(lines)
