"""Small, pure helpers: the tail rule, paper error, failure share, digests."""

import hashlib
import json
import math
import statistics

#: Paper speedups from EXPERIMENTS.md, keyed by the row labels the
#: figure runners produce (``<size>B/<variant>`` for Fig. 18).
PAPER_SPEEDUPS = {
    "fig18": {
        "24B/leviathan": 2.0,
        "64B/leviathan": 2.0,
        "128B/leviathan": 2.0,
        "24B/no_padding": 1.5,
        "128B/no_llc_mapping": 0.91,
    },
    "hats": {"sw_bdfs": 1.2, "tako": 1.4, "leviathan": 1.7},
}

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail(samples):
    """``(value, percentile, n)``: the highest percentile with
    :data:`TAIL_BEYOND` samples above it.

    With fewer than ``TAIL_BEYOND + 1`` samples no percentile qualifies; the
    maximum is returned and labelled as the 100th percentile, so the
    printed level always says what the number is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - 1 - TAIL_BEYOND
    if rank < 0:
        return ordered[-1], 100.0, n
    return ordered[rank], 100.0 * (rank + 1) / n, n


def format_tail(value, percentile, n):
    """A tail in milliseconds with its level and sample count, as printed."""
    return f"p{percentile:.1f} = {value:.3f} ms over {n} samples"


def median(samples):
    return statistics.median(samples) if samples else 0.0


def paper_err(speedups, paper):
    """Mean of ``|ln(simulated / paper)|`` over the variants with a paper number."""
    errors = [abs(math.log(speedups[key] / value)) for key, value in paper.items()]
    return sum(errors) / len(errors)


def failed_frac(failed, attempted):
    return failed / attempted if attempted else 0.0


def digest(outcomes):
    """sha256 over every run's label, simulated cycles and stats, in spec order."""
    payload = [
        [o["label"], o["result"]["cycles"], o["result"]["stats"]]
        for o in outcomes
        if o.get("status") == "ok"
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
