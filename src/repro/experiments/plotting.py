"""ASCII rendering of reproduced figures.

The CLI renders the reproduced figures' speedups as text bar charts,
so results are inspectable in a terminal and in CI logs without a
plotting dependency.
"""


def bar_chart(items, width=46, unit="", baseline=None):
    """Render ``[(label, value), ...]`` as horizontal bars.

    ``baseline`` draws a reference marker at that value (e.g. 1.0 for
    speedup charts).
    """
    if not items:
        return "(empty chart)"
    label_width = max(len(str(label)) for label, _ in items)
    numeric = [value for _, value in items if _is_finite(value)]
    top = max(numeric) if numeric else 1.0
    top = max(top, baseline or 0.0) or 1.0
    lines = []
    for label, value in items:
        if not _is_finite(value):
            lines.append(f"{str(label):<{label_width}}  (n/a)")
            continue
        filled = int(round(width * value / top))
        bar = "#" * max(filled, 0)
        if baseline is not None and 0 < baseline <= top:
            marker = int(round(width * baseline / top))
            if marker >= len(bar):
                bar = bar + " " * (marker - len(bar)) + "|"
            else:
                bar = bar[:marker] + "|" + bar[marker + 1 :]
        lines.append(f"{str(label):<{label_width}}  {bar} {value:.3g}{unit}")
    return "\n".join(lines)


def speedup_chart(experiment, label_key="variant", value_key="speedup"):
    """A bar chart of an experiment's speedup rows (baseline marker at 1).

    Rows without a ``variant`` column label with their first field
    (sweep experiments label by their swept parameter).
    """
    items = []
    for row in experiment.rows:
        if value_key not in row:
            continue
        if label_key in row:
            label = row[label_key]
        else:
            label = next(
                (f"{k}={v}" for k, v in row.items() if k != value_key), "?"
            )
        items.append((label, row.get(value_key)))
    return bar_chart(items, unit="x", baseline=1.0)


def _is_finite(value):
    try:
        v = float(value)
    except (TypeError, ValueError):
        return False
    return v == v and v not in (float("inf"), float("-inf"))
