"""Experiment plumbing shared by every table/figure module."""

from dataclasses import dataclass, field


@dataclass
class Expectation:
    """One qualitative claim from the paper, checked against a measurement.

    ``kind`` is one of:

    - ``"greater"`` / ``"less"``: measured value vs. a threshold;
    - ``"between"``: measured within [lo, hi];
    - ``"ordering"``: a sequence of row labels expected in ascending
      order of their measured values.
    """

    description: str
    kind: str
    measured: object
    bounds: tuple

    @property
    def passed(self):
        if self.kind == "greater":
            return self.measured > self.bounds[0]
        if self.kind == "less":
            return self.measured < self.bounds[0]
        if self.kind == "between":
            return self.bounds[0] <= self.measured <= self.bounds[1]
        if self.kind == "ordering":
            values = list(self.measured)
            return values == sorted(values)
        raise ValueError(f"unknown expectation kind {self.kind!r}")

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.description}: measured {self.measured!r} vs {self.bounds!r}"


@dataclass
class Experiment:
    """A completed table/figure reproduction."""

    name: str
    paper_reference: str
    #: Row dicts, one per bar/series-point of the figure.
    rows: list = field(default_factory=list)
    #: Shape checks against the paper's claims.
    expectations: list = field(default_factory=list)
    notes: str = ""

    def add_row(self, **fields):
        self.rows.append(fields)
        return self.rows[-1]

    def expect(self, description, kind, measured, *bounds):
        exp = Expectation(description, kind, measured, bounds)
        self.expectations.append(exp)
        return exp

    @property
    def passed(self):
        return all(e.passed for e in self.expectations)

    def check(self):
        """Raise AssertionError listing any failed expectations."""
        failed = [str(e) for e in self.expectations if not e.passed]
        if failed:
            raise AssertionError(
                f"{self.name}: shape checks failed:\n" + "\n".join(failed)
            )
        return True

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    @property
    def columns(self):
        """Every row key, in first-seen order."""
        columns = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def table(self):
        """Render rows as an aligned text table."""
        if not self.rows:
            return "(no rows)"
        columns = self.columns
        widths = {
            c: max(len(str(c)), *(len(_fmt(r.get(c, ""))) for r in self.rows))
            for c in columns
        }
        header = "  ".join(str(c).ljust(widths[c]) for c in columns)
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns)
            )
        return "\n".join(lines)

    def report(self):
        lines = [f"== {self.name} ({self.paper_reference}) =="]
        if self.notes:
            lines.append(self.notes)
        lines.append(self.table())
        for e in self.expectations:
            lines.append(str(e))
        return "\n".join(lines)

    def markdown(self):
        """The report as a markdown section: heading, table, expectations."""
        lines = [f"## {self.name} ({self.paper_reference})", ""]
        if self.notes:
            lines += [self.notes, ""]
        if self.rows:
            columns = self.columns
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            for row in self.rows:
                cells = " | ".join(_fmt(row.get(c, "")) for c in columns)
                lines.append(f"| {cells} |")
            lines.append("")
        lines += [f"- {e}" for e in self.expectations]
        return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)
