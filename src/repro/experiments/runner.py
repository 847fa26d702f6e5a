"""Measurement and reporting primitives for the experiment suite.

Every figure module produces ``Row`` records — one per (x value, method) —
holding the averaged metrics the paper plots: latency (hops) and
congestion (peers processing a query), plus secondary traffic counters.
``print_rows`` renders them as the aligned text table the benchmarks and
the EXPERIMENTS.md record are generated from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..net.context import QueryResult

__all__ = ["Row", "average_queries", "print_rows", "rows_to_series"]


@dataclass(frozen=True)
class Row:
    """One averaged measurement point of a figure."""

    figure: str
    x_name: str
    x: float
    method: str
    latency: float
    congestion: float
    messages: float
    tuples_shipped: float
    queries: int

    def as_dict(self) -> dict:
        return {
            "figure": self.figure, "x_name": self.x_name, "x": self.x,
            "method": self.method, "latency": self.latency,
            "congestion": self.congestion, "messages": self.messages,
            "tuples_shipped": self.tuples_shipped, "queries": self.queries,
        }


def average_queries(
    figure: str,
    x_name: str,
    x: float,
    method: str,
    run_one: Callable[[np.random.Generator], QueryResult],
    *,
    queries: int,
    rng: np.random.Generator,
    check: Callable[[QueryResult], None] | None = None,
) -> Row:
    """Run ``run_one`` ``queries`` times and average the paper's metrics."""
    latencies, congestions, messages, shipped = [], [], [], []
    for _ in range(queries):
        result = run_one(rng)
        if check is not None:
            check(result)
        stats = result.stats
        latencies.append(stats.latency)
        congestions.append(stats.processed)
        messages.append(stats.total_messages)
        shipped.append(stats.tuples_shipped)
    return Row(figure=figure, x_name=x_name, x=x, method=method,
               latency=float(np.mean(latencies)),
               congestion=float(np.mean(congestions)),
               messages=float(np.mean(messages)),
               tuples_shipped=float(np.mean(shipped)),
               queries=queries)


def print_rows(rows: Sequence[Row], *, metrics: Iterable[str] = (
        "latency", "congestion")) -> str:
    """Render rows as one aligned table per metric (like the paper's
    figure panels: x on rows, one column per method)."""
    lines = []
    if not rows:
        return "(no rows)"
    figure = rows[0].figure
    x_name = rows[0].x_name
    methods = list(dict.fromkeys(row.method for row in rows))
    xs = sorted(dict.fromkeys(row.x for row in rows))
    table = {(row.x, row.method): row for row in rows}
    for metric in metrics:
        lines.append(f"[{figure}] {metric}")
        header = [x_name.rjust(12)] + [m.rjust(18) for m in methods]
        lines.append(" ".join(header))
        for x in xs:
            cells = [f"{x:12g}"]
            for method in methods:
                row = table.get((x, method))
                value = getattr(row, metric) if row else float("nan")
                cells.append(f"{value:18.1f}")
            lines.append(" ".join(cells))
        lines.append("")
    text = "\n".join(lines)
    print(text)
    return text


def rows_to_series(rows: Sequence[Row], metric: str
                   ) -> dict[str, list[tuple[float, float]]]:
    """Group rows into per-method (x, value) series for assertions."""
    series: dict[str, list[tuple[float, float]]] = {}
    for row in sorted(rows, key=lambda r: r.x):
        series.setdefault(row.method, []).append(
            (row.x, getattr(row, metric)))
    return series


def rows_to_csv(rows: Sequence[Row], path) -> None:
    """Persist measurement rows as CSV (one line per x/method point)."""
    import csv

    fields = ["figure", "x_name", "x", "method", "latency", "congestion",
              "messages", "tuples_shipped", "queries"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_dict())


def ascii_chart(rows: Sequence[Row], metric: str, *, width: int = 60,
                height: int = 14) -> str:
    """A terminal line chart of one metric, one glyph per method.

    A rough visual of what the paper's figure panel looks like; values
    are scaled linearly, x positions follow the sorted x values.
    """
    series = rows_to_series(rows, metric)
    if not series:
        return "(no data)"
    xs = sorted({x for points in series.values() for x, _ in points})
    values = [v for points in series.values() for _, v in points]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    glyphs = "*o+x#@%&"
    legend = []
    for glyph, (method, points) in zip(glyphs, sorted(series.items())):
        legend.append(f"{glyph} = {method}")
        for x, value in points:
            col = (0 if len(xs) == 1
                   else round(xs.index(x) * (width - 1) / (len(xs) - 1)))
            row_idx = round((hi - value) / span * (height - 1))
            grid[row_idx][col] = glyph
    lines = [f"{metric}  [{lo:.1f} .. {hi:.1f}]"]
    lines += ["|" + "".join(line) for line in grid]
    lines.append("+" + "-" * width)
    lines.append(f" x: {xs[0]:g} .. {xs[-1]:g}   " + "   ".join(legend))
    return "\n".join(lines)
