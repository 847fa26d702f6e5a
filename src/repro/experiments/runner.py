"""Measurement and reporting primitives for the experiment suite.

Every figure module produces ``Row`` records — one per (x value, method) —
holding the averaged metrics the paper plots: latency (hops) and
congestion (peers processing a query), plus secondary traffic counters.
``print_rows`` renders them as the aligned text table the benchmarks and
the EXPERIMENTS.md record are generated from.
"""

from __future__ import annotations

from dataclasses import dataclass
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
