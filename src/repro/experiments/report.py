"""Plain-text reporting of experiment results.

The benchmark harness prints the same series the paper plots; since the
repository is plotting-library-free, the output is fixed-width ASCII tables —
one row per (x-value, algorithm) with the utility / computations / time
columns — which is enough to eyeball the shapes each ``benchmarks/bench_fig*.py``
docstring describes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.experiments.metrics import MetricRecord


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render dict rows as a fixed-width ASCII table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns))
    separator = "  ".join("-" * widths[index] for index in range(len(columns)))
    body = [
        "  ".join(line[index].ljust(widths[index]) for index in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])


def format_records(
    records: Iterable[MetricRecord],
    *,
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render metric records as a table (default column set mirrors the paper)."""
    default_columns = [
        "dataset",
        "algorithm",
        "k",
        "utility",
        "score_computations",
        "user_computations",
        "time_sec",
        "assignments_examined",
    ]
    rows = [record.to_row() for record in records]
    return format_table(rows, columns=columns or default_columns)


def format_series(
    series: Mapping[str, List[tuple]],
    *,
    x_label: str,
    metric: str,
) -> str:
    """Render per-algorithm ``(x, y)`` series as one table (x values as columns)."""
    x_values: List[float] = sorted({x for points in series.values() for x, _ in points})
    rows: List[Dict[str, object]] = []
    for algorithm in sorted(series):
        row: Dict[str, object] = {"algorithm": algorithm, "metric": metric}
        lookup = dict(series[algorithm])
        for x_value in x_values:
            label = f"{x_label}={x_value:g}"
            row[label] = lookup.get(x_value, "")
        rows.append(row)
    return format_table(rows)


def format_figure_result(figure_result) -> str:
    """Render a :class:`~repro.experiments.figures.FigureResult` like the paper's figure.

    One table per metric, mirroring the sub-plots (utility / computations /
    time) of the corresponding figure.
    """
    blocks: List[str] = [f"== {figure_result.figure_id}: {figure_result.title} =="]
    for metric in figure_result.metrics:
        blocks.append(f"-- {metric} --")
        for dataset in figure_result.datasets:
            series = figure_result.series(metric=metric, dataset=dataset)
            if not series:
                continue
            blocks.append(f"[{dataset}]")
            blocks.append(format_series(series, x_label=figure_result.x_param, metric=metric))
    return "\n".join(blocks)
