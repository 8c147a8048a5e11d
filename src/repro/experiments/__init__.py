"""Experiment harness reproducing the paper's evaluation (§4).

* :mod:`repro.experiments.metrics` — the per-run metric record (utility,
  time, score computations, assignments examined) and aggregation helpers.
* :mod:`repro.experiments.harness` — run a set of algorithms on one instance
  and collect records.
* :mod:`repro.experiments.figures` — the experiment table (one
  :class:`~repro.experiments.figures.ExperimentSpec` row per figure, Fig. 5–10)
  and the one sweep loop that runs a row into a ``FigureResult``.
* :mod:`repro.experiments.sweeps` — the §4.2.8 summary sweep (utility-equality
  statistics and speed-up factors), run by the same loop.
* :mod:`repro.experiments.report` — ASCII tables for results.
"""

from repro.experiments.metrics import MetricRecord, records_to_rows, group_records
from repro.experiments.harness import run_algorithms, run_experiment_point
from repro.experiments.figures import (
    EXPERIMENTS,
    FigureResult,
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.report import format_table, format_figure_result
from repro.experiments.sweeps import summary_sweep, SummaryStatistics

__all__ = [
    "MetricRecord",
    "records_to_rows",
    "group_records",
    "run_algorithms",
    "run_experiment_point",
    "EXPERIMENTS",
    "FigureResult",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "format_table",
    "format_figure_result",
    "summary_sweep",
    "SummaryStatistics",
]
