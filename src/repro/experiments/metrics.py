"""Metric records collected by the experiment harness.

Every (algorithm, instance, parameter point) run produces one
:class:`MetricRecord` carrying the three quantities the paper reports —
utility, wall-clock time and number of score computations — plus the
search-space counter of Fig. 10b and enough provenance (dataset, parameters,
seed) to group and pivot records into the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.base import SchedulerResult


@dataclass
class MetricRecord:
    """One algorithm run within one experiment point."""

    experiment_id: str
    dataset: str
    algorithm: str
    k: int
    utility: float
    net_utility: float
    num_scheduled: int
    time_sec: float
    score_computations: int
    user_computations: int
    assignments_examined: int
    params: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None

    @classmethod
    def from_result(
        cls,
        result: SchedulerResult,
        *,
        experiment_id: str,
        dataset: str,
        params: Optional[Mapping[str, object]] = None,
        seed: Optional[int] = None,
    ) -> "MetricRecord":
        """Build a record from a :class:`~repro.algorithms.base.SchedulerResult`.

        The scoring backend the run used is recorded under
        ``params["backend"]``, the instance's interest-matrix storage under
        ``params["storage"]`` and the scoring plan under ``params["plan"]``
        (unless the caller already set them), so rows of different backends /
        storages / scoring plans can be grouped and compared in figure tables.
        """
        merged_params = dict(params or {})
        merged_params.setdefault("backend", result.backend)
        merged_params.setdefault("storage", result.storage)
        merged_params.setdefault("plan", result.plan)
        return cls(
            experiment_id=experiment_id,
            dataset=dataset,
            algorithm=result.algorithm,
            k=result.k,
            utility=result.utility,
            net_utility=result.net_utility,
            num_scheduled=result.num_scheduled,
            time_sec=result.elapsed_seconds,
            score_computations=result.score_computations,
            user_computations=result.user_computations,
            assignments_examined=result.assignments_examined,
            params=merged_params,
            seed=seed,
        )

    def value(self, metric: str) -> float:
        """Read one metric by name (``"utility"``, ``"time_sec"``, …)."""
        if metric in ("utility", "net_utility", "time_sec"):
            return float(getattr(self, metric))
        if metric in (
            "score_computations",
            "user_computations",
            "assignments_examined",
            "num_scheduled",
            "k",
        ):
            return float(getattr(self, metric))
        if metric in self.params:
            return float(self.params[metric])  # type: ignore[arg-type]
        raise KeyError(f"unknown metric {metric!r}")

    def to_row(self) -> Dict[str, object]:
        """Flatten the record (params prefixed with ``param.``) for table output."""
        row: Dict[str, object] = {
            "experiment": self.experiment_id,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "k": self.k,
            "scheduled": self.num_scheduled,
            "utility": round(self.utility, 4),
            "time_sec": round(self.time_sec, 4),
            "score_computations": self.score_computations,
            "user_computations": self.user_computations,
            "assignments_examined": self.assignments_examined,
        }
        for key, value in self.params.items():
            row[f"param.{key}"] = value
        return row


def records_to_rows(records: Iterable[MetricRecord]) -> List[Dict[str, object]]:
    """Flatten a collection of records into table rows."""
    return [record.to_row() for record in records]


def group_records(
    records: Iterable[MetricRecord],
    key: Callable[[MetricRecord], Tuple],
) -> Dict[Tuple, List[MetricRecord]]:
    """Group records by an arbitrary key function (insertion-ordered)."""
    grouped: Dict[Tuple, List[MetricRecord]] = {}
    for record in records:
        grouped.setdefault(key(record), []).append(record)
    return grouped


def series_by_algorithm(
    records: Sequence[MetricRecord],
    *,
    x_param: str,
    metric: str,
) -> Dict[str, List[Tuple[float, float]]]:
    """Pivot records into per-algorithm ``(x, y)`` series (one paper plot line each)."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for record in records:
        point = (record.value(x_param), record.value(metric))
        series.setdefault(record.algorithm, []).append(point)
    for points in series.values():
        points.sort(key=lambda point: point[0])
    return series


def speedup(
    records: Sequence[MetricRecord],
    *,
    baseline: str = "ALG",
    target: str,
    metric: str = "time_sec",
) -> List[float]:
    """Per-experiment-point ratios ``baseline_metric / target_metric`` (e.g. speed-ups)."""
    grouped = group_records(
        records, key=lambda record: (record.dataset, record.k, tuple(sorted(record.params.items())))
    )
    ratios: List[float] = []
    for members in grouped.values():
        baseline_value = next(
            (member.value(metric) for member in members if member.algorithm == baseline), None
        )
        target_value = next(
            (member.value(metric) for member in members if member.algorithm == target), None
        )
        if baseline_value is None or target_value is None or target_value <= 0:
            continue
        ratios.append(baseline_value / target_value)
    return ratios
