"""The §4.2.8 summary sweep: utility-equality statistics and speed-up factors.

The paper summarises its evaluation with a handful of aggregate claims:

* INC always returns the same solution as ALG; HOR-I the same as HOR.
* HOR matches ALG's utility in more than 70 % of the experiments; in the rest
  the average difference is ≈ 0.008 % and the maximum 1.3 %.
* The contributed algorithms perform about half of ALG's computations and are
  2–5× faster.

:func:`summary_sweep` reruns a grid of configurations (datasets × several
``k``/|T| combinations) and computes the same aggregates, so the reproduction
can be checked against these claims directly (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.execution import ExecutionConfig
from repro.experiments.figures import ALL_DATASETS, ExperimentScale, get_scale
from repro.experiments.harness import run_experiment_point
from repro.experiments.metrics import MetricRecord, group_records


@dataclass
class SummaryStatistics:
    """Aggregates over a sweep of experiment points (the §4.2.8 claims)."""

    num_points: int = 0
    hor_equal_utility_fraction: float = 0.0
    hor_mean_relative_gap: float = 0.0
    hor_max_relative_gap: float = 0.0
    inc_always_equal_to_alg: bool = True
    hor_i_always_equal_to_hor: bool = True
    mean_computation_ratio: Dict[str, float] = field(default_factory=dict)
    mean_time_speedup: Dict[str, float] = field(default_factory=dict)
    records: List[MetricRecord] = field(default_factory=list)

    def as_rows(self) -> List[Dict[str, object]]:
        """Flatten into table rows for the report printer."""
        rows: List[Dict[str, object]] = [
            {"statistic": "experiment points", "value": self.num_points},
            {
                "statistic": "HOR == ALG utility (fraction of points)",
                "value": round(self.hor_equal_utility_fraction, 4),
            },
            {
                "statistic": "HOR vs ALG mean relative utility gap (%)",
                "value": round(100.0 * self.hor_mean_relative_gap, 4),
            },
            {
                "statistic": "HOR vs ALG max relative utility gap (%)",
                "value": round(100.0 * self.hor_max_relative_gap, 4),
            },
            {"statistic": "INC utility == ALG utility everywhere", "value": self.inc_always_equal_to_alg},
            {"statistic": "HOR-I utility == HOR utility everywhere", "value": self.hor_i_always_equal_to_hor},
        ]
        for name, value in sorted(self.mean_computation_ratio.items()):
            rows.append(
                {"statistic": f"{name} / ALG score computations (mean ratio)", "value": round(value, 4)}
            )
        for name, value in sorted(self.mean_time_speedup.items()):
            rows.append({"statistic": f"ALG / {name} wall time (mean speed-up)", "value": round(value, 4)})
        return rows


def summary_sweep(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ALL_DATASETS,
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
    utility_tolerance: float = 1e-9,
) -> SummaryStatistics:
    """Run the summary grid and compute the §4.2.8 aggregates.

    The grid crosses the datasets with three (k, |T|) regimes: k < |T| (the
    Table 1 default), k ≈ |T| and k > |T| — the regimes in which the paper's
    algorithms behave differently.  ``storage`` converts every sweep instance
    to the named interest-matrix storage first (results are storage-invariant,
    so the aggregates are unchanged).
    """
    resolved = get_scale(scale)
    k = resolved.default_k
    regimes: List[Tuple[str, int, int]] = [
        ("k<|T|", k, resolved.default_intervals),
        ("k=|T|", k, k),
        ("k>|T|", 2 * k, resolved.default_intervals),
    ]

    records: List[MetricRecord] = []
    for dataset in datasets:
        for label, point_k, num_intervals in regimes:
            overrides = {
                "num_users": resolved.num_users,
                "num_events": 3 * k,
                "num_intervals": num_intervals,
                "num_locations": resolved.num_locations,
                "competing_per_interval_range": resolved.competing_range,
                "available_resources": resolved.available_resources,
                "required_resources_range": resolved.required_resources_range,
                "seed": resolved.seed,
            }
            records.extend(
                run_experiment_point(
                    dataset,
                    k=point_k,
                    experiment_id="summary",
                    dataset_overrides=overrides,
                    algorithms=("ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"),
                    params={"regime": label, "num_intervals": num_intervals},
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return summarize_records(records, utility_tolerance=utility_tolerance)


def summarize_records(
    records: Sequence[MetricRecord], *, utility_tolerance: float = 1e-9
) -> SummaryStatistics:
    """Compute the §4.2.8 aggregates from an arbitrary collection of records."""
    stats = SummaryStatistics(records=list(records))
    grouped = group_records(
        records,
        key=lambda record: (record.dataset, record.k, tuple(sorted(record.params.items()))),
    )

    gaps: List[float] = []
    equal_points = 0
    considered_points = 0
    computation_ratios: Dict[str, List[float]] = {}
    speedups: Dict[str, List[float]] = {}

    for members in grouped.values():
        by_algorithm = {member.algorithm: member for member in members}
        alg = by_algorithm.get("ALG")
        if alg is None:
            continue
        considered_points += 1

        hor = by_algorithm.get("HOR")
        if hor is not None:
            scale_value = max(abs(alg.utility), 1e-12)
            gap = abs(alg.utility - hor.utility) / scale_value
            gaps.append(gap)
            if gap <= utility_tolerance:
                equal_points += 1

        inc = by_algorithm.get("INC")
        if inc is not None and not math.isclose(
            inc.utility, alg.utility, rel_tol=utility_tolerance, abs_tol=1e-9
        ):
            stats.inc_always_equal_to_alg = False

        hor_i = by_algorithm.get("HOR-I")
        if hor is not None and hor_i is not None and not math.isclose(
            hor_i.utility, hor.utility, rel_tol=utility_tolerance, abs_tol=1e-9
        ):
            stats.hor_i_always_equal_to_hor = False

        for name in ("INC", "HOR", "HOR-I"):
            member = by_algorithm.get(name)
            if member is None:
                continue
            if alg.score_computations > 0:
                computation_ratios.setdefault(name, []).append(
                    member.score_computations / alg.score_computations
                )
            if member.time_sec > 0:
                speedups.setdefault(name, []).append(alg.time_sec / member.time_sec)

    stats.num_points = considered_points
    if gaps:
        stats.hor_equal_utility_fraction = equal_points / len(gaps)
        stats.hor_mean_relative_gap = sum(gaps) / len(gaps)
        stats.hor_max_relative_gap = max(gaps)
    stats.mean_computation_ratio = {
        name: sum(values) / len(values) for name, values in computation_ratios.items()
    }
    stats.mean_time_speedup = {name: sum(values) / len(values) for name, values in speedups.items()}
    return stats
