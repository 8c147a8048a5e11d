"""One function per figure of the paper's experimental section (§4.2).

Every function sweeps the figure's x-axis parameter, builds the appropriate
dataset instances, runs the algorithms and returns a :class:`FigureResult`
containing one :class:`~repro.experiments.metrics.MetricRecord` per
(x-value, dataset, algorithm).  The benchmark harness prints these as tables;
``docs/PAPER_MAPPING.md`` maps each figure to its entry point and benchmark.

The paper ran with up to one million users and ``k`` up to 500 on a C++
implementation; the reproduction keeps every *ratio* of Table 1 (``|E| = 3k``,
``|T| = 3k/2``, competing events per interval, resources) but scales the
absolute sizes down (see :class:`ExperimentScale`), which preserves the
relative behaviour of the algorithms — the quantity the paper's figures are
about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.registry import PAPER_METHODS
from repro.core.errors import ExperimentError
from repro.core.execution import ExecutionConfig
from repro.experiments.harness import run_experiment_point
from repro.experiments.metrics import MetricRecord, series_by_algorithm

#: Dataset line-up of the paper's figures.
ALL_DATASETS = ("Meetup", "Concerts", "Unf", "Zip")


@dataclass(frozen=True)
class ExperimentScale:
    """Absolute sizes used when regenerating the figures.

    ``default_k`` plays the role of the paper's k = 100; every derived
    quantity (|E| = 3k, |T| = 3k/2, …) is computed from it exactly as in
    Table 1.
    """

    name: str
    num_users: int
    default_k: int
    k_values: Tuple[int, ...]
    intervals_values: Tuple[int, ...]
    events_values: Tuple[int, ...]
    users_values: Tuple[int, ...]
    locations_values: Tuple[int, ...]
    competing_range: Tuple[int, int] = (1, 16)
    num_locations: int = 12
    available_resources: float = 30.0
    required_resources_range: Tuple[float, float] = (1.0, 15.0)
    seed: int = 7

    @property
    def default_events(self) -> int:
        """|E| at the default point (3k, as in Table 1)."""
        return 3 * self.default_k

    @property
    def default_intervals(self) -> int:
        """|T| at the default point (3k/2, as in Table 1)."""
        return max(1, (3 * self.default_k) // 2)


SCALES: Dict[str, ExperimentScale] = {
    # Used by the unit/integration tests: seconds, not minutes.
    "tiny": ExperimentScale(
        name="tiny",
        num_users=120,
        default_k=6,
        k_values=(4, 6, 10),
        intervals_values=(3, 6, 9, 12),
        events_values=(6, 18, 30),
        users_values=(60, 120, 240),
        locations_values=(2, 4, 8),
        competing_range=(1, 4),
        num_locations=4,
        available_resources=30.0,
        required_resources_range=(1.0, 15.0),
    ),
    # Used by the benchmark harness: the documented reproduction scale.
    "default": ExperimentScale(
        name="default",
        num_users=1200,
        default_k=24,
        k_values=(12, 17, 24, 48, 96),
        intervals_values=(5, 12, 24, 36, 48, 72),
        events_values=(24, 72, 120, 240),
        users_values=(500, 2000, 5000),
        locations_values=(3, 6, 12, 24, 34),
        competing_range=(1, 16),
        num_locations=12,
        available_resources=30.0,
        required_resources_range=(1.0, 15.0),
    ),
    # A middle ground for quick interactive runs.
    "small": ExperimentScale(
        name="small",
        num_users=400,
        default_k=12,
        k_values=(6, 9, 12, 24, 48),
        intervals_values=(4, 9, 12, 18, 24, 36),
        events_values=(12, 36, 60, 120),
        users_values=(200, 800, 2000),
        locations_values=(2, 4, 8, 12, 17),
        competing_range=(1, 8),
        num_locations=8,
        available_resources=30.0,
        required_resources_range=(1.0, 15.0),
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Resolve a scale given by name or passed through as an object."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ExperimentError(
            f"unknown scale {scale!r}; known: {', '.join(sorted(SCALES))}"
        ) from None


@dataclass
class FigureResult:
    """Records and metadata of one regenerated figure."""

    figure_id: str
    title: str
    x_param: str
    metrics: Tuple[str, ...]
    datasets: Tuple[str, ...]
    scale: str
    records: List[MetricRecord] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def series(self, *, metric: str, dataset: str) -> Dict[str, List[Tuple[float, float]]]:
        """Per-algorithm ``(x, y)`` series for one metric and dataset."""
        filtered = [record for record in self.records if record.dataset == dataset]
        return series_by_algorithm(filtered, x_param=self.x_param, metric=metric)

    def algorithms(self) -> List[str]:
        """Algorithms appearing in the records."""
        return sorted({record.algorithm for record in self.records})

    def x_values(self) -> List[float]:
        """Distinct x-axis values present in the records."""
        values = {
            record.value(self.x_param) if self.x_param != "k" else float(record.k)
            for record in self.records
        }
        return sorted(values)


def _dataset_overrides(
    scale: ExperimentScale,
    *,
    num_events: int,
    num_intervals: int,
    num_users: Optional[int] = None,
    num_locations: Optional[int] = None,
    competing_range: Optional[Tuple[int, int]] = None,
    available_resources: Optional[float] = None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Assemble the dataset-builder keyword arguments for one sweep point."""
    return {
        "num_users": num_users if num_users is not None else scale.num_users,
        "num_events": num_events,
        "num_intervals": num_intervals,
        "num_locations": num_locations if num_locations is not None else scale.num_locations,
        "competing_per_interval_range": competing_range
        if competing_range is not None
        else scale.competing_range,
        "available_resources": available_resources
        if available_resources is not None
        else scale.available_resources,
        "required_resources_range": scale.required_resources_range,
        "seed": seed if seed is not None else scale.seed,
    }


# --------------------------------------------------------------------------- #
# Figure 5 — varying the number of scheduled events k
# --------------------------------------------------------------------------- #
def fig5(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ALL_DATASETS,
    algorithms: Sequence[str] = tuple(PAPER_METHODS),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """Fig. 5: utility, computations and time as k grows.

    As in the paper, the other parameters stay at their Table 1 defaults
    (|E| = 3·k_default, |T| = 3·k_default/2), so the largest k values exceed
    |T| — the regime where HOR-I starts to differ from HOR and where INC
    catches up with HOR.  A k larger than |E| simply schedules every candidate
    event (the paper's k = 500 with |E| = 300 behaves the same way).
    """
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="fig5",
        title="Varying the number of scheduled events k",
        x_param="k",
        metrics=("utility", "user_computations", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    for dataset in datasets:
        for k in resolved.k_values:
            num_events = resolved.default_events
            num_intervals = resolved.default_intervals
            overrides = _dataset_overrides(
                resolved, num_events=num_events, num_intervals=num_intervals
            )
            result.records.extend(
                run_experiment_point(
                    dataset,
                    k=k,
                    experiment_id="fig5",
                    dataset_overrides=overrides,
                    algorithms=algorithms,
                    params={"k": k, "num_events": num_events, "num_intervals": num_intervals},
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 6 — varying the number of time intervals |T|
# --------------------------------------------------------------------------- #
def fig6(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ALL_DATASETS,
    algorithms: Sequence[str] = tuple(PAPER_METHODS),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """Fig. 6: utility and time as |T| grows (k and |E| at their defaults)."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="fig6",
        title="Varying the number of time intervals |T|",
        x_param="num_intervals",
        metrics=("utility", "user_computations", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    k = resolved.default_k
    num_events = resolved.default_events
    for dataset in datasets:
        for num_intervals in resolved.intervals_values:
            overrides = _dataset_overrides(
                resolved, num_events=num_events, num_intervals=num_intervals
            )
            result.records.extend(
                run_experiment_point(
                    dataset,
                    k=k,
                    experiment_id="fig6",
                    dataset_overrides=overrides,
                    algorithms=algorithms,
                    params={"k": k, "num_events": num_events, "num_intervals": num_intervals},
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 7 — varying the number of candidate events |E|
# --------------------------------------------------------------------------- #
def fig7(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ("Concerts", "Unf"),
    algorithms: Sequence[str] = tuple(PAPER_METHODS),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """Fig. 7: utility and time as |E| grows (k < |T|, so HOR-I ≡ HOR)."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="fig7",
        title="Varying the number of candidate events |E|",
        x_param="num_events",
        metrics=("utility", "user_computations", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    k = resolved.default_k
    num_intervals = resolved.default_intervals
    for dataset in datasets:
        for num_events in resolved.events_values:
            if num_events < k:
                continue
            overrides = _dataset_overrides(
                resolved, num_events=num_events, num_intervals=num_intervals
            )
            result.records.extend(
                run_experiment_point(
                    dataset,
                    k=k,
                    experiment_id="fig7",
                    dataset_overrides=overrides,
                    algorithms=algorithms,
                    params={"k": k, "num_events": num_events, "num_intervals": num_intervals},
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 8 — varying the number of users |U|
# --------------------------------------------------------------------------- #
def fig8(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ("Unf",),
    algorithms: Sequence[str] = tuple(PAPER_METHODS),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """Fig. 8: time as |U| grows, for |T| = 3k/2 (panel a) and |T| ≈ 0.65k (panel b)."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="fig8",
        title="Varying the number of users |U|",
        x_param="num_users",
        metrics=("utility", "user_computations", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    k = resolved.default_k
    num_events = resolved.default_events
    panels = {
        "a": resolved.default_intervals,             # k < |T| (HOR-I identical to HOR)
        "b": max(1, int(round(0.65 * k))),           # k > |T| (the paper's supplementary panel)
    }
    for dataset in datasets:
        for panel, num_intervals in panels.items():
            for num_users in resolved.users_values:
                overrides = _dataset_overrides(
                    resolved,
                    num_events=num_events,
                    num_intervals=num_intervals,
                    num_users=num_users,
                )
                result.records.extend(
                    run_experiment_point(
                        dataset,
                        k=k,
                        experiment_id="fig8",
                        dataset_overrides=overrides,
                        algorithms=algorithms,
                        params={
                            "k": k,
                            "num_users": num_users,
                            "num_intervals": num_intervals,
                            "panel": panel,
                        },
                        seed=seed,
                        execution=execution,
                        storage=storage,
                    )
                )
    result.notes["panels"] = panels
    return result


# --------------------------------------------------------------------------- #
# Figure 9 — varying the number of available locations
# --------------------------------------------------------------------------- #
def fig9(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ("Unf",),
    algorithms: Sequence[str] = tuple(PAPER_METHODS),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """Fig. 9: utility and time as the number of event locations varies (|T| ≈ 0.65k)."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="fig9",
        title="Varying the number of available locations",
        x_param="num_locations",
        metrics=("utility", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    k = resolved.default_k
    num_events = resolved.default_events
    num_intervals = max(1, int(round(0.65 * k)))
    for dataset in datasets:
        for num_locations in resolved.locations_values:
            overrides = _dataset_overrides(
                resolved,
                num_events=num_events,
                num_intervals=num_intervals,
                num_locations=num_locations,
            )
            result.records.extend(
                run_experiment_point(
                    dataset,
                    k=k,
                    experiment_id="fig9",
                    dataset_overrides=overrides,
                    algorithms=algorithms,
                    params={
                        "k": k,
                        "num_locations": num_locations,
                        "num_intervals": num_intervals,
                    },
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 10a — HOR / HOR-I worst case w.r.t. k and |T|
# --------------------------------------------------------------------------- #
def fig10a(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ALL_DATASETS,
    algorithms: Sequence[str] = ("ALG", "INC", "HOR", "HOR-I", "TOP"),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """Fig. 10a: execution time in the horizontal algorithms' worst case (k mod |T| = 1)."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="fig10a",
        title="HOR & HOR-I worst case w.r.t. k and |T|",
        x_param="num_intervals",
        metrics=("utility", "user_computations", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    k = resolved.default_k
    num_intervals = max(1, k - 1)  # k mod |T| = 1, the worst case of Propositions 5 and 7
    num_events = resolved.default_events
    for dataset in datasets:
        overrides = _dataset_overrides(
            resolved, num_events=num_events, num_intervals=num_intervals
        )
        result.records.extend(
            run_experiment_point(
                dataset,
                k=k,
                experiment_id="fig10a",
                dataset_overrides=overrides,
                algorithms=algorithms,
                params={"k": k, "num_intervals": num_intervals},
                seed=seed,
                execution=execution,
                storage=storage,
            )
        )
    return result


# --------------------------------------------------------------------------- #
# Figure 10b — search space (assignments examined) of ALG vs INC
# --------------------------------------------------------------------------- #
def fig10b(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ("Unf",),
    algorithms: Sequence[str] = ("ALG", "INC"),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """Fig. 10b: assignments examined by ALG vs INC while varying k, |T| and |E|."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="fig10b",
        title="ALG & INC search space (assignments examined)",
        x_param="point",
        metrics=("assignments_examined",),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    base_k = resolved.default_k
    base_events = resolved.default_events
    base_intervals = resolved.default_intervals

    sweep: List[Tuple[str, Dict[str, int]]] = []
    for k in (base_k // 2, base_k, base_k * 2):
        sweep.append((f"k={k}", {"k": k, "num_events": base_events, "num_intervals": base_intervals}))
    for intervals in (base_intervals, base_intervals * 2, base_intervals * 3):
        sweep.append(
            (
                f"|T|={intervals}",
                {"k": base_k, "num_events": base_events, "num_intervals": intervals},
            )
        )
    for events in resolved.events_values[1:]:
        sweep.append(
            (
                f"|E|={events}",
                {"k": base_k, "num_events": events, "num_intervals": base_intervals},
            )
        )

    for dataset in datasets:
        for position, (label, config) in enumerate(sweep):
            overrides = _dataset_overrides(
                resolved,
                num_events=config["num_events"],
                num_intervals=config["num_intervals"],
            )
            result.records.extend(
                run_experiment_point(
                    dataset,
                    k=config["k"],
                    experiment_id="fig10b",
                    dataset_overrides=overrides,
                    algorithms=algorithms,
                    params={"point": position, "label": label, **config},
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    result.notes["sweep_labels"] = [label for label, _ in sweep]
    return result


# --------------------------------------------------------------------------- #
# Extension experiments: parameters whose plots the paper omits for space
# --------------------------------------------------------------------------- #
def ext_competing(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ("Unf",),
    algorithms: Sequence[str] = tuple(PAPER_METHODS),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """§4.1 (omitted plot): effect of the number of competing events per interval."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="ext_competing",
        title="Varying the number of competing events per interval",
        x_param="competing_high",
        metrics=("utility", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    k = resolved.default_k
    for dataset in datasets:
        for high in (4, 8, 16, 32, 64):
            overrides = _dataset_overrides(
                resolved,
                num_events=resolved.default_events,
                num_intervals=resolved.default_intervals,
                competing_range=(1, high),
            )
            result.records.extend(
                run_experiment_point(
                    dataset,
                    k=k,
                    experiment_id="ext_competing",
                    dataset_overrides=overrides,
                    algorithms=algorithms,
                    params={"k": k, "competing_high": high},
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return result


def ext_resources(
    scale: str | ExperimentScale = "default",
    *,
    datasets: Sequence[str] = ("Unf",),
    algorithms: Sequence[str] = tuple(PAPER_METHODS),
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> FigureResult:
    """§4.1 (omitted plot): effect of the organiser's available resources θ."""
    resolved = get_scale(scale)
    result = FigureResult(
        figure_id="ext_resources",
        title="Varying the available resources θ",
        x_param="available_resources",
        metrics=("utility", "time_sec"),
        datasets=tuple(datasets),
        scale=resolved.name,
    )
    k = resolved.default_k
    for dataset in datasets:
        for theta in (10, 20, 30, 50, 100):
            overrides = _dataset_overrides(
                resolved,
                num_events=resolved.default_events,
                num_intervals=resolved.default_intervals,
                available_resources=float(theta),
            )
            result.records.extend(
                run_experiment_point(
                    dataset,
                    k=k,
                    experiment_id="ext_resources",
                    dataset_overrides=overrides,
                    algorithms=algorithms,
                    params={"k": k, "available_resources": theta},
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry binding an experiment id to its function and provenance."""

    experiment_id: str
    paper_reference: str
    description: str
    runner: Callable[..., FigureResult]


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec("fig5", "Figure 5", "Utility / computations / time vs k", fig5),
        ExperimentSpec("fig6", "Figure 6", "Utility / time vs number of intervals", fig6),
        ExperimentSpec("fig7", "Figure 7", "Utility / time vs number of candidate events", fig7),
        ExperimentSpec("fig8", "Figure 8", "Time vs number of users (two |T| panels)", fig8),
        ExperimentSpec("fig9", "Figure 9", "Utility / time vs number of locations", fig9),
        ExperimentSpec("fig10a", "Figure 10a", "HOR/HOR-I worst case w.r.t. k and |T|", fig10a),
        ExperimentSpec("fig10b", "Figure 10b", "ALG vs INC search space", fig10b),
        ExperimentSpec(
            "ext_competing", "§4.1 (omitted)", "Effect of competing events per interval", ext_competing
        ),
        ExperimentSpec("ext_resources", "§4.1 (omitted)", "Effect of available resources θ", ext_resources),
    )
}


def available_experiments() -> List[str]:
    """Ids of every registered experiment."""
    return sorted(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment spec by id."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(available_experiments())}"
        ) from None


def run_experiment(experiment_id: str, **kwargs: object) -> FigureResult:
    """Run a registered experiment by id (keyword arguments go to its function)."""
    return get_experiment(experiment_id).runner(**kwargs)
