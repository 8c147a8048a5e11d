"""The paper's experiments (§4.2) as one table, run by one sweep loop.

Every experiment varies one Table 1 parameter and holds the rest at their
defaults.  :data:`EXPERIMENTS` holds one :class:`ExperimentSpec` row per
figure with only what differs: title, x-axis, metrics, default datasets and
algorithms, notes and a ``points(scale)`` function listing the sweep points.
:func:`run_points` runs every point on every dataset; each row's generated
runner (``fig5`` … ``ext_resources``) wraps the records in a
:class:`FigureResult` holding one
:class:`~repro.experiments.metrics.MetricRecord` per (x-value, dataset,
algorithm).  The benchmark harness prints these as tables;
``docs/PAPER_MAPPING.md`` maps each figure to its entry point and benchmark.

The paper ran with up to one million users and ``k`` up to 500 on a C++
implementation; the reproduction keeps every *ratio* of Table 1 (``|E| = 3k``,
``|T| = 3k/2``, competing events per interval, resources) but scales the
absolute sizes down (see :class:`ExperimentScale`), which preserves the
relative behaviour of the algorithms — the quantity the paper's figures are
about.
"""

from __future__ import annotations

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
        return sorted({record.value(self.x_param) for record in self.records})


#: One sweep point: the ``k`` to schedule, the dataset-builder arguments that
#: differ from the scale's Table 1 defaults, and the params stored on every
#: record of the point (the figure's x-axis annotation).
Point = Tuple[int, Dict[str, object], Dict[str, object]]


def _dataset_overrides(scale: ExperimentScale, changes: Mapping[str, object]) -> Dict[str, object]:
    """The dataset-builder arguments of one point: Table 1 defaults plus ``changes``."""
    overrides: Dict[str, object] = {
        "num_users": scale.num_users,
        "num_events": scale.default_events,
        "num_intervals": scale.default_intervals,
        "num_locations": scale.num_locations,
        "competing_per_interval_range": scale.competing_range,
        "available_resources": scale.available_resources,
        "required_resources_range": scale.required_resources_range,
        "seed": scale.seed,
    }
    overrides.update(changes)
    return overrides


def run_points(
    experiment_id: str,
    scale: ExperimentScale,
    points: Sequence[Point],
    *,
    datasets: Sequence[str],
    algorithms: Sequence[str],
    seed: int = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> List[MetricRecord]:
    """Run the algorithms at every point on every dataset (datasets outermost)."""
    records: List[MetricRecord] = []
    for dataset in datasets:
        for k, changes, params in points:
            records.extend(
                run_experiment_point(
                    dataset,
                    k=k,
                    experiment_id=experiment_id,
                    dataset_overrides=_dataset_overrides(scale, changes),
                    algorithms=algorithms,
                    params=params,
                    seed=seed,
                    execution=execution,
                    storage=storage,
                )
            )
    return records


# --------------------------------------------------------------------------- #
# Sweep points, one function per experiment (its docstring documents the runner)
# --------------------------------------------------------------------------- #
def _short_horizon(scale: ExperimentScale) -> int:
    """|T| ≈ 0.65k, the k > |T| regime of Fig. 8b and Fig. 9."""
    return max(1, int(round(0.65 * scale.default_k)))


def _fig5_points(s: ExperimentScale) -> List[Point]:
    """Fig. 5: utility, computations and time as k grows.

    As in the paper, the other parameters stay at their Table 1 defaults
    (|E| = 3·k_default, |T| = 3·k_default/2), so the largest k values exceed
    |T| — the regime where HOR-I starts to differ from HOR and where INC
    catches up with HOR.  A k larger than |E| simply schedules every candidate
    event (the paper's k = 500 with |E| = 300 behaves the same way).
    """
    params = {"num_events": s.default_events, "num_intervals": s.default_intervals}
    return [(k, {}, {"k": k, **params}) for k in s.k_values]


def _fig6_points(s: ExperimentScale) -> List[Point]:
    """Fig. 6: utility and time as |T| grows (k and |E| at their defaults)."""
    k, num_events = s.default_k, s.default_events
    return [
        (k, {"num_intervals": t}, {"k": k, "num_events": num_events, "num_intervals": t})
        for t in s.intervals_values
    ]


def _fig7_points(s: ExperimentScale) -> List[Point]:
    """Fig. 7: utility and time as |E| grows (k < |T|, so HOR-I ≡ HOR); |E| < k is skipped."""
    k, num_intervals = s.default_k, s.default_intervals
    return [
        (k, {"num_events": e}, {"k": k, "num_events": e, "num_intervals": num_intervals})
        for e in s.events_values
        if e >= k
    ]


def _fig8_panels(s: ExperimentScale) -> Dict[str, int]:
    """|T| of panel a (k < |T|, HOR-I ≡ HOR) and panel b (k > |T|, the paper's supplement)."""
    return {"a": s.default_intervals, "b": _short_horizon(s)}


def _fig8_points(s: ExperimentScale) -> List[Point]:
    """Fig. 8: time as |U| grows, for |T| = 3k/2 (panel a) and |T| ≈ 0.65k (panel b)."""
    k = s.default_k
    return [
        (
            k,
            {"num_intervals": t, "num_users": u},
            {"k": k, "num_users": u, "num_intervals": t, "panel": panel},
        )
        for panel, t in _fig8_panels(s).items()
        for u in s.users_values
    ]


def _fig9_points(s: ExperimentScale) -> List[Point]:
    """Fig. 9: utility and time as the number of event locations varies (|T| ≈ 0.65k)."""
    k, t = s.default_k, _short_horizon(s)
    return [
        (
            k,
            {"num_intervals": t, "num_locations": n},
            {"k": k, "num_locations": n, "num_intervals": t},
        )
        for n in s.locations_values
    ]


def _fig10a_points(s: ExperimentScale) -> List[Point]:
    """Fig. 10a: execution time in the horizontal algorithms' worst case (k mod |T| = 1)."""
    k = s.default_k
    t = max(1, k - 1)  # k mod |T| = 1, the worst case of Propositions 5 and 7
    return [(k, {"num_intervals": t}, {"k": k, "num_intervals": t})]


def _fig10b_points(s: ExperimentScale) -> List[Point]:
    """Fig. 10b: assignments examined by ALG vs INC while varying k, |T| and |E|."""
    k0, e0, t0 = s.default_k, s.default_events, s.default_intervals
    sweep = (
        [(f"k={k}", k, e0, t0) for k in (k0 // 2, k0, k0 * 2)]
        + [(f"|T|={t}", k0, e0, t) for t in (t0, t0 * 2, t0 * 3)]
        + [(f"|E|={e}", k0, e, t0) for e in s.events_values[1:]]
    )
    return [
        (
            k,
            {"num_events": e, "num_intervals": t},
            {"point": i, "label": label, "k": k, "num_events": e, "num_intervals": t},
        )
        for i, (label, k, e, t) in enumerate(sweep)
    ]


def _ext_competing_points(s: ExperimentScale) -> List[Point]:
    """§4.1 (omitted plot): effect of the number of competing events per interval."""
    k = s.default_k
    return [
        (k, {"competing_per_interval_range": (1, high)}, {"k": k, "competing_high": high})
        for high in (4, 8, 16, 32, 64)
    ]


def _ext_resources_points(s: ExperimentScale) -> List[Point]:
    """§4.1 (omitted plot): effect of the organiser's available resources θ."""
    k = s.default_k
    return [
        (k, {"available_resources": float(theta)}, {"k": k, "available_resources": theta})
        for theta in (10, 20, 30, 50, 100)
    ]


# --------------------------------------------------------------------------- #
# The experiment table
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec:
    """One row of the experiment table: everything that differs between experiments.

    ``points(scale)`` lists the sweep points and ``notes(scale)``, if set, the
    metadata stored on the :class:`FigureResult`.  ``runner`` is the row's
    public entry point (``fig5`` … ``ext_resources``), generated from the row.
    """

    experiment_id: str
    paper_reference: str
    description: str
    title: str
    x_param: str
    points: Callable[[ExperimentScale], List[Point]]
    metrics: Tuple[str, ...] = ("utility", "user_computations", "time_sec")
    datasets: Tuple[str, ...] = ("Unf",)
    algorithms: Tuple[str, ...] = tuple(PAPER_METHODS)
    notes: Optional[Callable[[ExperimentScale], Dict[str, object]]] = None
    runner: Callable[..., FigureResult] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "runner", _make_runner(self))


def _make_runner(spec: ExperimentSpec) -> Callable[..., FigureResult]:
    """The public function of one table row, with the row's default datasets and algorithms."""

    def runner(
        scale: str | ExperimentScale = "default",
        *,
        datasets: Sequence[str] = spec.datasets,
        algorithms: Sequence[str] = spec.algorithms,
        seed: int = 0,
        execution: Optional[ExecutionConfig] = None,
        storage: Optional[str] = None,
    ) -> FigureResult:
        resolved = get_scale(scale)
        datasets = tuple(datasets)
        return FigureResult(
            figure_id=spec.experiment_id,
            title=spec.title,
            x_param=spec.x_param,
            metrics=spec.metrics,
            datasets=datasets,
            scale=resolved.name,
            records=run_points(
                spec.experiment_id,
                resolved,
                spec.points(resolved),
                datasets=datasets,
                algorithms=algorithms,
                seed=seed,
                execution=execution,
                storage=storage,
            ),
            notes=spec.notes(resolved) if spec.notes else {},
        )

    runner.__name__ = runner.__qualname__ = spec.experiment_id
    runner.__doc__ = spec.points.__doc__
    return runner


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig5",
            "Figure 5",
            "Utility / computations / time vs k",
            title="Varying the number of scheduled events k",
            x_param="k",
            points=_fig5_points,
            datasets=ALL_DATASETS,
        ),
        ExperimentSpec(
            "fig6",
            "Figure 6",
            "Utility / time vs number of intervals",
            title="Varying the number of time intervals |T|",
            x_param="num_intervals",
            points=_fig6_points,
            datasets=ALL_DATASETS,
        ),
        ExperimentSpec(
            "fig7",
            "Figure 7",
            "Utility / time vs number of candidate events",
            title="Varying the number of candidate events |E|",
            x_param="num_events",
            points=_fig7_points,
            datasets=("Concerts", "Unf"),
        ),
        ExperimentSpec(
            "fig8",
            "Figure 8",
            "Time vs number of users (two |T| panels)",
            title="Varying the number of users |U|",
            x_param="num_users",
            points=_fig8_points,
            notes=lambda scale: {"panels": _fig8_panels(scale)},
        ),
        ExperimentSpec(
            "fig9",
            "Figure 9",
            "Utility / time vs number of locations",
            title="Varying the number of available locations",
            x_param="num_locations",
            points=_fig9_points,
            metrics=("utility", "time_sec"),
        ),
        ExperimentSpec(
            "fig10a",
            "Figure 10a",
            "HOR/HOR-I worst case w.r.t. k and |T|",
            title="HOR & HOR-I worst case w.r.t. k and |T|",
            x_param="num_intervals",
            points=_fig10a_points,
            datasets=ALL_DATASETS,
            algorithms=("ALG", "INC", "HOR", "HOR-I", "TOP"),
        ),
        ExperimentSpec(
            "fig10b",
            "Figure 10b",
            "ALG vs INC search space",
            title="ALG & INC search space (assignments examined)",
            x_param="point",
            points=_fig10b_points,
            metrics=("assignments_examined",),
            algorithms=("ALG", "INC"),
            notes=lambda scale: {
                "sweep_labels": [params["label"] for _, _, params in _fig10b_points(scale)]
            },
        ),
        ExperimentSpec(
            "ext_competing",
            "§4.1 (omitted)",
            "Effect of competing events per interval",
            title="Varying the number of competing events per interval",
            x_param="competing_high",
            points=_ext_competing_points,
            metrics=("utility", "time_sec"),
        ),
        ExperimentSpec(
            "ext_resources",
            "§4.1 (omitted)",
            "Effect of available resources θ",
            title="Varying the available resources θ",
            x_param="available_resources",
            points=_ext_resources_points,
            metrics=("utility", "time_sec"),
        ),
    )
}

fig5 = EXPERIMENTS["fig5"].runner
fig6 = EXPERIMENTS["fig6"].runner
fig7 = EXPERIMENTS["fig7"].runner
fig8 = EXPERIMENTS["fig8"].runner
fig9 = EXPERIMENTS["fig9"].runner
fig10a = EXPERIMENTS["fig10a"].runner
fig10b = EXPERIMENTS["fig10b"].runner
ext_competing = EXPERIMENTS["ext_competing"].runner
ext_resources = EXPERIMENTS["ext_resources"].runner


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
