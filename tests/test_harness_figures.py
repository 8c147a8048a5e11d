"""Tests for the experiment harness, figure registry and summary sweep."""

import dataclasses

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.figures import (
    EXPERIMENTS,
    SCALES,
    available_experiments,
    fig5,
    fig7,
    fig8,
    fig10a,
    fig10b,
    get_experiment,
    get_scale,
    run_experiment,
)
from repro.experiments.harness import run_algorithms, run_experiment_point
from repro.experiments.report import format_figure_result, format_records, format_table
from repro.experiments.sweeps import summarize_records, summary_sweep
from tests.conftest import make_random_instance


class TestHarness:
    def test_run_algorithms_produces_one_record_per_method(self, small_instance):
        records = run_algorithms(small_instance, 4, algorithms=("ALG", "TOP", "RAND"))
        assert [record.algorithm for record in records] == ["ALG", "TOP", "RAND"]
        assert all(record.dataset == small_instance.name for record in records)
        assert all(record.k == 4 for record in records)

    def test_run_algorithms_requires_names(self, small_instance):
        with pytest.raises(ExperimentError, match="at least one"):
            run_algorithms(small_instance, 3, algorithms=())

    def test_run_experiment_point_builds_dataset(self):
        records = run_experiment_point(
            "Unf",
            k=4,
            experiment_id="unit",
            dataset_overrides={"num_users": 30, "num_events": 10, "num_intervals": 4, "seed": 1},
            algorithms=("HOR",),
            params={"note": "x"},
        )
        assert len(records) == 1
        assert records[0].params["note"] == "x"
        assert records[0].params["k"] == 4

    def test_validation_failure_raises(self, small_instance, monkeypatch):
        """A scheduler returning an invalid solution must abort the experiment loudly."""
        from repro.experiments import harness as harness_module

        def fake_validate(instance, schedule, *, k, claimed_utility=None):
            return ["synthetic problem"]

        monkeypatch.setattr(harness_module, "validate_solution", fake_validate)
        with pytest.raises(ExperimentError, match="invalid schedule"):
            run_algorithms(small_instance, 3, algorithms=("TOP",))

    def test_validation_can_be_disabled(self, small_instance, monkeypatch):
        from repro.experiments import harness as harness_module

        def fake_validate(instance, schedule, *, k, claimed_utility=None):
            return ["synthetic problem"]

        monkeypatch.setattr(harness_module, "validate_solution", fake_validate)
        records = run_algorithms(small_instance, 3, algorithms=("TOP",), validate=False)
        assert len(records) == 1


class TestScales:
    def test_known_scales(self):
        assert {"tiny", "small", "default"} <= set(SCALES)
        for scale in SCALES.values():
            assert scale.default_events == 3 * scale.default_k
            assert scale.default_intervals == (3 * scale.default_k) // 2

    def test_get_scale_accepts_objects_and_names(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale(SCALES["small"]) is SCALES["small"]
        with pytest.raises(ExperimentError, match="unknown scale"):
            get_scale("galactic")


class TestRegistry:
    def test_all_paper_figures_registered(self):
        for figure_id in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b"):
            assert figure_id in EXPERIMENTS
        assert "ext_competing" in EXPERIMENTS
        assert "ext_resources" in EXPERIMENTS

    def test_available_and_get(self):
        assert available_experiments() == sorted(EXPERIMENTS)
        assert get_experiment("fig5").runner is fig5
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("fig99")


class TestFigureRuns:
    """Each figure function runs end-to-end at the tiny scale."""

    def test_fig5_structure(self):
        figure = fig5(scale="tiny", datasets=("Unf",), algorithms=("ALG", "INC", "HOR", "TOP"))
        assert figure.figure_id == "fig5"
        ks = figure.x_values()
        assert ks == [4.0, 6.0, 10.0]
        series = figure.series(metric="utility", dataset="Unf")
        assert set(series) == {"ALG", "INC", "HOR", "TOP"}
        assert len(series["ALG"]) == 3
        # Utility grows with k for the greedy methods.
        utilities = [value for _, value in series["ALG"]]
        assert utilities == sorted(utilities)

    def test_fig10a_uses_worst_case_intervals(self):
        figure = fig10a(scale="tiny", datasets=("Unf",), algorithms=("HOR", "HOR-I"))
        scale = get_scale("tiny")
        assert all(record.params["num_intervals"] == scale.default_k - 1 for record in figure.records)

    def test_fig10b_only_alg_and_inc(self):
        figure = fig10b(scale="tiny")
        assert set(figure.algorithms()) == {"ALG", "INC"}
        assert figure.notes["sweep_labels"]
        # INC examines fewer assignments than ALG at every sweep point.
        by_point = {}
        for record in figure.records:
            by_point.setdefault(record.params["label"], {})[record.algorithm] = record
        for label, pair in by_point.items():
            assert pair["INC"].assignments_examined < pair["ALG"].assignments_examined, label

    @pytest.mark.parametrize("experiment_id", ["fig6", "fig7", "fig9", "ext_resources"])
    def test_other_figures_run_at_tiny_scale(self, experiment_id):
        figure = run_experiment(
            experiment_id, scale="tiny", datasets=("Unf",), algorithms=("HOR", "TOP")
        )
        assert figure.records
        assert figure.figure_id == experiment_id
        for record in figure.records:
            assert record.utility >= 0.0
            assert record.time_sec >= 0.0


#: Dataset-builder arguments of a ``tiny`` point at the Table 1 defaults.
TINY_DEFAULTS = {
    "num_users": 120,
    "num_events": 18,
    "num_intervals": 9,
    "num_locations": 4,
    "competing_per_interval_range": (1, 4),
    "available_resources": 30.0,
    "required_resources_range": (1.0, 15.0),
    "seed": 7,
}
ALL_FOUR = ("Meetup", "Concerts", "Unf", "Zip")
SIX_METHODS = ("ALG", "INC", "HOR", "HOR-I", "TOP", "RAND")

#: Every experiment's sweep at ``tiny``: (datasets, algorithms, points), one
#: point per ``(k, builder arguments that differ from TINY_DEFAULTS, params)``
#: in run order; every dataset runs every point.
PINNED_SWEEPS = {
    "fig5": (
        ALL_FOUR,
        SIX_METHODS,
        [
            (4, {}, {"k": 4, "num_events": 18, "num_intervals": 9}),
            (6, {}, {"k": 6, "num_events": 18, "num_intervals": 9}),
            (10, {}, {"k": 10, "num_events": 18, "num_intervals": 9}),
        ],
    ),
    "fig6": (
        ALL_FOUR,
        SIX_METHODS,
        [
            (6, {"num_intervals": 3}, {"k": 6, "num_events": 18, "num_intervals": 3}),
            (6, {"num_intervals": 6}, {"k": 6, "num_events": 18, "num_intervals": 6}),
            (6, {}, {"k": 6, "num_events": 18, "num_intervals": 9}),
            (6, {"num_intervals": 12}, {"k": 6, "num_events": 18, "num_intervals": 12}),
        ],
    ),
    "fig7": (
        ("Concerts", "Unf"),
        SIX_METHODS,
        [
            (6, {"num_events": 6}, {"k": 6, "num_events": 6, "num_intervals": 9}),
            (6, {}, {"k": 6, "num_events": 18, "num_intervals": 9}),
            (6, {"num_events": 30}, {"k": 6, "num_events": 30, "num_intervals": 9}),
        ],
    ),
    "fig8": (
        ("Unf",),
        SIX_METHODS,
        [
            (6, {"num_users": 60}, {"k": 6, "num_users": 60, "num_intervals": 9, "panel": "a"}),
            (6, {}, {"k": 6, "num_users": 120, "num_intervals": 9, "panel": "a"}),
            (6, {"num_users": 240}, {"k": 6, "num_users": 240, "num_intervals": 9, "panel": "a"}),
            (
                6,
                {"num_users": 60, "num_intervals": 4},
                {"k": 6, "num_users": 60, "num_intervals": 4, "panel": "b"},
            ),
            (6, {"num_intervals": 4}, {"k": 6, "num_users": 120, "num_intervals": 4, "panel": "b"}),
            (
                6,
                {"num_users": 240, "num_intervals": 4},
                {"k": 6, "num_users": 240, "num_intervals": 4, "panel": "b"},
            ),
        ],
    ),
    "fig9": (
        ("Unf",),
        SIX_METHODS,
        [
            (
                6,
                {"num_intervals": 4, "num_locations": 2},
                {"k": 6, "num_locations": 2, "num_intervals": 4},
            ),
            (6, {"num_intervals": 4}, {"k": 6, "num_locations": 4, "num_intervals": 4}),
            (
                6,
                {"num_intervals": 4, "num_locations": 8},
                {"k": 6, "num_locations": 8, "num_intervals": 4},
            ),
        ],
    ),
    "fig10a": (
        ALL_FOUR,
        ("ALG", "INC", "HOR", "HOR-I", "TOP"),
        [(6, {"num_intervals": 5}, {"k": 6, "num_intervals": 5})],
    ),
    "fig10b": (
        ("Unf",),
        ("ALG", "INC"),
        [
            (3, {}, {"point": 0, "label": "k=3", "k": 3, "num_events": 18, "num_intervals": 9}),
            (6, {}, {"point": 1, "label": "k=6", "k": 6, "num_events": 18, "num_intervals": 9}),
            (12, {}, {"point": 2, "label": "k=12", "k": 12, "num_events": 18, "num_intervals": 9}),
            (6, {}, {"point": 3, "label": "|T|=9", "k": 6, "num_events": 18, "num_intervals": 9}),
            (
                6,
                {"num_intervals": 18},
                {"point": 4, "label": "|T|=18", "k": 6, "num_events": 18, "num_intervals": 18},
            ),
            (
                6,
                {"num_intervals": 27},
                {"point": 5, "label": "|T|=27", "k": 6, "num_events": 18, "num_intervals": 27},
            ),
            (6, {}, {"point": 6, "label": "|E|=18", "k": 6, "num_events": 18, "num_intervals": 9}),
            (
                6,
                {"num_events": 30},
                {"point": 7, "label": "|E|=30", "k": 6, "num_events": 30, "num_intervals": 9},
            ),
        ],
    ),
    "ext_competing": (
        ("Unf",),
        SIX_METHODS,
        [
            (6, {}, {"k": 6, "competing_high": 4}),
            (6, {"competing_per_interval_range": (1, 8)}, {"k": 6, "competing_high": 8}),
            (6, {"competing_per_interval_range": (1, 16)}, {"k": 6, "competing_high": 16}),
            (6, {"competing_per_interval_range": (1, 32)}, {"k": 6, "competing_high": 32}),
            (6, {"competing_per_interval_range": (1, 64)}, {"k": 6, "competing_high": 64}),
        ],
    ),
    "ext_resources": (
        ("Unf",),
        SIX_METHODS,
        [
            (6, {"available_resources": 10.0}, {"k": 6, "available_resources": 10}),
            (6, {"available_resources": 20.0}, {"k": 6, "available_resources": 20}),
            (6, {}, {"k": 6, "available_resources": 30}),
            (6, {"available_resources": 50.0}, {"k": 6, "available_resources": 50}),
            (6, {"available_resources": 100.0}, {"k": 6, "available_resources": 100}),
        ],
    ),
    "summary": (
        ALL_FOUR,
        SIX_METHODS,
        [
            (6, {}, {"regime": "k<|T|", "num_intervals": 9}),
            (6, {"num_intervals": 6}, {"regime": "k=|T|", "num_intervals": 6}),
            (12, {}, {"regime": "k>|T|", "num_intervals": 9}),
        ],
    ),
}


@pytest.fixture
def recorded_points(monkeypatch):
    """Replace ``run_experiment_point`` with a recorder that solves nothing."""
    from repro.experiments import figures, sweeps

    calls = []

    def record(dataset, *, k, experiment_id, dataset_overrides, algorithms, params, **options):
        assert options == {"seed": 0, "execution": None, "storage": None}
        assert list(dataset_overrides) == list(TINY_DEFAULTS)
        changes = {
            key: value for key, value in dataset_overrides.items() if value != TINY_DEFAULTS[key]
        }
        calls.append((experiment_id, dataset, k, changes, list(params.items()), tuple(algorithms)))
        return []

    monkeypatch.setattr(figures, "run_experiment_point", record)
    monkeypatch.setattr(sweeps, "run_experiment_point", record, raising=False)
    return calls


class TestPinnedSweeps:
    """The exact points every experiment visits, without solving anything."""

    @pytest.mark.parametrize("experiment_id", list(PINNED_SWEEPS))
    def test_tiny_sweep_points(self, recorded_points, experiment_id):
        if experiment_id == "summary":
            summary_sweep(scale="tiny")
        else:
            run_experiment(experiment_id, scale="tiny")
        datasets, algorithms, points = PINNED_SWEEPS[experiment_id]
        expected = [
            (experiment_id, dataset, k, changes, list(params.items()), algorithms)
            for dataset in datasets
            for k, changes, params in points
        ]
        assert recorded_points == expected

    def test_figure_notes(self, recorded_points):
        assert fig8(scale="tiny").notes == {"panels": {"a": 9, "b": 4}}
        assert fig10b(scale="tiny").notes == {
            "sweep_labels": ["k=3", "k=6", "k=12", "|T|=9", "|T|=18", "|T|=27", "|E|=18", "|E|=30"]
        }

    def test_fig7_skips_fewer_events_than_k(self, recorded_points):
        scale = dataclasses.replace(SCALES["tiny"], events_values=(3, 5, 6, 30))
        fig7(scale=scale, datasets=("Unf",))
        assert [dict(params)["num_events"] for *_, params, _ in recorded_points] == [6, 30]


class TestSummarySweep:
    def test_summary_statistics(self):
        stats = summary_sweep(scale="tiny", datasets=("Unf", "Zip"))
        assert stats.num_points == 6
        assert stats.inc_always_equal_to_alg
        assert stats.hor_i_always_equal_to_hor
        assert 0.0 <= stats.hor_equal_utility_fraction <= 1.0
        assert stats.hor_max_relative_gap < 0.2
        assert set(stats.mean_computation_ratio) == {"INC", "HOR", "HOR-I"}
        for ratio in stats.mean_computation_ratio.values():
            assert ratio <= 1.0 + 1e-9
        rows = stats.as_rows()
        assert any("INC utility" in str(row["statistic"]) for row in rows)

    def test_summarize_records_empty(self):
        stats = summarize_records([])
        assert stats.num_points == 0
        assert stats.hor_equal_utility_fraction == 0.0


class TestReport:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_records(self, small_instance):
        records = run_algorithms(small_instance, 3, algorithms=("TOP",))
        text = format_records(records)
        assert "TOP" in text
        assert "utility" in text

    def test_format_figure_result(self):
        figure = fig5(scale="tiny", datasets=("Unf",), algorithms=("HOR", "TOP"))
        text = format_figure_result(figure)
        assert "fig5" in text
        assert "utility" in text
        assert "HOR" in text
