"""Tests for metric records and aggregation helpers (repro.experiments.metrics)."""

import pytest

from repro.algorithms.registry import run_scheduler
from repro.experiments.metrics import (
    MetricRecord,
    group_records,
    records_to_rows,
    series_by_algorithm,
    speedup,
)


def make_record(algorithm="ALG", dataset="Unf", k=10, utility=5.0, time_sec=1.0,
                score_computations=100, params=None):
    return MetricRecord(
        experiment_id="test",
        dataset=dataset,
        algorithm=algorithm,
        k=k,
        utility=utility,
        net_utility=utility,
        num_scheduled=k,
        time_sec=time_sec,
        score_computations=score_computations,
        user_computations=score_computations * 10,
        assignments_examined=score_computations * 2,
        params=params or {},
    )


class TestMetricRecord:
    def test_from_result(self, small_instance):
        result = run_scheduler("TOP", small_instance, 3)
        record = MetricRecord.from_result(
            result, experiment_id="exp", dataset="X", params={"k": 3}, seed=1
        )
        assert record.algorithm == "TOP"
        assert record.utility == pytest.approx(result.utility)
        assert record.score_computations == result.score_computations
        assert record.params == {
            "k": 3,
            "storage": result.storage,
            "plan": result.plan,
        }
        assert record.seed == 1

    def test_value_accessor(self):
        record = make_record(params={"num_intervals": 8})
        assert record.value("utility") == 5.0
        assert record.value("time_sec") == 1.0
        assert record.value("score_computations") == 100
        assert record.value("num_intervals") == 8
        assert record.value("k") == 10
        with pytest.raises(KeyError):
            record.value("nonexistent")

    def test_to_row_flattens_params(self):
        row = make_record(params={"num_users": 50}).to_row()
        assert row["param.num_users"] == 50
        assert row["algorithm"] == "ALG"

    def test_records_to_rows(self):
        rows = records_to_rows([make_record(), make_record(algorithm="HOR")])
        assert len(rows) == 2
        assert rows[1]["algorithm"] == "HOR"


class TestAggregation:
    def test_group_records(self):
        records = [make_record(k=5), make_record(k=5, algorithm="HOR"), make_record(k=10)]
        grouped = group_records(records, key=lambda record: (record.k,))
        assert len(grouped[(5,)]) == 2
        assert len(grouped[(10,)]) == 1

    def test_series_by_algorithm(self):
        records = [
            make_record(algorithm="ALG", k=5, utility=2.0),
            make_record(algorithm="ALG", k=10, utility=4.0),
            make_record(algorithm="HOR", k=10, utility=3.5),
            make_record(algorithm="HOR", k=5, utility=1.8),
        ]
        series = series_by_algorithm(records, x_param="k", metric="utility")
        assert series["ALG"] == [(5.0, 2.0), (10.0, 4.0)]
        assert series["HOR"] == [(5.0, 1.8), (10.0, 3.5)]

    def test_speedup(self):
        records = [
            make_record(algorithm="ALG", time_sec=4.0),
            make_record(algorithm="HOR", time_sec=1.0),
            make_record(algorithm="ALG", k=20, time_sec=9.0),
            make_record(algorithm="HOR", k=20, time_sec=3.0),
        ]
        ratios = speedup(records, target="HOR")
        assert sorted(ratios) == [pytest.approx(3.0), pytest.approx(4.0)]

    def test_speedup_skips_incomplete_points(self):
        records = [make_record(algorithm="ALG"), make_record(algorithm="ALG", k=20)]
        assert speedup(records, target="HOR") == []
