"""Tests for the scheduler registry and the base scheduler plumbing."""

import numpy as np
import pytest

from repro.algorithms.base import (
    IntervalHeads,
    Validity,
    best_index,
    better_candidate,
    key_order,
)
from repro.algorithms.registry import (
    CONTRIBUTED_METHODS,
    PAPER_METHODS,
    available_schedulers,
    get_scheduler,
    run_scheduler,
)
from repro.core.constraints import ConstraintChecker
from repro.core.counters import ComputationCounter
from repro.core.errors import SolverError


class TestRegistry:
    def test_paper_methods_are_registered(self):
        names = available_schedulers()
        for name in PAPER_METHODS:
            assert name in names
        assert "EXACT" in names

    def test_contributed_methods_subset(self):
        assert set(CONTRIBUTED_METHODS) <= set(PAPER_METHODS)

    @pytest.mark.parametrize("alias", ["hor-i", "HOR_I", "hori", "HOR-I"])
    def test_hor_i_aliases(self, alias):
        assert get_scheduler(alias).name == "HOR-I"

    def test_case_insensitive_lookup(self):
        assert get_scheduler("alg").name == "ALG"
        assert get_scheduler(" inc ").name == "INC"

    def test_unknown_name_raises(self):
        with pytest.raises(SolverError, match="unknown scheduler"):
            get_scheduler("does-not-exist")

    def test_run_scheduler_helper(self, small_instance):
        result = run_scheduler("TOP", small_instance, 3)
        assert result.algorithm == "TOP"
        assert result.num_scheduled == 3


class TestSchedulerResult:
    def test_summary_fields(self, small_instance):
        result = run_scheduler("ALG", small_instance, 4)
        summary = result.summary()
        assert summary["algorithm"] == "ALG"
        assert summary["k"] == 4
        assert summary["scheduled"] == result.num_scheduled
        assert summary["utility"] == pytest.approx(result.utility)
        assert summary["user_computations"] == result.user_computations

    def test_external_counter_accumulates(self, small_instance):
        counter = ComputationCounter()
        run_scheduler("TOP", small_instance, 2, counter=counter)
        first = counter.score_computations
        run_scheduler("TOP", small_instance, 2, counter=counter)
        assert counter.score_computations == 2 * first


class TestTieBreaking:
    def test_better_candidate_prefers_larger_score(self):
        assert better_candidate((1.0, 5, 5), (2.0, 0, 0)) == (2.0, 0, 0)

    def test_better_candidate_breaks_ties_by_event_then_interval(self):
        assert better_candidate((1.0, 2, 0), (1.0, 1, 5)) == (1.0, 1, 5)
        assert better_candidate((1.0, 1, 3), (1.0, 1, 2)) == (1.0, 1, 2)

    def test_better_candidate_handles_none(self):
        assert better_candidate(None, (1.0, 0, 0)) == (1.0, 0, 0)
        assert better_candidate((1.0, 0, 0), None) == (1.0, 0, 0)
        assert better_candidate(None, None) is None

    def test_key_order_sorts_by_score_then_event(self):
        scores = np.array([0.1, 0.5, 0.9, 0.5])
        events = np.array([0, 2, 3, 1])
        assert events[key_order(scores, events)].tolist() == [3, 1, 2, 0]

    def test_key_order_keeps_ties_already_in_event_order(self):
        scores = np.array([0.5, 0.7, 0.5])
        events = np.array([1, 0, 4])
        assert events[key_order(scores, events)].tolist() == [0, 1, 4]

    def test_key_order_treats_signed_zeros_as_a_tie(self):
        scores = np.array([0.0, -0.0, 0.3])
        events = np.array([5, 2, 9])
        assert events[key_order(scores, events)].tolist() == [9, 2, 5]

    def test_best_index_breaks_ties_by_event_then_index(self):
        scores = np.array([1.0, 2.0, 2.0, 2.0])
        events = np.array([0, 4, 1, 1])
        assert best_index(scores, events, np.ones(4, dtype=bool)) == 2
        assert best_index(scores, events, np.array([True, True, False, True])) == 3
        assert best_index(scores, events, np.zeros(4, dtype=bool)) == -1

    def test_interval_heads_order_each_interval(self, small_instance):
        checker = ConstraintChecker(small_instance)
        heads = IntervalHeads(Validity(checker, small_instance.num_intervals, ()))
        heads.fill(1, np.array([0, 1, 2, 3]), np.array([0.1, 0.5, 0.9, 0.5]))
        assert heads.events[1].tolist() == [2, 1, 3, 0]
        assert heads.scores[1].tolist() == [0.9, 0.5, 0.5, 0.1]
        assert heads.updated[1].all()
        heads.drop_event(1, 1)
        assert heads.events[1].tolist() == [2, 3, 0]
        assert not heads.updated[1].any()
        assert heads.size(0) == 0
