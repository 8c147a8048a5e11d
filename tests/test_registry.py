"""Tests for the scheduler registry and the base scheduler plumbing."""

import pytest

from repro.algorithms.base import AssignmentEntry, better_candidate
from repro.algorithms.registry import (
    CONTRIBUTED_METHODS,
    PAPER_METHODS,
    available_schedulers,
    get_scheduler,
    run_scheduler,
)
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

    def test_assignment_entry_sort_key(self):
        high = AssignmentEntry(3, 1, 0.9)
        low = AssignmentEntry(0, 0, 0.1)
        tie_a = AssignmentEntry(1, 0, 0.5)
        tie_b = AssignmentEntry(2, 0, 0.5)
        ordered = sorted([low, tie_b, high, tie_a], key=AssignmentEntry.sort_key)
        assert ordered[0] is high
        assert ordered[1] is tie_a
        assert ordered[2] is tie_b
        assert ordered[3] is low
