"""Tests for the TOP and RAND baselines."""

import numpy as np
import pytest

from repro.algorithms.alg import AlgScheduler
from repro.algorithms.rand import RandScheduler
from repro.algorithms.registry import run_scheduler
from repro.algorithms.top import TopScheduler
from repro.core.constraints import is_schedule_feasible
from repro.core.errors import SolverError
from repro.core.scoring import utility_of_schedule
from tests.conftest import make_random_instance


class TestTop:
    def test_minimum_number_of_computations(self, medium_instance):
        """TOP computes each assignment score exactly once and never updates."""
        result = TopScheduler(medium_instance).schedule(10)
        assert (
            result.score_computations
            == medium_instance.num_events * medium_instance.num_intervals
        )
        assert result.counters["update_computations"] == 0

    def test_feasible_output(self, medium_instance):
        result = TopScheduler(medium_instance).schedule(12)
        assert is_schedule_feasible(medium_instance, result.schedule)
        assert result.num_scheduled == 12

    def test_never_beats_alg_on_first_selection(self, medium_instance):
        top = TopScheduler(medium_instance).schedule(1)
        alg = AlgScheduler(medium_instance).schedule(1)
        assert top.utility == pytest.approx(alg.utility, rel=1e-9)

    def test_utility_below_alg_for_larger_k(self):
        """TOP piles events into few intervals and loses utility to cannibalisation."""
        wins = 0
        for seed in range(5):
            instance = make_random_instance(seed=seed, num_events=24, num_intervals=6)
            top = TopScheduler(instance).schedule(12)
            alg = AlgScheduler(instance).schedule(12)
            if alg.utility >= top.utility - 1e-9:
                wins += 1
        assert wins == 5

    def test_respects_constraints_with_single_location(self):
        instance = make_random_instance(
            seed=7, num_events=10, num_intervals=3, num_locations=1, available_resources=1e9
        )
        result = TopScheduler(instance).schedule(10)
        assert result.num_scheduled == 3  # one event per interval at most
        assert is_schedule_feasible(instance, result.schedule)

    def test_utility_matches_schedule(self, medium_instance):
        result = TopScheduler(medium_instance).schedule(6)
        assert result.utility == pytest.approx(
            utility_of_schedule(medium_instance, result.schedule), rel=1e-9
        )


class TestRand:
    def test_deterministic_given_seed(self, medium_instance):
        first = RandScheduler(medium_instance, seed=42).schedule(8)
        second = RandScheduler(medium_instance, seed=42).schedule(8)
        assert first.schedule == second.schedule

    def test_different_seeds_usually_differ(self, medium_instance):
        first = RandScheduler(medium_instance, seed=1).schedule(8)
        second = RandScheduler(medium_instance, seed=2).schedule(8)
        assert first.schedule != second.schedule

    def test_no_score_computations(self, medium_instance):
        result = RandScheduler(medium_instance, seed=0).schedule(8)
        assert result.score_computations == 0
        assert result.user_computations == 0

    def test_feasible_output(self, medium_instance):
        for seed in range(5):
            result = RandScheduler(medium_instance, seed=seed).schedule(15)
            assert is_schedule_feasible(medium_instance, result.schedule)

    def test_schedules_k_when_easy(self, medium_instance):
        result = RandScheduler(medium_instance, seed=3).schedule(6)
        assert result.num_scheduled == 6

    def test_usually_below_greedy_utility(self):
        greedy_wins = 0
        for seed in range(6):
            instance = make_random_instance(seed=seed + 100, num_events=24, num_intervals=6)
            alg = AlgScheduler(instance).schedule(10)
            rand = RandScheduler(instance, seed=seed).schedule(10)
            if alg.utility >= rand.utility - 1e-9:
                greedy_wins += 1
        assert greedy_wins >= 5

    def test_utility_matches_schedule(self, medium_instance):
        result = RandScheduler(medium_instance, seed=11).schedule(9)
        assert result.utility == pytest.approx(
            utility_of_schedule(medium_instance, result.schedule), rel=1e-9
        )


class TestSeedAndKDecoding:
    """Every scheduler decodes ``seed`` and ``k`` itself, without coercion."""

    def test_numpy_integer_seed_equals_int_seed(self, medium_instance):
        numpy_seeded = run_scheduler("RAND", medium_instance, 3, seed=np.int64(3))
        assert numpy_seeded.schedule == run_scheduler("RAND", medium_instance, 3, seed=3).schedule

    @pytest.mark.parametrize("seed", [2.5, "7", True], ids=repr)
    def test_coercible_seed_is_rejected(self, medium_instance, seed):
        with pytest.raises(SolverError, match="seed must be an integer"):
            run_scheduler("RAND", medium_instance, 3, seed=seed)

    def test_numpy_integer_k_equals_int_k(self, medium_instance):
        result = run_scheduler("ALG", medium_instance, np.int64(3))
        assert result.k == 3
        assert result.schedule == run_scheduler("ALG", medium_instance, 3).schedule
