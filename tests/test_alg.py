"""Tests for the prior-work greedy algorithm ALG (repro.algorithms.alg)."""

from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.alg import AlgScheduler
from repro.algorithms.base import BaseScheduler
from repro.core.constraints import ConstraintChecker, is_schedule_feasible
from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from repro.core.scoring import utility_of_schedule
from tests.conftest import make_random_instance, with_capacities


class TestRunningExample:
    """Example 2 of the paper: ALG selects e4@t2, then e1@t1, then e2@t2."""

    def test_selected_schedule_matches_example2(self, running_example):
        result = AlgScheduler(running_example).schedule(3)
        expected = {
            running_example.event_index("e4"): running_example.interval_index("t2"),
            running_example.event_index("e1"): running_example.interval_index("t1"),
            running_example.event_index("e2"): running_example.interval_index("t2"),
        }
        assert result.schedule.as_dict() == expected

    def test_utility_of_example_schedule(self, running_example):
        result = AlgScheduler(running_example).schedule(3)
        # 0.66 (e4@t2) + 0.59 (e1@t1) + 0.16 (e2@t2 after the update) ≈ 1.41
        assert result.utility == pytest.approx(1.41, abs=0.01)
        assert result.utility == pytest.approx(
            utility_of_schedule(running_example, result.schedule), rel=1e-9
        )

    def test_location_constraint_blocks_e2_at_t1(self, running_example):
        """e1 and e2 share Stage 1, so after e1@t1 the pair e2@t1 is infeasible."""
        result = AlgScheduler(running_example).schedule(4)
        schedule = result.schedule.as_dict()
        e2 = running_example.event_index("e2")
        e1 = running_example.event_index("e1")
        if e1 in schedule and e2 in schedule:
            assert schedule[e1] != schedule[e2]

    def test_k_one_selects_global_top(self, running_example):
        result = AlgScheduler(running_example).schedule(1)
        assert result.schedule.as_dict() == {
            running_example.event_index("e4"): running_example.interval_index("t2")
        }
        assert result.utility == pytest.approx(0.66, abs=0.005)


class TestGeneralBehaviour:
    def test_schedules_exactly_k_when_possible(self, medium_instance):
        result = AlgScheduler(medium_instance).schedule(6)
        assert result.num_scheduled == 6
        assert result.k == 6

    def test_feasible_output(self, medium_instance):
        result = AlgScheduler(medium_instance).schedule(10)
        assert is_schedule_feasible(medium_instance, result.schedule)

    def test_k_larger_than_events_is_capped(self, small_instance):
        result = AlgScheduler(small_instance).schedule(10_000)
        assert result.num_scheduled <= small_instance.num_events

    def test_invalid_k_rejected(self, small_instance):
        with pytest.raises(SolverError):
            AlgScheduler(small_instance).schedule(0)
        with pytest.raises(SolverError):
            AlgScheduler(small_instance).schedule(-3)
        with pytest.raises(SolverError):
            AlgScheduler(small_instance).schedule(2.5)  # type: ignore[arg-type]

    def test_utility_monotone_in_k(self, medium_instance):
        utilities = [AlgScheduler(medium_instance).schedule(k).utility for k in (1, 3, 6, 10)]
        assert utilities == sorted(utilities)

    def test_counters_reported(self, medium_instance):
        result = AlgScheduler(medium_instance).schedule(5)
        expected_initial = medium_instance.num_events * medium_instance.num_intervals
        assert result.counters["initial_computations"] == expected_initial
        assert result.score_computations >= expected_initial
        assert result.user_computations == result.score_computations * medium_instance.num_users
        assert result.assignments_examined > 0
        assert result.counters["selections"] == result.num_scheduled

    def test_greedy_selects_best_first(self, medium_instance):
        """The first selection of ALG has the largest initial score."""
        from repro.core.scoring import ScoringEngine

        engine = ScoringEngine(medium_instance)
        best = max(
            (
                engine.assignment_score(event, interval, count=False),
                -event,
                -interval,
            )
            for event in range(medium_instance.num_events)
            for interval in range(medium_instance.num_intervals)
        )
        first_gain = AlgScheduler(medium_instance).schedule(1).utility
        assert first_gain == pytest.approx(best[0], rel=1e-9)

    def test_resources_limit_events_per_interval(self):
        instance = make_random_instance(
            seed=13,
            num_events=10,
            num_intervals=1,
            available_resources=6.0,
            resource_high=3.0,
        )
        result = AlgScheduler(instance).schedule(10)
        total = sum(
            instance.events[event].required_resources
            for event in result.schedule.events_at(0)
        )
        assert total <= instance.available_resources + 1e-9

    def test_stops_when_no_valid_assignment_left(self):
        instance = make_random_instance(
            seed=14, num_events=8, num_intervals=1, num_locations=2, available_resources=1e9
        )
        result = AlgScheduler(instance).schedule(8)
        # Only one event per location fits into the single interval.
        assert result.num_scheduled == 2


# ---------------------------------------------------------------------- #
# Differential test against the scalar dict-scan reference
# ---------------------------------------------------------------------- #
class ReferenceAlgScheduler(BaseScheduler):
    """ALG as a per-entry scan of a Python dict — the oracle of the vectorised scan.

    Every remaining (event, interval) pair is one dict entry, examined and
    feasibility-checked one at a time; the tie-break is an explicit tuple
    comparison.
    """

    name = "ALG-reference"

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        engine = self.engine
        checker = self.checker
        counter = self.counter
        schedule = self._start_schedule()

        # Initial generation: the full |E|×|T| score matrix in one bulk call.
        score_grid = self._initial_score_grid()
        scores: Dict[Tuple[int, int], float] = {
            (event_index, interval_index): float(score_grid[event_index, interval_index])
            for event_index in range(instance.num_events)
            for interval_index in range(instance.num_intervals)
            if not schedule.is_scheduled(event_index)
        }

        iterations = 0
        while len(schedule) < k:
            iterations += 1
            best: Optional[Tuple[float, int, int]] = None
            # Examine every remaining assignment to find the top valid one.
            for (event_index, interval_index), score in scores.items():
                counter.count_examined()
                if not checker.is_feasible(event_index, interval_index):
                    continue
                candidate = (score, event_index, interval_index)
                if best is None or self._beats(candidate, best):
                    best = candidate
            if best is None:
                break

            score, event_index, interval_index = best
            self._select_assignment(schedule, event_index, interval_index, score)

            # Drop every assignment that refers to the selected event.
            for other_interval in range(instance.num_intervals):
                scores.pop((event_index, other_interval), None)

            # Update: recompute the scores of the selected interval from scratch
            # (one batched evaluation of every surviving event of the interval).
            stale_pairs = [pair for pair in scores if pair[1] == interval_index]
            refresh_events = []
            for pair in stale_pairs:
                counter.count_examined()
                if not checker.is_feasible(pair[0], interval_index):
                    del scores[pair]
                    continue
                refresh_events.append(pair[0])
            if refresh_events:
                refreshed = engine.interval_scores(interval_index, refresh_events)
                for refreshed_event, score in zip(refresh_events, refreshed):
                    scores[(refreshed_event, interval_index)] = float(score)

        self.note("iterations", iterations)
        return schedule

    @staticmethod
    def _beats(candidate: Tuple[float, int, int], incumbent: Tuple[float, int, int]) -> bool:
        """Library-wide tie-break: larger score, then smaller event, then smaller interval."""
        candidate_key = (-candidate[0], candidate[1], candidate[2])
        incumbent_key = (-incumbent[0], incumbent[1], incumbent[2])
        return candidate_key < incumbent_key


def assert_matches_reference(instance, k, *, locked=None, execution=None) -> None:
    """Selection order, utility, every counter and the iteration count equal the oracle's."""
    expected = ReferenceAlgScheduler(instance, locked=locked, execution=execution).schedule(k)
    actual = AlgScheduler(instance, locked=locked, execution=execution).schedule(k)
    # as_dict keeps insertion order: the locks, then the selections in turn.
    assert list(actual.schedule.as_dict().items()) == list(expected.schedule.as_dict().items())
    assert actual.utility == expected.utility
    assert actual.counters == expected.counters
    assert actual.extras["iterations"] == expected.extras["iterations"]


@st.composite
def adversarial_cases(draw):
    """``(instance, k, locked)`` with exact ties and infeasible-from-the-start pairs.

    Interest and activity are quantised (or µ is all zero) so scores tie
    exactly; some events need more than θ; intervals are capped at 1 or 2
    events, and a locked assignment on a capacity-1 interval leaves it with
    no residual capacity (a capacity of 0 cannot be declared).
    """
    num_users = draw(st.integers(min_value=1, max_value=6))
    num_events = draw(st.integers(min_value=1, max_value=8))
    num_intervals = draw(st.integers(min_value=1, max_value=4))
    num_locations = draw(st.integers(min_value=1, max_value=4))
    theta = draw(st.sampled_from([2.0, 3.0, float("inf")]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    if draw(st.booleans()):
        interest = np.zeros((num_users, num_events))
    else:
        interest = rng.integers(0, 3, (num_users, num_events)) / 2.0
    activity = rng.integers(0, 3, (num_users, num_intervals)) / 2.0
    num_competing = int(rng.integers(0, 3))
    instance = SESInstance.from_arrays(
        interest=interest,
        activity=activity,
        competing_interest=(
            rng.integers(0, 3, (num_users, num_competing)) / 2.0 if num_competing else None
        ),
        competing_interval_indices=(
            list(rng.integers(0, num_intervals, num_competing)) if num_competing else None
        ),
        locations=[f"loc{rng.integers(0, num_locations)}" for _ in range(num_events)],
        required_resources=list(rng.choice([0.0, 1.0, 1.5, 4.0], num_events)),
        available_resources=theta,
    )
    capacities = [draw(st.sampled_from([None, None, 1, 2])) for _ in range(num_intervals)]
    instance = with_capacities(instance, capacities)
    # Locks are committed in sorted order, so keep only those that stay feasible.
    checker = ConstraintChecker(instance)
    locked = []
    for event_index in range(num_events):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            interval_index = draw(st.integers(min_value=0, max_value=num_intervals - 1))
            if checker.is_feasible(event_index, interval_index):
                checker.commit(event_index, interval_index)
                locked.append((event_index, interval_index))
    k = draw(st.integers(min_value=max(1, len(locked)), max_value=num_events))
    return instance, k, tuple(locked)


class TestMatchesScalarReference:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=adversarial_cases())
    def test_adversarial_instances(self, case):
        instance, k, locked = case
        assert_matches_reference(instance, k, locked=locked)

    @pytest.mark.parametrize("plan", ["direct", "blocked"])
    @pytest.mark.parametrize("storage", ["dense", "sparse", "mmap"])
    def test_every_storage_and_plan(self, storage, plan, tmp_path):
        instance = (
            make_random_instance(seed=17, num_users=40, num_events=14, num_intervals=5)
            .with_storage("dense")
            .with_storage(storage, directory=str(tmp_path))
        )
        assert instance.storage == storage
        assert_matches_reference(
            instance, 9, locked=((3, 1),), execution=ExecutionConfig(plan=plan)
        )


# ---------------------------------------------------------------------- #
# Closed-form search space (the paper's Fig. 10b cost model)
# ---------------------------------------------------------------------- #
class TestSearchSpaceClosedForm:
    """With every pair feasible throughout, ALG's scans have a closed form.

    Iteration ``i`` scans the ``(|E| - i)·|T|`` remaining assignments, then
    re-examines the ``|E| - i - 1`` surviving ones of the selected interval.
    θ = ∞ and a distinct location per event keep every pair feasible.
    """

    @pytest.mark.parametrize(
        "num_events, num_intervals, k, expected",
        [(12, 5, 5, 295), (20, 4, 9, 711), (9, 3, 9, 171)],
    )
    def test_assignments_examined(self, num_events, num_intervals, k, expected):
        rng = np.random.default_rng(num_events * 100 + num_intervals)
        instance = SESInstance.from_arrays(
            interest=rng.random((30, num_events)),
            activity=rng.random((30, num_intervals)),
        )
        closed_form = sum(
            (num_events - i) * num_intervals + (num_events - i - 1) for i in range(k)
        )
        assert closed_form == expected
        result = AlgScheduler(instance).schedule(k)
        assert result.num_scheduled == k
        assert result.assignments_examined == expected
