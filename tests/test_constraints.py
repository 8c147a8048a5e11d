"""Unit tests for feasibility constraints (repro.core.constraints)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    ConstraintChecker,
    assert_schedule_feasible,
    is_assignment_feasible,
    is_assignment_valid,
    is_schedule_feasible,
    violations,
)
from repro.core.errors import InfeasibleAssignmentError
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from tests.conftest import with_capacities


@pytest.fixture
def constrained_instance() -> SESInstance:
    """Four events: e0/e1 share a location; resources are tight (θ = 5)."""
    return SESInstance.from_arrays(
        interest=np.full((3, 4), 0.5),
        activity=np.full((3, 2), 0.5),
        locations=["hall", "hall", "stage", "garden"],
        required_resources=[2.0, 2.0, 3.0, 4.0],
        available_resources=5.0,
    )


class TestStatelessChecks:
    def test_location_conflict_detected(self, constrained_instance):
        schedule = Schedule.from_pairs({0: 0})
        assert not is_assignment_feasible(constrained_instance, schedule, 1, 0)
        assert is_assignment_feasible(constrained_instance, schedule, 1, 1)
        assert is_assignment_feasible(constrained_instance, schedule, 2, 0)

    def test_resource_overflow_detected(self, constrained_instance):
        schedule = Schedule.from_pairs({0: 0, 2: 0})  # 2 + 3 = 5 = θ
        assert not is_assignment_feasible(constrained_instance, schedule, 3, 0)
        assert is_assignment_feasible(constrained_instance, schedule, 3, 1)

    def test_validity_requires_unscheduled_event(self, constrained_instance):
        schedule = Schedule.from_pairs({0: 0})
        assert not is_assignment_valid(constrained_instance, schedule, 0, 1)
        assert is_assignment_valid(constrained_instance, schedule, 2, 1)

    def test_schedule_feasibility(self, constrained_instance):
        good = Schedule.from_pairs({0: 0, 2: 0, 1: 1})
        assert is_schedule_feasible(constrained_instance, good)
        bad_location = Schedule.from_pairs({0: 0, 1: 0})
        assert not is_schedule_feasible(constrained_instance, bad_location)
        bad_resources = Schedule.from_pairs({2: 0, 3: 0})
        assert not is_schedule_feasible(constrained_instance, bad_resources)

    def test_violations_messages(self, constrained_instance):
        bad = Schedule.from_pairs({0: 0, 1: 0, 3: 0})
        messages = list(violations(constrained_instance, bad))
        assert any("share location" in message for message in messages)
        assert any("exceed" in message for message in messages)

    def test_assert_schedule_feasible(self, constrained_instance):
        assert_schedule_feasible(constrained_instance, Schedule.from_pairs({0: 0}))
        with pytest.raises(InfeasibleAssignmentError):
            assert_schedule_feasible(constrained_instance, Schedule.from_pairs({0: 0, 1: 0}))


class TestConstraintChecker:
    def test_commit_and_feasibility(self, constrained_instance):
        checker = ConstraintChecker(constrained_instance)
        assert checker.is_feasible(0, 0)
        checker.commit(0, 0)
        assert not checker.is_feasible(1, 0)       # location conflict
        assert checker.is_feasible(2, 0)            # 2 + 3 = 5 fits exactly
        checker.commit(2, 0)
        assert not checker.is_feasible(3, 0)        # resources exhausted
        assert checker.remaining_resources(0) == pytest.approx(0.0)
        assert checker.used_locations(0) == {"hall", "stage"}

    def test_commit_infeasible_raises(self, constrained_instance):
        checker = ConstraintChecker(constrained_instance)
        checker.commit(0, 0)
        with pytest.raises(InfeasibleAssignmentError):
            checker.commit(1, 0)

    def test_release_restores_capacity(self, constrained_instance):
        checker = ConstraintChecker(constrained_instance)
        checker.commit(0, 0)
        checker.release(0, 0)
        assert checker.is_feasible(1, 0)
        assert checker.remaining_resources(0) == pytest.approx(5.0)

    def test_reset(self, constrained_instance):
        checker = ConstraintChecker(constrained_instance)
        checker.commit(3, 1)
        checker.reset()
        assert checker.is_feasible(3, 1)
        assert checker.used_locations(1) == set()

    def test_intervals_are_independent(self, constrained_instance):
        checker = ConstraintChecker(constrained_instance)
        checker.commit(0, 0)
        assert checker.is_feasible(1, 1)
        assert checker.remaining_resources(1) == pytest.approx(5.0)

    def test_agreement_with_stateless_checks(self, small_instance):
        checker = ConstraintChecker(small_instance)
        schedule = Schedule()
        for event_index in range(small_instance.num_events):
            for interval_index in range(small_instance.num_intervals):
                assert checker.is_feasible(event_index, interval_index) == is_assignment_feasible(
                    small_instance, schedule, event_index, interval_index
                )
        checker.commit(0, 0)
        schedule.add(0, 0)
        for event_index in range(1, small_instance.num_events):
            assert checker.is_feasible(event_index, 0) == is_assignment_feasible(
                small_instance, schedule, event_index, 0
            )


# ---------------------------------------------------------------------- #
# Bulk feasibility (ConstraintChecker.feasible_events)
# ---------------------------------------------------------------------- #
def assert_bulk_matches_scalar(checker: ConstraintChecker, instance: SESInstance) -> None:
    for interval_index in range(instance.num_intervals):
        bulk = checker.feasible_events(interval_index)
        scalar = [
            checker.is_feasible(event_index, interval_index)
            for event_index in range(instance.num_events)
        ]
        assert bulk.dtype == bool and bulk.shape == (instance.num_events,)
        assert bulk.tolist() == scalar, f"interval {interval_index}"


@st.composite
def checker_instances(draw) -> SESInstance:
    """Small instances with shared locations, θ-boundary resources and capacities.

    The resource pool of a finite θ holds ``θ + 1e-12`` itself (fits exactly
    on the tolerance boundary) and the next float above it (does not), plus
    parts that sum to θ.  A capacity of 0 cannot be declared on an interval
    (it must be ``None`` or ≥ 1); a capacity-1 interval reaches zero residual
    capacity after one commit, which the drawn sequences exercise.
    """
    num_events = draw(st.integers(min_value=1, max_value=8))
    num_intervals = draw(st.integers(min_value=1, max_value=4))
    num_locations = draw(st.integers(min_value=1, max_value=3))
    theta = draw(st.sampled_from([1.0, 0.6, float("inf")]))
    if np.isinf(theta):
        pool = [0.0, 0.5, 3.0, 1e6]
    else:
        boundary = theta + 1e-12
        pool = [0.0, 0.1, 0.2, 0.3, 0.5, theta / 2, boundary, float(np.nextafter(boundary, np.inf))]
    resources = draw(st.lists(st.sampled_from(pool), min_size=num_events, max_size=num_events))
    locations = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_locations - 1),
            min_size=num_events,
            max_size=num_events,
        )
    )
    capacities = draw(
        st.lists(st.sampled_from([None, 1, 2]), min_size=num_intervals, max_size=num_intervals)
    )
    instance = SESInstance.from_arrays(
        interest=np.full((2, num_events), 0.5),
        activity=np.full((2, num_intervals), 0.5),
        locations=[f"loc{location}" for location in locations],
        required_resources=resources,
        available_resources=theta,
    )
    return with_capacities(instance, capacities)


class TestFeasibleEvents:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(instance=checker_instances(), data=st.data())
    def test_matches_is_feasible_after_every_step(self, instance, data):
        """Random commit / release / reset sequences keep the twins in agreement."""
        checker = ConstraintChecker(instance)
        committed: list = []
        assert_bulk_matches_scalar(checker, instance)
        for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
            operation = data.draw(st.sampled_from(["commit", "commit", "release", "reset"]))
            if operation == "commit":
                event_index = data.draw(st.integers(0, instance.num_events - 1))
                interval_index = data.draw(st.integers(0, instance.num_intervals - 1))
                if checker.is_feasible(event_index, interval_index):
                    checker.commit(event_index, interval_index)
                    committed.append((event_index, interval_index))
                else:
                    with pytest.raises(InfeasibleAssignmentError):
                        checker.commit(event_index, interval_index)
            elif operation == "release" and committed:
                pair = committed.pop(data.draw(st.integers(0, len(committed) - 1)))
                checker.release(*pair)
            elif operation == "reset":
                checker.reset()
                committed.clear()
            assert_bulk_matches_scalar(checker, instance)

    def test_resource_tolerance_boundary(self):
        boundary = 1.0 + 1e-12
        instance = SESInstance.from_arrays(
            interest=np.full((1, 4), 0.5),
            activity=np.full((1, 1), 0.5),
            required_resources=[boundary, float(np.nextafter(boundary, np.inf)), 0.5, 0.5],
            available_resources=1.0,
        )
        checker = ConstraintChecker(instance)
        assert checker.feasible_events(0).tolist() == [True, False, True, True]
        checker.commit(2, 0)
        checker.commit(3, 0)  # 0.5 + 0.5 lands exactly on θ
        assert checker.feasible_events(0).tolist() == [False, False, False, False]

    def test_unbounded_theta_checks_locations_only(self, constrained_instance):
        unbounded = dataclasses.replace(
            constrained_instance,
            organizer=dataclasses.replace(
                constrained_instance.organizer, available_resources=float("inf")
            ),
        )
        checker = ConstraintChecker(unbounded)
        checker.commit(2, 0)
        checker.commit(3, 0)
        assert checker.feasible_events(0).tolist() == [True, True, False, False]

    def test_full_interval_is_all_false_until_release(self, constrained_instance):
        capped = with_capacities(constrained_instance, [1, None])
        checker = ConstraintChecker(capped)
        checker.commit(2, 0)
        assert not checker.feasible_events(0).any()
        assert checker.feasible_events(1).all()
        checker.release(2, 0)
        assert checker.feasible_events(0).all()
