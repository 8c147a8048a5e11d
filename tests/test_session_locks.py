"""Lock and capacity mutations agree with the library's §2.1 feasibility model.

A session accepts a lock, unlock or capacity batch exactly when the lock
table it would leave, read as a :class:`~repro.core.schedule.Schedule` on the
session's instance, has no :func:`~repro.core.constraints.violations`.  A
rejected batch raises :class:`~repro.service.MutationError` and leaves the
session as it was; an accepted one re-solves like a cold locked run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import run_scheduler
from repro.core.constraints import violations
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from repro.service import (
    LockAssignment,
    MutationError,
    SchedulingSession,
    SetIntervalCapacity,
    UnlockAssignment,
)
from tests.conftest import with_capacities

CAPACITIES = [None, 1, 2, 3]


@st.composite
def lock_sessions(draw):
    """``(instance, mutations)``: a small, tightly constrained instance and single-mutation batches."""
    num_events = draw(st.integers(min_value=6, max_value=10))
    num_intervals = draw(st.integers(min_value=2, max_value=3))
    num_locations = draw(st.integers(min_value=2, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    instance = SESInstance.from_arrays(
        interest=rng.random((6, num_events)),
        activity=rng.random((6, num_intervals)),
        locations=[f"loc{rng.integers(0, num_locations)}" for _ in range(num_events)],
        required_resources=list(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], num_events)),
        available_resources=draw(st.sampled_from([3.0, 4.0, 5.0])),
    )
    instance = with_capacities(
        instance, [draw(st.sampled_from(CAPACITIES)) for _ in range(num_intervals)]
    )
    event_ids = [event.id for event in instance.events]
    interval_ids = [interval.id for interval in instance.intervals]
    # Unlocks name an event an earlier mutation tried to lock, and capacities
    # the interval last locked into, so most of them can bind.
    targeted = []
    interval = interval_ids[0]
    mutations = []
    for kind in rng.choice(["lock", "lock", "unlock", "capacity"], draw(st.integers(6, 16))):
        if kind == "capacity":
            capacity = CAPACITIES[rng.integers(len(CAPACITIES))]
            mutations.append(SetIntervalCapacity(interval, capacity))
        elif kind == "unlock" and targeted:
            mutations.append(UnlockAssignment(targeted[rng.integers(len(targeted))]))
        else:
            targeted.append(event_ids[rng.integers(num_events)])
            interval = interval_ids[rng.integers(num_intervals)]
            mutations.append(LockAssignment(targeted[-1], interval))
    return instance, mutations


def expected_outcome(session: SchedulingSession, mutation):
    """``(instance, locks)`` the mutation would leave, or ``None`` for an unlock of a free event."""
    instance = session.instance()
    locks = session.locks()
    intervals = list(instance.intervals)
    if isinstance(mutation, LockAssignment):
        locks[mutation.event_id] = mutation.interval_id
    elif isinstance(mutation, UnlockAssignment):
        if locks.pop(mutation.event_id, None) is None:
            return None
    else:
        index = instance.interval_index(mutation.interval_id)
        intervals[index] = dataclasses.replace(intervals[index], capacity=mutation.capacity)
    return dataclasses.replace(instance, intervals=intervals, metadata={}), locks


def lock_schedule(instance: SESInstance, locks) -> Schedule:
    """The lock table as a schedule of ``instance``."""
    return Schedule.from_pairs(
        {instance.event_index(event): instance.interval_index(interval) for event, interval in locks.items()}
    )


class TestLockAcceptance:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=lock_sessions())
    def test_accepts_exactly_the_feasible_lock_tables(self, case):
        instance, mutations = case
        session = SchedulingSession(instance)
        for mutation in mutations:
            outcome = expected_outcome(session, mutation)
            feasible = outcome is not None and not list(
                violations(outcome[0], lock_schedule(*outcome))
            )
            if not feasible:
                before = session.status()
                with pytest.raises(MutationError):
                    session.apply([mutation])
                assert session.status() == before
                continue
            session.apply([mutation])
            rebuilt = session.instance()
            assert session.locks() == outcome[1]
            locked = sorted(lock_schedule(rebuilt, session.locks()).as_dict().items())
            k = min(rebuilt.num_events, len(locked) + 2)
            warm = session.resolve(k)
            cold = run_scheduler(session.algorithm, rebuilt, k, locked=locked)
            assert warm.schedule == cold.schedule
            assert warm.utility.hex() == cold.utility.hex()

    def test_locks_in_different_intervals_share_no_resources(self):
        """θ bounds each interval separately (paper §2.1), not the sum over all locks."""
        rng = np.random.default_rng(0)
        instance = SESInstance.from_arrays(
            interest=rng.random((5, 3)),
            activity=rng.random((5, 2)),
            locations=["a", "b", "c"],
            required_resources=[3, 3, 3],
            available_resources=5.0,
        )
        session = SchedulingSession(instance, algorithm="ALG")
        session.apply([LockAssignment("e0", "t0")])
        session.apply([LockAssignment("e1", "t1")])
        expected = run_scheduler("ALG", instance, 2, locked=[(0, 0), (1, 1)])
        result = session.resolve(2)
        assert result.schedule == expected.schedule
        assert result.schedule.as_dict() == {0: 0, 1: 1}
        with pytest.raises(MutationError, match="exceed available θ"):
            session.apply([LockAssignment("e2", "t0")])
