"""Feasibility constraints of the SES problem (paper §2.1).

A schedule ``S`` is feasible when, for every interval ``t``:

1. no two events scheduled at ``t`` share a location (*location constraint*);
2. the required resources of the events scheduled at ``t`` do not exceed the
   organiser's available resources θ (*resources constraint*);
3. when the interval declares a ``capacity``, at most that many events are
   scheduled at ``t`` (*capacity constraint* — a beyond-the-paper extension
   used by the online service; ``capacity=None`` keeps the paper's setting).

An assignment ``α_e^t`` is *feasible* w.r.t. a schedule when adding it keeps
both constraints satisfied for ``t``, and *valid* when it is feasible and the
event is not already scheduled.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.entities import Event
from repro.core.errors import InfeasibleAssignmentError
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule


class ConstraintChecker:
    """Incremental feasibility checker bound to one instance.

    The checker caches per-event locations and resource requirements as plain
    Python lists so that the solvers' inner loops avoid attribute lookups on
    dataclasses, and offers both schedule-based checks (recomputed from the
    schedule) and state-based checks (maintained incrementally via
    :meth:`commit`) — the latter are what the schedulers use.

    Next to the per-pair :meth:`is_feasible` it keeps array twins of the
    same state — integer location codes, a ``(|T|, L)`` used-location mask
    and a resource vector — so that :meth:`feasible_events` answers one
    interval for every event at once with the same float arithmetic.
    """

    def __init__(self, instance: SESInstance) -> None:
        self._instance = instance
        self._locations = instance.event_locations()
        self._resources = [event.required_resources for event in instance.events]
        self._theta = instance.available_resources
        num_intervals = instance.num_intervals
        self._capacities = [interval.capacity for interval in instance.intervals]
        self._used_locations: list[set[str]] = [set() for _ in range(num_intervals)]
        self._used_resources: list[float] = [0.0] * num_intervals
        self._used_counts: list[int] = [0] * num_intervals
        codes: dict[str, int] = {}
        self._location_codes = np.array(
            [codes.setdefault(location, len(codes)) for location in self._locations],
            dtype=np.intp,
        )
        self._resource_array = np.asarray(self._resources, dtype=np.float64)
        self._used_location_mask = np.zeros((num_intervals, max(len(codes), 1)), dtype=bool)

    # ------------------------------------------------------------------ #
    # Incremental state
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget every committed assignment."""
        for used in self._used_locations:
            used.clear()
        self._used_resources = [0.0] * self._instance.num_intervals
        self._used_counts = [0] * self._instance.num_intervals
        self._used_location_mask[:] = False

    def commit(self, event_index: int, interval_index: int) -> None:
        """Record that ``event_index`` has been scheduled at ``interval_index``.

        Raises
        ------
        InfeasibleAssignmentError
            If the assignment violates the location or resources constraint
            given the previously committed assignments.
        """
        if not self.is_feasible(event_index, interval_index):
            raise InfeasibleAssignmentError(
                f"assignment of event {event_index} to interval {interval_index} violates "
                "the location, resources or capacity constraint"
            )
        self._used_locations[interval_index].add(self._locations[event_index])
        self._used_location_mask[interval_index, self._location_codes[event_index]] = True
        self._used_resources[interval_index] += self._resources[event_index]
        self._used_counts[interval_index] += 1

    def release(self, event_index: int, interval_index: int) -> None:
        """Undo a previous :meth:`commit` (used by the exact solver's backtracking)."""
        self._used_locations[interval_index].discard(self._locations[event_index])
        self._used_location_mask[interval_index, self._location_codes[event_index]] = False
        self._used_resources[interval_index] -= self._resources[event_index]
        if self._used_resources[interval_index] < 0:
            self._used_resources[interval_index] = 0.0
        if self._used_counts[interval_index] > 0:
            self._used_counts[interval_index] -= 1

    # ------------------------------------------------------------------ #
    # Checks against the incremental state
    # ------------------------------------------------------------------ #
    def is_feasible(self, event_index: int, interval_index: int) -> bool:
        """``True`` when adding the assignment keeps the interval feasible."""
        if self._locations[event_index] in self._used_locations[interval_index]:
            return False
        capacity = self._capacities[interval_index]
        if capacity is not None and self._used_counts[interval_index] >= capacity:
            return False
        needed = self._used_resources[interval_index] + self._resources[event_index]
        return needed <= self._theta + 1e-12

    def feasible_events(self, interval_index: int) -> np.ndarray:
        """:meth:`is_feasible` of every event at one interval, as a bool vector.

        Entry ``e`` equals ``is_feasible(e, interval_index)``: the resource
        test adds each event's requirement to the same commit-order
        accumulator with the same ``<= θ + 1e-12`` comparison.  Scheduled
        events are not masked out — validity is the caller's concern.
        """
        capacity = self._capacities[interval_index]
        if capacity is not None and self._used_counts[interval_index] >= capacity:
            return np.zeros(len(self._locations), dtype=bool)
        needed = self._used_resources[interval_index] + self._resource_array
        free = ~self._used_location_mask[interval_index, self._location_codes]
        return free & (needed <= self._theta + 1e-12)

    def remaining_resources(self, interval_index: int) -> float:
        """Resources still available in an interval."""
        return self._theta - self._used_resources[interval_index]

    def used_locations(self, interval_index: int) -> set[str]:
        """Locations already occupied in an interval (a copy)."""
        return set(self._used_locations[interval_index])


# ---------------------------------------------------------------------- #
# Schedule-level (stateless) checks
# ---------------------------------------------------------------------- #
def interval_violations(
    events: Sequence[Event], capacity: Optional[int], theta: float
) -> List[str]:
    """Every constraint broken by ``events`` sharing one interval (empty: feasible).

    One event per location, summed resources within θ (with the ``1e-12``
    slack of :class:`ConstraintChecker`), at most ``capacity`` events
    (``None``: uncapped).  Also the online service's lock and capacity check.
    """
    problems = []
    first_at: Dict[str, str] = {}
    for event in events:
        first = first_at.setdefault(event.location, event.id)
        if first != event.id:
            problems.append(
                f"events {first!r} and {event.id!r} share location {event.location!r}"
            )
    required = sum(event.required_resources for event in events)
    if required > theta + 1e-12:
        problems.append(f"required resources {required:g} exceed available θ = {theta:g}")
    if capacity is not None and len(events) > capacity:
        problems.append(f"interval is full: {len(events)} events exceed capacity {capacity}")
    return problems


def is_assignment_feasible(
    instance: SESInstance,
    schedule: Schedule,
    event_index: int,
    interval_index: int,
) -> bool:
    """Check feasibility of adding ``α_e^t`` to ``schedule`` (stateless)."""
    events = [instance.events[e] for e in (*schedule.events_at(interval_index), event_index)]
    capacity = instance.intervals[interval_index].capacity
    return not interval_violations(events, capacity, instance.available_resources)


def is_assignment_valid(
    instance: SESInstance,
    schedule: Schedule,
    event_index: int,
    interval_index: int,
) -> bool:
    """Feasible *and* the event is not already scheduled (paper's "valid")."""
    if schedule.is_scheduled(event_index):
        return False
    return is_assignment_feasible(instance, schedule, event_index, interval_index)


def is_schedule_feasible(instance: SESInstance, schedule: Schedule) -> bool:
    """Check the location and resources constraints for a whole schedule."""
    return not list(violations(instance, schedule))


def violations(instance: SESInstance, schedule: Schedule) -> Iterable[str]:
    """Yield human-readable descriptions of every constraint violation."""
    for interval_index in sorted(schedule.used_intervals()):
        events = [instance.events[e] for e in sorted(schedule.events_at(interval_index))]
        capacity = instance.intervals[interval_index].capacity
        for problem in interval_violations(events, capacity, instance.available_resources):
            yield f"interval {interval_index}: {problem}"


def assert_schedule_feasible(instance: SESInstance, schedule: Schedule) -> None:
    """Raise :class:`InfeasibleAssignmentError` listing every violation, if any."""
    problems = list(violations(instance, schedule))
    if problems:
        raise InfeasibleAssignmentError("; ".join(problems))
