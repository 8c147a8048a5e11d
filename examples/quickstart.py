"""Quickstart: define a small SES instance by hand and schedule it.

The scenario mirrors the paper's running example: an organiser has a handful
of candidate events (each tied to a venue and a resource requirement), two
competing events already announced by other venues, and a small audience whose
interests and availability are known.  We ask for the k = 3 assignments that
maximise expected attendance.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CompetingEvent,
    Event,
    ExecutionConfig,
    Organizer,
    SESInstance,
    TimeInterval,
    User,
    get_scheduler,
)
from repro.core.interest import InterestMatrix
from repro.core.scoring import ScoringEngine


def build_instance() -> SESInstance:
    """A festival weekend: four candidate events, two slots, two rival events."""
    events = [
        Event(id="rock-concert", location="main-stage", required_resources=3.0),
        Event(id="fashion-show", location="main-stage", required_resources=2.0),
        Event(id="poetry-night", location="club-room", required_resources=1.0),
        Event(id="dj-set", location="second-stage", required_resources=2.0),
    ]
    intervals = [
        TimeInterval(id="fri-night", label="Friday 20:00-23:00", start=20.0, end=23.0),
        TimeInterval(id="sat-night", label="Saturday 18:00-21:00", start=18.0, end=21.0),
    ]
    competing = [
        CompetingEvent(id="rival-gig", interval_id="fri-night"),
        CompetingEvent(id="city-festival", interval_id="sat-night"),
    ]
    users = [User(id=f"fan-{index}") for index in range(6)]

    rng = np.random.default_rng(42)
    interest = InterestMatrix(rng.uniform(0.1, 1.0, size=(len(users), len(events))))
    competing_interest = InterestMatrix(rng.uniform(0.0, 0.8, size=(len(users), len(competing))))
    activity = rng.uniform(0.4, 1.0, size=(len(users), len(intervals)))

    return SESInstance(
        events=events,
        intervals=intervals,
        competing_events=competing,
        users=users,
        interest=interest,
        competing_interest=competing_interest,
        activity=activity,
        organizer=Organizer(name="weekend-festival", available_resources=5.0),
        name="quickstart",
    )


def main() -> None:
    instance = build_instance()
    print(f"Instance: {instance.name} — {instance.num_events} candidate events, "
          f"{instance.num_intervals} intervals, {instance.num_users} users")

    # Schedulers accept an ExecutionConfig selecting the execution backend:
    # "batch" (the default) evaluates all of an interval's candidate events in
    # one vectorised NumPy pass and "scalar" scores one (event, interval) pair
    # at a time.  Both produce identical schedules, utilities and computation counts — only
    # the speed differs (the CLI exposes the same choice as
    # `ses-repro solve --backend ...`; see `ses-repro backends`).
    scheduler = get_scheduler("HOR-I")(
        instance, execution=ExecutionConfig(backend="batch")
    )
    result = scheduler.schedule(k=3)

    print(f"\nSchedule found by {result.algorithm} "
          f"(utility = {result.utility:.3f} expected attendees):")
    engine = ScoringEngine(instance)
    attendance = engine.per_event_attendance(result.schedule)
    for assignment in result.schedule.assignments():
        event = instance.events[assignment.event_index]
        interval = instance.intervals[assignment.interval_index]
        expected = attendance[assignment.event_index]
        print(f"  {event.id:15s} -> {interval.label:25s} "
              f"(expected attendance {expected:.2f}, venue {event.location})")

    print(f"\nScore computations: {result.score_computations} "
          f"({result.user_computations} user-level operations)")


if __name__ == "__main__":
    main()
