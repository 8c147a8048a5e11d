"""Core model of the Social Event Scheduling problem.

The subpackage contains the problem entities (:mod:`repro.core.entities`),
the instance container (:mod:`repro.core.instance`), schedules and feasibility
constraints (:mod:`repro.core.schedule`, :mod:`repro.core.constraints`), the
attendance model and scoring engine (:mod:`repro.core.scoring`), the
execution layer deciding how bulk scoring runs
(:mod:`repro.core.execution`) and the instrumentation counters used by the
paper's evaluation (:mod:`repro.core.counters`).
"""

from repro.core.counters import ComputationCounter
from repro.core.entities import CompetingEvent, Event, Organizer, TimeInterval, User
from repro.core.execution import ExecutionConfig
from repro.core.errors import (
    InfeasibleAssignmentError,
    InstanceValidationError,
    ReproError,
    ScheduleError,
)
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.schedule import Assignment, Schedule
from repro.core.scoring import ScoringEngine

__all__ = [
    "ComputationCounter",
    "CompetingEvent",
    "Event",
    "Organizer",
    "TimeInterval",
    "User",
    "ReproError",
    "InstanceValidationError",
    "InfeasibleAssignmentError",
    "ScheduleError",
    "SESInstance",
    "InterestMatrix",
    "Assignment",
    "Schedule",
    "ScoringEngine",
    "ExecutionConfig",
]
