"""repro — reproduction of "Social Event Scheduling" (Bikakis, Kalogeraki, Gunopulos; EDBT 2019).

The package implements the Social Event Scheduling (SES) problem: given
candidate events, candidate time intervals, already-scheduled competing
events and a set of users, select and place ``k`` events into intervals so
that the expected total attendance is maximised, subject to location and
resource constraints.

Top-level re-exports cover the public API most users need:

* :class:`~repro.core.instance.SESInstance` — the problem instance container.
* :class:`~repro.core.schedule.Schedule` — an event-to-interval assignment set.
* :class:`~repro.core.scoring.ScoringEngine` — the Luce-choice attendance model.
* :class:`~repro.core.execution.ExecutionConfig` — the execution layer: one
  config object selecting a scoring plan (``direct``, ``blocked``) and the
  chunk size of the bulk path; :func:`~repro.core.execution.available_plans`
  lists the plan names.
* :func:`~repro.algorithms.registry.get_scheduler` and the scheduler classes
  (:class:`~repro.algorithms.alg.AlgScheduler`, :class:`~repro.algorithms.inc.IncScheduler`,
  :class:`~repro.algorithms.hor.HorScheduler`, :class:`~repro.algorithms.hor_i.HorIScheduler`,
  :class:`~repro.algorithms.top.TopScheduler`, :class:`~repro.algorithms.rand.RandScheduler`).
* Dataset builders in :mod:`repro.datasets`.
* The experiment harness in :mod:`repro.experiments`.

``docs/ARCHITECTURE.md`` has the layer diagram and the plan / storage
decision tables; ``docs/PAPER_MAPPING.md`` maps each paper concept to its module,
entry point and locking test suite.
"""

from __future__ import annotations

from repro._version import __version__
from repro.core.counters import ComputationCounter
from repro.core.entities import CompetingEvent, Event, Organizer, TimeInterval, User
from repro.core.errors import (
    InfeasibleAssignmentError,
    InstanceValidationError,
    ReproError,
    ScheduleError,
)
from repro.core.execution import ExecutionConfig, available_plans
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule
from repro.core.scoring import ScoringEngine
from repro.algorithms.base import SchedulerResult
from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.algorithms.alg import AlgScheduler
from repro.algorithms.inc import IncScheduler
from repro.algorithms.hor import HorScheduler
from repro.algorithms.hor_i import HorIScheduler
from repro.algorithms.top import TopScheduler
from repro.algorithms.rand import RandScheduler
from repro.algorithms.exact import ExactScheduler

__all__ = [
    "__version__",
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
    "Assignment",
    "Schedule",
    "ScoringEngine",
    "ExecutionConfig",
    "available_plans",
    "SchedulerResult",
    "available_schedulers",
    "get_scheduler",
    "AlgScheduler",
    "IncScheduler",
    "HorScheduler",
    "HorIScheduler",
    "TopScheduler",
    "RandScheduler",
    "ExactScheduler",
]
