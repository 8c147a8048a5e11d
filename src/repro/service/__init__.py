"""Online scheduling service: mutable sessions with incremental re-solves.

The package turns the one-shot solvers into a long-running service
(``repro serve``):

* :class:`~repro.service.session.SchedulingSession` — a live instance plus
  warm scheduler state, accepting atomic mutation batches and re-solving
  incrementally, bit-identical to a cold solve of the mutated instance;
* the mutation vocabulary (:class:`~repro.service.session.AddEvent`,
  :class:`~repro.service.session.RemoveEvent`,
  :class:`~repro.service.session.UpdateInterest`,
  :class:`~repro.service.session.LockAssignment`,
  :class:`~repro.service.session.UnlockAssignment`,
  :class:`~repro.service.session.SetIntervalCapacity`);
* :class:`~repro.service.server.ServiceServer` /
  :class:`~repro.service.client.ServiceClient` — the wire endpoints, over
  the operations, handshake key and :class:`~repro.service.wire.WireServer`
  of :mod:`repro.service.wire`; and
* :class:`~repro.service.stats.SessionStats` — the saved-work ledger behind
  ``session-status`` and ``SchedulerResult.summary()["service"]``.
"""

from repro.service.client import ServiceClient
from repro.service.server import (
    ServiceHandle,
    ServiceServer,
    start_local_service,
)
from repro.service.session import (
    AddEvent,
    LockAssignment,
    Mutation,
    MutationError,
    RemoveEvent,
    SchedulingSession,
    SetIntervalCapacity,
    UnlockAssignment,
    UpdateInterest,
    mutation_from_dict,
    mutation_to_dict,
)
from repro.service.stats import SessionStats

__all__ = [
    "AddEvent",
    "LockAssignment",
    "Mutation",
    "MutationError",
    "RemoveEvent",
    "SchedulingSession",
    "ServiceClient",
    "ServiceHandle",
    "ServiceServer",
    "SessionStats",
    "SetIntervalCapacity",
    "UnlockAssignment",
    "UpdateInterest",
    "mutation_from_dict",
    "mutation_to_dict",
    "start_local_service",
]
