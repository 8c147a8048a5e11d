"""The Social Event Scheduling problem instance container.

:class:`SESInstance` bundles every input of the SES problem (paper §2.1):

* the candidate events ``E`` with locations and resource requirements,
* the candidate time intervals ``T``,
* the competing events ``C`` (each anchored to one interval),
* the users ``U``,
* the interest matrices µ (users × candidate events and users × competing
  events),
* the social-activity probabilities σ (users × intervals), and
* the organiser's available resources θ.

The container validates all of this on construction, exposes index lookups,
pre-computes the per-interval competing-interest sums that the scoring engine
needs, and (de)serialises to a JSON-friendly dict so instances can be saved
and reloaded by the dataset loaders and the CLI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.entities import (
    CompetingEvent,
    Event,
    Organizer,
    TimeInterval,
    User,
    decode_capacity,
    decode_event,
    decode_id,
    decode_optional_real,
    decode_real,
    decode_tags,
    encode_event,
)
from repro.core.errors import InstanceValidationError
from repro.core.interest import InterestMatrix
from repro.core.storage import require_unit_interval

if TYPE_CHECKING:
    from repro.core.patterns import InterestStructure


@dataclass
class SESInstance:
    """A complete, validated instance of the Social Event Scheduling problem.

    Parameters
    ----------
    events:
        The candidate events ``E``.
    intervals:
        The candidate time intervals ``T``.
    competing_events:
        The competing events ``C``; each must reference an interval id present
        in ``intervals``.
    users:
        The users ``U``.
    interest:
        ``|U| × |E|`` matrix of interest values µ(u, e) in ``[0, 1]``.
    competing_interest:
        ``|U| × |C|`` matrix of interest values µ(u, c) in ``[0, 1]``.
    activity:
        ``|U| × |T|`` matrix of social-activity probabilities σ_u^t in
        ``[0, 1]``.
    organizer:
        The organiser; its ``available_resources`` is the θ of the resources
        constraint.
    name:
        Human-readable dataset name (used in experiment reports).
    metadata:
        Free-form provenance information stored by dataset generators.

    Notes
    -----
    The instance's interest structure (the user equivalence classes of
    :mod:`repro.core.patterns`) is mined at most once per instance, by the
    first scoring engine that needs it (any engine under the ``blocked``
    plan, INC's structural Φ bound under ``direct``), and kept beside the
    data (:func:`repro.core.scoring.instance_structure`).  From then on the
    arrays it was mined from are read-only: the interest store's arrays
    (the dense µ array, or the CSR arrays), :attr:`activity`,
    :attr:`user_weights` and :attr:`competing_sums`, together with the
    structure's own ``labels`` / ``representatives`` / ``counts``.  An
    in-place write after that raises :class:`ValueError` instead of mixing
    fresh values with stale classes; edit the arrays before solving, or
    build a new instance (``dataclasses.replace``, :meth:`with_storage` and
    every constructor start with no structure).
    """

    events: List[Event]
    intervals: List[TimeInterval]
    competing_events: List[CompetingEvent]
    users: List[User]
    interest: InterestMatrix
    competing_interest: InterestMatrix
    activity: np.ndarray
    organizer: Organizer = field(default_factory=Organizer)
    name: str = "instance"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.activity = np.array(self.activity, dtype=np.float64, copy=True)
        #: Path of the NPZ the instance was memory-mapped from (set by the
        #: loaders for ``mmap``-storage instances), ``None`` otherwise.  Lets
        #: the execution layers map / ship the backing file instead of copying
        #: matrices.
        self.backing_file: Optional[str] = None
        self._validate()
        self._event_index = {event.id: idx for idx, event in enumerate(self.events)}
        self._interval_index = {interval.id: idx for idx, interval in enumerate(self.intervals)}
        self._competing_index = {comp.id: idx for idx, comp in enumerate(self.competing_events)}
        self._user_index = {user.id: idx for idx, user in enumerate(self.users)}
        self._competing_by_interval = self._group_competing_by_interval()
        self._competing_sums = self._compute_competing_sums()
        #: The mined interest structure, filled on first use by
        #: repro.core.scoring.instance_structure.
        self._interest_structure: Optional["InterestStructure"] = None
        self._user_weights = np.array([user.weight for user in self.users], dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if not self.events:
            raise InstanceValidationError("an SES instance needs at least one candidate event")
        if not self.intervals:
            raise InstanceValidationError("an SES instance needs at least one time interval")
        if not self.users:
            raise InstanceValidationError("an SES instance needs at least one user")

        self._require_unique_ids("event", [event.id for event in self.events])
        self._require_unique_ids("interval", [interval.id for interval in self.intervals])
        self._require_unique_ids("competing event", [comp.id for comp in self.competing_events])
        self._require_unique_ids("user", [user.id for user in self.users])

        num_users = len(self.users)
        num_events = len(self.events)
        num_competing = len(self.competing_events)
        num_intervals = len(self.intervals)

        if self.interest.shape != (num_users, num_events):
            raise InstanceValidationError(
                f"interest matrix shape {self.interest.shape} does not match "
                f"({num_users} users, {num_events} events)"
            )
        if self.competing_interest.shape != (num_users, num_competing):
            raise InstanceValidationError(
                f"competing-interest matrix shape {self.competing_interest.shape} does not "
                f"match ({num_users} users, {num_competing} competing events)"
            )
        if self.activity.ndim != 2 or self.activity.shape != (num_users, num_intervals):
            raise InstanceValidationError(
                f"activity matrix shape {self.activity.shape} does not match "
                f"({num_users} users, {num_intervals} intervals)"
            )
        require_unit_interval(self.activity, "activity probabilities")

        interval_ids = {interval.id for interval in self.intervals}
        for comp in self.competing_events:
            if comp.interval_id not in interval_ids:
                raise InstanceValidationError(
                    f"competing event {comp.id!r} references unknown interval "
                    f"{comp.interval_id!r}"
                )

        theta = self.organizer.available_resources
        for event in self.events:
            if event.required_resources > theta:
                # Allowed (the event simply can never be scheduled), but worth
                # flagging as metadata for the dataset generators/tests.
                self.metadata.setdefault("unschedulable_events", []).append(event.id)  # type: ignore[union-attr]

    @staticmethod
    def _require_unique_ids(kind: str, ids: Sequence[str]) -> None:
        seen = set()
        for identifier in ids:
            if identifier in seen:
                raise InstanceValidationError(f"duplicate {kind} id: {identifier!r}")
            seen.add(identifier)

    # ------------------------------------------------------------------ #
    # Derived data
    # ------------------------------------------------------------------ #
    def _group_competing_by_interval(self) -> List[List[int]]:
        groups: List[List[int]] = [[] for _ in self.intervals]
        for comp_idx, comp in enumerate(self.competing_events):
            groups[self._interval_index[comp.interval_id]].append(comp_idx)
        return groups

    def _compute_competing_sums(self) -> np.ndarray:
        """Per-user, per-interval sums ``Σ_{c ∈ C_t} µ(u, c)`` (shape |U| × |T|).

        Goes through the interest store's column gather, so sparse and mmap
        stores densify only the ``|U| × |C_t|`` slice of one interval at a
        time.  The gathered block holds exactly the dense matrix's values,
        and the ``axis=1`` sum is the same pairwise reduction — the result is
        bit-identical across storages.
        """
        sums = np.zeros((len(self.users), len(self.intervals)), dtype=np.float64)
        comp_store = self.competing_interest.store
        for interval_idx, comp_indices in enumerate(self._competing_by_interval):
            if comp_indices:
                sums[:, interval_idx] = comp_store.columns(comp_indices).sum(axis=1)
        return sums

    # ------------------------------------------------------------------ #
    # Sizes and lookups
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        """``|E|``."""
        return len(self.events)

    @property
    def num_intervals(self) -> int:
        """``|T|``."""
        return len(self.intervals)

    @property
    def num_competing_events(self) -> int:
        """``|C|``."""
        return len(self.competing_events)

    @property
    def num_users(self) -> int:
        """``|U|``."""
        return len(self.users)

    @property
    def available_resources(self) -> float:
        """The organiser's θ."""
        return self.organizer.available_resources

    @property
    def competing_sums(self) -> np.ndarray:
        """Per-user, per-interval competing-interest sums.

        Read-only once the interest structure is mined (see the class notes).
        """
        return self._competing_sums

    @property
    def storage(self) -> str:
        """Registry name of the interest matrices' storage (``"dense"``, …)."""
        return self.interest.storage

    def with_storage(
        self, storage: str, *, directory: Optional[str] = None
    ) -> "SESInstance":
        """This instance with both interest matrices under the named storage.

        Values are unchanged, so schedules, utilities, scores and counters
        stay bit-identical.  Converting to the ``"mmap"`` storage writes the
        whole instance as an uncompressed NPZ under ``directory`` and
        memory-maps it back (setting :attr:`backing_file`); converting to the
        ``"dense"`` storage is capacity-guarded.
        """
        if storage == "mmap":
            if directory is None:
                raise InstanceValidationError(
                    "converting to the 'mmap' storage needs a directory to "
                    "spill the instance NPZ to"
                )
            from repro.core.instance_io import spill_instance

            return spill_instance(self, directory)
        return dataclasses.replace(
            self,
            interest=self.interest.with_storage(storage),
            competing_interest=self.competing_interest.with_storage(storage),
            metadata=dict(self.metadata),
        )

    @property
    def user_weights(self) -> np.ndarray:
        """Per-user weights (all ones in the paper's formulation).

        Read-only once the interest structure is mined (see the class notes).
        """
        return self._user_weights

    def event_index(self, event_id: str) -> int:
        """Index of the candidate event with the given id."""
        try:
            return self._event_index[event_id]
        except KeyError:
            raise InstanceValidationError(f"unknown event id: {event_id!r}") from None

    def interval_index(self, interval_id: str) -> int:
        """Index of the interval with the given id."""
        try:
            return self._interval_index[interval_id]
        except KeyError:
            raise InstanceValidationError(f"unknown interval id: {interval_id!r}") from None

    def competing_index(self, competing_id: str) -> int:
        """Index of the competing event with the given id."""
        try:
            return self._competing_index[competing_id]
        except KeyError:
            raise InstanceValidationError(f"unknown competing event id: {competing_id!r}") from None

    def user_index(self, user_id: str) -> int:
        """Index of the user with the given id."""
        try:
            return self._user_index[user_id]
        except KeyError:
            raise InstanceValidationError(f"unknown user id: {user_id!r}") from None

    def competing_events_at(self, interval_index: int) -> List[int]:
        """Indices of the competing events anchored to an interval (``C_t``)."""
        return list(self._competing_by_interval[interval_index])

    def event_required_resources(self) -> np.ndarray:
        """Vector of ξ_e for every candidate event."""
        return np.array([event.required_resources for event in self.events], dtype=np.float64)

    def event_values(self) -> np.ndarray:
        """Vector of value multipliers for every candidate event (ones by default)."""
        return np.array([event.value for event in self.events], dtype=np.float64)

    def event_costs(self) -> np.ndarray:
        """Vector of organisation costs for every candidate event (zeros by default)."""
        return np.array([event.cost for event in self.events], dtype=np.float64)

    def event_locations(self) -> List[str]:
        """Location id of every candidate event, by index."""
        return [event.location for event in self.events]

    def num_locations(self) -> int:
        """Number of distinct event locations."""
        return len({event.location for event in self.events})

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self, *, include_matrices: bool = True) -> Dict[str, object]:
        """Serialise the instance to a JSON-friendly dictionary.

        ``include_matrices=False`` omits the ``interest`` /
        ``competing_interest`` / ``activity`` entries entirely — the NPZ
        writer stores those as binary array members and must not round-trip
        them through Python lists.
        """
        payload: Dict[str, object] = {
            "name": self.name,
            "metadata": dict(self.metadata),
            "organizer": {
                "name": self.organizer.name,
                "available_resources": self.organizer.available_resources,
            },
            "events": [encode_event(event) for event in self.events],
            "intervals": [
                {
                    "id": interval.id,
                    "label": interval.label,
                    "start": interval.start,
                    "end": interval.end,
                    "capacity": interval.capacity,
                }
                for interval in self.intervals
            ],
            "competing_events": [
                {"id": comp.id, "interval_id": comp.interval_id, "tags": list(comp.tags)}
                for comp in self.competing_events
            ],
            "users": [{"id": user.id, "weight": user.weight} for user in self.users],
        }
        if include_matrices:
            payload["interest"] = self.interest.to_dict()
            payload["competing_interest"] = self.competing_interest.to_dict()
            payload["activity"] = self.activity.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SESInstance":
        """Inverse of :meth:`to_dict`.

        Array-aware: the ``interest`` / ``competing_interest`` ``values`` and
        the ``activity`` entry may be NumPy ``float64`` arrays instead of
        nested lists.  Arrays are passed straight through ``np.asarray`` (the
        interest matrices are adopted without copying; activity keeps its one
        defensive copy), so no Python lists are ever materialised — the fast
        path the NPZ loader relies on for benchmark-scale instances.  The two
        matrix entries may also be ready-made :class:`InterestMatrix` objects
        (e.g. wrapping memory-mapped stores), which are adopted as-is.
        """
        organizer_payload = payload.get("organizer", {}) or {}
        organizer = Organizer(
            name=str(organizer_payload.get("name", "organizer")),
            available_resources=decode_real(
                organizer_payload.get("available_resources", float("inf")),
                "available_resources",
            ),
        )
        events = [decode_event(item) for item in payload["events"]]  # type: ignore[index]
        intervals = [
            TimeInterval(
                id=decode_id(item["id"], "interval id"),
                label=str(item.get("label", "")),
                start=decode_optional_real(item.get("start"), "interval start"),
                end=decode_optional_real(item.get("end"), "interval end"),
                capacity=decode_capacity(item.get("capacity")),
            )
            for item in payload["intervals"]  # type: ignore[index]
        ]
        competing = [
            CompetingEvent(
                id=decode_id(item["id"], "competing event id"),
                interval_id=decode_id(item["interval_id"], "competing event interval_id"),
                tags=decode_tags(item.get("tags", ())),
            )
            for item in payload["competing_events"]  # type: ignore[index]
        ]
        users = [
            User(
                id=decode_id(item["id"], "user id"),
                weight=decode_real(item.get("weight", 1.0), "user weight"),
            )
            for item in payload["users"]  # type: ignore[index]
        ]
        num_users = len(users)
        interest_payload = payload["interest"]  # type: ignore[index]
        if isinstance(interest_payload, InterestMatrix):
            interest = interest_payload
        else:
            interest = InterestMatrix.from_serialized(interest_payload)  # type: ignore[arg-type]
        competing_payload = payload["competing_interest"]  # type: ignore[index]
        if isinstance(competing_payload, InterestMatrix):
            competing_interest = competing_payload
        else:
            competing_interest = InterestMatrix.from_serialized(competing_payload)  # type: ignore[arg-type]
        if competing_interest.num_items == 0 and competing_interest.num_users != num_users:
            competing_interest = InterestMatrix.zeros(num_users, 0)
        activity = np.asarray(payload["activity"], dtype=np.float64)
        if activity.size == 0:
            activity = activity.reshape((num_users, len(intervals)))
        return cls(
            events=events,
            intervals=intervals,
            competing_events=competing,
            users=users,
            interest=interest,
            competing_interest=competing_interest,
            activity=activity,
            organizer=organizer,
            name=str(payload.get("name", "instance")),
            metadata=dict(payload.get("metadata", {})),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        *,
        interest: np.ndarray,
        activity: np.ndarray,
        competing_interest: Optional[np.ndarray] = None,
        competing_interval_indices: Optional[Sequence[int]] = None,
        locations: Optional[Sequence[str]] = None,
        required_resources: Optional[Sequence[float]] = None,
        available_resources: float = float("inf"),
        event_values: Optional[Sequence[float]] = None,
        event_costs: Optional[Sequence[float]] = None,
        user_weights: Optional[Sequence[float]] = None,
        name: str = "instance",
        metadata: Optional[Dict[str, object]] = None,
    ) -> "SESInstance":
        """Build an instance directly from numeric arrays.

        The helper generates sequential ids (``e0``, ``t0``, ``c0``, ``u0`` …)
        and is the workhorse of the dataset generators and the tests.

        Parameters
        ----------
        interest:
            ``|U| × |E|`` interest matrix.
        activity:
            ``|U| × |T|`` activity-probability matrix.
        competing_interest:
            Optional ``|U| × |C|`` matrix; defaults to no competing events.
        competing_interval_indices:
            Interval index for each competing event (required when
            ``competing_interest`` has at least one column).
        locations:
            Location id per event; defaults to a distinct location per event
            (i.e. no location conflicts).
        required_resources:
            ξ_e per event; defaults to zero.
        available_resources:
            The organiser's θ; defaults to unbounded.
        event_values, event_costs, user_weights:
            Optional extension vectors (profit-oriented / weighted users).
        """
        interest_array = np.asarray(interest, dtype=np.float64)
        activity_array = np.asarray(activity, dtype=np.float64)
        num_users, num_events = interest_array.shape
        num_intervals = activity_array.shape[1]

        if competing_interest is None:
            competing_array = np.zeros((num_users, 0), dtype=np.float64)
            competing_interval_indices = []
        else:
            competing_array = np.asarray(competing_interest, dtype=np.float64)
            if competing_interval_indices is None:
                raise InstanceValidationError(
                    "competing_interval_indices is required when competing_interest is given"
                )
            if len(competing_interval_indices) != competing_array.shape[1]:
                raise InstanceValidationError(
                    "competing_interval_indices length must equal the number of competing events"
                )

        if locations is None:
            locations = [f"loc{idx}" for idx in range(num_events)]
        if len(locations) != num_events:
            raise InstanceValidationError("locations length must equal the number of events")
        if required_resources is None:
            required_resources = [0.0] * num_events
        if len(required_resources) != num_events:
            raise InstanceValidationError(
                "required_resources length must equal the number of events"
            )
        values = list(event_values) if event_values is not None else [1.0] * num_events
        costs = list(event_costs) if event_costs is not None else [0.0] * num_events
        weights = list(user_weights) if user_weights is not None else [1.0] * num_users

        events = [
            Event(
                id=f"e{idx}",
                location=str(locations[idx]),
                required_resources=float(required_resources[idx]),
                value=float(values[idx]),
                cost=float(costs[idx]),
            )
            for idx in range(num_events)
        ]
        intervals = [TimeInterval(id=f"t{idx}", label=f"interval-{idx}") for idx in range(num_intervals)]
        competing = [
            CompetingEvent(id=f"c{idx}", interval_id=f"t{int(competing_interval_indices[idx])}")
            for idx in range(competing_array.shape[1])
        ]
        users = [User(id=f"u{idx}", weight=float(weights[idx])) for idx in range(num_users)]

        return cls(
            events=events,
            intervals=intervals,
            competing_events=competing,
            users=users,
            interest=InterestMatrix(interest_array),
            competing_interest=InterestMatrix(competing_array),
            activity=activity_array,
            organizer=Organizer(available_resources=available_resources),
            name=name,
            metadata=metadata or {},
        )

    def describe(self) -> Dict[str, object]:
        """Summary statistics used by the CLI ``info`` command and reports."""
        return {
            "name": self.name,
            "num_events": self.num_events,
            "num_intervals": self.num_intervals,
            "num_competing_events": self.num_competing_events,
            "num_users": self.num_users,
            "num_locations": self.num_locations(),
            "storage": self.storage,
            "available_resources": self.available_resources,
            "mean_interest": self.interest.mean(),
            "mean_competing_interest": self.competing_interest.mean(),
            "mean_activity": float(self.activity.mean()) if self.activity.size else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SESInstance(name={self.name!r}, events={self.num_events}, "
            f"intervals={self.num_intervals}, competing={self.num_competing_events}, "
            f"users={self.num_users})"
        )
