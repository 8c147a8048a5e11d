"""Entities of the Social Event Scheduling problem (paper §2.1).

The SES problem involves five kinds of entities:

* :class:`Event` — a *candidate* event the organiser may schedule.  Each event
  has a location (the venue/stage hosting it) and a resource requirement.
* :class:`TimeInterval` — a candidate time period available for scheduling.
* :class:`CompetingEvent` — an event already scheduled by a third party that
  overlaps one of the candidate intervals and competes for the same audience.
* :class:`User` — a potential attendee, with an optional importance weight
  (the "weights over the users" extension mentioned in §2.1).
* :class:`Organizer` — the entity that owns the available resources θ.

The classes are intentionally lightweight, immutable dataclasses: all heavy
numeric data (interest values, activity probabilities) lives in the instance
container (:mod:`repro.core.instance`) as NumPy arrays indexed by entity
position.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple


def _check_number(
    owner: str, name: str, value: float, *, non_negative: bool = True, finite: bool = True
) -> None:
    """Raise ``ValueError`` unless ``value`` is a number meeting the requirements.

    NaN never passes: a bare ``value < 0`` check would let it through, and
    one NaN weight or value turns every utility it touches into NaN.
    """
    if math.isnan(value) or (finite and math.isinf(value)) or (non_negative and value < 0):
        requirement = " and ".join(
            word for word, wanted in (("finite", finite), (">= 0", non_negative)) if wanted
        )
        raise ValueError(f"{owner}: {name} must be {requirement}, got {value}")


@dataclass(frozen=True)
class Event:
    """A candidate event ``e ∈ E``.

    Parameters
    ----------
    id:
        Stable external identifier (unique among candidate events).
    location:
        Identifier of the place (stage, room, hall) hosting the event.  Two
        events sharing a location cannot be scheduled in the same interval
        (location constraint).
    required_resources:
        The amount ξ_e of organiser resources consumed when the event is
        scheduled (resources constraint).
    value:
        Multiplier applied to the event's expected attendance when computing
        utility.  ``1.0`` reproduces the paper; other values implement the
        "profit-oriented" extension of §2.1.
    cost:
        Fixed organisation cost subtracted from the utility when the event is
        scheduled (profit-oriented extension; ``0.0`` reproduces the paper).
    tags:
        Optional descriptive topics (used by the dataset substrates when
        deriving interest, ignored by the solvers).
    """

    id: str
    location: str
    required_resources: float = 0.0
    value: float = 1.0
    cost: float = 0.0
    tags: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        owner = f"event {self.id!r}"
        _check_number(owner, "required_resources", self.required_resources)
        _check_number(owner, "value", self.value)
        _check_number(owner, "cost", self.cost, non_negative=False)


@dataclass(frozen=True)
class TimeInterval:
    """A candidate time interval ``t ∈ T``.

    ``start`` and ``end`` are optional wall-clock anchors (hours from an
    arbitrary origin) used by dataset builders for human-readable scenarios;
    the solvers only use the interval's index.  ``capacity`` optionally caps
    how many candidate events may be scheduled in the interval (a venue with a
    fixed number of stages); ``None`` reproduces the paper's unbounded setting.
    """

    id: str
    label: str = ""
    start: Optional[float] = None
    end: Optional[float] = None
    capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start is not None and self.end is not None and self.end < self.start:
            raise ValueError(
                f"interval {self.id!r}: end ({self.end}) precedes start ({self.start})"
            )
        if self.capacity is not None and (
            not isinstance(self.capacity, int)
            or isinstance(self.capacity, bool)
            or self.capacity < 1
        ):
            raise ValueError(
                f"interval {self.id!r}: capacity must be a positive integer or None, "
                f"got {self.capacity!r}"
            )

    @property
    def duration(self) -> Optional[float]:
        """Length of the interval in the same unit as ``start``/``end``."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start


@dataclass(frozen=True)
class CompetingEvent:
    """An already-scheduled third-party event ``c ∈ C``.

    Each competing event is associated with exactly one candidate interval
    (the interval its schedule overlaps); users interested in it are less
    likely to attend candidate events placed in that interval.
    """

    id: str
    interval_id: str
    tags: Tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class User:
    """A potential attendee ``u ∈ U``.

    ``weight`` implements the §2.1 extension of weighting users (e.g. by
    influence); the paper's formulation corresponds to ``weight == 1.0``.
    """

    id: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        _check_number(f"user {self.id!r}", "weight", self.weight)


@dataclass(frozen=True)
class Organizer:
    """The organiser owning θ available resources (staff, budget, materials)."""

    name: str = "organizer"
    available_resources: float = float("inf")

    def __post_init__(self) -> None:
        # ``inf`` (the default) means unbounded resources.
        _check_number(
            f"organizer {self.name!r}",
            "available_resources",
            self.available_resources,
            finite=False,
        )


def decode_int(value: object, what: str) -> int:
    """An integer read from a payload, without coercion.

    Integers, NumPy integers included (pickled wire payloads carry them),
    pass through :func:`operator.index`; booleans, floats and strings raise
    ``ValueError`` naming ``what``.  Range checks stay with the field's owner.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def decode_capacity(value: object) -> Optional[int]:
    """``None`` or a :func:`decode_int` capacity; the range is :class:`TimeInterval`'s check."""
    return None if value is None else decode_int(value, "capacity")


def decode_id(value: object, what: str) -> str:
    """An entity id (or an event location) read from a payload, without coercion.

    Every writer emits ids as strings; anything else (``None``, a list, a
    number) raises ``ValueError`` instead of being turned into the id
    ``"None"``, ``"['e1']"`` or ``"3"``.  ``what`` names the field in the
    message.
    """
    if isinstance(value, str):
        return str(value)
    raise ValueError(f"{what} must be a string, got {value!r}")


def decode_real(value: object, what: str) -> float:
    """A real number read from a payload, without coercion.

    Python and NumPy integers and floats pass through ``float``; booleans
    (``True`` is an ``int``) and strings raise ``ValueError`` instead of
    being read as ``1.0`` or parsed.  ``what`` names the field in the
    message; range checks stay with the entity that owns the field.
    """
    # float and int first: the abstract numbers.Real check is the slow one,
    # and only NumPy scalars other than float64 need it.
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} must be a real number, got {value!r}")


def decode_reals(values: Iterable[object], what: str) -> Tuple[float, ...]:
    """:func:`decode_real` over a sequence (an ``add-event``'s ``|U|`` interest values).

    A sequence of plain floats — what the wire carries — is checked by type
    in one C-level pass; anything else is decoded element by element, so a
    single string or boolean is rejected with its own message.
    """
    items = tuple(values)
    if set(map(type, items)) <= {float}:
        return items
    return tuple(decode_real(value, what) for value in items)


def decode_optional_real(value: object, what: str) -> Optional[float]:
    """:func:`decode_real`, with ``None`` passed through."""
    return None if value is None else decode_real(value, what)


def decode_tags(value: Iterable[str]) -> Tuple[str, ...]:
    """A tag tuple read from a payload; a bare string is rejected, not split into characters."""
    if isinstance(value, str):
        raise ValueError(f"tags must be a list of strings, not the string {value!r}")
    return tuple(value)


def encode_event(event: Event) -> Dict[str, object]:
    """The payload dict of an :class:`Event`; :func:`decode_event` reads it back."""
    return {
        "id": event.id,
        "location": event.location,
        "required_resources": event.required_resources,
        "value": event.value,
        "cost": event.cost,
        "tags": list(event.tags),
    }


def decode_event(item: Mapping[str, object]) -> Event:
    """An :class:`Event` read from its payload dict (instance files and ``add-event``).

    ``id`` and ``location`` go through :func:`decode_id` and the numeric
    fields through :func:`decode_real`, so ``None``, ``"0.5"`` or ``True`` is
    rejected rather than coerced.
    """
    return Event(
        id=decode_id(item["id"], "event id"),
        location=decode_id(item["location"], "location"),
        required_resources=decode_real(
            item.get("required_resources", 0.0), "required_resources"
        ),
        value=decode_real(item.get("value", 1.0), "value"),
        cost=decode_real(item.get("cost", 0.0), "cost"),
        tags=decode_tags(item.get("tags", ())),
    )
