"""Strict decoding of capacities, tags and numbers in the service and instance payloads.

Both decoders — :func:`repro.service.mutation_from_dict` (the ``mutate``
wire op) and :meth:`repro.core.instance.SESInstance.from_dict` (JSON and NPZ
instances) — read an interval capacity with :func:`operator.index`, a tag
list as a sequence of strings and every real-valued field (interest values,
event value / cost / resources, interval start / end, user weights, the
organizer's resources) with :func:`repro.core.entities.decode_real`.  A
float capacity is rejected rather than truncated, a boolean or a numeric
string rather than converted, and a bare string of tags rather than split
into characters; NumPy integers and floats, which pickled wire payloads
carry, still decode.  Both decoders take entity ids and event locations
only as strings (:func:`repro.core.entities.decode_id`), and the mutation
decoder takes ``update-interest`` values only as a mapping.  Every
service-side rejection leaves the session's ``status()`` unchanged.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.entities import Event
from repro.core.errors import SolverError
from repro.core.instance import SESInstance
from repro.service import (
    AddEvent,
    LockAssignment,
    MutationError,
    RemoveEvent,
    SchedulingSession,
    SetIntervalCapacity,
    UnlockAssignment,
    UpdateInterest,
    mutation_from_dict,
)

from tests.conftest import make_random_instance

#: Capacity payloads both decoders must reject instead of coercing.
BAD_CAPACITIES = [
    pytest.param(1.7, id="float"),
    pytest.param(2.0, id="integral-float"),
    pytest.param(True, id="bool"),
    pytest.param("2", id="numeric-string"),
]


@pytest.fixture
def instance() -> SESInstance:
    return make_random_instance(seed=3, num_users=10, num_events=6, num_intervals=3)


@pytest.fixture
def session(instance) -> SchedulingSession:
    session = SchedulingSession(instance, seed=3)
    session.resolve(2)
    return session


def capacity_payload(capacity) -> dict:
    return {"op": "set-capacity", "interval_id": "t0", "capacity": capacity}


def add_event_payload(instance: SESInstance, tags) -> dict:
    return {
        "op": "add-event",
        "event": {"id": "new-event", "location": "L0", "tags": tags},
        "interest": [0.5] * instance.num_users,
    }


class TestMutationDecoder:
    @pytest.mark.parametrize("capacity", BAD_CAPACITIES)
    def test_coercible_capacity_is_rejected(self, session, capacity):
        before = session.status()
        with pytest.raises(MutationError, match="capacity must be an integer"):
            session.apply([mutation_from_dict(capacity_payload(capacity))])
        assert session.status() == before

    @pytest.mark.parametrize("capacity", [np.int64(2), np.int32(2), 2])
    def test_integer_capacity_decodes_as_int(self, session, capacity):
        mutation = mutation_from_dict(capacity_payload(capacity))
        assert mutation.capacity == 2 and type(mutation.capacity) is int
        session.apply([mutation])
        assert session.status()["num_intervals"] == 3

    def test_none_capacity_uncaps(self):
        assert mutation_from_dict(capacity_payload(None)).capacity is None

    def test_string_tags_are_rejected(self, session, instance):
        before = session.status()
        with pytest.raises(MutationError, match="tags must be a list of strings"):
            session.apply([mutation_from_dict(add_event_payload(instance, "abc"))])
        assert session.status() == before

    def test_list_tags_decode(self, instance):
        mutation = mutation_from_dict(add_event_payload(instance, ["music", "jazz"]))
        assert mutation.event.tags == ("music", "jazz")


class TestSetCapacityValidation:
    @pytest.mark.parametrize("capacity", [-2, 0, 1.7, True])
    def test_bad_capacity_reported_before_locked_count(self, session, capacity):
        """A non-positive or non-integer capacity is named as such, not as a lock conflict."""
        before = session.status()
        with pytest.raises(MutationError, match="capacity must be a positive integer") as excinfo:
            session.apply([SetIntervalCapacity(interval_id="t0", capacity=capacity)])
        assert "already locked" not in str(excinfo.value)
        assert session.status() == before


class TestInstanceDecoder:
    @pytest.mark.parametrize("capacity", BAD_CAPACITIES)
    def test_coercible_capacity_is_rejected(self, instance, capacity):
        payload = instance.to_dict()
        payload["intervals"][0]["capacity"] = capacity
        with pytest.raises(ValueError, match="capacity must be an integer"):
            SESInstance.from_dict(payload)

    def test_fractional_capacity_is_not_truncated(self, instance):
        payload = instance.to_dict()
        payload["intervals"][0]["capacity"] = 2.9
        with pytest.raises(ValueError, match="capacity must be an integer"):
            SESInstance.from_dict(payload)

    def test_numpy_integer_capacity_decodes(self, instance):
        payload = instance.to_dict()
        payload["intervals"][0]["capacity"] = np.int64(2)
        decoded = SESInstance.from_dict(payload)
        assert decoded.intervals[0].capacity == 2
        assert type(decoded.intervals[0].capacity) is int

    @pytest.mark.parametrize("entry", ["events", "competing_events"])
    def test_string_tags_are_rejected(self, instance, entry):
        payload = instance.to_dict()
        payload[entry][0]["tags"] = "abc"
        with pytest.raises(ValueError, match="tags must be a list of strings"):
            SESInstance.from_dict(payload)


# --------------------------------------------------------------------------- #
# Real numbers: interest values, event numbers, interval anchors
# --------------------------------------------------------------------------- #
#: Number payloads both decoders must reject instead of coercing.
BAD_REALS = [
    pytest.param("0.5", id="numeric-string"),
    pytest.param(True, id="bool"),
    pytest.param(np.bool_(True), id="numpy-bool"),
    pytest.param([0.5], id="list"),
]

#: Real numbers in [0, 1] that decode, NumPy scalars included.
GOOD_REALS = [
    pytest.param(1, id="int"),
    pytest.param(0.5, id="float"),
    pytest.param(np.float64(0.25), id="numpy-float64"),
    pytest.param(np.float32(0.5), id="numpy-float32"),
    pytest.param(np.int64(0), id="numpy-int"),
]


def update_interest_payload(instance: SESInstance, value) -> dict:
    return {
        "op": "update-interest",
        "user_id": instance.users[0].id,
        "values": {instance.events[0].id: 0.25, instance.events[1].id: value},
    }


def add_valued_event_payload(instance: SESInstance, value, field: str) -> dict:
    payload = {
        "op": "add-event",
        "event": {"id": "new-event", "location": "L0"},
        "interest": [0.5] * instance.num_users,
    }
    if field == "interest":
        payload["interest"][-1] = value
    else:
        payload["event"][field] = value
    return payload


#: Every real-valued field of the ``mutate`` payloads, as a payload builder.
MUTATION_REAL_FIELDS = {
    "update-interest": update_interest_payload,
    "add-event.interest": functools.partial(add_valued_event_payload, field="interest"),
    "add-event.value": functools.partial(add_valued_event_payload, field="value"),
    "add-event.cost": functools.partial(add_valued_event_payload, field="cost"),
    "add-event.required_resources": functools.partial(
        add_valued_event_payload, field="required_resources"
    ),
}


class TestMutationRealDecoder:
    @pytest.mark.parametrize("field", sorted(MUTATION_REAL_FIELDS))
    @pytest.mark.parametrize("value", BAD_REALS)
    def test_coercible_number_is_rejected(self, session, instance, field, value):
        before = session.status()
        with pytest.raises(MutationError, match="must be a real number"):
            session.apply([mutation_from_dict(MUTATION_REAL_FIELDS[field](instance, value))])
        assert session.status() == before

    @pytest.mark.parametrize("field", sorted(MUTATION_REAL_FIELDS))
    @pytest.mark.parametrize("value", GOOD_REALS)
    def test_real_number_decodes_as_float(self, session, instance, field, value):
        mutation = mutation_from_dict(MUTATION_REAL_FIELDS[field](instance, value))
        if field == "update-interest":
            decoded = mutation.values[instance.events[1].id]
        elif field == "add-event.interest":
            decoded = mutation.interest[-1]
        else:
            decoded = getattr(mutation.event, field.split(".")[1])
        assert decoded == float(value) and type(decoded) is float
        session.apply([mutation])


class TestInstanceRealDecoder:
    @pytest.mark.parametrize("field", ["start", "end"])
    @pytest.mark.parametrize("value", BAD_REALS)
    def test_coercible_interval_anchor_is_rejected(self, instance, field, value):
        payload = instance.to_dict()
        payload["intervals"][0][field] = value
        with pytest.raises(ValueError, match=f"interval {field} must be a real number"):
            SESInstance.from_dict(payload)

    def test_numeric_string_anchors_are_not_compared_as_strings(self, instance):
        """``"9"`` / ``"10"`` are rejected as non-numbers, never compared as strings."""
        payload = instance.to_dict()
        payload["intervals"][0].update(start="9", end="10")
        with pytest.raises(ValueError, match="interval start must be a real number"):
            SESInstance.from_dict(payload)

    @pytest.mark.parametrize(
        "start, end",
        [(9, 10), (9.5, 11.25), (np.int64(1), np.float64(2.5)), (None, 4), (None, None)],
        ids=["int", "float", "numpy", "open-start", "unanchored"],
    )
    def test_real_interval_anchors_decode_as_floats(self, instance, start, end):
        payload = instance.to_dict()
        payload["intervals"][0].update(start=start, end=end)
        interval = SESInstance.from_dict(payload).intervals[0]
        for decoded, given in ((interval.start, start), (interval.end, end)):
            if given is None:
                assert decoded is None
            else:
                assert decoded == float(given) and type(decoded) is float

    @pytest.mark.parametrize("field", ["value", "cost", "required_resources"])
    @pytest.mark.parametrize("value", BAD_REALS)
    def test_coercible_event_number_is_rejected(self, instance, field, value):
        payload = instance.to_dict()
        payload["events"][0][field] = value
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            SESInstance.from_dict(payload)


# --------------------------------------------------------------------------- #
# Mutation ids and the update-interest mapping
# --------------------------------------------------------------------------- #
#: Id payloads the mutation decoder must reject instead of ``str()``-ing.
BAD_IDS = [
    pytest.param(None, id="none"),
    pytest.param(["e1"], id="list"),
    pytest.param(3, id="int"),
]


def id_payload(instance: SESInstance, field: str, bad) -> dict:
    """A valid payload of ``field``'s op, with ``bad`` in place of that id."""
    event, interval, user = instance.events[0].id, instance.intervals[0].id, instance.users[0].id
    payloads = {
        "remove-event": {"op": "remove-event", "event_id": event},
        "lock": {"op": "lock", "event_id": event, "interval_id": interval},
        "unlock": {"op": "unlock", "event_id": event},
        "set-capacity": {"op": "set-capacity", "interval_id": interval, "capacity": 2},
        "update-interest": {"op": "update-interest", "user_id": user, "values": {}},
    }
    op, key = field.split(".")
    return {**payloads[op], key: bad}


#: Every id field of the ``mutate`` payloads, as ``op.key``.
ID_FIELDS = [
    "remove-event.event_id",
    "lock.event_id",
    "lock.interval_id",
    "unlock.event_id",
    "set-capacity.interval_id",
    "update-interest.user_id",
]


class TestMutationIdDecoder:
    @pytest.mark.parametrize("field", ID_FIELDS)
    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_non_string_id_is_rejected(self, session, instance, field, bad):
        before = session.status()
        with pytest.raises(MutationError, match="must be a string"):
            session.apply([mutation_from_dict(id_payload(instance, field, bad))])
        assert session.status() == before

    @pytest.mark.parametrize("field", ["id", "location"])
    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_non_string_added_event_id_is_rejected(self, session, instance, field, bad):
        before = session.status()
        payload = add_event_payload(instance, [])
        payload["event"][field] = bad
        with pytest.raises(MutationError, match="must be a string"):
            session.apply([mutation_from_dict(payload)])
        assert session.status() == before

    @pytest.mark.parametrize("bad", [None, 3, ("e0",)], ids=repr)
    def test_non_string_event_key_is_rejected(self, session, instance, bad):
        before = session.status()
        payload = {"op": "update-interest", "user_id": instance.users[0].id, "values": {bad: 0.5}}
        with pytest.raises(MutationError, match="event id must be a string"):
            session.apply([mutation_from_dict(payload)])
        assert session.status() == before

    @pytest.mark.parametrize("values", [[1, 2], None, "e0", 0.5], ids=repr)
    def test_non_mapping_values_are_rejected(self, session, instance, values):
        before = session.status()
        payload = {"op": "update-interest", "user_id": instance.users[0].id, "values": values}
        with pytest.raises(MutationError, match="values must be a mapping"):
            session.apply([mutation_from_dict(payload)])
        assert session.status() == before

    def test_string_ids_round_trip(self, instance):
        event, interval = instance.events[0].id, instance.intervals[0].id
        mutation = mutation_from_dict({"op": "lock", "event_id": event, "interval_id": interval})
        assert (mutation.event_id, mutation.interval_id) == (event, interval)


#: In-process mutation objects with a malformed id (or event), built without
#: the wire decoder: ``apply`` must reject each as a MutationError.
BAD_IN_PROCESS_MUTATIONS = [
    pytest.param(UpdateInterest(user_id=["u0"], values={"e0": 0.5}), id="update-user-list"),
    pytest.param(LockAssignment(event_id=["e0"], interval_id="t0"), id="lock-event-list"),
    pytest.param(LockAssignment(event_id="e0", interval_id=["t0"]), id="lock-interval-list"),
    pytest.param(RemoveEvent(event_id={"e0"}), id="remove-event-set"),
    pytest.param(UnlockAssignment(event_id=["e0"]), id="unlock-event-list"),
    pytest.param(SetIntervalCapacity(interval_id=["t0"], capacity=2), id="capacity-interval-list"),
    pytest.param(AddEvent(event="x", interest=(0.5,) * 10), id="add-event-string"),
    pytest.param(
        AddEvent(event=Event(id=["x"], location="L0"), interest=(0.5,) * 10),
        id="add-event-id-list",
    ),
    pytest.param(
        AddEvent(event=Event(id="x", location=["L0"]), interest=(0.5,) * 10),
        id="add-event-location-list",
    ),
]


class TestInProcessMutationIds:
    @pytest.mark.parametrize("mutation", BAD_IN_PROCESS_MUTATIONS)
    def test_malformed_mutation_is_rejected(self, session, mutation):
        before = session.status()
        with pytest.raises(MutationError):
            session.apply([mutation])
        assert session.status() == before


class TestResolveK:
    @pytest.mark.parametrize("k", [2.9, True, "3"], ids=repr)
    def test_coercible_k_is_rejected(self, session, k):
        schedule = session.last_schedule()
        with pytest.raises(SolverError, match="k must be an integer"):
            session.resolve(k)
        assert session.last_schedule() == schedule

    def test_numpy_integer_k_resolves(self, session):
        assert session.resolve(np.int64(2)).k == 2


#: Session seeds that must be rejected instead of passed on to the schedulers.
BAD_SEEDS = [
    pytest.param("abc", id="string"),
    pytest.param(2.5, id="float"),
    pytest.param(True, id="bool"),
]

#: Scheduler names that are not strings.
BAD_ALGORITHMS = [
    pytest.param(None, id="none"),
    pytest.param(3, id="int"),
    pytest.param(["INC"], id="list"),
]


class TestSessionOptions:
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_is_rejected_at_construction(self, instance, seed):
        with pytest.raises(SolverError, match="seed must be an integer"):
            SchedulingSession(instance, seed=seed)

    @pytest.mark.parametrize("algorithm", BAD_ALGORITHMS)
    def test_bad_algorithm_is_rejected_at_construction(self, instance, algorithm):
        with pytest.raises(SolverError, match="algorithm name must be a string"):
            SchedulingSession(instance, algorithm=algorithm)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_resolve_seed_is_rejected(self, session, seed):
        schedule = session.last_schedule()
        with pytest.raises(SolverError, match="seed must be an integer"):
            session.resolve(2, seed=seed)
        assert session.last_schedule() == schedule

    @pytest.mark.parametrize("algorithm", BAD_ALGORITHMS[1:])
    def test_bad_resolve_algorithm_is_rejected(self, session, algorithm):
        schedule = session.last_schedule()
        with pytest.raises(SolverError, match="algorithm name must be a string"):
            session.resolve(2, algorithm=algorithm)
        assert session.last_schedule() == schedule

    def test_numpy_integer_seed_resolves(self, instance):
        session = SchedulingSession(instance, algorithm="RAND", seed=np.int64(3))
        assert session.resolve(2, seed=np.int64(4)).k == 2


#: Every id field of an instance payload (and the event location), as ``entry.key``.
INSTANCE_ID_FIELDS = [
    "users.id",
    "events.id",
    "events.location",
    "intervals.id",
    "competing_events.id",
    "competing_events.interval_id",
]


class TestInstanceIdDecoder:
    @pytest.mark.parametrize("field", INSTANCE_ID_FIELDS)
    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_non_string_id_is_rejected(self, instance, field, bad):
        entry, key = field.split(".")
        payload = instance.to_dict()
        payload[entry][0][key] = bad
        with pytest.raises(ValueError, match="must be a string"):
            SESInstance.from_dict(payload)

    def test_string_ids_round_trip(self, instance):
        decoded = SESInstance.from_dict(instance.to_dict())
        assert [user.id for user in decoded.users] == [user.id for user in instance.users]
        assert [(event.id, event.location) for event in decoded.events] == [
            (event.id, event.location) for event in instance.events
        ]
        assert [interval.id for interval in decoded.intervals] == [
            interval.id for interval in instance.intervals
        ]
        assert [(item.id, item.interval_id) for item in decoded.competing_events] == [
            (item.id, item.interval_id) for item in instance.competing_events
        ]


# --------------------------------------------------------------------------- #
# User weights and the organizer's resources
# --------------------------------------------------------------------------- #
class TestInstanceWeightDecoder:
    @pytest.mark.parametrize("value", BAD_REALS + [pytest.param("2", id="integral-string")])
    def test_coercible_user_weight_is_rejected(self, instance, value):
        payload = instance.to_dict()
        payload["users"][0]["weight"] = value
        with pytest.raises(ValueError, match="user weight must be a real number"):
            SESInstance.from_dict(payload)

    @pytest.mark.parametrize("value", BAD_REALS)
    def test_coercible_available_resources_are_rejected(self, instance, value):
        payload = instance.to_dict()
        payload["organizer"]["available_resources"] = value
        with pytest.raises(ValueError, match="available_resources must be a real number"):
            SESInstance.from_dict(payload)

    @pytest.mark.parametrize("value", [2, 0.5, np.float64(1.5), np.int64(3)], ids=repr)
    def test_real_weight_decodes_as_float(self, instance, value):
        payload = instance.to_dict()
        payload["users"][0]["weight"] = value
        weight = SESInstance.from_dict(payload).users[0].weight
        assert weight == float(value) and type(weight) is float

    def test_defaults_and_round_trip(self, instance):
        payload = instance.to_dict()
        del payload["users"][0]["weight"]
        del payload["organizer"]["available_resources"]
        decoded = SESInstance.from_dict(payload)
        assert decoded.users[0].weight == 1.0
        assert decoded.organizer.available_resources == float("inf")
        again = SESInstance.from_dict(decoded.to_dict())
        assert again.to_dict() == decoded.to_dict()
