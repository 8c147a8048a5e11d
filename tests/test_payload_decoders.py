"""Strict decoding of capacities and tags in the service and instance payloads.

Both decoders — :func:`repro.service.mutation_from_dict` (the ``mutate``
wire op) and :meth:`repro.core.instance.SESInstance.from_dict` (JSON and NPZ
instances) — read an interval capacity with :func:`operator.index` and a tag
list as a sequence of strings.  A float capacity is rejected rather than
truncated, a boolean or a numeric string rather than converted, and a bare
string of tags rather than split into characters; NumPy integers, which
pickled wire payloads carry, still decode.  Every service-side rejection
leaves the session's ``status()`` unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import SESInstance
from repro.service import (
    MutationError,
    SchedulingSession,
    SetIntervalCapacity,
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
