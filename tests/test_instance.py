"""Unit tests for the SES instance container (repro.core.instance)."""

import numpy as np
import pytest

from repro.core.entities import CompetingEvent, Event, Organizer, TimeInterval, User
from repro.core.errors import InstanceValidationError
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from tests.conftest import make_random_instance


def _minimal_kwargs():
    return dict(
        events=[Event(id="e0", location="a"), Event(id="e1", location="b")],
        intervals=[TimeInterval(id="t0"), TimeInterval(id="t1")],
        competing_events=[CompetingEvent(id="c0", interval_id="t1")],
        users=[User(id="u0"), User(id="u1"), User(id="u2")],
        interest=InterestMatrix(np.full((3, 2), 0.5)),
        competing_interest=InterestMatrix(np.full((3, 1), 0.25)),
        activity=np.full((3, 2), 0.75),
    )


class TestValidation:
    def test_valid_instance_builds(self):
        instance = SESInstance(**_minimal_kwargs())
        assert instance.num_events == 2
        assert instance.num_intervals == 2
        assert instance.num_competing_events == 1
        assert instance.num_users == 3

    def test_requires_events(self):
        kwargs = _minimal_kwargs()
        kwargs["events"] = []
        with pytest.raises(InstanceValidationError, match="candidate event"):
            SESInstance(**kwargs)

    def test_requires_intervals(self):
        kwargs = _minimal_kwargs()
        kwargs["intervals"] = []
        with pytest.raises(InstanceValidationError, match="time interval"):
            SESInstance(**kwargs)

    def test_requires_users(self):
        kwargs = _minimal_kwargs()
        kwargs["users"] = []
        with pytest.raises(InstanceValidationError, match="user"):
            SESInstance(**kwargs)

    def test_duplicate_event_ids_rejected(self):
        kwargs = _minimal_kwargs()
        kwargs["events"] = [Event(id="e0", location="a"), Event(id="e0", location="b")]
        with pytest.raises(InstanceValidationError, match="duplicate event id"):
            SESInstance(**kwargs)

    def test_duplicate_user_ids_rejected(self):
        kwargs = _minimal_kwargs()
        kwargs["users"] = [User(id="u0"), User(id="u0"), User(id="u1")]
        with pytest.raises(InstanceValidationError, match="duplicate user id"):
            SESInstance(**kwargs)

    def test_interest_shape_checked(self):
        kwargs = _minimal_kwargs()
        kwargs["interest"] = InterestMatrix(np.full((3, 5), 0.5))
        with pytest.raises(InstanceValidationError, match="interest matrix shape"):
            SESInstance(**kwargs)

    def test_competing_interest_shape_checked(self):
        kwargs = _minimal_kwargs()
        kwargs["competing_interest"] = InterestMatrix(np.full((3, 4), 0.5))
        with pytest.raises(InstanceValidationError, match="competing-interest"):
            SESInstance(**kwargs)

    def test_activity_shape_checked(self):
        kwargs = _minimal_kwargs()
        kwargs["activity"] = np.full((3, 9), 0.5)
        with pytest.raises(InstanceValidationError, match="activity matrix shape"):
            SESInstance(**kwargs)

    def test_activity_range_checked(self):
        kwargs = _minimal_kwargs()
        kwargs["activity"] = np.full((3, 2), 1.5)
        with pytest.raises(InstanceValidationError, match="activity probabilities"):
            SESInstance(**kwargs)

    def test_nan_activity_rejected(self):
        kwargs = _minimal_kwargs()
        kwargs["activity"] = np.full((3, 2), 0.5)
        kwargs["activity"][1, 0] = np.nan
        with pytest.raises(InstanceValidationError, match="activity probabilities"):
            SESInstance(**kwargs)

    @pytest.mark.parametrize("matrix", ["interest", "competing_interest"])
    def test_nan_interest_rejected_from_arrays(self, matrix):
        arrays = {
            "interest": np.array([[0.4, 0.1], [0.2, 0.3]]),
            "activity": np.full((2, 2), 0.5),
            "competing_interest": np.array([[0.6], [0.7]]),
        }
        arrays[matrix][0, 0] = np.nan
        with pytest.raises(InstanceValidationError, match="interest values"):
            SESInstance.from_arrays(**arrays, competing_interval_indices=[0])

    def test_competing_event_unknown_interval_rejected(self):
        kwargs = _minimal_kwargs()
        kwargs["competing_events"] = [CompetingEvent(id="c0", interval_id="missing")]
        with pytest.raises(InstanceValidationError, match="unknown interval"):
            SESInstance(**kwargs)

    def test_unschedulable_event_flagged_in_metadata(self):
        kwargs = _minimal_kwargs()
        kwargs["events"] = [
            Event(id="e0", location="a", required_resources=50.0),
            Event(id="e1", location="b"),
        ]
        kwargs["organizer"] = Organizer(available_resources=10.0)
        instance = SESInstance(**kwargs)
        assert instance.metadata["unschedulable_events"] == ["e0"]


class TestLookupsAndDerivedData:
    def test_index_lookups(self):
        instance = SESInstance(**_minimal_kwargs())
        assert instance.event_index("e1") == 1
        assert instance.interval_index("t0") == 0
        assert instance.competing_index("c0") == 0
        assert instance.user_index("u2") == 2

    def test_unknown_ids_raise(self):
        instance = SESInstance(**_minimal_kwargs())
        with pytest.raises(InstanceValidationError):
            instance.event_index("nope")
        with pytest.raises(InstanceValidationError):
            instance.interval_index("nope")
        with pytest.raises(InstanceValidationError):
            instance.competing_index("nope")
        with pytest.raises(InstanceValidationError):
            instance.user_index("nope")

    def test_competing_sums(self):
        instance = SESInstance(**_minimal_kwargs())
        sums = instance.competing_sums
        # c0 sits in t1 with interest 0.25 for every user; t0 has no competitor.
        np.testing.assert_allclose(sums[:, 0], 0.0)
        np.testing.assert_allclose(sums[:, 1], 0.25)

    def test_competing_events_at(self):
        instance = SESInstance(**_minimal_kwargs())
        assert instance.competing_events_at(0) == []
        assert instance.competing_events_at(1) == [0]

    def test_vector_accessors(self):
        instance = make_random_instance(seed=5)
        assert len(instance.event_required_resources()) == instance.num_events
        assert len(instance.event_values()) == instance.num_events
        assert len(instance.event_costs()) == instance.num_events
        assert len(instance.event_locations()) == instance.num_events
        assert len(instance.user_weights) == instance.num_users
        assert instance.num_locations() <= instance.num_events

    def test_describe(self):
        instance = SESInstance(**_minimal_kwargs())
        description = instance.describe()
        assert description["num_events"] == 2
        assert description["num_users"] == 3
        assert 0.0 <= description["mean_interest"] <= 1.0


class TestFromArrays:
    def test_default_locations_are_distinct(self):
        instance = SESInstance.from_arrays(
            interest=np.full((2, 3), 0.5), activity=np.full((2, 2), 0.5)
        )
        assert instance.num_locations() == 3
        assert instance.num_competing_events == 0

    def test_competing_requires_interval_indices(self):
        with pytest.raises(InstanceValidationError, match="competing_interval_indices"):
            SESInstance.from_arrays(
                interest=np.full((2, 3), 0.5),
                activity=np.full((2, 2), 0.5),
                competing_interest=np.full((2, 1), 0.5),
            )

    def test_length_mismatches_rejected(self):
        with pytest.raises(InstanceValidationError, match="locations length"):
            SESInstance.from_arrays(
                interest=np.full((2, 3), 0.5),
                activity=np.full((2, 2), 0.5),
                locations=["a"],
            )
        with pytest.raises(InstanceValidationError, match="required_resources length"):
            SESInstance.from_arrays(
                interest=np.full((2, 3), 0.5),
                activity=np.full((2, 2), 0.5),
                required_resources=[1.0],
            )

    def test_extension_vectors(self):
        instance = SESInstance.from_arrays(
            interest=np.full((2, 2), 0.5),
            activity=np.full((2, 2), 0.5),
            event_values=[2.0, 1.0],
            event_costs=[0.5, 0.0],
            user_weights=[3.0, 1.0],
        )
        np.testing.assert_allclose(instance.event_values(), [2.0, 1.0])
        np.testing.assert_allclose(instance.event_costs(), [0.5, 0.0])
        np.testing.assert_allclose(instance.user_weights, [3.0, 1.0])


class TestSerialisation:
    def test_round_trip(self):
        original = make_random_instance(seed=9, num_users=10, num_events=5, num_intervals=3)
        restored = SESInstance.from_dict(original.to_dict())
        assert restored.num_events == original.num_events
        assert restored.num_users == original.num_users
        assert restored.num_competing_events == original.num_competing_events
        np.testing.assert_allclose(restored.interest.values, original.interest.values)
        np.testing.assert_allclose(restored.activity, original.activity)
        np.testing.assert_allclose(restored.competing_sums, original.competing_sums)
        assert [e.id for e in restored.events] == [e.id for e in original.events]
        assert restored.available_resources == original.available_resources

    def test_round_trip_without_competing_events(self):
        original = SESInstance.from_arrays(
            interest=np.full((2, 2), 0.5), activity=np.full((2, 2), 0.5)
        )
        restored = SESInstance.from_dict(original.to_dict())
        assert restored.num_competing_events == 0
        assert restored.competing_interest.shape == (2, 0)

    def test_running_example_round_trip(self, running_example):
        restored = SESInstance.from_dict(running_example.to_dict())
        assert [e.location for e in restored.events] == [
            "Stage 1",
            "Stage 1",
            "Room A",
            "Stage 2",
        ]
        np.testing.assert_allclose(restored.interest.values, running_example.interest.values)
