"""Unit tests for the problem entities (repro.core.entities)."""

import numpy as np
import pytest

from repro.core.entities import (
    CompetingEvent,
    Event,
    Organizer,
    TimeInterval,
    User,
    decode_event,
    encode_event,
)
from repro.core.instance import SESInstance

NAN = float("nan")
INF = float("inf")


class TestEvent:
    def test_defaults(self):
        event = Event(id="e1", location="stage")
        assert event.required_resources == 0.0
        assert event.value == 1.0
        assert event.cost == 0.0
        assert event.tags == ()

    def test_negative_resources_rejected(self):
        with pytest.raises(ValueError, match="required_resources"):
            Event(id="e1", location="stage", required_resources=-1.0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="value"):
            Event(id="e1", location="stage", value=-0.5)

    @pytest.mark.parametrize("field", ["required_resources", "value", "cost"])
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_numbers_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            Event(id="e1", location="stage", **{field: bad})

    def test_negative_cost_allowed(self):
        assert Event(id="e1", location="stage", cost=-2.0).cost == -2.0

    def test_is_frozen(self):
        event = Event(id="e1", location="stage")
        with pytest.raises(AttributeError):
            event.location = "other"  # type: ignore[misc]

    def test_tags_preserved(self):
        event = Event(id="e1", location="stage", tags=("rock", "live"))
        assert event.tags == ("rock", "live")

    def test_equality_by_value(self):
        assert Event(id="e1", location="stage") == Event(id="e1", location="stage")
        assert Event(id="e1", location="stage") != Event(id="e1", location="hall")

    def test_encode_event_round_trips_through_decode_event(self):
        event = Event(
            id="e1", location="stage", required_resources=2.5, value=1.75, cost=0.5,
            tags=("rock", "live"),
        )
        assert decode_event(encode_event(event)) == event


class TestTimeInterval:
    def test_duration(self):
        interval = TimeInterval(id="t1", start=19.0, end=22.0)
        assert interval.duration == pytest.approx(3.0)

    def test_duration_unknown_when_missing_bounds(self):
        assert TimeInterval(id="t1").duration is None
        assert TimeInterval(id="t1", start=5.0).duration is None

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            TimeInterval(id="t1", start=10.0, end=9.0)

    def test_zero_length_interval_allowed(self):
        assert TimeInterval(id="t1", start=4.0, end=4.0).duration == 0.0


class TestCompetingEvent:
    def test_fields(self):
        comp = CompetingEvent(id="c1", interval_id="t2", tags=("rock",))
        assert comp.interval_id == "t2"
        assert comp.tags == ("rock",)


class TestUser:
    def test_default_weight(self):
        assert User(id="u1").weight == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            User(id="u1", weight=-1.0)

    def test_zero_weight_allowed(self):
        assert User(id="u1", weight=0.0).weight == 0.0

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weight"):
            User(id="u1", weight=bad)

    def test_nan_weight_rejected_when_building_an_instance(self):
        """One NaN weight would make every utility NaN (and ALG != INC)."""
        with pytest.raises(ValueError, match="weight"):
            SESInstance.from_arrays(
                interest=np.full((3, 2), 0.5),
                activity=np.full((3, 1), 0.5),
                locations=["a", "b"],
                user_weights=[1.0, NAN, 1.0],
            )


class TestOrganizer:
    def test_default_is_unbounded(self):
        assert Organizer().available_resources == float("inf")

    def test_negative_resources_rejected(self):
        with pytest.raises(ValueError, match="available_resources"):
            Organizer(available_resources=-3.0)

    def test_nan_resources_rejected(self):
        with pytest.raises(ValueError, match="available_resources"):
            Organizer(available_resources=NAN)

    def test_explicit_infinite_resources_allowed(self):
        assert Organizer(available_resources=INF).available_resources == INF

    def test_named_organizer(self):
        organizer = Organizer(name="acme", available_resources=10.0)
        assert organizer.name == "acme"
        assert organizer.available_resources == 10.0
