"""Synthetic Event-Based Social Network generator.

The generator builds a Meetup-like network with the structural features that
drive the derived interest/activity matrices:

* group popularity follows a Zipf-like law (a few very large groups, a long
  tail of small ones), so members cluster around popular categories;
* a member's declared topics are the union of their groups' topics plus a few
  individual extras, producing the sparse, clustered affinity structure of
  real EBSN data;
* past events are organised by groups and tagged with a subset of the group's
  topics;
* members RSVP mostly to events of their own groups and with probability
  increasing in topic overlap;
* check-ins concentrate on each member's two-to-four preferred weekly slots
  (evenings/weekends more likely), which later becomes the social-activity
  probability σ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import DatasetError
from repro.ebsn.network import (
    CheckIn,
    EventBasedSocialNetwork,
    Group,
    Member,
    Rsvp,
    SocialEvent,
)
from repro.ebsn.tags import CATEGORIES, topics_in_category


@dataclass
class EBSNConfig:
    """Configuration of the synthetic EBSN generator."""

    num_members: int = 2_000
    num_groups: int = 60
    num_past_events: int = 400
    num_venues: int = 25
    num_weekly_slots: int = 21
    groups_per_member_range: Tuple[int, int] = (1, 4)
    extra_topics_per_member: int = 2
    topics_per_event: Tuple[int, int] = (1, 3)
    rsvp_probability: float = 0.35
    checkins_per_member_range: Tuple[int, int] = (5, 40)
    preferred_slots_per_member: Tuple[int, int] = (2, 4)
    group_popularity_exponent: float = 1.1
    seed: Optional[int] = 11

    def __post_init__(self) -> None:
        if self.num_members < 1 or self.num_groups < 1:
            raise DatasetError("num_members and num_groups must be positive")
        if self.num_past_events < 0 or self.num_venues < 1:
            raise DatasetError("num_past_events must be >= 0 and num_venues >= 1")
        if self.num_weekly_slots < 1:
            raise DatasetError("num_weekly_slots must be positive")
        if not (0.0 <= self.rsvp_probability <= 1.0):
            raise DatasetError("rsvp_probability must lie in [0, 1]")
        for name, bounds in (
            ("groups_per_member_range", self.groups_per_member_range),
            ("topics_per_event", self.topics_per_event),
            ("checkins_per_member_range", self.checkins_per_member_range),
            ("preferred_slots_per_member", self.preferred_slots_per_member),
        ):
            low, high = bounds
            if low < 0 or high < low:
                raise DatasetError(f"invalid range for {name}: {bounds}")


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def generate_network(config: Optional[EBSNConfig] = None, **overrides: object) -> EventBasedSocialNetwork:
    """Generate a synthetic Event-Based Social Network.

    Accepts a full :class:`EBSNConfig` or keyword overrides of its fields.
    """
    if config is None:
        config = EBSNConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise DatasetError("pass either a config object or keyword overrides, not both")

    rng = np.random.default_rng(config.seed)
    network = EventBasedSocialNetwork(num_weekly_slots=config.num_weekly_slots)
    categories = sorted(CATEGORIES)

    # ---------------------------------------------------------------- groups
    group_topics: Dict[str, Tuple[str, ...]] = {}
    for group_index in range(config.num_groups):
        category = categories[int(rng.integers(0, len(categories)))]
        available = list(topics_in_category(category))
        count = int(rng.integers(1, min(3, len(available)) + 1))
        chosen = tuple(rng.choice(available, size=count, replace=False).tolist())
        group = Group(id=f"g{group_index}", category=category, topics=chosen)
        network.add_group(group)
        group_topics[group.id] = chosen
    group_ids = [group.id for group in network.groups()]
    group_weights = _zipf_weights(len(group_ids), config.group_popularity_exponent)

    # --------------------------------------------------------------- members
    all_topic_pool = [topic for topics in CATEGORIES.values() for topic in topics]
    low_groups, high_groups = config.groups_per_member_range
    memberships: Dict[str, List[str]] = {}
    for member_index in range(config.num_members):
        member_id = f"m{member_index}"
        count = int(rng.integers(low_groups, high_groups + 1)) if high_groups > 0 else 0
        count = min(count, len(group_ids))
        joined = (
            list(rng.choice(group_ids, size=count, replace=False, p=group_weights))
            if count
            else []
        )
        declared: List[str] = []
        for group_id in joined:
            for topic in group_topics[group_id]:
                if topic not in declared:
                    declared.append(topic)
        extras = rng.choice(all_topic_pool, size=config.extra_topics_per_member, replace=False)
        for topic in extras:
            if topic not in declared:
                declared.append(str(topic))
        network.add_member(Member(id=member_id, topics=tuple(declared)))
        memberships[member_id] = joined
    for member_id, joined in memberships.items():
        for group_id in joined:
            network.add_membership(member_id, group_id)

    # ------------------------------------------------------------ past events
    topic_low, topic_high = config.topics_per_event
    for event_index in range(config.num_past_events):
        group_id = str(rng.choice(group_ids, p=group_weights))
        base_topics = list(group_topics[group_id])
        count = int(rng.integers(topic_low, topic_high + 1))
        if count <= len(base_topics):
            chosen = rng.choice(base_topics, size=max(count, 1), replace=False).tolist()
        else:
            extras = rng.choice(all_topic_pool, size=count - len(base_topics), replace=True).tolist()
            chosen = base_topics + [str(topic) for topic in extras]
        event = SocialEvent(
            id=f"pe{event_index}",
            group_id=group_id,
            topics=tuple(dict.fromkeys(chosen)),
            slot=int(rng.integers(0, config.num_weekly_slots)),
            venue=f"venue{int(rng.integers(0, config.num_venues))}",
        )
        network.add_event(event)

    # ---------------------------------------------------------------- RSVPs
    for event in network.events():
        for member_id in sorted(network.members_of_group(event.group_id)):
            member_topics = set(network.member(member_id).topics)
            overlap = len(member_topics.intersection(event.topics))
            probability = min(1.0, config.rsvp_probability * (1.0 + overlap))
            if rng.random() < probability:
                network.add_rsvp(Rsvp(member_id=member_id, event_id=event.id, attending=True))

    # -------------------------------------------------------------- check-ins
    slot_low, slot_high = config.preferred_slots_per_member
    checkin_low, checkin_high = config.checkins_per_member_range
    # Evenings / weekend slots (last third of the week grid) are globally more popular.
    base_slot_weights = np.ones(config.num_weekly_slots, dtype=np.float64)
    popular_start = (2 * config.num_weekly_slots) // 3
    base_slot_weights[popular_start:] = 2.5
    base_slot_weights /= base_slot_weights.sum()
    for member in network.members():
        preferred_count = int(rng.integers(slot_low, slot_high + 1)) if slot_high else 0
        preferred_count = max(1, min(preferred_count, config.num_weekly_slots))
        preferred = rng.choice(
            config.num_weekly_slots, size=preferred_count, replace=False, p=base_slot_weights
        )
        weights = np.full(config.num_weekly_slots, 0.2, dtype=np.float64)
        weights[preferred] = 3.0
        weights /= weights.sum()
        total_checkins = int(rng.integers(checkin_low, checkin_high + 1))
        slots = rng.choice(config.num_weekly_slots, size=total_checkins, p=weights)
        for slot in slots:
            network.add_checkin(CheckIn(member_id=member.id, slot=int(slot)))

    return network


def sample_event_topics(
    rng: np.random.Generator,
    count: int,
    *,
    topics_per_event: Tuple[int, int] = (1, 3),
    category_bias: Optional[Sequence[str]] = None,
) -> List[Tuple[str, ...]]:
    """Draw topic tuples for ``count`` candidate/competing events.

    ``category_bias`` restricts sampling to topics of the given categories
    (e.g. a music festival's candidate events are mostly "music" + "arts").
    """
    if category_bias:
        pool = [topic for category in category_bias for topic in topics_in_category(category)]
    else:
        pool = [topic for topics in CATEGORIES.values() for topic in topics]
    low, high = topics_per_event
    result: List[Tuple[str, ...]] = []
    for _ in range(count):
        size = int(rng.integers(low, high + 1))
        size = max(1, min(size, len(pool)))
        chosen = rng.choice(pool, size=size, replace=False)
        result.append(tuple(str(topic) for topic in chosen))
    return result
