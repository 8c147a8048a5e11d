"""The "Meetup" dataset substitute: SES instances derived from a simulated EBSN.

The paper's Meetup dataset (California dump from [21]; 42,444 users, ~16K
events) provides topic-based interest values and check-in-derived activity
probabilities.  This module builds an equivalent instance from the synthetic
Event-Based Social Network of :mod:`repro.ebsn`:

1. generate a network (members, interest groups, past events, RSVPs,
   check-ins);
2. sample topic tags for the *candidate* events (the events the organiser
   may schedule) and for the *competing* events;
3. derive the interest matrices from topic overlap + attendance behaviour,
   and the activity matrix from per-slot check-in counts;
4. attach locations, resource requirements and competing-event counts from
   the Table 1 defaults.

The resulting interest matrix is sparse-ish and clustered (most users care
about a handful of topics), which is exactly the structural difference
between the paper's "Meetup" curves and its Uniform synthetic curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.instance import SESInstance
from repro.datasets.params import Table1Config
from repro.ebsn.activity_model import derive_activity_matrix, weekly_slot_for_interval
from repro.ebsn.generator import EBSNConfig, generate_network, sample_event_topics
from repro.ebsn.interest_model import derive_interest_matrix


@dataclass
class MeetupConfig(Table1Config):
    """Configuration of the Meetup-substitute dataset (Table 1 fields plus the EBSN's size)."""

    num_groups: int = 60
    num_past_events: int = 300
    num_weekly_slots: int = 21
    seed: Optional[int] = 23
    name: str = "Meetup"
    ebsn_overrides: Dict[str, object] = field(default_factory=dict)


def generate_meetup(config: Optional[MeetupConfig] = None, **overrides: object) -> SESInstance:
    """Build the Meetup-substitute SES instance.

    Accepts a full :class:`MeetupConfig` or keyword overrides of its fields.
    """
    config = MeetupConfig.resolve(config, overrides)

    rng = np.random.default_rng(config.seed)

    ebsn_config = EBSNConfig(
        num_members=config.num_users,
        num_groups=config.num_groups,
        num_past_events=config.num_past_events,
        num_weekly_slots=config.num_weekly_slots,
        seed=None if config.seed is None else config.seed + 1,
        **config.ebsn_overrides,  # type: ignore[arg-type]
    )
    network = generate_network(ebsn_config)

    # Candidate and competing event topics.
    candidate_topics = sample_event_topics(rng, config.num_events)
    competing_interval_indices = config.draw_competing_intervals(rng)
    competing_topics = sample_event_topics(rng, len(competing_interval_indices))

    # Derived matrices.
    interest = derive_interest_matrix(network, candidate_topics, rng=rng)
    competing_interest = derive_interest_matrix(network, competing_topics, rng=rng)
    interval_slots = [
        weekly_slot_for_interval(interval_index, config.num_weekly_slots)
        for interval_index in range(config.num_intervals)
    ]
    activity = derive_activity_matrix(network, interval_slots, rng=rng)

    metadata: Dict[str, object] = {
        "generator": "meetup-ebsn",
        "network_summary": network.summary(),
        "num_groups": config.num_groups,
        "seed": config.seed,
        "candidate_topics": [list(topics) for topics in candidate_topics],
    }
    return config.assemble(
        rng,
        interest=interest,
        activity=activity,
        competing_interest=competing_interest,
        competing_interval_indices=competing_interval_indices,
        metadata=metadata,
    )
