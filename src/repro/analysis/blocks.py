"""Interest-pattern block decomposition of an instance (structure mining).

The user–event interest matrix of an EBSN instance is a bipartite graph, and
real instances (and our generators) are full of users with *identical*
interest rows — communities that share one candidate set and one interest
pattern.  Every scoring kernel in the library computes per-user attendance
terms, so duplicate rows mean duplicate arithmetic: if ``|U|`` users collapse
to ``P`` distinct patterns, a block evaluation only needs ``P`` genuine
columns and a cheap expansion.

This module is the block-decomposition subsystem's analysis entry point.
:func:`mine_interest_structure` finds the exact user equivalence classes —
users whose µ rows, σ rows and competing-interest rows are all identical —
via the chunked lexsort partition refinement of :mod:`repro.core.patterns`
(re-exported here).  Equivalent users receive identical per-user terms from
every kernel under *every* schedule: identical µ rows imply identical
scheduled sums forever, so the classes never need re-mining as the schedule
grows.  :func:`mine_interest_structure` always mines afresh; the engine and
the ``blocked`` plan read the classes through
:func:`repro.core.scoring.instance_structure`, which mines each instance at
most once and keeps the result on the instance, so the schedulers of one
instance share a single mine.

The structure feeds two consumers: the engine's structural per-interval Φ
bound (:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`, one
genuine term per pattern), and the ``blocked`` scoring plan
(:class:`~repro.core.blocked.BlockedPlan`, selectable everywhere as
``plan="blocked"``): one genuine kernel evaluation per distinct pattern,
expanded by multiplicity before the per-row reduction.  The plan and its
pattern-space row source live in :mod:`repro.core.blocked` and are
re-exported here.
"""

from __future__ import annotations

from typing import Optional

from repro.core.blocked import BlockedPlan, PatternEventRows
from repro.core.execution import resolve_chunk_size
from repro.core.instance import SESInstance
from repro.core.patterns import InterestStructure, mine_structure
from repro.core.scoring import build_event_rows, build_static_arrays


# --------------------------------------------------------------------------- #
# Equivalence-class mining (instance-level façade over repro.core.patterns)
# --------------------------------------------------------------------------- #
def mine_interest_structure(
    instance: SESInstance, *, chunk_size: Optional[int] = None
) -> InterestStructure:
    """Mine the exact user equivalence classes of one instance, afresh.

    Streams the interest matrix event block by event block (each block at
    most ``chunk_size`` events — ``None`` derives the engine's default from
    the memory budget), then refines by the σ and competing-interest rows.
    Works unchanged over every storage: the event-row source
    densifies sparse and mmap stores one block at a time.  Never reads or
    fills the instance's memo (:func:`~repro.core.scoring.instance_structure`),
    so every call really mines with the ``chunk_size`` it is given.
    """
    comp, sigma, values, _ = build_static_arrays(instance)
    event_rows = build_event_rows(instance.interest.store, values)
    chunk = resolve_chunk_size(chunk_size, instance.num_users)
    return mine_structure(event_rows, sigma, comp, chunk)


__all__ = [
    "BlockedPlan",
    "InterestStructure",
    "PatternEventRows",
    "mine_interest_structure",
    "mine_structure",
]
