"""Storage equivalence: dense, sparse and mmap must be bit-identical.

The storage layer re-represents the interest matrices without changing a
single value, and every bulk plan runs the same ``score_block_kernel`` over
the same event-axis chunks — so scores, utilities, schedules and counters
must be **bit-identical** across storages and across backends.  These tests
pin that down:

* engine-level ``score_matrix`` / ``interval_scores`` equality under every
  storage × plan layout (including against a mutated schedule state);
* scheduler-level equality (schedule, utility, counters) with the dense,
  direct reference under every layout and backend, with the storage and plan
  recorded on the result — on adversarial corners too: a single user,
  all-zero µ, exact score ties, a capacity-1 interval filled by a lock and
  §2.1 event values (the valued corner also runs under every backend and
  block variant).

The ``layout`` fixture (``tests/conftest.py``) enumerates the storage × plan
layouts; every blocked layout runs on duplicate-heavy users and asserts the
plan really evaluated class blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.execution import ExecutionConfig
from repro.core.scoring import ScoringEngine
from tests.conftest import LAYOUTS, execution_variants, make_random_instance

SCHEDULERS = ["ALG", "INC", "HOR", "TOP"]

#: Every layout but the dense, direct reference itself.
OTHER_LAYOUTS = pytest.mark.parametrize("layout", LAYOUTS[1:], indirect=True)

#: Adversarial corners of the scheduler-equivalence test: the instance config
#: and the locked ``(event, interval)`` pairs.
CORNERS = {
    "random": (dict(seed=310, num_users=50, num_events=16, num_intervals=5), ()),
    "single-user": (dict(seed=311, num_users=1, num_events=10, num_intervals=4), ()),
    "zero-interest": (
        dict(seed=312, num_users=24, num_events=10, num_intervals=4, interest_scale=0.0),
        (),
    ),
    # Two user patterns and two interest levels: at most four distinct event
    # columns among twelve events, so scores tie exactly.
    "exact-ties": (
        dict(
            seed=313,
            num_users=8,
            num_events=12,
            num_intervals=4,
            users_per_pattern=4,
            interest_levels=2,
        ),
        (),
    ),
    # Interval t0 holds one event, and a lock fills it before the run.
    "full-interval": (
        dict(
            seed=314,
            num_users=24,
            num_events=10,
            num_intervals=4,
            capacities=[1, None, None, None],
        ),
        ((2, 0),),
    ),
    # §2.1 event values: the kernel's general (valued) path, which the
    # paper's unit-value instances elsewhere in the suite never take.
    "event-values": (
        dict(
            seed=315,
            num_users=24,
            num_events=12,
            num_intervals=4,
            event_values=list(np.linspace(0.5, 2.0, 12)),
        ),
        (),
    ),
}

#: Every layout × corner; a single user leaves the blocked plan nothing to
#: compress (its degenerate fallback has its own test in test_block_plans).
CORNER_CASES = [
    pytest.param(layout, corner, id=f"{layout}-{corner}")
    for layout in LAYOUTS
    for corner in CORNERS
    if not (corner == "single-user" and layout.endswith("-blocked"))
]


# --------------------------------------------------------------------------- #
# Engine-level bit-identity
# --------------------------------------------------------------------------- #
class TestEngineEquivalence:
    @OTHER_LAYOUTS
    @pytest.mark.parametrize("chunk_size", [1, 5, None])
    def test_score_matrix_bit_identical(self, layout, chunk_size):
        instance = layout.instance(
            seed=300, num_users=40, num_events=18, num_intervals=5
        )
        reference = ScoringEngine(
            instance.with_storage("dense"),
            execution=ExecutionConfig(chunk_size=chunk_size),
        )
        engine = ScoringEngine(instance, execution=layout.execution(chunk_size=chunk_size))
        assert np.array_equal(
            engine.score_matrix(count=False), reference.score_matrix(count=False)
        )
        # ... and against a non-empty schedule state.
        for each in (reference, engine):
            each.apply(3, 1)
            each.apply(9, 2)
        assert np.array_equal(
            engine.score_matrix(count=False), reference.score_matrix(count=False)
        )

    @OTHER_LAYOUTS
    def test_interval_scores_and_subsets_bit_identical(self, layout):
        instance = layout.instance(
            seed=301, num_users=30, num_events=14, num_intervals=4
        )
        reference = ScoringEngine(
            instance.with_storage("dense"), execution=ExecutionConfig(chunk_size=3)
        )
        engine = ScoringEngine(instance, execution=layout.execution(chunk_size=3))
        subset = [11, 2, 7, 2, 0]
        for interval_index in range(4):
            assert np.array_equal(
                engine.interval_scores(interval_index, count=False),
                reference.interval_scores(interval_index, count=False),
            )
            assert np.array_equal(
                engine.interval_scores(interval_index, subset, count=False),
                reference.interval_scores(interval_index, subset, count=False),
            )

    @OTHER_LAYOUTS
    def test_counters_are_storage_invariant(self, layout):
        instance = layout.instance(
            seed=302, num_users=20, num_events=10, num_intervals=3
        )
        snapshots = []
        for each, execution in (
            (instance.with_storage("dense"), ExecutionConfig(chunk_size=4)),
            (instance, layout.execution(chunk_size=4)),
        ):
            engine = ScoringEngine(each, execution=execution)
            engine.score_matrix(initial=True)
            engine.interval_scores(1, [0, 3, 5], initial=False)
            snapshots.append(engine.counter.snapshot())
        assert snapshots[1] == snapshots[0]


# --------------------------------------------------------------------------- #
# Scheduler-level equality across storage x plan x backend
# --------------------------------------------------------------------------- #
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("layout, corner", CORNER_CASES, indirect=["layout"])
    def test_batch_schedulers_storage_invariant(self, layout, corner, scheduler):
        config, locked = CORNERS[corner]
        instance = layout.instance(**config)
        reference = run_scheduler(
            scheduler, instance.with_storage("dense"), 6, locked=locked
        )
        result = run_scheduler(
            scheduler, instance, 6, execution=layout.execution(), locked=locked
        )
        assert result.schedule.as_dict() == reference.schedule.as_dict()
        assert result.utility == reference.utility
        assert result.counters == reference.counters
        assert set(locked) <= set(result.schedule.as_dict().items())
        assert result.storage == layout.storage
        assert result.summary()["storage"] == layout.storage
        assert result.plan == layout.plan

    def test_exact_ties_corner_ties(self):
        """The exact-ties corner must really produce tied initial scores."""
        config, _ = CORNERS["exact-ties"]
        instance = make_random_instance(**config)
        grid = ScoringEngine(instance).score_matrix(count=False)
        assert np.unique(grid[:, 0]).size < instance.num_events

    def test_full_interval_corner_is_full(self):
        """The full-interval corner's lock must leave no room in t0."""
        config, locked = CORNERS["full-interval"]
        result = run_scheduler("ALG", make_random_instance(**config), 6, locked=locked)
        schedule = result.schedule.as_dict()
        assert [event for event, interval in schedule.items() if interval == 0] == [2]

    @pytest.mark.parametrize("variant", execution_variants())
    @pytest.mark.parametrize("layout", LAYOUTS, indirect=True)
    def test_event_values_corner_under_every_backend(self, layout, variant, execution_for):
        """The valued kernel path under every layout × backend, fan-out included."""
        config, locked = CORNERS["event-values"]
        instance = layout.instance(**config)
        execution = execution_for(variant, plan=layout.plan)
        for scheduler in ("ALG", "HOR-I"):
            reference = run_scheduler(scheduler, instance.with_storage("dense"), 6)
            result = run_scheduler(scheduler, instance, 6, execution=execution)
            assert result.schedule.as_dict() == reference.schedule.as_dict()
            assert result.utility == reference.utility
            assert result.net_utility == reference.net_utility
            assert result.counters == reference.counters
