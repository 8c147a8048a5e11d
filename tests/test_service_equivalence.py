"""Mutation-equivalence property suite for the online scheduling service.

The service's design contract (`src/repro/service/session.py`) is
**bit-identity**: after any sequence of mutations, a warm
:meth:`~repro.service.session.SchedulingSession.resolve` must return exactly
the schedule, utilities and initial score grid of a cold
:func:`~repro.algorithms.registry.run_scheduler` call on the mutated
instance with the same locked assignments.  This suite proves it the
property-testing way:

* randomized, seeded mutation sequences — add/remove events, interest
  updates (values drawn from a ``repro.ebsn``-derived affinity pool, the
  same model real deployments would refresh µ from), locks/unlocks and
  interval-capacity changes — are replayed through one live session;
* after every few mutations the session re-solves with a rotating
  algorithm, and the result is cross-checked cell-by-cell against a cold
  solve plus a fresh :class:`~repro.core.scoring.ScoringEngine` grid.

Every test runs once per :data:`CONFIGURATIONS` entry — a storage × plan
``layout`` (``tests/conftest.py``), a scoring path and the execution knobs
the session and the cold reference share.  The cold references always score
on the engine's bulk path, so the ``oracle`` entry, whose session scores
pair by pair (``tests/oracle.py``), checks the per-pair path against it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Iterator

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.core import scoring
from repro.core.entities import Event
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.patterns import mine_structure, user_groups
from repro.core.scoring import ScoringEngine, build_event_rows, build_static_arrays
from repro.core.storage import DENSE_CAPACITY_ENV, DenseStore, SparseStore, unit_values
from repro.ebsn.generator import EBSNConfig, generate_network, sample_event_topics
from repro.ebsn.interest_model import derive_interest_matrix
from repro.service import (
    AddEvent,
    LockAssignment,
    MutationError,
    RemoveEvent,
    SchedulingSession,
    SetIntervalCapacity,
    UnlockAssignment,
    UpdateInterest,
)

from tests.oracle import ORACLE, SCORING_PATHS, bulk_scoring

#: ``(layout, scoring path, execution knobs)`` the whole suite runs under:
#: the library default; the per-pair oracle; the bulk path walking the event
#: axis in ragged blocks of three; every storage on the direct plan; and the
#: blocked plan on dense and on mmap storage (blocked instances get
#: duplicate-heavy users).
CONFIGURATIONS = [
    pytest.param("dense-direct", "batch", {}, id="dense-direct-batch"),
    pytest.param("dense-direct", ORACLE, {}, id="dense-direct-oracle"),
    pytest.param("dense-direct", "batch", {"chunk_size": 3}, id="dense-direct-batch-chunk3"),
    pytest.param("sparse-direct", "batch", {}, id="sparse-direct-batch"),
    pytest.param("mmap-direct", "batch", {}, id="mmap-direct-batch"),
    pytest.param("dense-blocked", "batch", {}, id="dense-blocked-batch"),
    pytest.param("mmap-blocked", "batch", {}, id="mmap-blocked-batch"),
]

pytestmark = pytest.mark.parametrize(
    "layout, path, knobs", CONFIGURATIONS, indirect=["layout"]
)


@pytest.fixture
def execution(layout, path, knobs) -> Iterator[ExecutionConfig]:
    """The execution config of both the session and the cold reference.

    The test runs on the entry's scoring path throughout.
    """
    with SCORING_PATHS[path]():
        yield layout.execution(**knobs)


#: Algorithms the replay rotates through (every grid-consuming scheduler).
ALGORITHMS = ("INC", "ALG", "HOR", "HOR-I", "TOP")


@functools.lru_cache(maxsize=4)
def interest_pool(num_users: int) -> np.ndarray:
    """A ``num_users × 32`` pool of EBSN-derived affinities in ``[0, 1]``.

    Columns seed :class:`AddEvent` interest vectors; individual cells seed
    :class:`UpdateInterest` values — so the mutation traffic carries the
    paper's interest model, not uniform noise.
    """
    network = generate_network(
        EBSNConfig(
            num_members=num_users,
            num_groups=8,
            num_past_events=30,
            num_weekly_slots=14,
            seed=9,
        )
    )
    rng = np.random.default_rng(9)
    topics = sample_event_topics(rng, 32)
    return derive_interest_matrix(network, topics, rng=rng)


@contextlib.contextmanager
def cold_instance(session: SchedulingSession) -> Iterator[SESInstance]:
    """A copy of the session's current instance that mines its own structure.

    The session carries its interest structure from resolve to resolve; a
    reference solved on the session's own instance would share that memo
    and could not catch a wrong one.
    """
    instance = dataclasses.replace(session.instance())
    assert instance._interest_structure is None
    yield instance
    mined = instance._interest_structure
    assert mined is None or mined is not session.instance()._interest_structure


def cold_solve(session: SchedulingSession, k: int, algorithm: str, seed: int, execution):
    """A cold one-shot solve of the session's current instance and locks."""
    with cold_instance(session) as instance, bulk_scoring():
        locked = sorted(
            (instance.event_index(event_id), instance.interval_index(interval_id))
            for event_id, interval_id in session.locks().items()
        )
        return run_scheduler(
            algorithm, instance, k, seed=seed, execution=execution, locked=locked
        )


def cold_initial_grid(session: SchedulingSession, execution) -> np.ndarray:
    """The initial |E| × |T| grid a fresh engine computes after the locks."""
    with cold_instance(session) as instance, bulk_scoring():
        engine = ScoringEngine(instance, execution=execution)
        for event_id, interval_id in sorted(session.locks().items()):
            engine.apply(instance.event_index(event_id), instance.interval_index(interval_id))
        return engine.score_matrix(initial=True, count=False)


def assert_structure_is_fresh(session: SchedulingSession) -> None:
    """The session instance's structure, if it has one, equals a fresh mine."""
    instance = session.instance()
    carried = instance._interest_structure
    if carried is None:
        return
    comp, sigma, values, _ = build_static_arrays(instance)
    fresh = mine_structure(build_event_rows(instance.interest.store, values), sigma, comp, 3)
    assert np.array_equal(carried.labels, fresh.labels)
    assert np.array_equal(carried.representatives, fresh.representatives)
    assert np.array_equal(carried.counts, fresh.counts)


def assert_resolve_matches_cold(session, k, algorithm, seed, execution):
    """One warm resolve must be bit-identical to one cold solve."""
    warm = session.resolve(k, algorithm=algorithm)
    assert_structure_is_fresh(session)
    cold = cold_solve(session, k, algorithm, seed, execution)
    assert warm.schedule.as_dict() == cold.schedule.as_dict()
    assert warm.utility == cold.utility
    assert warm.net_utility == cold.net_utility
    grid = session.baseline_grid()
    if grid is not None:
        assert np.array_equal(grid, cold_initial_grid(session, execution))
    return warm


def random_mutation(rng, session, pool, fresh_ids):
    """Draw one plausible mutation against the session's current state."""
    instance = session.instance()
    event_ids = [event.id for event in instance.events]
    interval_ids = [interval.id for interval in instance.intervals]
    user_ids = [user.id for user in instance.users]
    locks = session.locks()
    kind = rng.choice(
        ["add", "remove", "interest", "lock", "unlock", "capacity"],
        p=[0.15, 0.10, 0.35, 0.20, 0.10, 0.10],
    )
    if kind == "add":
        new_id = f"x{next(fresh_ids)}"
        location = instance.events[int(rng.integers(len(event_ids)))].location
        column = pool[:, int(rng.integers(pool.shape[1]))]
        return AddEvent(
            event=Event(
                id=new_id,
                location=location,
                required_resources=float(rng.uniform(0.5, 2.0)),
            ),
            interest=tuple(float(value) for value in column),
        )
    if kind == "remove":
        return RemoveEvent(event_id=str(rng.choice(event_ids)))
    if kind == "interest":
        user_id = str(rng.choice(user_ids))
        chosen = rng.choice(event_ids, size=min(3, len(event_ids)), replace=False)
        user_index = instance.user_index(user_id)
        values = {
            str(event_id): float(pool[user_index, int(rng.integers(pool.shape[1]))])
            for event_id in chosen
        }
        return UpdateInterest(user_id=user_id, values=values)
    if kind == "lock":
        return LockAssignment(
            event_id=str(rng.choice(event_ids)),
            interval_id=str(rng.choice(interval_ids)),
        )
    if kind == "unlock":
        if locks:
            return UnlockAssignment(event_id=str(rng.choice(sorted(locks))))
        return UnlockAssignment(event_id=str(rng.choice(event_ids)))
    capacity = rng.choice([None, 1, 2, 3])
    return SetIntervalCapacity(
        interval_id=str(rng.choice(interval_ids)),
        capacity=None if capacity is None else int(capacity),
    )


class TestConfiguration:
    def test_resolve_runs_on_the_configured_layout(self, layout, execution):
        """A resolve records the configured plan and storage: no
        configuration silently falls back to the library default."""
        instance = layout.instance(seed=81, num_users=30, num_events=9, num_intervals=3)
        session = SchedulingSession(instance, seed=81, execution=execution)
        result = session.resolve(4)
        assert (result.storage, result.plan) == (layout.storage, layout.plan)


class TestRandomizedReplay:
    """Seeded mutation sequences: warm resolves ≡ cold solves throughout."""

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_replay_matches_cold(self, seed, layout, execution):
        instance = layout.instance(
            seed=seed, num_users=40, num_events=10, num_intervals=4, num_competing=6
        )
        session = SchedulingSession(
            instance, algorithm="INC", seed=seed, execution=execution
        )
        pool = interest_pool(40)
        rng = np.random.default_rng(seed)
        fresh_ids = iter(range(1000))
        applied = rejected = resolves = 0
        # A cold first resolve anchors the baseline grid the warm path patches.
        assert_resolve_matches_cold(session, 6, "INC", seed, execution)
        for step in range(14):
            mutation = random_mutation(rng, session, pool, fresh_ids)
            try:
                session.apply([mutation])
                applied += 1
            except MutationError:
                # Randomly drawn locks/removals may legitimately violate the
                # constraints; a reject must leave the session consistent,
                # which the next resolve's cold cross-check proves.
                rejected += 1
            if step % 2 == 1:
                algorithm = ALGORITHMS[resolves % len(ALGORITHMS)]
                resolves += 1
                assert_resolve_matches_cold(session, 6, algorithm, seed, execution)
        assert applied >= 5  # the trace must carry real mutation traffic
        snapshot = session.stats.snapshot()
        assert snapshot["mutation_batches"] == applied
        assert snapshot["resolves_total"] == resolves + 1

    def test_batched_mutations_match_cold(self, layout, execution):
        """Multi-mutation atomic batches reach the same state as cold."""
        instance = layout.instance(seed=5, num_users=30, num_events=8, num_intervals=4)
        session = SchedulingSession(instance, seed=5, execution=execution)
        pool = interest_pool(30)
        session.resolve(5)
        assert_structure_is_fresh(session)
        events = [event.id for event in instance.events]
        users = [user.id for user in instance.users]
        session.apply(
            [
                UpdateInterest(user_id=users[0], values={events[0]: float(pool[0, 0])}),
                UpdateInterest(user_id=users[1], values={events[2]: float(pool[1, 1])}),
                LockAssignment(event_id=events[3], interval_id="t1"),
                SetIntervalCapacity(interval_id="t0", capacity=2),
            ]
        )
        for algorithm in ALGORITHMS:
            assert_resolve_matches_cold(session, 5, algorithm, 5, execution)


class TestStructuralMutations:
    """Add/remove events keep the cached grid aligned with the instance."""

    def test_add_then_resolve_matches_cold(self, layout, execution):
        instance = layout.instance(seed=21, num_users=40, num_events=9, num_intervals=4)
        session = SchedulingSession(instance, seed=21, execution=execution)
        pool = interest_pool(40)
        session.resolve(5)
        assert_structure_is_fresh(session)
        session.apply(
            [
                AddEvent(
                    event=Event(id="x0", location="loc1", required_resources=1.0),
                    interest=tuple(float(v) for v in pool[:, 3]),
                )
            ]
        )
        warm = assert_resolve_matches_cold(session, 5, "INC", 21, execution)
        assert warm.service["warm"] is True

    def test_add_then_remove_restores_cold_schedule(self, layout, execution):
        """Adding and removing an event must land back on the original result."""
        instance = layout.instance(seed=22, num_users=40, num_events=9, num_intervals=4)
        session = SchedulingSession(instance, seed=22, execution=execution)
        pool = interest_pool(40)
        original = session.resolve(5)
        assert_structure_is_fresh(session)
        session.apply(
            [
                AddEvent(
                    event=Event(id="x0", location="loc0", required_resources=1.0),
                    interest=tuple(float(v) for v in pool[:, 5]),
                )
            ]
        )
        session.resolve(5)
        assert_structure_is_fresh(session)
        session.apply([RemoveEvent(event_id="x0")])
        roundtrip = assert_resolve_matches_cold(session, 5, "INC", 22, execution)
        assert roundtrip.schedule.as_dict() == original.schedule.as_dict()
        assert roundtrip.utility == original.utility


    def test_valued_event_round_trip_switches_kernel_path(self, layout, execution):
        """A value-2.0 event moves the instance off unit values and back.

        The engine takes the general kernel path while the event exists and
        the unit-value path before and after; every resolve on the way
        matches a cold solve, and the round trip lands on the original result.
        """
        instance = layout.instance(seed=23, num_users=40, num_events=9, num_intervals=4)
        session = SchedulingSession(instance, seed=23, execution=execution)
        pool = interest_pool(40)
        original = assert_resolve_matches_cold(session, 5, "INC", 23, execution)
        session.apply(
            [
                AddEvent(
                    event=Event(id="x0", location="loc2", required_resources=1.0, value=2.0),
                    interest=tuple(float(v) for v in pool[:, 7]),
                )
            ]
        )
        assert not unit_values(session.instance().event_values())
        for algorithm in ALGORITHMS:
            assert_resolve_matches_cold(session, 5, algorithm, 23, execution)
        session.apply([RemoveEvent(event_id="x0")])
        assert unit_values(session.instance().event_values())
        for algorithm in ALGORITHMS:
            roundtrip = assert_resolve_matches_cold(session, 5, algorithm, 23, execution)
            if algorithm == "INC":
                assert roundtrip.schedule.as_dict() == original.schedule.as_dict()
                assert roundtrip.utility == original.utility


class TestNonGridAlgorithms:
    """RAND / EXACT resolve through the session with identical results."""

    def test_rand_and_exact_match_cold(self, layout, execution):
        instance = layout.instance(
            seed=7, num_users=20, num_events=5, num_intervals=2, num_competing=4
        )
        session = SchedulingSession(instance, seed=11, execution=execution)
        events = [event.id for event in instance.events]
        session.apply([LockAssignment(event_id=events[0], interval_id="t0")])
        for algorithm in ("RAND", "EXACT"):
            warm = session.resolve(2, algorithm=algorithm)
            cold = cold_solve(session, 2, algorithm, 11, execution)
            assert warm.schedule.as_dict() == cold.schedule.as_dict()
            assert warm.utility == cold.utility


class TestAtomicityAndSavedWork:
    def test_rejected_batch_leaves_session_unchanged(self, layout, execution):
        instance = layout.instance(seed=31, num_users=30, num_events=8, num_intervals=4)
        session = SchedulingSession(instance, seed=31, execution=execution)
        session.resolve(5)
        before_status = session.status()
        before_schedule = session.last_schedule()
        users = [user.id for user in instance.users]
        events = [event.id for event in instance.events]
        with pytest.raises(MutationError):
            session.apply(
                [
                    # Valid head, invalid tail: the whole batch must roll back.
                    UpdateInterest(user_id=users[0], values={events[0]: 0.5}),
                    RemoveEvent(event_id="no-such-event"),
                ]
            )
        assert session.status() == before_status
        assert session.last_schedule() == before_schedule
        assert_resolve_matches_cold(session, 5, "INC", 31, execution)

    def test_warm_resolve_saves_work(self, layout, execution):
        instance = layout.instance(seed=41, num_users=50, num_events=12, num_intervals=5)
        session = SchedulingSession(instance, seed=41, execution=execution)
        first = session.resolve(6)
        assert first.service["warm"] is False
        assert first.service["scores_saved"] == 0
        users = [user.id for user in instance.users]
        events = [event.id for event in instance.events]
        session.apply([UpdateInterest(user_id=users[0], values={events[0]: 0.5})])
        second = assert_resolve_matches_cold(session, 6, "INC", 41, execution)
        assert second.service["warm"] is True
        # One stale row out of twelve: most of the grid must be reused.
        assert second.service["scores_saved"] > second.service["scores_recomputed"]
        snapshot = session.stats.snapshot()
        assert snapshot["resolves_total"] == 2
        assert snapshot["warm_resolves"] == 1
        assert snapshot["scores_saved"] == second.service["scores_saved"]
        assert second.summary()["service"]["warm"] is True


def journals_equal(left, right) -> bool:
    """Whether two store journals hold the same ops (columns compared by value)."""
    return len(left) == len(right) and all(
        a_kind == b_kind and np.array_equal(np.asarray(a_load), np.asarray(b_load))
        for (a_kind, a_load), (b_kind, b_load) in zip(left, right)
    )


class TestStoreJournal:
    """Mutations journal µ rewrites; a resolve materialises them once, in order."""

    def test_interest_batches_rewrite_no_store_until_resolve(
        self, layout, execution, monkeypatch
    ):
        instance = layout.instance(seed=51, num_users=30, num_events=8, num_intervals=4)
        session = SchedulingSession(instance, seed=51, execution=execution)
        session.resolve(5)
        assert_structure_is_fresh(session)
        calls = {"with_entries": 0, "with_appended_items": 0, "without_item": 0}
        for name in calls:
            original = getattr(InterestMatrix, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(InterestMatrix, name, counted)
        users = [user.id for user in instance.users]
        events = [event.id for event in instance.events]
        for step in range(6):
            session.apply(
                [
                    UpdateInterest(
                        user_id=users[step], values={events[step]: 0.1 * step}
                    ),
                    UpdateInterest(user_id=users[step + 1], values={events[0]: 0.5}),
                ]
            )
        assert calls == {"with_entries": 0, "with_appended_items": 0, "without_item": 0}
        warm = session.resolve(5, algorithm="INC")
        assert calls == {"with_entries": 1, "with_appended_items": 0, "without_item": 0}
        assert_structure_is_fresh(session)
        cold = cold_solve(session, 5, "INC", 51, execution)
        assert warm.schedule.as_dict() == cold.schedule.as_dict()
        assert warm.utility == cold.utility
        assert np.array_equal(session.baseline_grid(), cold_initial_grid(session, execution))

    def test_a_run_of_appends_is_one_store_rewrite(self, layout, execution, monkeypatch):
        """A 100-add journal appends one block, equal to one-at-a-time appends."""
        instance = layout.instance(seed=71, num_users=30, num_events=8, num_intervals=4)
        session = SchedulingSession(instance, seed=71, execution=execution)
        rng = np.random.default_rng(71)
        columns = rng.random((30, 100))
        columns[rng.random(columns.shape) < 0.5] = 0.0
        expected = instance.interest
        for index in range(columns.shape[1]):
            expected = expected.with_appended_items(columns[:, index : index + 1])
        calls = []
        for store in (DenseStore, SparseStore):

            def counted(self, block, _original=store.with_appended_items):
                calls.append(np.shape(block))
                return _original(self, block)

            monkeypatch.setattr(store, "with_appended_items", counted)
        for index in range(columns.shape[1]):
            event = Event(id=f"x{index}", location="loc1", required_resources=1.0)
            session.apply([AddEvent(event=event, interest=tuple(columns[:, index]))])
        replayed = session.instance().interest
        assert calls == [(30, 100)]
        assert type(replayed.store) is type(expected.store)
        assert np.array_equal(replayed.values, expected.values)
        if isinstance(expected.store, SparseStore):
            for left, right in zip(replayed.store.csr_arrays, expected.store.csr_arrays):
                assert np.array_equal(left, right)

    @pytest.mark.parametrize(
        "case",
        ["same-cell-twice", "update-then-remove", "add-then-update", "remove-then-add"],
    )
    def test_cross_batch_order_matches_cold(self, case, layout, execution):
        """Journaled ops from separate batches replay in apply order."""
        instance = layout.instance(seed=61, num_users=40, num_events=8, num_intervals=4)
        session = SchedulingSession(instance, seed=61, execution=execution)
        session.resolve(5)
        assert_structure_is_fresh(session)
        pool = interest_pool(40)
        column = tuple(float(v) for v in pool[:, 4])
        user = instance.users[3].id
        events = [event.id for event in instance.events]
        expected = np.array(instance.interest.values, copy=True)
        new_event = Event(id="x0", location="loc1", required_resources=1.0)
        if case == "same-cell-twice":
            batches = [
                [UpdateInterest(user_id=user, values={events[2]: 0.25})],
                [UpdateInterest(user_id=user, values={events[2]: 0.75})],
            ]
            expected[3, 2] = 0.75
        elif case == "update-then-remove":
            batches = [
                [UpdateInterest(user_id=user, values={events[2]: 0.9, events[5]: 0.1})],
                [RemoveEvent(event_id=events[2])],
            ]
            expected[3, 5] = 0.1
            expected = np.delete(expected, 2, axis=1)
        elif case == "add-then-update":
            batches = [
                [AddEvent(event=new_event, interest=column)],
                [UpdateInterest(user_id=user, values={"x0": 0.0, events[1]: 0.6})],
            ]
            expected = np.column_stack([expected, column])
            expected[3, -1] = 0.0
            expected[3, 1] = 0.6
        else:
            batches = [
                [RemoveEvent(event_id=events[0])],
                [AddEvent(event=new_event, interest=column)],
                [UpdateInterest(user_id=user, values={events[1]: 0.3})],
            ]
            expected = np.column_stack([np.delete(expected, 0, axis=1), column])
            expected[3, 0] = 0.3
        for batch in batches:
            session.apply(batch)
        assert np.array_equal(session.instance().interest.values, expected)
        for algorithm in ALGORITHMS:
            assert_resolve_matches_cold(session, 5, algorithm, 61, execution)

    def test_rejected_batch_between_commits_leaves_no_trace(self, layout, execution):
        instance = layout.instance(seed=71, num_users=30, num_events=8, num_intervals=4)
        pool = interest_pool(30)
        users = [user.id for user in instance.users]
        events = [event.id for event in instance.events]
        first = [
            UpdateInterest(user_id=users[0], values={events[1]: 0.4}),
            AddEvent(
                event=Event(id="x0", location="loc2", required_resources=1.0),
                interest=tuple(float(v) for v in pool[:, 2]),
            ),
        ]
        rejected = [
            UpdateInterest(user_id=users[1], values={events[2]: 0.8}),
            AddEvent(
                event=Event(id="x1", location="loc0"),
                interest=tuple(float(v) for v in pool[:, 3]),
            ),
            RemoveEvent(event_id=events[0]),
            UpdateInterest(user_id=users[2], values={"x1": 2.0}),  # outside [0, 1]
        ]
        second = [
            RemoveEvent(event_id=events[3]),
            UpdateInterest(user_id=users[4], values={"x0": 0.1}),
        ]
        session = SchedulingSession(instance, seed=71, execution=execution)
        twin = SchedulingSession(instance, seed=71, execution=execution)
        for live in (session, twin):
            live.resolve(5)
            assert_structure_is_fresh(live)
            live.apply(first)
        with pytest.raises(MutationError):
            session.apply(rejected)
        for live in (session, twin):
            live.apply(second)
        assert journals_equal(session._journal, twin._journal)
        assert session.status() == twin.status()
        result = assert_resolve_matches_cold(session, 5, "INC", 71, execution)
        twin_result = twin.resolve(5)
        assert_structure_is_fresh(twin)
        assert result.schedule.as_dict() == twin_result.schedule.as_dict()
        assert result.utility == twin_result.utility
        assert result.counters == twin_result.counters
        assert session.status() == twin.status()


class TestCarriedStructure:
    """A resolve carries the previous instance's structure instead of re-mining it."""

    def test_mixed_trace_mines_once_plus_once_per_remove(self, layout, execution, monkeypatch):
        mines = []
        original = scoring.mine_structure

        def counting(*args, **kwargs):
            mines.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scoring, "mine_structure", counting)
        instance = layout.instance(seed=91, num_users=40, num_events=9, num_intervals=4)
        session = SchedulingSession(instance, algorithm="INC", seed=91, execution=execution)
        session.resolve(5)
        assert len(mines) == 1
        pool = interest_pool(40)
        users = [user.id for user in instance.users]
        events = [event.id for event in instance.events]

        def added(name: str, column: int) -> AddEvent:
            return AddEvent(
                event=Event(id=name, location="loc1", required_resources=1.0),
                interest=tuple(float(v) for v in pool[:, column]),
            )

        # A pair of users with equal σ and competing rows, if the instance has
        # one (duplicate-heavy blocked instances do): the first leaves its
        # class, then copies the second's µ row and must land in its class.
        comp, sigma, _, _ = build_static_arrays(instance)
        groups = user_groups(sigma, comp)
        pair = next(
            ((a, b) for a in range(len(users)) for b in range(a + 1, len(users))
             if groups[a] == groups[b]),
            (4, 6),
        )

        def copy_row(target: int, source: int) -> UpdateInterest:
            """``users[target]`` takes ``users[source]``'s current µ row."""
            current = session.instance()
            row = current.interest.values[source]
            values = {event.id: float(row[i]) for i, event in enumerate(current.events)}
            return UpdateInterest(user_id=users[target], values=values)

        expected = 1

        def apply_and_resolve(batch, removes: bool) -> None:
            nonlocal expected
            session.apply(batch)
            session.resolve(5)
            expected += removes
            assert len(mines) == expected
            assert session.instance()._interest_structure is not None
            assert_structure_is_fresh(session)

        leave = {events[0]: 0.5, events[3]: 0.0}
        for batch, removes in [
            ([SetIntervalCapacity(interval_id="t0", capacity=3)], False),
            ([LockAssignment(event_id=events[1], interval_id="t2")], False),
            ([UpdateInterest(user_id=users[pair[0]], values=leave)], False),
            ([added("x0", 1)], False),
            ([UnlockAssignment(event_id=events[1])], False),
            ([RemoveEvent(event_id=events[2])], True),
            ([UpdateInterest(user_id=users[7], values={"x0": 0.25}), added("x1", 2)], False),
            ([added("x2", 3), RemoveEvent(event_id="x1")], True),
            ([SetIntervalCapacity(interval_id="t0", capacity=None)], False),
        ]:
            apply_and_resolve(batch, removes)
        apply_and_resolve([copy_row(*pair)], False)
        labels = session.instance()._interest_structure.labels
        assert (labels[pair[0]] == labels[pair[1]]) == (groups[pair[0]] == groups[pair[1]])

    def test_only_an_existing_structure_is_carried(self, layout, execution):
        """ALG on the direct plan never mines, and no rebuild invents a structure."""
        instance = layout.instance(seed=92, num_users=30, num_events=8, num_intervals=4)
        session = SchedulingSession(instance, algorithm="ALG", seed=92, execution=execution)
        users = [user.id for user in instance.users]
        events = [event.id for event in instance.events]
        for step in range(3):
            session.apply([UpdateInterest(user_id=users[step], values={events[step]: 0.5})])
            session.resolve(4)
            carried = session.instance()._interest_structure
            assert (carried is not None) == (layout.plan == "blocked")
            assert_structure_is_fresh(session)


class TestApplyTimeValidation:
    """Whatever a journal replay could reject is rejected by ``apply``."""

    @pytest.mark.parametrize(
        "values",
        [{"e0": "abc"}, {"e0": True}, {"e0": None}, {"e0": float("nan")}, None, [1]],
        ids=["string", "bool", "none-value", "nan", "none", "list"],
    )
    def test_bad_interest_values_are_rejected(self, values, layout, execution):
        instance = layout.instance(seed=81, num_users=20, num_events=6, num_intervals=3)
        session = SchedulingSession(instance, seed=81, execution=execution)
        session.apply([UpdateInterest(user_id="u0", values={"e1": 0.5})])
        before = session.status()
        journal = list(session._journal)
        with pytest.raises(MutationError):
            session.apply([UpdateInterest(user_id="u1", values=values)])
        assert session.status() == before
        assert journals_equal(session._journal, journal)
        assert_resolve_matches_cold(session, 3, "INC", 81, execution)

    @pytest.mark.parametrize(
        "column",
        [("0.5",) * 20, (True,) * 20, (0.5,) * 19, (0.5,) * 19 + (1.5,), None],
        ids=["strings", "bools", "short", "out-of-range", "none"],
    )
    def test_bad_add_event_column_is_rejected(self, column, layout, execution):
        instance = layout.instance(seed=82, num_users=20, num_events=6, num_intervals=3)
        session = SchedulingSession(instance, seed=82, execution=execution)
        before = session.status()
        with pytest.raises(MutationError):
            session.apply(
                [AddEvent(event=Event(id="x0", location="loc0"), interest=column)]
            )
        assert session.status() == before
        assert session._journal == []
        assert_resolve_matches_cold(session, 3, "INC", 82, execution)

    def test_add_event_past_dense_capacity_is_rejected(self, layout, execution, monkeypatch):
        instance = layout.instance(seed=83, num_users=20, num_events=6, num_intervals=3)
        session = SchedulingSession(instance, seed=83, execution=execution)
        monkeypatch.setenv(DENSE_CAPACITY_ENV, str(20 * 6))
        added = AddEvent(event=Event(id="x0", location="loc0"), interest=(0.5,) * 20)
        before = session.status()
        if layout.storage == "dense":
            with pytest.raises(MutationError, match="capacity"):
                session.apply([added])
            assert session.status() == before
            assert session._journal == []
        else:
            session.apply([added])  # sparse and mmap stores have no dense ceiling
        monkeypatch.delenv(DENSE_CAPACITY_ENV)
        assert_resolve_matches_cold(session, 3, "INC", 83, execution)
