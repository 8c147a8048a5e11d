"""Shared fixtures for the test suite.

The most important fixture is ``running_example``: the exact instance of the
paper's Figure 1 (four candidate events, two intervals, two competing events,
two users).  Figure 2 of the paper lists the assignment scores ALG computes on
it, which gives us golden values for the scoring engine and for the greedy
algorithms' selections.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.entities import CompetingEvent, Event, Organizer, TimeInterval, User
from repro.core.execution import ExecutionConfig, available_backends
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.scoring import ScoringEngine

#: ``batch`` runs at a forced block size, checked by the backend-invariance
#: suites next to every registered backend name.
#: The default ``chunk_size`` fits the suites' small instances in one block,
#: so without these no invariance suite would walk the event axis in more
#: than one block: ``batch-chunk1`` gives every event row its own block and
#: ``batch-chunk3`` leaves a ragged last block on most instance sizes.
BLOCK_VARIANTS = {"batch-chunk1": 1, "batch-chunk3": 3}


def execution_variants() -> Tuple[str, ...]:
    """Every registered backend name, then the :data:`BLOCK_VARIANTS`."""
    return available_backends() + tuple(BLOCK_VARIANTS)


@pytest.fixture
def execution_for():
    """Build the :class:`ExecutionConfig` of an :func:`execution_variants` name.

    Extra keyword knobs (``plan``, ...) are passed through.
    """

    def build(variant: str, **knobs) -> ExecutionConfig:
        if variant in BLOCK_VARIANTS:
            return ExecutionConfig(backend="batch", chunk_size=BLOCK_VARIANTS[variant], **knobs)
        return ExecutionConfig(backend=variant, **knobs)

    return build


def with_capacities(instance: SESInstance, capacities) -> SESInstance:
    """``instance`` with interval ``t`` capped at ``capacities[t]`` events (``None``: uncapped)."""
    intervals = [
        dataclasses.replace(interval, capacity=capacity)
        for interval, capacity in zip(instance.intervals, capacities)
    ]
    return dataclasses.replace(instance, intervals=intervals)


def make_random_instance(
    *,
    num_users: int = 60,
    num_events: int = 12,
    num_intervals: int = 5,
    num_competing: int = 8,
    num_locations: int = 4,
    available_resources: float = 12.0,
    resource_high: float = 5.0,
    seed: int = 0,
    interest_scale: float = 1.0,
    competing_scale: float = 1.0,
    interest_levels: int = 0,
    users_per_pattern: int = 1,
    capacities=None,
    user_weights=None,
    event_values=None,
    event_costs=None,
) -> SESInstance:
    """Build a random instance with interesting (binding) constraints.

    ``interest_levels > 0`` quantises interest to that many evenly spaced
    values, so equal event columns (and exact score ties) become likely.
    ``interest_scale`` / ``competing_scale`` multiply the drawn µ and
    competing interests.
    ``users_per_pattern > 1`` makes the users duplicate-heavy: every user
    copies the rows (µ, σ, comp and weight) of one of the first
    ``|U| // users_per_pattern`` users, the structure the ``blocked`` plan
    compresses.  The defaults draw every user independently.
    ``capacities`` caps the intervals as in :func:`with_capacities`.
    """
    rng = np.random.default_rng(seed)
    interest = rng.random((num_users, num_events))
    if interest_levels:
        interest = np.floor(interest * interest_levels) / interest_levels
    interest = interest * interest_scale
    activity = rng.random((num_users, num_intervals))
    competing = rng.random((num_users, num_competing)) * competing_scale
    competing_intervals = rng.integers(0, num_intervals, num_competing)
    locations = [f"loc{index % num_locations}" for index in range(num_events)]
    required = rng.uniform(1.0, resource_high, num_events)
    if users_per_pattern > 1:
        copy = rng.integers(0, max(1, num_users // users_per_pattern), num_users)
        interest, activity, competing = interest[copy], activity[copy], competing[copy]
        if user_weights is not None:
            user_weights = np.asarray(user_weights)[copy]
    instance = SESInstance.from_arrays(
        interest=interest,
        activity=activity,
        competing_interest=competing,
        competing_interval_indices=list(competing_intervals),
        locations=locations,
        required_resources=list(required),
        available_resources=available_resources,
        user_weights=user_weights,
        event_values=event_values,
        event_costs=event_costs,
        name=f"random-{seed}",
    )
    return instance if capacities is None else with_capacities(instance, capacities)


def duplicate_heavy_instance(
    num_users: int = 600,
    num_patterns: int = 25,
    num_events: int = 30,
    num_intervals: int = 6,
    seed: int = 7,
) -> SESInstance:
    """Users drawn from a small pool of full (µ, σ, comp) row patterns.

    Activity decays across intervals so the structural Φ bound has skewed
    intervals to prune (under uniform activity no sound bound dominates Φ).
    """
    rng = np.random.default_rng(seed)
    decay = np.geomspace(1.0, 0.1, num_intervals)
    pattern_interest = rng.random((num_patterns, num_events))
    pattern_activity = rng.random((num_patterns, num_intervals)) * decay
    pattern_competing = rng.random((num_patterns, 4))
    assignment = rng.integers(0, num_patterns, num_users)
    return SESInstance.from_arrays(
        interest=pattern_interest[assignment],
        activity=pattern_activity[assignment],
        competing_interest=pattern_competing[assignment],
        competing_interval_indices=[idx % num_intervals for idx in range(4)],
        name=f"dup-{num_users}-p{num_patterns}",
    )


# --------------------------------------------------------------------------- #
# Storage × scoring-plan layouts of the equivalence suites
# --------------------------------------------------------------------------- #
#: Every interest-storage × scoring-plan layout, named ``"<storage>-<plan>"``.
LAYOUTS = (
    "dense-direct",
    "sparse-direct",
    "mmap-direct",
    "dense-blocked",
    "sparse-blocked",
    "mmap-blocked",
)

#: Each axis value once: every storage on the direct plan, then the blocked
#: plan on dense storage.  The default of the ``layout`` fixture, for suites
#: that multiply every case by the backends; the storage-equivalence suite
#: crosses all of :data:`LAYOUTS` against the dense, direct reference.
AXIS_LAYOUTS = ("dense-direct", "sparse-direct", "mmap-direct", "dense-blocked")


def convert_storage(instance: SESInstance, storage: str, directory=None) -> SESInstance:
    """``instance`` under ``storage`` (``mmap`` spills into ``directory``)."""
    if storage == "mmap":
        return instance.with_storage("mmap", directory=directory)
    return instance.with_storage(storage)


@dataclasses.dataclass(frozen=True)
class Layout:
    """One storage × plan configuration: converts instances, builds configs."""

    storage: str
    plan: str
    tmp_path_factory: pytest.TempPathFactory

    def execution(self, **knobs) -> ExecutionConfig:
        """An :class:`ExecutionConfig` on this layout's plan (``knobs`` pass through)."""
        return ExecutionConfig(plan=self.plan, **knobs)

    def convert(self, instance: SESInstance) -> SESInstance:
        """``instance`` under this layout's storage.

        Under the blocked plan this fails unless the plan really evaluates
        class blocks: on all-distinct users it falls back to the direct
        layout, and a blocked case would silently compare direct to itself.
        """
        directory = self.tmp_path_factory.mktemp("mmap") if self.storage == "mmap" else None
        converted = convert_storage(instance, self.storage, directory)
        if self.plan == "blocked":
            engine = ScoringEngine(converted, execution=self.execution())
            engine.interval_scores(0, count=False)
            assert engine.scoring_plan.stats()["blocks_evaluated"] > 0
        return converted

    def instance(self, **config) -> SESInstance:
        """:func:`make_random_instance` under this layout.

        Blocked layouts default to four users per pattern, so the plan has
        classes to compress.
        """
        if self.plan == "blocked":
            config.setdefault("users_per_pattern", 4)
        return self.convert(make_random_instance(**config))


@pytest.fixture(params=AXIS_LAYOUTS)
def layout(request, tmp_path_factory) -> Layout:
    """Each :data:`AXIS_LAYOUTS` entry in turn (pick others with ``indirect=True``)."""
    storage, plan = request.param.split("-")
    return Layout(storage, plan, tmp_path_factory)


def make_running_example() -> SESInstance:
    """The paper's Figure 1 running example, verbatim."""
    events = [
        Event(id="e1", location="Stage 1"),
        Event(id="e2", location="Stage 1"),
        Event(id="e3", location="Room A"),
        Event(id="e4", location="Stage 2"),
    ]
    intervals = [
        TimeInterval(id="t1", label="Friday 8-11pm"),
        TimeInterval(id="t2", label="Saturday 6-9pm"),
    ]
    competing = [
        CompetingEvent(id="c1", interval_id="t1"),
        CompetingEvent(id="c2", interval_id="t2"),
    ]
    users = [User(id="u1"), User(id="u2")]
    interest = InterestMatrix(
        np.array(
            [
                [0.9, 0.3, 0.0, 0.6],
                [0.2, 0.6, 0.1, 0.6],
            ]
        )
    )
    competing_interest = InterestMatrix(
        np.array(
            [
                [0.8, 0.3],
                [0.4, 0.7],
            ]
        )
    )
    activity = np.array(
        [
            [0.8, 0.5],
            [0.5, 0.7],
        ]
    )
    return SESInstance(
        events=events,
        intervals=intervals,
        competing_events=competing,
        users=users,
        interest=interest,
        competing_interest=competing_interest,
        activity=activity,
        organizer=Organizer(name="festival", available_resources=float("inf")),
        name="running-example",
    )


#: Figure 2's initial assignment scores for the running example (rounded to 2 dp
#: in the paper; the exact values below follow from Eq. 1-4).
RUNNING_EXAMPLE_INITIAL_SCORES: Dict[tuple, float] = {
    ("e1", "t1"): 0.9 * 0.8 / 1.7 + 0.2 * 0.5 / 0.6,
    ("e2", "t1"): 0.3 * 0.8 / 1.1 + 0.6 * 0.5 / 1.0,
    ("e3", "t1"): 0.0 + 0.1 * 0.5 / 0.5,
    ("e4", "t1"): 0.6 * 0.8 / 1.4 + 0.6 * 0.5 / 1.0,
    ("e1", "t2"): 0.9 * 0.5 / 1.2 + 0.2 * 0.7 / 0.9,
    ("e2", "t2"): 0.3 * 0.5 / 0.6 + 0.6 * 0.7 / 1.3,
    ("e3", "t2"): 0.0 + 0.1 * 0.7 / 0.8,
    ("e4", "t2"): 0.6 * 0.5 / 0.9 + 0.6 * 0.7 / 1.3,
}


@pytest.fixture
def running_example() -> SESInstance:
    """The paper's Figure 1 instance."""
    return make_running_example()


@pytest.fixture
def small_instance() -> SESInstance:
    """A small random instance with binding location and resource constraints."""
    return make_random_instance(seed=1)


@pytest.fixture
def medium_instance() -> SESInstance:
    """A somewhat larger random instance used by the algorithm tests."""
    return make_random_instance(
        num_users=150, num_events=24, num_intervals=8, num_competing=20, seed=2
    )


@pytest.fixture
def unconstrained_instance() -> SESInstance:
    """A random instance with no binding location/resource constraints."""
    rng = np.random.default_rng(3)
    num_users, num_events, num_intervals = 40, 10, 4
    return SESInstance.from_arrays(
        interest=rng.random((num_users, num_events)),
        activity=rng.random((num_users, num_intervals)),
        name="unconstrained",
    )


def pytest_configure(config):  # noqa: D103 - standard pytest hook
    config.addinivalue_line("markers", "slow: long-running end-to-end tests")
