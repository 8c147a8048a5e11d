"""Shared fixtures for the test suite.

The most important fixture is ``running_example``: the exact instance of the
paper's Figure 1 (four candidate events, two intervals, two competing events,
two users).  Figure 2 of the paper lists the assignment scores ALG computes on
it, which gives us golden values for the scoring engine and for the greedy
algorithms' selections.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.core.entities import CompetingEvent, Event, Organizer, TimeInterval, User
from repro.core.execution import ExecutionConfig, available_backends
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix

#: Interest-matrix storage every helper-built instance is converted to.  CI
#: sets ``REPRO_TEST_STORAGE=sparse`` / ``mmap`` to run the equivalence
#: suites once per storage (the same pattern as ``REPRO_TEST_BACKEND``);
#: unset, instances keep the default ``dense`` storage.
TEST_STORAGE = os.environ.get("REPRO_TEST_STORAGE", "")

#: Scoring plan every engine defaults to for the whole suite.  CI sets
#: ``REPRO_TEST_PLAN=blocked`` to run the equivalence suites once per plan
#: (the same pattern as ``REPRO_TEST_STORAGE``); unset, the library default
#: (``direct``) applies.  Implemented by patching
#: :data:`repro.core.execution.DEFAULT_PLAN`, which ``resolve_plan`` consults
#: at resolution time — explicit ``plan=`` pins in individual tests still
#: win, and non-bulk backends still pin to ``direct``.
TEST_PLAN = os.environ.get("REPRO_TEST_PLAN", "")


@pytest.fixture(autouse=True)
def _apply_test_plan(monkeypatch):
    """Route every engine through the suite-wide ``REPRO_TEST_PLAN`` plan."""
    if TEST_PLAN:
        from repro.core import execution

        monkeypatch.setattr(execution, "DEFAULT_PLAN", TEST_PLAN)
    yield


#: Fanned-out runs of the pooled backends, checked by the backend-invariance
#: suites next to every registered backend name.  By name alone neither pool
#: is guaranteed to fan out: ``parallel`` resolves to one thread on a
#: single-core machine, and ``cluster`` without ``workers_addr`` runs serial
#: batch in-process.  ``parallel-2`` pins two threads; ``cluster-2`` dispatches
#: to the two live localhost workers of the ``local_cluster`` fixture.
FANOUT_VARIANTS = ("parallel-2", "cluster-2")


def execution_variants() -> Tuple[str, ...]:
    """Every registered backend name, then the :data:`FANOUT_VARIANTS`."""
    return available_backends() + FANOUT_VARIANTS


@pytest.fixture(scope="session")
def local_cluster():
    """Addresses of two localhost cluster workers shared by the whole run."""
    from repro.core.distributed import start_local_worker

    handles = [start_local_worker(), start_local_worker()]
    yield tuple(handle.address for handle in handles)
    for handle in handles:
        handle.stop()


@pytest.fixture
def execution_for(request):
    """Build the :class:`ExecutionConfig` of an :func:`execution_variants` name.

    Extra keyword knobs (``chunk_size``, ...) are passed through.  The cluster
    workers are only started by the first test that asks for ``cluster-2``.
    """

    def build(variant: str, **knobs) -> ExecutionConfig:
        if variant == "parallel-2":
            return ExecutionConfig(backend="parallel", workers=2, **knobs)
        if variant == "cluster-2":
            addresses = request.getfixturevalue("local_cluster")
            return ExecutionConfig(backend="cluster", workers_addr=addresses, **knobs)
        return ExecutionConfig(backend=variant, **knobs)

    return build


def apply_test_storage(instance: SESInstance) -> SESInstance:
    """Convert an instance to the suite-wide ``REPRO_TEST_STORAGE`` storage.

    The ``mmap`` storage spills to a per-instance temporary directory removed
    at interpreter exit (the backing NPZ must outlive every engine that maps
    it, so per-test cleanup would be too eager).
    """
    if not TEST_STORAGE or instance.storage == TEST_STORAGE:
        return instance
    if TEST_STORAGE == "mmap":
        directory = tempfile.mkdtemp(prefix="ses-repro-test-mmap-")
        atexit.register(shutil.rmtree, directory, ignore_errors=True)
        return instance.with_storage("mmap", directory=directory)
    return instance.with_storage(TEST_STORAGE)


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
    user_weights=None,
    event_values=None,
    event_costs=None,
) -> SESInstance:
    """Build a random instance with interesting (binding) constraints."""
    rng = np.random.default_rng(seed)
    interest = rng.random((num_users, num_events)) * interest_scale
    activity = rng.random((num_users, num_intervals))
    competing = rng.random((num_users, num_competing))
    competing_intervals = rng.integers(0, num_intervals, num_competing)
    locations = [f"loc{index % num_locations}" for index in range(num_events)]
    required = rng.uniform(1.0, resource_high, num_events)
    return apply_test_storage(SESInstance.from_arrays(
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
    ))


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
    return apply_test_storage(SESInstance.from_arrays(
        interest=rng.random((num_users, num_events)),
        activity=rng.random((num_users, num_intervals)),
        name="unconstrained",
    ))


def pytest_configure(config):  # noqa: D103 - standard pytest hook
    config.addinivalue_line("markers", "slow: long-running end-to-end tests")
