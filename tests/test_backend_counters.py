"""Counter invariance between the scalar and batch scoring backends.

The paper's evaluation metrics — score computations (``|U|`` user computations
each), generated/updated assignments, assignments examined — are counted
per (event, interval) pair regardless of how the scores are physically
computed.  These tests assert that every counter ``ComputationCounter``
snapshot is *exactly* identical between backends for ALG, INC, HOR and HOR-I
(plus the TOP baseline and the two ablations that ride on the same bulk API),
so the Fig. 10 reproductions are backend-independent.  Each check runs once
per ``layout`` fixture value: every storage on the direct plan, and the
blocked plan (see ``tests/conftest.py``).
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.counters import ComputationCounter
from repro.core.execution import available_backends
from repro.core.scoring import ScoringEngine

from tests.conftest import execution_variants

COUNTER_ALGORITHMS = ["ALG", "INC", "HOR", "HOR-I", "TOP", "INC-U", "ALG-O"]

INSTANCE_CONFIGS = [
    {"seed": 50},
    {"seed": 51, "num_users": 30, "num_events": 16, "num_intervals": 4, "num_competing": 2},
    {"seed": 52, "num_users": 90, "num_events": 10, "num_intervals": 7, "num_competing": 12},
    # k > |T| forces HOR/HOR-I into multiple rounds (the update phases).
    {"seed": 53, "num_users": 40, "num_events": 18, "num_intervals": 3, "num_competing": 5},
]


@pytest.mark.parametrize("algorithm", COUNTER_ALGORITHMS)
@pytest.mark.parametrize("config", INSTANCE_CONFIGS, ids=lambda c: f"seed{c['seed']}")
def test_counters_identical_across_backends(algorithm, config, layout):
    instance = layout.instance(**config)
    k = min(instance.num_events, 2 * instance.num_intervals)  # multi-round for HOR
    snapshots = {}
    for backend in available_backends():
        result = run_scheduler(
            algorithm, instance, k, execution=layout.execution(backend=backend)
        )
        snapshots[backend] = result.counters
    for backend in available_backends()[1:]:
        assert snapshots["scalar"] == snapshots[backend], backend
    # The counters must actually have recorded work, or the comparison is vacuous.
    assert snapshots["batch"]["score_computations"] > 0
    assert snapshots["batch"]["user_computations"] == (
        snapshots["batch"]["score_computations"] * instance.num_users
    )
    assert snapshots["batch"]["assignments_generated"] > 0


@pytest.mark.parametrize("variant", execution_variants())
def test_bulk_counting_matches_per_pair_counting(variant, execution_for, layout):
    """count_scores(n) must equal n count_score() calls, byte for byte."""
    instance = layout.instance(seed=54, num_users=20, num_events=8, num_intervals=3)
    bulk = ComputationCounter(num_users=instance.num_users)
    per_pair = ComputationCounter(num_users=instance.num_users)

    engine = ScoringEngine(
        instance, counter=bulk, execution=execution_for(variant, plan=layout.plan)
    )
    engine.interval_scores(0, initial=True)
    engine.interval_scores(1, initial=False)

    for _ in range(instance.num_events):
        per_pair.count_score(initial=True)
    for _ in range(instance.num_events):
        per_pair.count_score(initial=False)

    assert bulk.snapshot() == per_pair.snapshot()


def test_initial_vs_update_split_is_backend_invariant(layout):
    instance = layout.instance(seed=55, num_users=25, num_events=12, num_intervals=4)
    splits = {}
    for backend in available_backends():
        result = run_scheduler(
            "INC", instance, 6, execution=layout.execution(backend=backend)
        )
        splits[backend] = (
            result.counters["initial_computations"],
            result.counters["update_computations"],
        )
    for backend in available_backends()[1:]:
        assert splits["scalar"] == splits[backend], backend
    initial, _ = splits["batch"]
    assert initial == instance.num_events * instance.num_intervals
