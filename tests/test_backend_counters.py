"""Counter invariance between the engine's bulk path and the per-pair oracle.

The paper's evaluation metrics — score computations (``|U|`` user computations
each), generated/updated assignments, assignments examined — are counted
per (event, interval) pair regardless of how the scores are physically
computed.  These tests assert that every counter ``ComputationCounter``
snapshot is *exactly* identical between the bulk path and the per-pair oracle
(``tests/oracle.py``) for ALG, INC, HOR and HOR-I (plus the TOP baseline and
the two ablations that ride on the same bulk API), so the Fig. 10
reproductions do not depend on how scores are evaluated.  Each check runs once
per ``layout`` fixture value: every storage on the direct plan, and the
blocked plan (see ``tests/conftest.py``).
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.counters import ComputationCounter
from repro.core.scoring import ScoringEngine

from tests.conftest import execution_for, execution_variants, scoring_path
from tests.oracle import per_pair_scoring

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
def test_counters_match_oracle(algorithm, config, layout):
    instance = layout.instance(**config)
    k = min(instance.num_events, 2 * instance.num_intervals)  # multi-round for HOR
    bulk = run_scheduler(algorithm, instance, k, execution=layout.execution()).counters
    with per_pair_scoring():
        oracle = run_scheduler(algorithm, instance, k, execution=layout.execution()).counters
    assert oracle == bulk
    # The counters must actually have recorded work, or the comparison is vacuous.
    assert bulk["score_computations"] > 0
    assert bulk["user_computations"] == bulk["score_computations"] * instance.num_users
    assert bulk["assignments_generated"] > 0


@pytest.mark.parametrize("variant", execution_variants())
def test_bulk_counting_matches_per_pair_counting(variant, layout):
    """count_scores(n) must equal n count_score() calls, byte for byte."""
    instance = layout.instance(seed=54, num_users=20, num_events=8, num_intervals=3)
    bulk = ComputationCounter(num_users=instance.num_users)
    per_pair = ComputationCounter(num_users=instance.num_users)

    engine = ScoringEngine(
        instance, counter=bulk, execution=execution_for(variant, plan=layout.plan)
    )
    with scoring_path(variant):
        engine.interval_scores(0, initial=True)
        engine.interval_scores(1, initial=False)

    for _ in range(instance.num_events):
        per_pair.count_score(initial=True)
    for _ in range(instance.num_events):
        per_pair.count_score(initial=False)

    assert bulk.snapshot() == per_pair.snapshot()


def test_initial_vs_update_split_matches_oracle(layout):
    instance = layout.instance(seed=55, num_users=25, num_events=12, num_intervals=4)

    def split() -> tuple:
        counters = run_scheduler("INC", instance, 6, execution=layout.execution()).counters
        return counters["initial_computations"], counters["update_computations"]

    bulk = split()
    with per_pair_scoring():
        assert split() == bulk
    assert bulk[0] == instance.num_events * instance.num_intervals
