"""The paper's equivalence propositions, checked under every execution variant.

Each proposition runs on the per-pair oracle (``tests/oracle.py``), on the
engine's default bulk path (``batch``) and on the bulk path at forced block
sizes (the ``batch-chunk1`` and ``batch-chunk3`` variants of
``conftest.py``).

Proposition 3: INC selects exactly the assignments ALG selects (same schedule,
same utility).  Proposition 6: HOR-I returns exactly HOR's schedule.  Both
rest on the deterministic total order over assignments (score, then event
index, then interval index) implemented in ``algorithms/base.py`` — so the
tests include tie-heavy interest matrices (quantised interests and duplicated
event columns) that produce many exactly-equal scores and exercise the
tie-break on both scoring paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.instance import SESInstance

from tests.conftest import execution_variants, make_random_instance
from tests.oracle import per_pair_scoring

EQUIVALENT_PAIRS = [("ALG", "INC"), ("HOR", "HOR-I")]


def _tie_heavy_instance(seed: int, *, num_users=12, num_events=10, num_intervals=4) -> SESInstance:
    """Quantised interests + duplicated event columns → many exact score ties."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 0.25, 0.5, 1.0])
    interest = rng.choice(levels, size=(num_users, num_events))
    # Duplicate a third of the event columns so whole events tie exactly.
    for duplicate in range(num_events // 3):
        interest[:, num_events - 1 - duplicate] = interest[:, duplicate]
    activity = rng.choice(np.array([0.5, 1.0]), size=(num_users, num_intervals))
    return SESInstance.from_arrays(
        interest=interest, activity=activity, name=f"tie-heavy-{seed}"
    )


RANDOM_SEEDS = [60, 61, 62, 63, 64]
TIE_SEEDS = [70, 71, 72, 73, 74]


@pytest.mark.parametrize("variant", execution_variants())
@pytest.mark.parametrize("pair", EQUIVALENT_PAIRS, ids=lambda p: f"{p[0]}≡{p[1]}")
@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_proposition_equivalences_on_random_instances(variant, pair, seed, execution_for):
    first, second = pair
    instance = make_random_instance(
        seed=seed, num_users=40, num_events=14, num_intervals=5, num_competing=6
    )
    k = min(instance.num_events, instance.num_intervals + 3)
    result_first = run_scheduler(first, instance, k, execution=execution_for(variant))
    result_second = run_scheduler(second, instance, k, execution=execution_for(variant))
    assert result_first.schedule.as_dict() == result_second.schedule.as_dict()
    assert result_first.utility == result_second.utility


@pytest.mark.parametrize("variant", execution_variants())
@pytest.mark.parametrize("pair", EQUIVALENT_PAIRS, ids=lambda p: f"{p[0]}≡{p[1]}")
@pytest.mark.parametrize("seed", TIE_SEEDS)
def test_proposition_equivalences_on_tie_heavy_instances(variant, pair, seed, execution_for):
    first, second = pair
    instance = _tie_heavy_instance(seed)
    k = min(instance.num_events, instance.num_intervals + 2)
    result_first = run_scheduler(first, instance, k, execution=execution_for(variant))
    result_second = run_scheduler(second, instance, k, execution=execution_for(variant))
    assert result_first.schedule.as_dict() == result_second.schedule.as_dict()
    assert result_first.utility == result_second.utility


@pytest.mark.parametrize("seed", TIE_SEEDS)
def test_tie_breaks_match_oracle(seed):
    """On tie-heavy instances the oracle and the bulk path must pick identical pairs."""
    instance = _tie_heavy_instance(seed)
    k = min(instance.num_events, instance.num_intervals + 2)
    for algorithm in ("ALG", "INC", "HOR", "HOR-I", "TOP"):
        bulk = run_scheduler(algorithm, instance, k)
        with per_pair_scoring():
            oracle = run_scheduler(algorithm, instance, k)
        assert oracle.schedule.as_dict() == bulk.schedule.as_dict(), algorithm
        assert oracle.counters == bulk.counters, algorithm
