"""Equivalence suite locking the engine's bulk scoring path to the per-pair reference.

The bulk path evaluates whole intervals (and the full ``|E| × |T|`` matrix)
in vectorised NumPy passes; these tests pin it to the per-pair Eq. 4 path
(:meth:`~repro.core.scoring.ScoringEngine.assignment_score`, and the
``tests/oracle.py`` copy of it that whole runs score through) on ~20
randomized instances spanning different ``|U|``, ``|E|``, ``|T|``, ``|C|``,
user weights, event values and costs:

* every bulk score is bit-identical to the per-pair score, because both
  perform the same elementary operations in the same order;
* every scheduler produces the identical schedule and utility on both paths;
* the shared division guard zeroes users whose competing + scheduled interest
  sums to zero on both paths (the regression for the formerly inlined,
  per-call-site guard).

Every check that depends on the interest storage or the scoring plan runs
once per ``layout`` fixture value: every storage on the direct plan, and the
blocked plan (see ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.instance import SESInstance
from repro.core.scoring import ScoringEngine

from tests.conftest import BLOCK_VARIANTS, execution_variants, make_random_instance
from tests.oracle import SCORING_PATHS, per_pair_scoring

#: Only for the hand-written Eq. 2 sum below, which adds in another order.
TOLERANCE = 1e-12

#: The schedulers rewired onto the bulk scoring API.
BATCHED_SCHEDULERS = ["ALG", "INC", "HOR", "HOR-I", "TOP", "INC-U", "ALG-O"]


def _config(seed: int, **overrides) -> dict:
    config = {"seed": seed}
    config.update(overrides)
    return config


#: ~20 randomized instance shapes: |U| from 5 to 200, |E| from 4 to 24,
#: |T| from 1 to 9, |C| from 0 to 24, with and without the §2.1 extensions.
RANDOM_CONFIGS = [
    _config(10),
    _config(11, num_users=5, num_events=4, num_intervals=1, num_competing=0),
    _config(12, num_users=9, num_events=6, num_intervals=2, num_competing=3),
    _config(13, num_users=25, num_events=8, num_intervals=3, num_competing=1),
    _config(14, num_users=40, num_events=10, num_intervals=4, num_competing=24),
    _config(15, num_users=80, num_events=20, num_intervals=6, num_competing=5),
    _config(16, num_users=200, num_events=6, num_intervals=3, num_competing=2),
    _config(17, num_users=30, num_events=24, num_intervals=9, num_competing=4),
    _config(18, num_locations=1),  # every event shares one location
    _config(19, num_locations=12),
    _config(20, available_resources=3.0, resource_high=4.0),  # tight resources
    _config(21, available_resources=1e9),
    _config(22, interest_scale=0.05),  # near-zero interests
    _config(23, interest_scale=1.0, num_users=15, num_events=12, num_intervals=5),
    _config(24, num_users=60, num_events=12, num_intervals=5, num_competing=0),
]


def _extended_configs() -> list:
    """Configs exercising user weights, event values and organisation costs."""
    configs = []
    for seed in (30, 31, 32, 33, 34):
        rng = np.random.default_rng(seed)
        num_users, num_events = 35, 10
        configs.append(
            _config(
                seed,
                num_users=num_users,
                num_events=num_events,
                num_intervals=4,
                num_competing=6,
                user_weights=list(rng.uniform(0.2, 3.0, num_users)),
                event_values=list(rng.uniform(0.5, 2.5, num_events)),
                event_costs=list(rng.uniform(0.0, 1.0, num_events)),
            )
        )
    return configs


ALL_CONFIGS = RANDOM_CONFIGS + _extended_configs()


def _per_pair_reference_matrix(engine: ScoringEngine) -> np.ndarray:
    """The per-pair scores of every (event, interval) assignment."""
    instance = engine.instance
    return np.array(
        [
            [
                engine.assignment_score(event_index, interval_index, count=False)
                for interval_index in range(instance.num_intervals)
            ]
            for event_index in range(instance.num_events)
        ]
    )


def _apply_prefix(instance: SESInstance, engines, seed: int) -> None:
    """Apply the same few pseudo-random assignments to every engine."""
    rng = np.random.default_rng(seed)
    num_applied = min(3, instance.num_events - 1)
    events = rng.choice(instance.num_events, size=num_applied, replace=False)
    intervals = rng.integers(0, instance.num_intervals, size=num_applied)
    for event_index, interval_index in zip(events, intervals):
        for engine in engines:
            engine.apply(int(event_index), int(interval_index))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: f"seed{c['seed']}")
def test_score_matrix_matches_per_pair_reference(config, layout):
    instance = layout.instance(**config)
    bulk = ScoringEngine(instance, execution=layout.execution())
    chunked = ScoringEngine(instance, execution=layout.execution(chunk_size=3))

    reference = _per_pair_reference_matrix(bulk)
    assert np.array_equal(bulk.score_matrix(count=False), reference)
    # The oracle's bulk API is the reference path itself, and the bulk
    # kernel run block-by-block is bit-identical to one whole pass.
    with per_pair_scoring():
        assert np.array_equal(bulk.score_matrix(count=False), reference)
    assert np.array_equal(chunked.score_matrix(count=False), bulk.score_matrix(count=False))

    # The equivalence must hold against a non-empty schedule state too.
    _apply_prefix(instance, (bulk, chunked), seed=config["seed"] + 1000)
    reference = _per_pair_reference_matrix(bulk)
    assert np.array_equal(bulk.score_matrix(count=False), reference)
    assert np.array_equal(chunked.score_matrix(count=False), bulk.score_matrix(count=False))


@pytest.mark.parametrize("config", ALL_CONFIGS[:6], ids=lambda c: f"seed{c['seed']}")
def test_interval_scores_subset_matches_oracle(config, layout):
    instance = layout.instance(**config)
    engine = ScoringEngine(instance, execution=layout.execution())
    rng = np.random.default_rng(config["seed"])
    subset = list(
        rng.choice(instance.num_events, size=max(1, instance.num_events // 2), replace=False)
    )
    for interval_index in range(instance.num_intervals):
        with per_pair_scoring():
            expected = engine.interval_scores(interval_index, subset, count=False)
        actual = engine.interval_scores(interval_index, subset, count=False)
        assert np.array_equal(actual, expected)
        for position, event_index in enumerate(subset):
            pair = engine.assignment_score(int(event_index), interval_index, count=False)
            assert actual[position] == pair


@pytest.mark.parametrize("algorithm", BATCHED_SCHEDULERS)
@pytest.mark.parametrize("config", ALL_CONFIGS[::2], ids=lambda c: f"seed{c['seed']}")
def test_schedulers_match_oracle(algorithm, config, layout):
    instance = layout.instance(**config)
    k = min(instance.num_events, instance.num_intervals + 2)
    bulk = run_scheduler(algorithm, instance, k, execution=layout.execution())
    with per_pair_scoring():
        oracle = run_scheduler(algorithm, instance, k, execution=layout.execution())
    assert oracle.schedule.as_dict() == bulk.schedule.as_dict()
    assert oracle.utility == bulk.utility
    assert oracle.net_utility == bulk.net_utility


@pytest.mark.parametrize("variant", tuple(BLOCK_VARIANTS))
@pytest.mark.parametrize("algorithm", BATCHED_SCHEDULERS)
@pytest.mark.parametrize(
    "config", [RANDOM_CONFIGS[5], _extended_configs()[0]], ids=lambda c: f"seed{c['seed']}"
)
def test_block_variants_match_oracle(config, algorithm, variant, layout):
    """Every scheduler, walking each column in several blocks, matches the oracle."""
    instance = layout.instance(**config)
    k = min(instance.num_events, 2 * instance.num_intervals)  # multi-round for HOR
    chunked = run_scheduler(
        algorithm, instance, k, execution=layout.execution(chunk_size=BLOCK_VARIANTS[variant])
    )
    with per_pair_scoring():
        oracle = run_scheduler(algorithm, instance, k, execution=layout.execution())
    assert chunked.schedule.as_dict() == oracle.schedule.as_dict()
    assert chunked.utility == oracle.utility
    assert chunked.net_utility == oracle.net_utility
    assert chunked.counters == oracle.counters


@pytest.mark.parametrize("path", sorted(SCORING_PATHS))
def test_score_matrix_counts_one_score_per_pair(layout, path):
    instance = layout.instance(seed=41, num_users=12, num_events=6, num_intervals=3)
    with SCORING_PATHS[path]():
        engine = ScoringEngine(instance, execution=layout.execution())
        engine.score_matrix(initial=True)
        counter = engine.counter
        pairs = instance.num_events * instance.num_intervals
        assert counter.score_computations == pairs
        assert counter.user_computations == pairs * instance.num_users
        assert counter.initial_computations == pairs
        assert counter.update_computations == 0


def test_oracle_scores_pair_by_pair(monkeypatch):
    """Under the oracle the bulk entry points never reach the block kernel."""
    instance = make_random_instance(seed=43, num_users=12, num_events=5, num_intervals=3)
    engine = ScoringEngine(instance)
    calls = {"pair": 0, "block": 0}
    run_pair, run_block = engine._pair_score, engine._batch_block

    def counting_pair(*args):
        calls["pair"] += 1
        return run_pair(*args)

    def counting_block(*args):
        calls["block"] += 1
        return run_block(*args)

    monkeypatch.setattr(engine, "_pair_score", counting_pair)
    monkeypatch.setattr(engine, "_batch_block", counting_block)
    with per_pair_scoring():
        engine.score_matrix()
        engine.interval_scores(1, [0, 2])
        engine.refresh_scores(2, [4])
    assert calls == {"pair": 5 * 3 + 2 + 1, "block": 0}
    assert engine.counter.score_computations == 5 * 3 + 2 + 1
    engine.score_matrix(count=False)
    assert calls["block"] == 3


@pytest.mark.parametrize("variant", tuple(BLOCK_VARIANTS))
def test_block_variants_really_split(variant, execution_for):
    """The suites' block variants must walk each column in several blocks of
    at most ``chunk_size`` rows, or they would only re-run the one-block path."""
    instance = make_random_instance(seed=42, num_users=12, num_events=7, num_intervals=4)
    engine = ScoringEngine(instance, execution=execution_for(variant))
    chunk_size = BLOCK_VARIANTS[variant]
    assert engine.execution.chunk_size == chunk_size
    block_rows = []
    run_block = engine._batch_block

    def counting_block(interval_index, *block):
        scores = run_block(interval_index, *block)
        block_rows.append(len(scores))
        return scores

    engine._batch_block = counting_block
    engine.score_matrix(count=False)
    blocks_per_column = -(-instance.num_events // chunk_size)
    assert len(block_rows) == blocks_per_column * instance.num_intervals
    assert max(block_rows) == chunk_size
    assert sum(block_rows) == instance.num_events * instance.num_intervals


# --------------------------------------------------------------------------- #
# Division-guard regression: users whose competing + scheduled interest is
# zero must contribute exactly 0.0 — identically on both paths.
# --------------------------------------------------------------------------- #
#: Users of the zero-denominator instance, as indices into its three
#: distinct rows: user 0 is the zero-interest user, and the repeats give the
#: blocked plan classes to compress.
ZERO_DENOMINATOR_USERS = [0, 1, 2, 2, 0, 1, 0]


def _zero_denominator_instance() -> SESInstance:
    # User 0 (and every copy of it) has zero interest in every candidate
    # event and there are no competing events, so its denominator is 0 for
    # every assignment until an event it cares about is scheduled — which
    # never happens.
    interest = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.6, 0.2, 0.9],
            [0.4, 0.8, 0.1],
        ]
    )
    activity = np.array(
        [
            [0.9, 0.8],
            [0.5, 0.7],
            [0.6, 0.4],
        ]
    )
    return SESInstance.from_arrays(
        interest=interest[ZERO_DENOMINATOR_USERS],
        activity=activity[ZERO_DENOMINATOR_USERS],
        name="zero-denominator",
    )


@pytest.mark.parametrize("variant", execution_variants())
def test_zero_denominator_users_contribute_zero(variant, execution_for, layout):
    instance = layout.convert(_zero_denominator_instance())
    engine = ScoringEngine(instance, execution=execution_for(variant, plan=layout.plan))

    matrix = engine.score_matrix(count=False)
    assert np.all(np.isfinite(matrix))
    # Zero-interest users contribute nothing, so each initial score is the
    # sum over the other users of σ_u^t (µ/µ cancels against an empty
    # interval).
    for event_index in range(instance.num_events):
        for interval_index in range(instance.num_intervals):
            expected = sum(
                instance.activity[user, interval_index]
                for user in range(instance.num_users)
                if interest_of(instance, user, event_index) > 0.0
            )
            assert abs(matrix[event_index, interval_index] - expected) <= TOLERANCE

    # After scheduling an event the zero-interest user still has a zero
    # denominator (its µ column is all zeros) and must stay silently zeroed.
    engine.apply(0, 0)
    follow_up = engine.interval_scores(0, count=False)
    for event_index in range(instance.num_events):
        pair = engine.assignment_score(event_index, 0, count=False)
        assert follow_up[event_index] == pair
    assert np.all(np.isfinite(follow_up))


def interest_of(instance: SESInstance, user: int, event: int) -> float:
    return float(instance.interest.values[user, event])


@pytest.mark.parametrize("algorithm", ["ALG", "INC", "HOR", "HOR-I", "TOP"])
def test_zero_denominator_instance_schedules_identically(algorithm, layout):
    instance = layout.convert(_zero_denominator_instance())
    bulk = run_scheduler(algorithm, instance, 2, execution=layout.execution())
    with per_pair_scoring():
        oracle = run_scheduler(algorithm, instance, 2, execution=layout.execution())
    assert oracle.schedule.as_dict() == bulk.schedule.as_dict()
    assert oracle.utility == bulk.utility
