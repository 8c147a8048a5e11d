"""The tiled score kernel is bit-identical to the untiled Eq. 4 formula.

:func:`repro.core.execution.score_block_kernel` walks its block in row tiles
of :data:`~repro.core.execution.KERNEL_TILE_ELEMENTS` elements and divides
without a guard unless the interval has a non-positive ``comp + S``.  It has
four paths: unit event values (``value_mu_rows=None``) or not, crossed with
an empty interval (``scheduled=None``) or not.  Test instances are far
smaller than one tile, so these tests shrink the budget and compare every
score of every path bit for bit (``view(np.int64)``, so ``-0.0`` and NaN
payloads count) against a private copy of the untiled formula fed the full
reference arguments (``value·µ`` for unit values, zero sums for an empty
interval): every tile boundary, no user, a single user, more users than the
budget, ``-0.0`` interest (a row of nothing but ``-0.0`` too) and zero
denominators.  The engine must hand the kernel those structural facts from
its own state — one matrix and one scheduled-sum array under unit values,
the applied count of each interval — and full solves of the five
algorithms with a tiny budget must match the default-budget run exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_random_instance
from repro.algorithms.registry import run_scheduler
from repro.core import execution
from repro.core.execution import ExecutionConfig, score_block_kernel
from repro.core.scoring import ScoringEngine

SCHEDULERS = ("ALG", "INC", "HOR", "HOR-I", "TOP")


def untiled_kernel(
    mu_rows, value_mu_rows, comp_column, sigma_column, scheduled, scheduled_value, utility
):
    """The kernel before tiling: whole-block temporaries and a guarded divide."""
    denominator = comp_column + (scheduled + mu_rows)
    numerator = sigma_column * (scheduled_value + value_mu_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        contributions = np.divide(
            numerator, denominator, out=np.zeros_like(numerator), where=denominator > 0.0
        )
    return contributions.sum(axis=1) - utility


def kernel_inputs(
    rows, users, *, seed=0, zero_interval=None, negative_zero=False, unit=False
):
    """Random kernel arguments for interval 1 of a 3-interval instance.

    ``comp`` and ``σ`` are passed as strided columns of ``(|U|, 3)`` matrices,
    as every call site does.  ``zero_interval=1`` zeroes ``comp + S`` for
    every other user (and µ for every third one), so some denominators are
    exactly zero.  ``negative_zero`` writes ``-0.0`` into every other user's
    µ and every user's µ of the first row; with event values it also makes
    the second row's value ``-0.0``, so its value·µ is all zeros, ``-0.0``
    wherever µ is positive.
    ``unit`` makes every event value 1.0.
    """
    rng = np.random.default_rng(seed)
    mu = rng.random((rows, users))
    if negative_zero:
        mu[:, ::2] = -0.0
        mu[:1] = -0.0
    values = np.ones(rows) if unit else rng.random(rows) + 0.5
    if negative_zero and not unit and rows > 1:
        values[1] = -0.0
    value_mu = values[:, np.newaxis] * mu
    comp = rng.random((users, 3))
    sigma = rng.random((users, 3))
    scheduled = rng.random(users) * 0.5
    if zero_interval is not None:
        comp[::2, zero_interval] = 0.0
        scheduled[::2] = 0.0
        mu[:, ::3] = 0.0
        value_mu[:, ::3] = 0.0
    scheduled_value = scheduled if unit else scheduled * 0.75
    return mu, value_mu, comp[:, 1], sigma[:, 1], scheduled, scheduled_value, 1.25


#: The kernel's four paths: (unit event values, empty interval).
PATHS = [
    pytest.param(False, False, id="valued"),
    pytest.param(True, False, id="unit"),
    pytest.param(False, True, id="valued-empty"),
    pytest.param(True, True, id="unit-empty"),
]


def path_arguments(args, unit, empty):
    """``(kernel arguments, reference arguments)`` of one kernel path.

    The reference always gets the full arrays: ``value·µ`` (µ itself under
    unit values, ``1.0·µ`` bit for bit) and the scheduled sums, all-zero
    for an empty interval.  The kernel gets ``None`` for the facts its path
    stands for and µ as the row sources serve it, ``-0.0`` folded into
    ``0.0``.
    """
    mu, value_mu, comp, sigma, scheduled, scheduled_value, utility = args
    if unit:
        assert np.array_equal(value_mu.view(np.int64), mu.view(np.int64))
    if empty:
        zeros = np.zeros_like(scheduled)
        reference = (mu, value_mu, comp, sigma, zeros, zeros, utility)
        kernel = (mu + 0.0, None if unit else value_mu, comp, sigma, None, None, utility)
    else:
        reference = args
        kernel = (mu, None if unit else value_mu, comp, sigma, scheduled,
                  None if unit else scheduled_value, utility)
    return kernel, reference


def assert_path_matches_reference(args, unit, empty):
    kernel, reference = path_arguments(args, unit, empty)
    assert_bitwise_equal(score_block_kernel(*kernel), untiled_kernel(*reference))


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == np.float64
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("unit, empty", PATHS)
@pytest.mark.parametrize("users", [1, 4, 300])
@pytest.mark.parametrize("rows_of", [
    lambda step: 0,
    lambda step: 1,
    lambda step: step - 1,
    lambda step: step,
    lambda step: step + 1,
    lambda step: 3 * step + 2,
], ids=["0", "1", "step-1", "step", "step+1", "3step+2"])
def test_tile_boundaries_are_bit_identical(users, rows_of, unit, empty, monkeypatch):
    step = 3
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", step * users)
    args = kernel_inputs(rows_of(step), users, unit=unit)
    assert_path_matches_reference(args, unit, empty)


@pytest.mark.parametrize("unit, empty", PATHS)
@pytest.mark.parametrize("rows", [0, 1, 7])
def test_more_users_than_the_budget_take_one_row_per_tile(rows, unit, empty, monkeypatch):
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", 64)
    args = kernel_inputs(rows, 1000, seed=3, unit=unit)
    assert_path_matches_reference(args, unit, empty)


@pytest.mark.parametrize("unit, empty", PATHS)
@pytest.mark.parametrize("rows", [0, 5])
def test_no_users_score_minus_the_utility(rows, unit, empty):
    args = kernel_inputs(rows, 0, unit=unit)
    assert_path_matches_reference(args, unit, empty)


@pytest.mark.parametrize("unit, empty", PATHS)
def test_negative_zero_interest(unit, empty, monkeypatch):
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", 2 * 300)
    args = kernel_inputs(9, 300, seed=5, negative_zero=True, unit=unit)
    mu, value_mu = args[:2]
    assert np.all(np.signbit(mu[0])) and np.all(mu[0] == 0.0)
    if not unit:
        assert np.all(value_mu[1] == 0.0) and np.any(np.signbit(value_mu[1]))
    assert_path_matches_reference(args, unit, empty)


@pytest.mark.parametrize("unit, empty", PATHS)
@pytest.mark.parametrize("budget", [64, 2 * 300, 1 << 15])
def test_zero_denominators_are_zeroed_next_to_a_positive_interval(
    budget, unit, empty, monkeypatch
):
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", budget)
    guarded = kernel_inputs(11, 300, seed=7, zero_interval=1, unit=unit)
    mu, value_mu, comp, sigma, scheduled, _, _ = guarded
    assert np.any(comp + scheduled == 0.0)
    assert np.any(comp + (scheduled + mu) == 0.0)
    # The same event rows at an interval whose comp + S is positive everywhere.
    positive = kernel_inputs(11, 300, seed=7, zero_interval=0, unit=unit)
    assert np.all(positive[2] + positive[4] > 0.0)
    for args in (guarded, positive):
        kernel, reference = path_arguments(args, unit, empty)
        scores = score_block_kernel(*kernel)
        assert np.all(np.isfinite(scores))
        assert_bitwise_equal(scores, untiled_kernel(*reference))


# --------------------------------------------------------------------------- #
# The engine hands the kernel its structural facts
# --------------------------------------------------------------------------- #
def test_unit_values_hold_one_matrix_and_one_scheduled_sum():
    engine = ScoringEngine(make_random_instance(seed=12, num_events=6))
    mu_rows, value_mu_rows = engine._event_rows.block(0, engine._event_rows.num_rows)
    assert value_mu_rows is mu_rows
    assert engine._event_rows.unit_values
    assert engine._scheduled_value_interest is engine._scheduled_interest
    # A selection copies the one matrix once and stays unit-valued.
    selected = engine._event_rows.select(np.array([4, 1]))
    assert selected.unit_values
    assert np.array_equal(selected.block(0, 2)[0], mu_rows[[4, 1]])


def test_a_single_event_value_turns_both_off():
    values = [1.0] * 6
    values[3] = 2.0
    engine = ScoringEngine(make_random_instance(seed=12, num_events=6, event_values=values))
    mu_rows, value_mu_rows = engine._event_rows.block(0, engine._event_rows.num_rows)
    assert value_mu_rows is not mu_rows
    assert not engine._event_rows.unit_values
    assert np.array_equal(value_mu_rows, np.asarray(values)[:, np.newaxis] * mu_rows)
    assert engine._scheduled_value_interest is not engine._scheduled_interest


@pytest.mark.parametrize("plan", ["direct", "blocked"])
@pytest.mark.parametrize("valued", [False, True], ids=["unit-values", "event-values"])
def test_engine_passes_the_facts_from_its_own_state(plan, valued, monkeypatch):
    """Unit values and empty intervals reach the kernel as ``None``; apply/reset move them.

    All users are distinct, so the blocked plan runs its degenerate direct path.
    """
    values = list(np.linspace(0.5, 2.0, 6)) if valued else None
    instance = make_random_instance(seed=13, num_events=6, num_intervals=3, event_values=values)
    engine = ScoringEngine(instance, execution=ExecutionConfig(plan=plan))
    calls = []
    kernel = execution.score_block_kernel

    def recording(mu_rows, value_mu_rows, comp, sigma, scheduled, scheduled_value, utility):
        calls.append((value_mu_rows is None, scheduled is None))
        return kernel(mu_rows, value_mu_rows, comp, sigma, scheduled, scheduled_value, utility)

    monkeypatch.setattr(execution, "score_block_kernel", recording)
    engine.interval_scores(0, count=False)
    engine.apply(2, 0)
    engine.interval_scores(0, [0, 4], count=False)
    engine.interval_scores(1, count=False)
    engine.reset()
    engine.interval_scores(0, count=False)
    unit = not valued
    assert calls == [(unit, True), (unit, False), (unit, True), (unit, True)]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_solves_match_the_default_budget(scheduler, monkeypatch):
    instance = make_random_instance(seed=11, num_users=60, num_events=14, num_intervals=5)
    config = ExecutionConfig(chunk_size=5)
    reference = run_scheduler(scheduler, instance, 6, execution=config)
    for budget in (1, 2 * 60 + 1):
        monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", budget)
        result = run_scheduler(scheduler, instance, 6, execution=config)
        assert result.schedule.as_dict() == reference.schedule.as_dict()
        assert result.utility == reference.utility
        assert result.counters == reference.counters
