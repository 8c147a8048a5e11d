"""The tiled score kernel is bit-identical to the untiled Eq. 4 formula.

:func:`repro.core.execution.score_block_kernel` walks its block in row tiles
of :data:`~repro.core.execution.KERNEL_TILE_ELEMENTS` elements and divides
without a guard unless the interval has a non-positive ``comp + S``.  Test
instances are far smaller than one tile, so these tests shrink the budget
and compare every score bit for bit (``view(np.int64)``, so ``-0.0`` and NaN
payloads count) against a private copy of the untiled formula: every tile
boundary, no user, a single user, more users than the budget, ``-0.0``
interest and zero denominators.  Full solves of the five algorithms with a
tiny budget must match the default-budget run exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_random_instance
from repro.algorithms.registry import run_scheduler
from repro.core import execution
from repro.core.execution import ExecutionConfig, score_block_kernel

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


def kernel_inputs(rows, users, *, seed=0, zero_interval=None, negative_zero=False):
    """Random kernel arguments for interval 1 of a 3-interval instance.

    ``comp`` and ``σ`` are passed as strided columns of ``(|U|, 3)`` matrices,
    as every call site does.  ``zero_interval=1`` zeroes ``comp + S`` for
    every other user (and µ for every third one), so some denominators are
    exactly zero.
    """
    rng = np.random.default_rng(seed)
    mu = rng.random((rows, users))
    if negative_zero:
        mu[:, ::2] = -0.0
    value_mu = (rng.random(rows) + 0.5)[:, np.newaxis] * mu
    comp = rng.random((users, 3))
    sigma = rng.random((users, 3))
    scheduled = rng.random(users) * 0.5
    if zero_interval is not None:
        comp[::2, zero_interval] = 0.0
        scheduled[::2] = 0.0
        mu[:, ::3] = 0.0
        value_mu[:, ::3] = 0.0
    scheduled_value = scheduled * 0.75
    return mu, value_mu, comp[:, 1], sigma[:, 1], scheduled, scheduled_value, 1.25


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == np.float64
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("users", [1, 4, 300])
@pytest.mark.parametrize("rows_of", [
    lambda step: 0,
    lambda step: 1,
    lambda step: step - 1,
    lambda step: step,
    lambda step: step + 1,
    lambda step: 3 * step + 2,
], ids=["0", "1", "step-1", "step", "step+1", "3step+2"])
def test_tile_boundaries_are_bit_identical(users, rows_of, monkeypatch):
    step = 3
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", step * users)
    args = kernel_inputs(rows_of(step), users)
    assert_bitwise_equal(score_block_kernel(*args), untiled_kernel(*args))


@pytest.mark.parametrize("rows", [0, 1, 7])
def test_more_users_than_the_budget_take_one_row_per_tile(rows, monkeypatch):
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", 64)
    args = kernel_inputs(rows, 1000, seed=3)
    assert_bitwise_equal(score_block_kernel(*args), untiled_kernel(*args))


@pytest.mark.parametrize("rows", [0, 5])
def test_no_users_score_minus_the_utility(rows):
    args = kernel_inputs(rows, 0)
    assert_bitwise_equal(score_block_kernel(*args), untiled_kernel(*args))


def test_negative_zero_interest(monkeypatch):
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", 2 * 300)
    args = kernel_inputs(9, 300, seed=5, negative_zero=True)
    assert_bitwise_equal(score_block_kernel(*args), untiled_kernel(*args))


@pytest.mark.parametrize("budget", [64, 2 * 300, 1 << 15])
def test_zero_denominators_are_zeroed_next_to_a_positive_interval(budget, monkeypatch):
    monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", budget)
    guarded = kernel_inputs(11, 300, seed=7, zero_interval=1)
    mu, value_mu, comp, sigma, scheduled, _, _ = guarded
    assert np.any(comp + scheduled == 0.0)
    assert np.any(comp + (scheduled + mu) == 0.0)
    # The same event rows at an interval whose comp + S is positive everywhere.
    positive = kernel_inputs(11, 300, seed=7, zero_interval=0)
    assert np.all(positive[2] + positive[4] > 0.0)
    for args in (guarded, positive):
        scores = score_block_kernel(*args)
        assert np.all(np.isfinite(scores))
        assert_bitwise_equal(scores, untiled_kernel(*args))


@pytest.mark.parametrize("backend", ["batch", "parallel"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_solves_match_the_default_budget(scheduler, backend, monkeypatch):
    instance = make_random_instance(seed=11, num_users=60, num_events=14, num_intervals=5)
    config = ExecutionConfig(backend=backend, chunk_size=5)
    reference = run_scheduler(scheduler, instance, 6, execution=config)
    for budget in (1, 2 * 60 + 1):
        monkeypatch.setattr(execution, "KERNEL_TILE_ELEMENTS", budget)
        result = run_scheduler(scheduler, instance, 6, execution=config)
        assert result.schedule.as_dict() == reference.schedule.as_dict()
        assert result.utility == reference.utility
        assert result.counters == reference.counters
