"""Block decomposition and scoring plans: mining, exactness, bounds, plan table.

Five contracts of the structure-exploiting scoring work:

* **Mining is exact** — the equivalence classes of
  :func:`repro.analysis.blocks.mine_interest_structure` match a brute-force
  grouping of the (µ row, σ row, comp row) triples, for every chunk size and
  storage;
* **The blocked plan is bit-identical** — schedules, utilities, scores and
  counter totals match the ``direct`` reference, including on instances
  large enough that NumPy's pairwise-summation tree would expose a
  wrong-layout expansion (the regression behind the ``take()`` gather), on
  every storage, and with the pattern matrix cached or streamed; once the
  engine is built it densifies no store block;
* **The structural Φ bound is sound** — it never under-estimates the best
  score of its interval, under a fresh engine and after assignments, so
  INC's interval skips cannot change one scheduled assignment; HOR-I never
  consults it;
* **Each instance is mined once** — the structure memoised on the instance
  equals a fresh mine on every layout, memoised runs equal cold ones, the
  five schedulers of one instance share one mine (only INC mines under
  ``direct``), copies mine their own, and the mined-from arrays turn
  read-only;
* **The plan table is fixed** — names in order, lookup and defaults.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from tests.conftest import (
    LAYOUTS,
    Layout,
    convert_storage,
    duplicate_heavy_instance,
    make_random_instance,
)
from repro.algorithms.inc import IncScheduler
from repro.algorithms.registry import run_scheduler
from repro.analysis.blocks import BlockedPlan, PatternEventRows, mine_interest_structure
from repro.core.errors import SolverError
from repro.core.execution import (
    ExecutionConfig,
    available_plans,
    get_plan,
    resolve_plan,
)
from repro.core import scoring
from repro.core.instance import SESInstance
from repro.core.patterns import mine_structure
from repro.core.scoring import (
    ScoringEngine,
    build_event_rows,
    build_pattern_matrix,
    build_static_arrays,
)
from repro.core.storage import DenseEventRows, StoreEventRows

SCHEDULERS = ("ALG", "INC", "HOR", "HOR-I", "TOP")


def brute_force_labels(instance: SESInstance) -> np.ndarray:
    """First-occurrence class labels from the raw (µ, σ, comp) row triples."""
    comp, sigma, _, _ = build_static_arrays(instance)
    store = instance.interest.store
    classes: dict = {}
    labels = np.empty(instance.num_users, dtype=np.intp)
    for user in range(instance.num_users):
        key = (
            store.row(user).tobytes(),
            sigma[user].tobytes(),
            comp[user].tobytes(),
        )
        labels[user] = classes.setdefault(key, len(classes))
    return labels


def reference_labels(mu: np.ndarray, sigma: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """First-occurrence class labels from ``np.unique`` over whole user rows.

    ``np.unique(axis=0)`` compares rows as floats, so ``-0.0 == 0.0`` here
    independently of the miner's byte-wise records.
    """
    rows = np.hstack((mu, sigma, comp))
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.intp)
    return rank[inverse.reshape(-1)]


def mining_case(name: str):
    """``(µ, σ, comp)`` user-major arrays of one named mining corner case."""
    rng = np.random.default_rng(5)
    if name == "signed-zero":
        mu = np.zeros((6, 5))
        mu[1::2] = -0.0  # users 1, 3, 5 differ from 0, 2, 4 only by sign bits
        mu[4, 2] = 0.5
        sigma = np.full((6, 3), 0.5)
        sigma[3, 1] = -0.0  # users 3 and 5 share σ up to the sign of zero
        sigma[5, 1] = 0.0
        return mu, sigma, np.zeros((6, 2))
    if name == "exact-ties":
        # Few distinct values on every axis: many users tie on whole rows.
        return (
            rng.integers(0, 2, (40, 7)) * 0.5,
            rng.integers(0, 2, (40, 3)) * 0.25,
            rng.integers(0, 2, (40, 2)) * 0.5,
        )
    if name == "single-user":
        return rng.random((1, 7)), rng.random((1, 3)), rng.random((1, 2))
    if name == "no-users":
        return np.empty((0, 7)), np.empty((0, 3)), np.empty((0, 2))
    return rng.random((30, 7)), rng.random((30, 3)), rng.random((30, 2))


def execution_for(plan: str) -> ExecutionConfig:
    return ExecutionConfig(plan=plan, chunk_size=7)


# --------------------------------------------------------------------------- #
# Mining
# --------------------------------------------------------------------------- #
class TestMining:
    def test_labels_match_brute_force_on_duplicate_heavy_instance(self):
        instance = duplicate_heavy_instance()
        structure = mine_interest_structure(instance)
        assert np.array_equal(structure.labels, brute_force_labels(instance))
        assert structure.num_classes <= 25

    def test_labels_match_brute_force_on_generic_instance(self):
        instance = make_random_instance(seed=11)
        structure = mine_interest_structure(instance)
        assert np.array_equal(structure.labels, brute_force_labels(instance))
        # Continuous random rows: every user is its own class.
        assert structure.num_classes == instance.num_users

    @pytest.mark.parametrize("chunk_size", [1, 3, 7])
    @pytest.mark.parametrize(
        "case", ["signed-zero", "exact-ties", "single-user", "no-users", "distinct"]
    )
    def test_mining_matches_whole_row_reference(self, case, chunk_size):
        mu, sigma, comp = mining_case(case)
        rows = np.ascontiguousarray(mu.T)
        structure = mine_structure(DenseEventRows(rows, rows), sigma, comp, chunk_size)
        expected = reference_labels(mu, sigma, comp)
        assert np.array_equal(structure.labels, expected)
        assert np.array_equal(
            structure.counts, np.bincount(expected, minlength=structure.num_classes)
        )
        first = [int(np.flatnonzero(expected == c)[0]) for c in range(structure.num_classes)]
        assert structure.representatives.tolist() == first
        if case == "signed-zero":
            assert structure.labels.tolist() == [0, 0, 0, 1, 2, 1]

    def test_counts_and_representatives_are_consistent(self):
        instance = duplicate_heavy_instance()
        structure = mine_interest_structure(instance)
        assert int(structure.counts.sum()) == instance.num_users
        # The representative of class c carries label c …
        assert np.array_equal(
            structure.labels[structure.representatives],
            np.arange(structure.num_classes),
        )
        # … and is its class's first occurrence in user order.
        for class_index, representative in enumerate(structure.representatives):
            members = np.flatnonzero(structure.labels == class_index)
            assert members[0] == representative
            assert len(members) == structure.counts[class_index]

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_mining_is_chunk_size_invariant(self, chunk_size):
        instance = duplicate_heavy_instance()
        reference = mine_interest_structure(instance)
        chunked = mine_interest_structure(instance, chunk_size=chunk_size)
        assert np.array_equal(chunked.labels, reference.labels)
        assert np.array_equal(chunked.representatives, reference.representatives)

    @pytest.mark.parametrize("storage", ["sparse", "mmap"])
    def test_mining_is_storage_invariant(self, storage, tmp_path):
        instance = duplicate_heavy_instance()
        reference = mine_interest_structure(instance)
        converted = convert_storage(instance, storage, tmp_path)
        mined = mine_interest_structure(converted)
        assert np.array_equal(mined.labels, reference.labels)

    def test_classes_refine_over_all_three_matrices(self):
        """Identical µ rows split when σ (or comp) differs."""
        interest = np.tile(np.array([[0.5, 0.25, 0.0]]), (4, 1))
        activity = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.5], [0.5, 0.5]])
        instance = SESInstance.from_arrays(
            interest=interest, activity=activity, name="split-on-sigma"
        )
        structure = mine_interest_structure(instance)
        assert structure.num_classes == 2
        assert structure.labels[0] == structure.labels[1] == structure.labels[3]
        assert structure.labels[2] != structure.labels[0]

    def test_duplication_ratio_and_stats(self):
        instance = duplicate_heavy_instance(num_users=100, num_patterns=10)
        structure = mine_interest_structure(instance)
        stats = structure.stats()
        assert stats["num_users"] == 100
        assert stats["num_classes"] == structure.num_classes
        assert stats["duplication_ratio"] == pytest.approx(
            100 / structure.num_classes
        )


# --------------------------------------------------------------------------- #
# Blocked-plan exactness
# --------------------------------------------------------------------------- #
class TestBlockedPlanExactness:
    def test_score_matrix_bit_identical_on_wide_instance(self):
        """Regression for the expansion layout: at thousands of users NumPy's
        pairwise summation takes a different reduction tree over an
        F-contiguous expansion, so only a C-contiguous gather keeps the sums
        bit-identical."""
        instance = duplicate_heavy_instance(
            num_users=2000, num_patterns=50, num_events=60, num_intervals=4
        )
        direct = ScoringEngine(instance, execution=execution_for("direct"))
        blocked = ScoringEngine(instance, execution=execution_for("blocked"))
        assert np.array_equal(
            direct.score_matrix(count=False), blocked.score_matrix(count=False)
        )

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_schedulers_bit_identical_across_plans(self, scheduler):
        instance = duplicate_heavy_instance(num_users=300, num_patterns=15)
        results = {
            plan: run_scheduler(scheduler, instance, 4, execution=execution_for(plan))
            for plan in ("direct", "blocked")
        }
        direct, blocked = results["direct"], results["blocked"]
        assert blocked.schedule.as_dict() == direct.schedule.as_dict()
        assert blocked.utility == direct.utility
        assert blocked.counters == direct.counters
        assert blocked.plan == "blocked"
        assert direct.plan == "direct"

    @pytest.mark.parametrize("storage", ["sparse", "mmap"])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_blocked_plan_bit_identical_across_storages(self, scheduler, storage, tmp_path):
        """Blocked on sparse/mmap equals direct on dense storage."""
        instance = duplicate_heavy_instance(num_users=300, num_patterns=15)
        converted = convert_storage(instance, storage, tmp_path)
        dense_direct = run_scheduler(scheduler, instance, 4, execution=execution_for("direct"))
        other_blocked = run_scheduler(
            scheduler, converted, 4, execution=execution_for("blocked")
        )
        assert other_blocked.schedule.as_dict() == dense_direct.schedule.as_dict()
        assert other_blocked.utility == dense_direct.utility
        assert other_blocked.counters == dense_direct.counters

    def test_interval_scores_with_unsorted_selector_on_mmap(self, tmp_path):
        """The INC/HOR-I refresh path: an explicit, unsorted event subset."""
        instance = duplicate_heavy_instance(num_users=300, num_patterns=15)
        mmap_blocked = ScoringEngine(
            convert_storage(instance, "mmap", tmp_path), execution=execution_for("blocked")
        )
        dense_direct = ScoringEngine(instance, execution=execution_for("direct"))
        selector = [17, 3, 29, 0, 11, 8, 22, 5, 14, 26, 1]
        for engine in (mmap_blocked, dense_direct):
            engine.apply(4, 0)
            engine.apply(9, 2)
        for interval_index in range(instance.num_intervals):
            expected = dense_direct.interval_scores(interval_index, selector, count=False)
            assert np.array_equal(
                mmap_blocked.interval_scores(interval_index, selector, count=False),
                expected,
            )
            assert np.array_equal(
                mmap_blocked.refresh_scores(interval_index, selector, count=False),
                expected,
            )

    @pytest.mark.parametrize("storage", ["dense", "mmap"])
    def test_over_budget_pattern_matrix_streams_store_blocks(
        self, storage, tmp_path, monkeypatch
    ):
        """Past the memory budget the plan gathers per block — same results."""
        from repro.core import scoring

        instance = duplicate_heavy_instance(num_users=300, num_patterns=15)
        num_classes = mine_interest_structure(instance).num_classes
        monkeypatch.setattr(
            scoring, "DEFAULT_CHUNK_ELEMENTS", instance.num_events * num_classes - 1
        )
        converted = convert_storage(instance, storage, tmp_path)
        engine = ScoringEngine(converted, execution=execution_for("blocked"))
        plan = engine.scoring_plan
        assert plan.pattern_matrix() is None
        assert plan.event_rows() is not None
        direct = ScoringEngine(instance, execution=execution_for("direct"))
        assert np.array_equal(
            engine.score_matrix(count=False), direct.score_matrix(count=False)
        )
        # The Φ bound falls back to its per-user tier under either plan, so
        # INC/HOR-I counters (interval skips included) still match.
        for scheduler in ("INC", "HOR-I", "TOP"):
            blocked = run_scheduler(
                scheduler, converted, 4, execution=execution_for("blocked")
            )
            reference = run_scheduler(
                scheduler, instance, 4, execution=execution_for("direct")
            )
            assert blocked.schedule.as_dict() == reference.schedule.as_dict()
            assert blocked.utility == reference.utility
            assert blocked.counters == reference.counters

    def test_mmap_blocked_densifies_no_store_block_after_construction(
        self, tmp_path, monkeypatch
    ):
        """Bulk scoring and the Φ bound read the cached pattern matrix only."""
        instance = duplicate_heavy_instance(num_users=300, num_patterns=15)
        engine = ScoringEngine(
            convert_storage(instance, "mmap", tmp_path), execution=execution_for("blocked")
        )
        densified = []
        original = StoreEventRows.block

        def counting_block(self, start, stop):
            densified.append((start, stop))
            return original(self, start, stop)

        monkeypatch.setattr(StoreEventRows, "block", counting_block)
        engine.score_matrix(count=False)
        engine.interval_scores(1, count=False)
        engine.interval_scores(2, [9, 1, 5], count=False)
        engine.interval_score_bound(0)
        engine.apply(3, 0)
        engine.refresh_scores(0, [7, 2], count=False)
        assert densified == []

    def test_pattern_rows_match_full_rows_representative_columns(self, tmp_path):
        """Cached and streamed pattern rows hold the full rows' elements."""
        instance = duplicate_heavy_instance(num_users=200, num_patterns=10)
        mmap_instance = convert_storage(instance, "mmap", tmp_path)
        comp, sigma, values, _ = build_static_arrays(mmap_instance)
        full = build_event_rows(mmap_instance.interest.store, values)
        structure = mine_interest_structure(mmap_instance)
        reps = structure.representatives
        cached = PatternEventRows(
            build_pattern_matrix(full, structure, 4), full, reps, values
        )
        streamed = PatternEventRows(None, full, reps, values)
        selector = np.array([12, 0, 7, 7, 21])
        for source, expected in (
            (cached, full),
            (streamed, full),
            (cached.select(selector), full.select(selector)),
            (streamed.select(selector), full.select(selector)),
        ):
            assert source.num_rows == expected.num_rows
            for start, stop in ((0, 3), (2, source.num_rows)):
                mu_rows, value_mu_rows = source.block(start, stop)
                full_mu, full_value_mu = expected.block(start, stop)
                assert np.array_equal(mu_rows, full_mu[:, reps])
                assert np.array_equal(value_mu_rows, full_value_mu[:, reps])

    def test_degenerate_structure_falls_back_to_direct(self):
        """All-distinct users: the plan detects the identity decomposition."""
        instance = make_random_instance(seed=3)
        engine = ScoringEngine(instance, execution=execution_for("blocked"))
        assert isinstance(engine._plan_impl, BlockedPlan)
        assert engine._plan_impl._degenerate
        direct = ScoringEngine(instance, execution=execution_for("direct"))
        assert np.array_equal(
            engine.score_matrix(count=False), direct.score_matrix(count=False)
        )

    def test_blocked_layouts_refuse_the_degenerate_fallback(self, tmp_path_factory):
        """The equivalence suites' blocked cases cannot silently run direct."""
        layout = Layout("dense", "blocked", tmp_path_factory)
        with pytest.raises(AssertionError):
            layout.convert(make_random_instance(seed=3))
        layout.instance(seed=3)  # duplicate-heavy users: accepted

    def test_plan_is_recorded_in_result_and_summary(self):
        instance = duplicate_heavy_instance(num_users=120, num_patterns=8)
        result = run_scheduler(
            "TOP", instance, 3, execution=execution_for("blocked")
        )
        assert result.plan == "blocked"
        assert result.summary()["plan"] == "blocked"

    def test_blocked_plan_stats_report_savings(self):
        instance = duplicate_heavy_instance(num_users=120, num_patterns=8)
        engine = ScoringEngine(instance, execution=execution_for("blocked"))
        engine.score_matrix(count=False)
        stats = engine._plan_impl.stats()
        assert stats["num_classes"] <= 8
        assert stats["blocks_evaluated"] > 0
        assert stats["columns_saved"] > 0


# --------------------------------------------------------------------------- #
# Structural Φ bound
# --------------------------------------------------------------------------- #
#: case -> (make_random_instance overrides, reference branches it must reach).
BOUND_CASES = {
    "competing": ({"seed": 5}, set()),
    # One or two competing events: small competing sums, so an event's µ
    # exceeds C + S and its classes hit the gain cap.
    "cap": ({"seed": 6, "num_competing": 2}, {"capped"}),
    # No competing events: every class starts with a zero denominator.
    "no-competing": ({"seed": 7, "num_competing": 0}, {"capped", "zero"}),
    # Competing interests around 1e-12: positive denominators so small that
    # µ/d is ~1e12, where a cap subtracted from µ·g would cancel.
    "tiny-competing": (
        {"seed": 8, "num_competing": 2, "competing_scale": 1e-12},
        {"capped", "tiny"},
    ),
}


def reference_bound(instance: SESInstance, applied: dict, interval_index: int):
    """The structural Φ bound computed per user, straight from its docstring.

    ``Σ_u σ·min(µ/d, 1)·max(0, v_max − SV/d)`` over users with ``d = C + S >
    0``, maximised over the unapplied events, plus ``Σ σ·max_value`` over the
    users with ``d = 0``.  Also returns which branches were reached:
    ``"capped"`` (some user's µ exceeds its positive ``d``), ``"tiny"``
    (some positive ``d`` is below 1e-9) and ``"zero"``.
    """
    mu = np.asarray(instance.interest.values, dtype=np.float64)
    comp, sigma, values, _ = build_static_arrays(instance)
    here = [event for event, interval in applied.items() if interval == interval_index]
    scheduled = mu[:, here].sum(axis=1)
    scheduled_value = (mu[:, here] * values[here]).sum(axis=1)
    denominator = comp[:, interval_index] + scheduled
    positive = denominator > 0.0
    safe = np.where(positive, denominator, 1.0)
    headroom = np.where(positive, np.maximum(0.0, values.max() - scheduled_value / safe), 0.0)
    weight = sigma[:, interval_index]
    gains = [
        float((weight * np.minimum(mu[:, event] / safe, 1.0) * headroom).sum())
        for event in range(instance.num_events)
        if event not in applied
    ]
    max_value = np.where(mu > 0.0, values, 0.0).max(axis=1)
    bound = max(gains) + float((weight * max_value)[~positive].sum())
    flags = set()
    if (mu[positive] > denominator[positive, np.newaxis]).any():
        flags.add("capped")
    if (denominator[positive] < 1e-9).any():
        flags.add("tiny")
    if not positive.all():
        flags.add("zero")
    return bound, flags


class TestStructuralBound:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bound_is_sound_fresh_and_after_assignments(self, seed):
        instance = duplicate_heavy_instance(seed=seed)
        engine = ScoringEngine(instance, execution=execution_for("direct"))
        for _ in range(3):
            matrix = engine.score_matrix(count=False)
            best_event = None
            for interval_index in range(instance.num_intervals):
                bound = engine.interval_score_bound(interval_index)
                column = matrix[:, interval_index]
                tolerance = engine.score_noise_tolerance(interval_index)
                assert bound >= column.max() - tolerance, (
                    f"unsound bound at interval {interval_index}: "
                    f"{bound} < {column.max()}"
                )
                if best_event is None:
                    best_event = int(np.argmax(column))
            # Grow the schedule and re-check: apply() invalidates the
            # interval's cached bound, so the next round re-derives it
            # against the new scheduled sums.
            engine.apply(best_event, 0)

    @pytest.mark.parametrize("case", sorted(BOUND_CASES))
    def test_bound_matches_the_per_user_reference(self, layout, case):
        """The class-space bound equals the docstring's per-user form after 0–3 applies."""
        config, expect = BOUND_CASES[case]
        instance = layout.instance(num_users=48, num_events=12, num_intervals=4, **config)
        applied = {}
        seen = set()
        for target in (None, 0, 0, 1):
            # A fresh engine per state: a cached bound outlives applies at
            # other intervals (still sound, but over a stale event set).
            engine = ScoringEngine(instance, execution=layout.execution())
            for event_index, interval_index in applied.items():
                engine.apply(event_index, interval_index)
            if target is not None:
                scores = engine.interval_scores(target, count=False)
                scores[list(applied)] = -np.inf
                best = int(np.argmax(scores))
                engine.apply(best, target)
                applied[best] = target
            for interval_index in range(instance.num_intervals):
                expected, flags = reference_bound(instance, applied, interval_index)
                seen |= flags
                scale = engine.instance.activity[:, interval_index].sum()
                assert engine.interval_score_bound(interval_index) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12 * scale
                ), (case, applied, interval_index)
        assert expect <= seen, f"{case} never reached {expect - seen}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bound_is_sound_with_unequal_event_values(self, seed):
        """The v_max headroom still caps every fresh score when values differ."""
        instance = make_random_instance(
            num_users=60,
            num_events=14,
            num_intervals=4,
            seed=seed,
            users_per_pattern=3,
            event_values=np.linspace(0.25, 3.0, 14),
        )
        engine = ScoringEngine(instance, execution=execution_for("direct"))
        _, sigma, values, _ = build_static_arrays(instance)
        for round_index in range(4):
            matrix = engine.score_matrix(count=False)
            matrix[list(engine.applied_assignments())] = -np.inf
            for interval_index in range(instance.num_intervals):
                slack = 1e-9 * (1.0 + sigma[:, interval_index].sum() * values.max())
                assert engine.interval_score_bound(interval_index) >= (
                    matrix[:, interval_index].max() - slack
                ), (seed, round_index, interval_index)
            target = round_index % 2
            engine.apply(int(np.argmax(matrix[:, target])), target)

    def test_bounds_do_not_change_schedules(self):
        instance = duplicate_heavy_instance()
        results = {}
        for bounded in (False, True):
            scheduler = IncScheduler(
                instance,
                execution=execution_for("direct"),
                use_interval_bounds=bounded,
            )
            results[bounded] = scheduler.schedule(4)
        assert results[True].schedule.as_dict() == results[False].schedule.as_dict()
        assert results[True].utility == results[False].utility
        # The bound can only remove evaluations.
        assert results[True].score_computations <= results[False].score_computations
        # The unbounded run never consults the bound.
        assert results[False].counters.get("extra.phi_bound_interval_skips", 0) == 0

    @pytest.mark.parametrize("plan", ["direct", "blocked"])
    @pytest.mark.parametrize("storage", ["dense", "mmap"])
    def test_hor_i_never_consults_the_bound(self, storage, plan, tmp_path, monkeypatch):
        """HOR-I prunes with stale scores only: no bound, no bound-side mining."""
        instance = convert_storage(
            duplicate_heavy_instance(num_users=300, num_patterns=15), storage, tmp_path
        )
        k = 2 * instance.num_intervals + 1  # three rounds: refresh and lazy tops run
        reference = run_scheduler("HOR", instance, k, execution=execution_for(plan))
        # Under direct, HOR mined nothing, so the refused miner below guards
        # HOR-I itself; under blocked, HOR's plan already filled the memo.
        assert (instance._interest_structure is None) == (plan == "direct")

        def refuse(*args, **kwargs):
            raise AssertionError("HOR-I consulted the structural Φ bound")

        monkeypatch.setattr(ScoringEngine, "interval_score_bound", refuse)
        monkeypatch.setattr(scoring, "mine_structure", refuse)
        result = run_scheduler("HOR-I", instance, k, execution=execution_for(plan))
        assert result.schedule.as_dict() == reference.schedule.as_dict()
        assert result.utility == reference.utility
        assert result.counters.get("extra.phi_bound_evaluations", 0) == 0
        assert result.counters.get("extra.phi_bound_interval_skips", 0) == 0

    def test_inc_skips_the_bound_when_it_cannot_prune(self, monkeypatch):
        """Unequal event values make the score tolerance infinite, so no skip can fire."""
        instance = make_random_instance(
            num_users=120,
            num_events=30,
            num_intervals=6,
            seed=3,
            event_values=np.linspace(0.5, 2.0, 30),
        )
        k = 2 * instance.num_intervals + 1
        reference = run_scheduler("ALG", instance, k, execution=execution_for("direct"))
        assert instance._interest_structure is None

        def refuse(*args, **kwargs):
            raise AssertionError("INC consulted a structural Φ bound that cannot prune")

        monkeypatch.setattr(ScoringEngine, "interval_score_bound", refuse)
        monkeypatch.setattr(scoring, "mine_structure", refuse)
        result = run_scheduler("INC", instance, k, execution=execution_for("direct"))
        assert result.schedule.as_dict() == reference.schedule.as_dict()
        assert result.utility.hex() == reference.utility.hex()
        assert result.counters.get("extra.phi_bound_evaluations", 0) == 0

    def test_bound_actually_prunes_on_skewed_instance(self):
        instance = duplicate_heavy_instance(num_users=900, num_patterns=40)
        result = IncScheduler(
            instance, execution=execution_for("direct")
        ).schedule(4)
        assert result.counters.get("extra.phi_bound_evaluations", 0) > 0
        assert result.counters.get("extra.phi_bound_interval_skips", 0) > 0


# --------------------------------------------------------------------------- #
# The per-instance structure memo
# --------------------------------------------------------------------------- #
def count_mines(monkeypatch) -> list:
    """Record every real mine behind :func:`repro.core.scoring.instance_structure`."""
    mines = []
    original = scoring.mine_structure

    def counting(*args, **kwargs):
        mines.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scoring, "mine_structure", counting)
    return mines


def assert_same_structure(left, right) -> None:
    assert np.array_equal(left.labels, right.labels)
    assert np.array_equal(left.representatives, right.representatives)
    assert np.array_equal(left.counts, right.counts)


class TestInstanceStructureMemo:
    @pytest.mark.parametrize("layout", LAYOUTS, indirect=True)
    def test_memo_equals_a_fresh_mine(self, layout):
        instance = layout.instance(seed=81, num_users=48, num_events=12, num_intervals=4)
        run_scheduler("INC", instance, 6, execution=layout.execution())
        memo = instance._interest_structure
        assert memo is not None
        comp, sigma, values, _ = build_static_arrays(instance)
        fresh = mine_structure(
            build_event_rows(instance.interest.store, values), sigma, comp, 5
        )
        assert_same_structure(memo, fresh)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("layout", LAYOUTS, indirect=True)
    def test_memoised_run_equals_cold_run(self, layout, scheduler):
        instance = layout.instance(seed=82, num_users=48, num_events=12, num_intervals=4)
        runs = [
            run_scheduler(scheduler, target, 7, execution=layout.execution())
            for target in (instance, instance, dataclasses.replace(instance))
        ]
        assert instance._interest_structure is not None or layout.plan == "direct"
        first = runs[0]
        for other in runs[1:]:
            assert other.schedule.as_dict() == first.schedule.as_dict()
            assert other.utility == first.utility
            assert other.counters == first.counters

    @pytest.mark.parametrize("plan", ["direct", "blocked"])
    @pytest.mark.parametrize("storage", ["dense", "mmap"])
    def test_schedulers_of_one_instance_mine_once(
        self, storage, plan, tmp_path, monkeypatch
    ):
        """Blocked: every engine needs classes, one mine.  Direct: INC's bound only."""
        instance = convert_storage(
            duplicate_heavy_instance(num_users=300, num_patterns=15), storage, tmp_path
        )
        mines = count_mines(monkeypatch)
        after = {}
        for scheduler in SCHEDULERS:
            run_scheduler(scheduler, instance, 8, execution=execution_for(plan))
            after[scheduler] = len(mines)
        if plan == "blocked":
            assert after == dict.fromkeys(SCHEDULERS, 1)
        else:
            assert after == {"ALG": 0, "INC": 1, "HOR": 1, "HOR-I": 1, "TOP": 1}

    def test_copies_mine_their_own_equal_structure(self, monkeypatch):
        instance = duplicate_heavy_instance(num_users=200, num_patterns=12)
        mines = count_mines(monkeypatch)
        run_scheduler("TOP", instance, 5, execution=execution_for("blocked"))
        original = instance._interest_structure
        for copy in (dataclasses.replace(instance), instance.with_storage("sparse")):
            assert copy._interest_structure is None
            before = len(mines)
            run_scheduler("TOP", copy, 5, execution=execution_for("blocked"))
            assert len(mines) == before + 1
            assert copy._interest_structure is not original
            assert_same_structure(copy._interest_structure, original)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_in_place_write_after_a_solve_raises(self, storage):
        instance = convert_storage(make_random_instance(seed=83), storage)
        writable = instance.interest.values if storage == "dense" else None
        if writable is not None:
            writable[0, 0] = 0.5  # before any solve: allowed
        run_scheduler("INC", instance, 4, execution=execution_for("direct"))
        structure = instance._interest_structure
        targets = [
            instance.activity,
            instance.user_weights,
            instance.competing_sums,
            structure.labels,
            structure.representatives,
            structure.counts,
        ]
        if storage == "dense":
            targets.append(instance.interest.values)
        else:
            targets.extend(instance.interest.store.csr_arrays)
        for array in targets:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestPlanRegistry:
    def test_builtin_plans_are_registered_in_order(self):
        assert available_plans()[:2] == ("direct", "blocked")

    def test_get_plan_unknown_name(self):
        with pytest.raises(SolverError, match="unknown scoring plan 'nope'"):
            get_plan("nope")

    def test_resolve_plan_defaults(self):
        assert resolve_plan(None) == "direct"
        assert resolve_plan("blocked") == "blocked"
        with pytest.raises(SolverError, match="unknown scoring plan"):
            resolve_plan("nope")

    def test_core_resolves_blocked_plan_without_analysis(self):
        """``repro.core`` owns the ``blocked`` plan: no import of ``repro.analysis`` needed."""
        script = textwrap.dedent(
            """
            import sys

            import numpy as np

            import repro.core.execution
            from repro.core.execution import ExecutionConfig
            from repro.core.instance import SESInstance
            from repro.core.scoring import ScoringEngine

            rng = np.random.default_rng(0)
            patterns = rng.random((4, 6))
            instance = SESInstance.from_arrays(
                interest=np.repeat(patterns, 5, axis=0),
                activity=np.repeat(rng.random((4, 3)), 5, axis=0),
            )
            engine = ScoringEngine(instance, execution=ExecutionConfig(plan="blocked"))
            assert engine.plan == "blocked"
            assert engine.score_matrix().shape == (6, 3)
            assert engine.scoring_plan.stats()["num_classes"] == 4
            assert "repro.analysis.blocks" not in sys.modules, "repro.analysis.blocks was loaded"
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        # The analysis module re-exports the very class the core table holds.
        assert BlockedPlan is get_plan("blocked")
