"""Round-level equivalence of the batched incremental refresh (INC / HOR-I).

The scoring equivalence suites lock down the *generation* phase; these
suites extend the guarantee to every later round.  Under the batched
stale-refresh path (Φ-cut block fetches through
:meth:`~repro.core.scoring.ScoringEngine.refresh_scores`, one update
computation counted per consumed score) INC must still produce exactly ALG's
schedule and HOR-I exactly HOR's, and every counter total —
``assignments_examined``, ``score_computations``, ``user_computations``,
``initial_computations``/``update_computations`` — must be *identical*
between the per-pair oracle (``tests/oracle.py``) and the engine's bulk
path, with and without event-axis chunking.

The case grid deliberately includes score ties, zero-interest users, tight
resource/location constraints and ``k > |T|`` (multi-round HOR-I refreshes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.counters import ComputationCounter
from repro.core.errors import SolverError
from repro.core.execution import (
    DEFAULT_CHUNK_ELEMENTS,
    ExecutionConfig,
    resolve_chunk_size,
)
from repro.core.instance import SESInstance
from repro.core.scoring import ScoringEngine
from tests.conftest import execution_variants, make_random_instance
from tests.oracle import per_pair_scoring


def _zero_interest_instance():
    """A random instance where a third of the users have no interest at all."""
    instance = make_random_instance(seed=72, num_users=45, num_events=16, num_intervals=5)
    instance.interest.values[:15, :] = 0.0
    return instance


#: name -> (instance factory, k).  k exceeds |T| in most cases so that the
#: incremental update paths (not just generation) carry real work.
REFRESH_CASES = {
    "random": (lambda: make_random_instance(seed=70, num_events=16, num_intervals=5), 11),
    "ties": (
        lambda: make_random_instance(seed=71, interest_scale=0.0, num_events=14, num_intervals=4),
        9,
    ),
    "zero_interest_users": (_zero_interest_instance, 10),
    "tight_constraints": (
        lambda: make_random_instance(
            seed=73, num_locations=2, available_resources=6.0, resource_high=4.0,
            num_events=16, num_intervals=5,
        ),
        10,
    ),
    # k = 3·|T| forces three HOR-I rounds (two round-start refreshes).
    "multi_round": (
        lambda: make_random_instance(seed=74, num_events=21, num_intervals=3, num_competing=6),
        9,
    ),
}

CASE_IDS = sorted(REFRESH_CASES)


def _run_pair(algorithm, case, execution=None, **execution_kwargs):
    factory, k = REFRESH_CASES[case]
    return run_scheduler(
        algorithm, factory(), k, execution=execution or ExecutionConfig(**execution_kwargs)
    )


class TestRoundLevelEquivalence:
    """INC ≡ ALG and HOR-I ≡ HOR on every execution variant, counters equal to the oracle's."""

    @pytest.mark.parametrize("case", CASE_IDS)
    @pytest.mark.parametrize("variant", execution_variants())
    def test_inc_matches_alg(self, case, variant, execution_for):
        alg = _run_pair("ALG", case, execution_for(variant))
        inc = _run_pair("INC", case, execution_for(variant))
        assert inc.schedule.as_dict() == alg.schedule.as_dict()
        assert inc.utility == alg.utility

    @pytest.mark.parametrize("case", CASE_IDS)
    @pytest.mark.parametrize("variant", execution_variants())
    def test_hor_i_matches_hor(self, case, variant, execution_for):
        hor = _run_pair("HOR", case, execution_for(variant))
        hor_i = _run_pair("HOR-I", case, execution_for(variant))
        assert hor_i.schedule.as_dict() == hor.schedule.as_dict()
        assert hor_i.utility == hor.utility

    @pytest.mark.parametrize("case", CASE_IDS)
    @pytest.mark.parametrize("algorithm", ["INC", "HOR-I"])
    def test_counters_match_oracle(self, case, algorithm):
        bulk = _run_pair(algorithm, case)
        with per_pair_scoring():
            oracle = _run_pair(algorithm, case)
        assert bulk.schedule.as_dict() == oracle.schedule.as_dict()
        assert bulk.utility == oracle.utility
        assert bulk.counters == oracle.counters

    @pytest.mark.parametrize("case", CASE_IDS)
    @pytest.mark.parametrize("algorithm", ["INC", "HOR-I"])
    @pytest.mark.parametrize("chunk_size", [1, 2, 5, None])
    def test_chunking_changes_nothing(self, case, algorithm, chunk_size):
        with per_pair_scoring():
            reference = _run_pair(algorithm, case)
        chunked = _run_pair(algorithm, case, chunk_size=chunk_size)
        assert chunked.schedule.as_dict() == reference.schedule.as_dict()
        assert chunked.utility == reference.utility
        assert chunked.counters == reference.counters

    @pytest.mark.parametrize("algorithm", ["INC", "HOR-I"])
    def test_update_phase_is_exercised(self, algorithm):
        """The multi-round case must actually hit the refresh paths, or the
        equivalence assertions above are vacuous."""
        assert _run_pair(algorithm, "multi_round").counters["update_computations"] > 0
        with per_pair_scoring():
            assert _run_pair(algorithm, "multi_round").counters["update_computations"] > 0


class TestRefreshScoresApi:
    """The engine's bulk stale-refresh entry point."""

    @pytest.mark.parametrize("variant", execution_variants())
    def test_matches_per_pair_scores(self, variant, execution_for):
        instance = make_random_instance(seed=80, num_events=12, num_intervals=4)
        engine = ScoringEngine(instance, execution=execution_for(variant))
        engine.apply(0, 1)
        engine.apply(3, 1)
        events = [1, 2, 5, 9, 11]
        bulk = engine.refresh_scores(1, events, count=False)
        for event, score in zip(events, bulk):
            assert float(score) == engine.assignment_score(event, 1, count=False)

    def test_counts_update_computations(self):
        instance = make_random_instance(seed=81, num_events=10, num_intervals=3)
        counter = ComputationCounter(num_users=instance.num_users)
        engine = ScoringEngine(instance, counter=counter)
        engine.refresh_scores(0, [1, 2, 3])
        assert counter.score_computations == 3
        assert counter.update_computations == 3
        assert counter.initial_computations == 0
        assert counter.user_computations == 3 * instance.num_users

    def test_count_false_is_silent(self):
        instance = make_random_instance(seed=82, num_events=10, num_intervals=3)
        counter = ComputationCounter(num_users=instance.num_users)
        engine = ScoringEngine(instance, counter=counter)
        engine.refresh_scores(0, [1, 2, 3], count=False)
        assert counter.snapshot() == ComputationCounter(num_users=instance.num_users).snapshot()


def _cohort_instance(seed=1, num_events=120, num_intervals=10, num_users=200, cohorts=20):
    """Users from a few interest cohorts, Zipf event popularity, decaying activity."""
    rng = np.random.default_rng(seed)
    popularity = (rng.permutation(num_events) + 1.0) ** -1.0
    interested = rng.random((cohorts, num_events)) < 0.15
    interest = np.where(interested, rng.random((cohorts, num_events)) * popularity, 0.0)
    activity = rng.random((cohorts, num_intervals)) * np.geomspace(1.0, 0.05, num_intervals)
    competing = rng.random((cohorts, 6))
    members = rng.integers(0, cohorts, num_users)
    return SESInstance.from_arrays(
        interest=interest[members],
        activity=activity[members],
        competing_interest=competing[members],
        competing_interval_indices=[index % num_intervals for index in range(6)],
        name="cohort-fetches",
    )


class TestFetchWaste:
    """Rows the walks fetch speculatively versus the update computations they consume.

    On this cohort instance the walks that fetched whole stale prefixes in
    fixed 64-row blocks requested 906 rows for HOR-I's 76 update
    computations (11.9×) and 177 rows for INC's 172.  HOR-I's round-start
    refresh had no bound to cut its first block; the Φ-cut blocks fetch the
    head alone first.
    """

    @staticmethod
    def _fetched(monkeypatch, algorithm, instance, k):
        requested = []
        refresh = ScoringEngine.refresh_scores

        def counting(self, interval_index, event_indices, *, count=True):
            if not count:
                requested.append(len(event_indices))
            return refresh(self, interval_index, event_indices, count=count)

        monkeypatch.setattr(ScoringEngine, "refresh_scores", counting)
        result = run_scheduler(algorithm, instance, k)
        monkeypatch.undo()
        return sum(requested), result.counters["update_computations"]

    def test_hor_i_fetches_at_most_twice_what_it_consumes(self, monkeypatch):
        instance = _cohort_instance()
        k = 2 * instance.num_intervals
        fetched, consumed = self._fetched(monkeypatch, "HOR-I", instance, k)
        assert consumed == 76
        assert fetched <= 2 * consumed

    def test_inc_fetches_no_more_than_the_prefix_walk(self, monkeypatch):
        instance = _cohort_instance()
        k = 2 * instance.num_intervals
        fetched, consumed = self._fetched(monkeypatch, "INC", instance, k)
        assert consumed == 172
        assert consumed <= fetched <= 177


class TestChunking:
    """The event-axis memory guard of the bulk path."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 1000])
    def test_interval_scores_bit_identical(self, chunk_size):
        instance = make_random_instance(seed=83, num_events=23, num_intervals=4)
        whole = ScoringEngine(instance, execution=ExecutionConfig(chunk_size=10_000))
        chunked = ScoringEngine(instance, execution=ExecutionConfig(chunk_size=chunk_size))
        for interval in range(instance.num_intervals):
            a = whole.interval_scores(interval, count=False)
            b = chunked.interval_scores(interval, count=False)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk_size", [1, 4, 50])
    def test_score_matrix_bit_identical(self, chunk_size):
        instance = make_random_instance(seed=84, num_events=17, num_intervals=5)
        whole = ScoringEngine(instance, execution=ExecutionConfig(chunk_size=10_000))
        chunked = ScoringEngine(instance, execution=ExecutionConfig(chunk_size=chunk_size))
        assert np.array_equal(
            whole.score_matrix(count=False), chunked.score_matrix(count=False)
        )

    def test_default_chunk_bounds_memory(self):
        instance = make_random_instance(seed=85, num_users=40)
        engine = ScoringEngine(instance, execution=ExecutionConfig())
        assert engine.chunk_size == DEFAULT_CHUNK_ELEMENTS // 40

    def test_resolve_chunk_size_validation(self):
        assert resolve_chunk_size(None, 1_000_000) == DEFAULT_CHUNK_ELEMENTS // 1_000_000
        assert resolve_chunk_size(None, 10 * DEFAULT_CHUNK_ELEMENTS) == 1
        assert resolve_chunk_size(17, 5) == 17
        for bad in (0, -3, 2.5, True, "many"):
            with pytest.raises(SolverError):
                resolve_chunk_size(bad, 10)


class TestResultPlumbing:
    """Plan provenance on results and records (the harness satellites)."""

    def test_summary_includes_plan(self, small_instance):
        for plan in ("direct", "blocked"):
            result = run_scheduler("TOP", small_instance, 3, execution=ExecutionConfig(plan=plan))
            assert result.plan == plan
            assert result.summary()["plan"] == plan

    def test_metric_record_params_include_plan(self, small_instance):
        from repro.experiments.harness import run_algorithms

        records = run_algorithms(
            small_instance,
            3,
            algorithms=["ALG", "TOP"],
            execution=ExecutionConfig(plan="blocked"),
        )
        assert all(record.params["plan"] == "blocked" for record in records)
        rows = [record.to_row() for record in records]
        assert all(row["param.plan"] == "blocked" for row in rows)
