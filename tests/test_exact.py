"""Tests for the exhaustive optimal solver (repro.algorithms.exact)."""

import numpy as np
import pytest

from repro.algorithms.alg import AlgScheduler
from repro.algorithms.exact import ExactScheduler, optimum
from repro.algorithms.hor import HorScheduler
from repro.algorithms.registry import run_scheduler
from repro.core.constraints import is_schedule_feasible
from repro.core.errors import SolverError
from repro.core.instance import SESInstance
from tests.conftest import LAYOUTS, make_random_instance


def tiny_instance(seed: int = 0, num_events: int = 5, num_intervals: int = 3) -> SESInstance:
    rng = np.random.default_rng(seed)
    return SESInstance.from_arrays(
        interest=rng.random((15, num_events)),
        activity=rng.random((15, num_intervals)),
        competing_interest=rng.random((15, 4)),
        competing_interval_indices=list(rng.integers(0, num_intervals, 4)),
        locations=[f"loc{i % 2}" for i in range(num_events)],
        required_resources=[1.0] * num_events,
        available_resources=3.0,
        name=f"tiny-{seed}",
    )


class TestExactSolver:
    def test_running_example_optimum(self, running_example):
        result = ExactScheduler(running_example).schedule(3)
        assert result.num_scheduled == 3
        # The optimum dominates the greedy schedule of Example 2 (greedy is not
        # optimal on this instance: ≈1.428 vs ≈1.407).
        alg = AlgScheduler(running_example).schedule(3)
        assert result.utility >= alg.utility - 1e-9
        assert result.utility == pytest.approx(1.428, abs=0.002)

    def test_feasibility_of_optimum(self):
        instance = tiny_instance(seed=1)
        result = ExactScheduler(instance).schedule(3)
        assert is_schedule_feasible(instance, result.schedule)

    def test_greedy_never_beats_exact(self):
        for seed in range(4):
            instance = tiny_instance(seed=seed)
            best = optimum(instance, 3)
            for scheduler_cls in (AlgScheduler, HorScheduler):
                greedy = scheduler_cls(instance).schedule(3)
                assert greedy.utility <= best + 1e-9

    def test_greedy_usually_close_to_exact(self):
        ratios = []
        for seed in range(4):
            instance = tiny_instance(seed=seed)
            best = optimum(instance, 3)
            greedy = AlgScheduler(instance).schedule(3).utility
            ratios.append(greedy / best if best > 0 else 1.0)
        assert min(ratios) > 0.8

    def test_optimum_monotone_in_k(self):
        instance = tiny_instance(seed=5)
        assert optimum(instance, 1) <= optimum(instance, 2) + 1e-12
        assert optimum(instance, 2) <= optimum(instance, 3) + 1e-12

    def test_schedules_exactly_k_when_feasible(self):
        instance = tiny_instance(seed=2)
        result = ExactScheduler(instance).schedule(2)
        assert result.num_scheduled == 2

    def test_search_limit_guard(self):
        instance = make_random_instance(seed=0, num_events=30, num_intervals=10)
        with pytest.raises(SolverError, match="too large"):
            ExactScheduler(instance).schedule(3)

    def test_custom_search_limit(self):
        instance = tiny_instance(seed=3, num_events=4, num_intervals=2)
        with pytest.raises(SolverError, match="too large"):
            ExactScheduler(instance, search_limit=10).schedule(2)

    def test_optimal_utility_helper(self):
        instance = tiny_instance(seed=4, num_events=4, num_intervals=2)
        solver = ExactScheduler(instance)
        assert solver.optimal_utility(2) == pytest.approx(optimum(instance, 2), rel=1e-9)


class TestExactOracle:
    """EXACT as the differential oracle of every storage × plan layout."""

    GREEDY = ("ALG", "INC", "HOR", "HOR-I", "TOP")

    @pytest.mark.parametrize("layout", LAYOUTS, indirect=True)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_is_layout_invariant_and_bounds_every_greedy(self, layout, seed):
        instance = layout.instance(
            seed=seed, num_users=8, num_events=6, num_intervals=3
        )
        k = 3
        reference = run_scheduler("EXACT", instance.with_storage("dense"), k)
        exact = run_scheduler("EXACT", instance, k, execution=layout.execution())
        assert exact.schedule.as_dict() == reference.schedule.as_dict()
        assert exact.utility.hex() == reference.utility.hex()
        assert exact.counters == reference.counters
        for name in self.GREEDY:
            greedy = run_scheduler(name, instance, k, execution=layout.execution())
            assert greedy.utility <= exact.utility + 1e-9, name

