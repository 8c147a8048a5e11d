"""Tests of the §2.1 extensions: weighted users, event values and organisation costs.

The paper notes that "by performing trivial modifications to the algorithms,
additional factors ... can be easily handled", naming profit-oriented SES,
event durations and user weights.  The library supports user weights and
per-event value/cost directly through the entity fields; these tests check
that the extensions flow through the scoring engine and every scheduler.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import run_scheduler
from repro.core.instance import SESInstance
from repro.core.scoring import utility_of_schedule
from tests.conftest import AXIS_LAYOUTS, Layout, make_random_instance


def weighted_pair(seed: int = 31):
    base = make_random_instance(seed=seed, num_users=40, num_events=10, num_intervals=4)
    weights = list(np.linspace(0.5, 3.0, base.num_users))
    weighted = make_random_instance(
        seed=seed, num_users=40, num_events=10, num_intervals=4, user_weights=weights
    )
    return base, weighted


class TestWeightedUsers:
    def test_weights_change_selection(self):
        """Strongly weighting a subset of users steers the schedule toward their tastes."""
        rng = np.random.default_rng(5)
        num_users, num_events, num_intervals = 30, 6, 3
        interest = rng.random((num_users, num_events)) * 0.2
        # The first five users adore event 0; everyone else prefers event 1.
        interest[:5, 0] = 1.0
        interest[5:, 1] = 0.9
        activity = np.full((num_users, num_intervals), 0.9)
        # One competing event per interval so the Luce denominators actually bite.
        competing = np.full((num_users, num_intervals), 0.5)
        competing_intervals = list(range(num_intervals))
        plain = SESInstance.from_arrays(
            interest=interest,
            activity=activity,
            competing_interest=competing,
            competing_interval_indices=competing_intervals,
        )
        boosted = SESInstance.from_arrays(
            interest=interest,
            activity=activity,
            competing_interest=competing,
            competing_interval_indices=competing_intervals,
            user_weights=[50.0] * 5 + [1.0] * (num_users - 5),
        )
        plain_first = run_scheduler("ALG", plain, 1).schedule.assignments()[0].event_index
        boosted_first = run_scheduler("ALG", boosted, 1).schedule.assignments()[0].event_index
        assert plain_first == 1
        assert boosted_first == 0

    def test_all_schedulers_accept_weights(self):
        _, weighted = weighted_pair()
        for name in ("ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"):
            result = run_scheduler(name, weighted, 4, seed=0)
            assert result.utility >= 0.0

    def test_equivalences_hold_under_weights(self):
        _, weighted = weighted_pair()
        alg = run_scheduler("ALG", weighted, 6)
        inc = run_scheduler("INC", weighted, 6)
        hor = run_scheduler("HOR", weighted, 6)
        hor_i = run_scheduler("HOR-I", weighted, 6)
        assert alg.schedule == inc.schedule
        assert hor.schedule == hor_i.schedule


class TestProfitOrientedEvents:
    def test_value_multiplier_steers_selection(self):
        rng = np.random.default_rng(9)
        interest = rng.random((20, 4)) * 0.5
        activity = np.full((20, 2), 0.8)
        plain = SESInstance.from_arrays(interest=interest, activity=activity)
        # Make event 3 worth five times the attendance of the others.
        valued = SESInstance.from_arrays(
            interest=interest, activity=activity, event_values=[1.0, 1.0, 1.0, 5.0]
        )
        plain_first = run_scheduler("ALG", plain, 1).schedule.assignments()[0].event_index
        valued_first = run_scheduler("ALG", valued, 1).schedule.assignments()[0].event_index
        assert valued_first == 3
        assert plain_first == 0  # without values every event ties; the tie-break picks event 0

    def test_net_utility_subtracts_costs(self):
        instance = make_random_instance(seed=33, event_costs=[0.75] * 12)
        result = run_scheduler("HOR", instance, 4)
        assert result.net_utility == pytest.approx(result.utility - 4 * 0.75, rel=1e-9)
        assert result.net_utility == pytest.approx(
            utility_of_schedule(instance, result.schedule, include_costs=True), rel=1e-9
        )

    def test_costs_do_not_change_paper_objective(self):
        """Costs only affect net utility; the schedule itself still maximises Ω."""
        base = make_random_instance(seed=34)
        costed = make_random_instance(seed=34, event_costs=[2.0] * 12)
        assert run_scheduler("ALG", base, 5).schedule == run_scheduler("ALG", costed, 5).schedule

    def test_equivalences_hold_with_values_and_costs(self):
        instance = make_random_instance(
            seed=35, event_values=list(np.linspace(0.5, 2.0, 12)), event_costs=[0.1] * 12
        )
        alg = run_scheduler("ALG", instance, 6)
        inc = run_scheduler("INC", instance, 6)
        hor = run_scheduler("HOR", instance, 6)
        hor_i = run_scheduler("HOR-I", instance, 6)
        assert alg.schedule == inc.schedule
        assert hor.schedule == hor_i.schedule


@st.composite
def mixed_value_cases(draw):
    """``(interest, activity, competing, competing_intervals, values, k)`` of a tiny instance.

    Event values come from {0, 0.5, 1, 2, 3}, so most instances mix them.
    """
    num_users = draw(st.integers(min_value=1, max_value=3))
    num_events = draw(st.integers(min_value=3, max_value=6))
    num_intervals = draw(st.integers(min_value=1, max_value=2))
    num_competing = draw(st.integers(min_value=0, max_value=2))
    values = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=num_events, max_size=num_events
        )
    )
    k = draw(st.integers(min_value=1, max_value=num_events))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return (
        rng.random((num_users, num_events)),
        rng.random((num_users, num_intervals)),
        rng.random((num_users, num_competing)) if num_competing else None,
        list(rng.integers(0, num_intervals, num_competing)) if num_competing else None,
        values,
        k,
    )


#: One user, values (0.5, 1, 2, 2), one competing event in interval 0, k = 4:
#: with stale-score pruning INC puts event 1 in interval 0 (utility 3.1),
#: while ALG puts it in interval 1 (3.107…).
PROPOSITION_1_COUNTEREXAMPLE = (
    np.array([[0.1, 0.4, 0.9, 0.3]]),
    np.ones((1, 2)),
    np.array([[0.1]]),
    [0],
    [0.5, 1.0, 2.0, 2.0],
    4,
)


class TestUnequalEventValues:
    """Proposition 1 needs equal event values; the incremental schedulers must not rely on it.

    Blocked layouts repeat every user twice, so the plan has classes to
    compress; a repeated user doubles each score exactly and keeps the case.
    """

    @pytest.mark.parametrize("layout_name", AXIS_LAYOUTS)
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=mixed_value_cases())
    @example(case=PROPOSITION_1_COUNTEREXAMPLE)
    def test_incremental_schedulers_match_their_eager_twins(
        self, layout_name, tmp_path_factory, case
    ):
        interest, activity, competing, competing_intervals, values, k = case
        layout = Layout(*layout_name.split("-"), tmp_path_factory)
        copies = 2 if layout.plan == "blocked" else 1
        instance = layout.convert(
            SESInstance.from_arrays(
                interest=np.repeat(interest, copies, axis=0),
                activity=np.repeat(activity, copies, axis=0),
                competing_interest=(
                    None if competing is None else np.repeat(competing, copies, axis=0)
                ),
                competing_interval_indices=competing_intervals,
                event_values=values,
            )
        )
        results = {
            name: run_scheduler(name, instance, k, execution=layout.execution())
            for name in ("ALG", "INC", "INC-U", "HOR", "HOR-I")
        }
        for incremental, eager in (("INC", "ALG"), ("INC-U", "ALG"), ("HOR-I", "HOR")):
            got, want = results[incremental], results[eager]
            assert got.schedule == want.schedule, incremental
            assert got.utility.hex() == want.utility.hex(), incremental
            assert got.net_utility == want.net_utility, incremental
