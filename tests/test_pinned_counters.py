"""Schedules, utilities and every counter of the interval-organised walks, pinned.

The values below were captured from the per-entry (list-of-records)
implementation of INC, HOR-I and HOR that the array-backed interval heads
replaced; the ablations INC-U and ALG-O ride on the same generation helper.
The equivalence suites check INC == ALG and HOR-I == HOR, but only these pins
hold ``assignments_examined`` — the paper's Fig. 10b search space — to the
walk it was defined on.

Each instance uses ``k > |T|``, so HOR-I's round-start refresh and its lazy
head resolution both run:

* ``cohort`` — duplicate-heavy users (four per interest pattern);
* ``ties`` — quantised interest, no competing events and three all-zero
  event columns: later scores are exact ties up to rounding noise, which
  drives HOR-I's noise-blocker guard;
* ``lock-filled`` — a lock fills a capacity-1 interval and a second lock sits
  in a capacity-2 one.

Every case runs under all six storage × plan layouts and the ``scalar`` and
``batch`` backends: the pinned values are the same everywhere.

One more case pins INC alone on all-distinct users (one class per user, the
shape of perfbench's ``unf-dense``), where the structural Φ bound works on
an ``(|E|, |U|)`` pattern matrix: competing events, ``k > |T|`` and 17
interval walks skipped by the bound.  The blocked plan refuses such users,
so it runs under the three ``direct`` layouts.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import run_scheduler
from tests.conftest import AXIS_LAYOUTS, LAYOUTS, make_random_instance

ALGORITHMS = ("INC", "HOR-I", "HOR", "INC-U", "ALG-O")


def counters(users, initial, updates, examined, generated, selections, **extra):
    """The full counter snapshot of one run (``extra`` keys gain their ``extra.`` prefix)."""
    scores = initial + updates
    snapshot = {
        "num_users": users,
        "score_computations": scores,
        "user_computations": scores * users,
        "initial_computations": initial,
        "update_computations": updates,
        "assignments_examined": examined,
        "assignments_generated": generated,
        "selections": selections,
    }
    snapshot.update({f"extra.{key}": value for key, value in extra.items()})
    return snapshot


def _ties_instance():
    instance = make_random_instance(
        seed=83, num_users=32, num_events=12, num_intervals=3, num_competing=0,
        interest_levels=2, users_per_pattern=4,
    )
    instance.interest.values[:, 9:] = 0.0
    return instance


#: name -> (instance factory, k, locked assignments).
CASES = {
    "cohort": (
        lambda: make_random_instance(
            seed=81, num_users=48, num_events=14, num_intervals=4, users_per_pattern=4
        ),
        9,
        None,
    ),
    "ties": (_ties_instance, 8, None),
    "lock-filled": (
        lambda: make_random_instance(
            seed=83, num_users=40, num_events=13, num_intervals=4, users_per_pattern=4,
            capacities=[1, None, 2, None],
        ),
        9,
        [(0, 0), (5, 2)],
    ),
}

#: (case, algorithm) -> (sorted schedule pairs, utility.hex(), counter snapshot).
PINNED = {
    ("cohort", "INC"): (
        [(0, 2), (2, 1), (3, 3), (5, 1), (6, 3), (8, 3), (9, 0), (11, 2), (12, 0)],
        "0x1.c1359c560575ep+5",
        counters(48, 56, 42, 151, 56, 9, phi_bound_evaluations=8, phi_bound_interval_skips=10),
    ),
    ("cohort", "HOR-I"): (
        [(0, 2), (2, 1), (3, 3), (5, 1), (6, 3), (8, 3), (9, 0), (11, 2), (12, 0)],
        "0x1.c1359c560575ep+5",
        counters(48, 56, 44, 130, 56, 9),
    ),
    ("cohort", "HOR"): (
        [(0, 2), (2, 1), (3, 3), (5, 1), (6, 3), (8, 3), (9, 0), (11, 2), (12, 0)],
        "0x1.c1359c560575ep+5",
        counters(48, 56, 45, 27, 101, 9),
    ),
    ("cohort", "INC-U"): (
        [(0, 2), (2, 1), (3, 3), (5, 1), (6, 3), (8, 3), (9, 0), (11, 2), (12, 0)],
        "0x1.c1359c560575ep+5",
        counters(48, 56, 47, 386, 56, 9),
    ),
    ("cohort", "ALG-O"): (
        [(0, 2), (2, 1), (3, 3), (5, 1), (6, 3), (8, 3), (9, 0), (11, 2), (12, 0)],
        "0x1.c1359c560575ep+5",
        counters(48, 56, 54, 160, 56, 9),
    ),
    ("ties", "INC"): (
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (6, 0), (7, 2), (8, 1)],
        "0x1.9cee91e108b73p+5",
        counters(32, 36, 17, 99, 36, 8, phi_bound_evaluations=4, phi_bound_interval_skips=8),
    ),
    ("ties", "HOR-I"): (
        [(0, 2), (1, 0), (2, 1), (3, 0), (5, 1), (6, 0), (7, 2), (8, 1)],
        "0x1.9a43677d59158p+5",
        counters(32, 36, 23, 84, 36, 8),
    ),
    ("ties", "HOR"): (
        [(0, 2), (1, 0), (2, 1), (3, 0), (5, 1), (6, 0), (7, 2), (8, 1)],
        "0x1.9a43677d59158p+5",
        counters(32, 36, 31, 22, 67, 8),
    ),
    ("ties", "INC-U"): (
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (6, 0), (7, 2), (8, 1)],
        "0x1.9cee91e108b73p+5",
        counters(32, 36, 34, 227, 36, 8),
    ),
    ("ties", "ALG-O"): (
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (6, 0), (7, 2), (8, 1)],
        "0x1.9cee91e108b73p+5",
        counters(32, 36, 38, 121, 36, 8),
    ),
    ("lock-filled", "INC"): (
        [(0, 0), (1, 1), (2, 3), (3, 3), (4, 3), (5, 2), (6, 2), (8, 1), (10, 1)],
        "0x1.4f5c57981263cp+5",
        counters(40, 52, 23, 115, 52, 7, phi_bound_evaluations=5, phi_bound_interval_skips=2),
    ),
    ("lock-filled", "HOR-I"): (
        [(0, 0), (1, 1), (2, 3), (3, 3), (4, 3), (5, 2), (6, 2), (8, 1), (10, 1)],
        "0x1.4f5c57981263cp+5",
        counters(40, 31, 22, 64, 31, 7),
    ),
    ("lock-filled", "HOR"): (
        [(0, 0), (1, 1), (2, 3), (3, 3), (4, 3), (5, 2), (6, 2), (8, 1), (10, 1)],
        "0x1.4f5c57981263cp+5",
        counters(40, 31, 22, 13, 51, 7),
    ),
    ("lock-filled", "INC-U"): (
        [(0, 0), (1, 1), (2, 3), (3, 3), (4, 3), (5, 2), (6, 2), (8, 1), (10, 1)],
        "0x1.4f5c57981263cp+5",
        counters(40, 52, 24, 180, 52, 7),
    ),
    ("lock-filled", "ALG-O"): (
        [(0, 0), (1, 1), (2, 3), (3, 3), (4, 3), (5, 2), (6, 2), (8, 1), (10, 1)],
        "0x1.4f5c57981263cp+5",
        counters(40, 52, 25, 118, 52, 7),
    ),
}


@pytest.mark.parametrize("backend", ["scalar", "batch"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("layout", LAYOUTS, indirect=True)
def test_walks_match_the_pinned_counters(layout, case, backend):
    factory, k, locked = CASES[case]
    instance = layout.convert(factory())
    for algorithm in ALGORITHMS:
        result = run_scheduler(
            algorithm, instance, k, execution=layout.execution(backend=backend), locked=locked
        )
        schedule, utility, snapshot = PINNED[case, algorithm]
        assert sorted(result.schedule.as_dict().items()) == schedule, algorithm
        assert result.utility.hex() == utility, algorithm
        assert result.counters == snapshot, algorithm


#: INC on all-distinct users: (instance factory, k, pinned result).
UNSTRUCTURED = (
    lambda: make_random_instance(seed=89, num_users=60, num_events=16, num_intervals=4),
    10,
    (
        [(0, 3), (1, 0), (2, 0), (3, 2), (5, 1), (9, 2), (10, 2), (11, 1), (12, 0), (14, 1)],
        "0x1.40acdc7e7fb8ap+6",
        counters(60, 64, 44, 145, 64, 10, phi_bound_evaluations=9, phi_bound_interval_skips=17),
    ),
)


@pytest.mark.parametrize("backend", ["scalar", "batch"])
@pytest.mark.parametrize(
    "layout", [name for name in AXIS_LAYOUTS if name.endswith("-direct")], indirect=True
)
def test_inc_on_unstructured_users_matches_the_pinned_counters(layout, backend):
    factory, k, (schedule, utility, snapshot) = UNSTRUCTURED
    instance = layout.convert(factory())
    result = run_scheduler("INC", instance, k, execution=layout.execution(backend=backend))
    assert sorted(result.schedule.as_dict().items()) == schedule
    assert result.utility.hex() == utility
    assert result.counters == snapshot
