"""Carrying an interest structure through a µ journal equals mining afresh.

:func:`repro.core.patterns.update_structure` is how a service session keeps
its instance's structure across resolves instead of re-mining it.  Every
case here builds a µ matrix, applies a journal of ``entries`` / ``append``
ops to a copy, and checks the carried structure against
:func:`~repro.core.patterns.mine_structure` on the result: labels,
representatives and counts must be equal, not merely the same partition.
Matrices are small and duplicate-heavy (entries from ``{0, -0, ½, 1}``, σ rows
from a few groups), so classes merge, split and empty all the time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    _canonicalise,
    mine_structure,
    update_structure,
    user_groups,
)
from repro.core.scoring import build_event_rows
from repro.core.storage import DenseStore, SparseStore

def statics(groups: np.ndarray):
    """``(sigma, comp)`` rows that depend on each user's group alone."""
    groups = np.asarray(groups)
    sigma = np.stack([(groups + 1) / 4.0, (groups % 2) / 2.0], axis=1)
    comp = np.stack([groups % 3 / 3.0, np.zeros(groups.size)], axis=1)
    return sigma, comp


def mine(mu: np.ndarray, sigma: np.ndarray, comp: np.ndarray):
    """A fresh mine of ``mu`` (event blocks of two, so blocks matter)."""
    rows = build_event_rows(DenseStore(mu), np.ones(mu.shape[1]))
    return mine_structure(rows, sigma, comp, 2)


def replay(mu: np.ndarray, journal) -> np.ndarray:
    """``mu`` with the journal applied in order (the reference replay)."""
    mu = np.array(mu, copy=True)
    for kind, payload in journal:
        if kind == "entries":
            for user, item, value in payload:
                mu[user, item] = value
        else:
            mu = np.column_stack([mu, payload])
    return mu


def assert_carries_exactly(mu, groups, journal, storage="dense"):
    sigma, comp = statics(groups)
    new_mu = replay(mu, journal)
    store = DenseStore(new_mu) if storage == "dense" else SparseStore.from_dense(new_mu)
    carried = update_structure(mine(mu, sigma, comp), journal, store, user_groups(sigma, comp))
    fresh = mine(new_mu, sigma, comp)
    assert np.array_equal(carried.labels, fresh.labels)
    assert np.array_equal(carried.representatives, fresh.representatives)
    assert np.array_equal(carried.counts, fresh.counts)
    return carried


#: Four users, two classes of twins ({0, 1} and {2, 3}) in one σ group.
TWINS = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])

#: ``(mu, groups, journal)`` of the corners the update must get right.
CASES = {
    "touched-user-joins-another-class": (
        TWINS,
        [0, 0, 0, 0],
        [("entries", [(1, 0, 0.5), (1, 1, 0.5)])],
    ),
    "touched-user-returns-to-its-class": (
        TWINS,
        [0, 0, 0, 0],
        [("entries", [(1, 0, 0.5)]), ("entries", [(1, 0, 1.0)])],
    ),
    "two-touched-users-become-twins": (
        TWINS,
        [0, 0, 0, 0],
        [("entries", [(1, 1, 1.0), (3, 0, 1.0), (3, 1, 1.0)])],
    ),
    "every-member-of-a-class-touched": (
        TWINS,
        [0, 0, 0, 0],
        [("entries", [(2, 0, 0.0), (3, 1, 1.0)])],
    ),
    "class-representative-touched": (
        TWINS,
        [0, 0, 0, 0],
        [("entries", [(0, 1, 1.0)])],
    ),
    "twin-rows-in-another-group-stay-apart": (
        TWINS,
        [0, 1, 0, 1],
        [("entries", [(1, 0, 0.5), (1, 1, 0.5)])],
    ),
    "negative-zero-entries": (
        TWINS,
        [0, 0, 0, 0],
        [("entries", [(0, 1, -0.0), (2, 0, -0.0), (3, 0, 0.0)])],
    ),
    "appended-columns-split-classes": (
        TWINS,
        [0, 0, 0, 0],
        [("append", np.array([0.0, 1.0, 0.5, 0.5])), ("append", np.array([0.0, 0.0, 1.0, 0.0]))],
    ),
    "entries-on-an-appended-column": (
        TWINS,
        [0, 0, 0, 0],
        [("append", np.array([0.0, 1.0, 0.5, 0.5])), ("entries", [(1, 2, 0.0), (3, 2, 0.0)])],
    ),
    "single-user": (
        np.array([[0.5, 1.0]]),
        [0],
        [("entries", [(0, 0, 0.0)]), ("append", np.array([1.0]))],
    ),
    "all-zero-mu": (
        np.zeros((5, 3)),
        [0, 0, 1, 1, 0],
        [("entries", [(4, 2, 0.5)]), ("append", np.zeros(5))],
    ),
}


class TestUpdateStructureCorners:
    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_carried_structure_equals_a_fresh_mine(self, case, storage):
        mu, groups, journal = CASES[case]
        assert_carries_exactly(mu, groups, journal, storage)

    def test_empty_journal_returns_the_structure_itself(self):
        sigma, comp = statics([0, 0, 0, 0])
        structure = mine(TWINS, sigma, comp)
        carried = update_structure(structure, [], DenseStore(TWINS), user_groups(sigma, comp))
        assert carried is structure

    def test_a_remove_is_refused(self):
        """Dropping a column can merge classes: only a fresh mine finds them."""
        sigma, comp = statics([0, 0, 0, 0])
        with pytest.raises(ValueError, match="mine"):
            update_structure(
                mine(TWINS, sigma, comp),
                [("entries", [(0, 0, 0.5)]), ("remove", 1)],
                DenseStore(TWINS[:, :1]),
                user_groups(sigma, comp),
            )

    def test_groups_ignore_mu(self):
        sigma, comp = statics([2, 0, 2, 1])
        groups = user_groups(sigma, comp)
        assert groups[0] == groups[2]
        assert len({int(groups[0]), int(groups[1]), int(groups[3])}) == 3


@st.composite
def journals(draw):
    """``(mu, groups, journal)``: a duplicate-heavy matrix and a random journal."""
    num_users = draw(st.integers(1, 9))
    num_events = draw(st.integers(1, 4))
    cells = st.sampled_from([0.0, -0.0, 0.5, 1.0])
    row = st.lists(cells, min_size=num_events, max_size=num_events)
    mu = np.array(draw(st.lists(row, min_size=num_users, max_size=num_users)), dtype=np.float64)
    groups = draw(st.lists(st.integers(0, 2), min_size=num_users, max_size=num_users))
    journal = []
    columns = num_events
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            triples = draw(
                st.lists(
                    st.tuples(st.integers(0, num_users - 1), st.integers(0, columns - 1), cells),
                    min_size=1,
                    max_size=6,
                )
            )
            journal.append(("entries", triples))
        else:
            column = draw(st.lists(cells, min_size=num_users, max_size=num_users))
            journal.append(("append", np.array(column, dtype=np.float64)))
            columns += 1
    return mu, groups, journal


class TestUpdateStructureProperty:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=journals(), storage=st.sampled_from(["dense", "sparse"]))
    def test_carried_structure_equals_a_fresh_mine(self, case, storage):
        mu, groups, journal = case
        assert_carries_exactly(mu, groups, journal, storage)


class TestCanonicalise:
    def test_label_gaps_are_compacted(self):
        structure = _canonicalise(np.array([0, 2, 2, 0]))
        assert structure.labels.tolist() == [0, 1, 1, 0]
        assert structure.representatives.tolist() == [0, 1]
        assert structure.counts.tolist() == [2, 2]

    def test_gaps_and_first_occurrence_order(self):
        structure = _canonicalise(np.array([5, 0, 5, 3, 0]))
        assert structure.labels.tolist() == [0, 1, 0, 2, 1]
        assert structure.representatives.tolist() == [0, 1, 3]
        assert structure.counts.tolist() == [2, 2, 1]
        assert structure.num_classes == 3
