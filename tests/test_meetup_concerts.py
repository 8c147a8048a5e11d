"""Tests for the Meetup and Concerts dataset substitutes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core.errors import DatasetError
from repro.datasets.concerts import (
    GENRES,
    ConcertsConfig,
    generate_concerts,
    interest_from_genre_ratings,
)
from repro.datasets.meetup import MeetupConfig, generate_meetup


def meetup_config(**overrides):
    defaults = dict(
        num_users=60,
        num_events=16,
        num_intervals=6,
        competing_per_interval_range=(1, 3),
        num_groups=8,
        num_past_events=30,
        seed=13,
    )
    defaults.update(overrides)
    return MeetupConfig(**defaults)


def concerts_config(**overrides):
    defaults = dict(
        num_users=60,
        num_events=16,
        num_intervals=6,
        competing_per_interval_range=(1, 3),
        seed=17,
    )
    defaults.update(overrides)
    return ConcertsConfig(**defaults)


class TestMeetup:
    def test_instance_shapes(self):
        instance = generate_meetup(meetup_config())
        assert instance.name == "Meetup"
        assert instance.num_users == 60
        assert instance.num_events == 16
        assert instance.num_intervals == 6
        assert instance.num_competing_events >= 6  # at least one per interval

    def test_interest_is_sparse_and_clustered(self):
        """Topic-derived interest is much sparser than uniform interest."""
        instance = generate_meetup(meetup_config())
        values = instance.interest.values
        assert values.min() >= 0.0 and values.max() <= 1.0
        assert values.mean() < 0.45
        # Users differ strongly in which events they care about.
        per_event_spread = values.std(axis=0).mean()
        assert per_event_spread > 0.01

    def test_metadata_and_reproducibility(self):
        first = generate_meetup(meetup_config())
        second = generate_meetup(meetup_config())
        np.testing.assert_allclose(first.interest.values, second.interest.values)
        assert first.metadata["generator"] == "meetup-ebsn"
        assert first.metadata["network_summary"]["members"] == 60

    def test_same_seed_same_instance_under_any_hash_seed(self):
        """µ and competing µ do not depend on set iteration order (``PYTHONHASHSEED``)."""
        script = textwrap.dedent(
            """
            import hashlib
            import numpy as np
            from repro.datasets.meetup import generate_meetup
            instance = generate_meetup(
                num_users=60, num_events=16, num_intervals=6,
                competing_per_interval_range=(1, 3), num_groups=8, num_past_events=30, seed=13,
            )
            digest = hashlib.sha256()
            for array in (instance.interest.values, instance.competing_interest.values,
                          instance.activity):
                digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
            print(digest.hexdigest())
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = set()
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert completed.returncode == 0, completed.stderr
            digests.add(completed.stdout.strip())
        assert len(digests) == 1, digests

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            meetup_config(num_users=0)
        with pytest.raises(DatasetError):
            meetup_config(competing_per_interval_range=(4, 1))
        with pytest.raises(DatasetError, match="not both"):
            generate_meetup(meetup_config(), num_users=5)

    def test_solvable(self):
        from repro.algorithms.registry import run_scheduler

        instance = generate_meetup(meetup_config())
        result = run_scheduler("HOR", instance, 6)
        assert result.num_scheduled == 6
        assert result.utility > 0


class TestConcertsInterestFormula:
    """The paper's album-interest formula and its alternative conventions."""

    def test_missing_as_one(self):
        ratings = {0: 0.4}
        assert interest_from_genre_ratings(ratings, [0, 1]) == pytest.approx((0.4 + 1.0) / 2)

    def test_missing_as_zero(self):
        ratings = {0: 0.4}
        value = interest_from_genre_ratings(ratings, [0, 1], missing_policy="missing_as_zero")
        assert value == pytest.approx(0.2)

    def test_common_only(self):
        ratings = {0: 0.4}
        value = interest_from_genre_ratings(ratings, [0, 1], missing_policy="common_only")
        assert value == pytest.approx(0.4)

    def test_common_only_with_no_overlap(self):
        assert interest_from_genre_ratings({}, [0, 1], missing_policy="common_only") == 0.0

    def test_empty_album(self):
        assert interest_from_genre_ratings({0: 0.9}, []) == 0.0

    def test_unknown_policy(self):
        with pytest.raises(DatasetError):
            interest_from_genre_ratings({}, [0], missing_policy="bogus")


class TestConcertsDataset:
    def test_instance_shapes(self):
        instance = generate_concerts(concerts_config())
        assert instance.name == "Concerts"
        assert instance.num_users == 60
        assert instance.num_events == 16
        assert instance.num_competing_events >= 6

    def test_metadata_lists_genres(self):
        instance = generate_concerts(concerts_config())
        genres = instance.metadata["candidate_genres"]
        assert len(genres) == 16
        assert all(set(album) <= set(GENRES) for album in genres)

    def test_missing_as_one_pushes_interest_up(self):
        high = generate_concerts(concerts_config(missing_policy="missing_as_one"))
        low = generate_concerts(concerts_config(missing_policy="missing_as_zero"))
        assert high.interest.mean() > low.interest.mean()

    def test_alternative_policies_produce_valid_instances(self):
        for policy in ("missing_as_one", "missing_as_zero", "common_only"):
            instance = generate_concerts(concerts_config(missing_policy=policy))
            assert instance.interest.values.min() >= 0.0
            assert instance.interest.values.max() <= 1.0

    def test_config_validation(self):
        with pytest.raises(DatasetError, match="missing_policy"):
            concerts_config(missing_policy="bogus")
        with pytest.raises(DatasetError, match="rated_genres_range"):
            concerts_config(rated_genres_range=(0, 5))
        with pytest.raises(DatasetError, match="genres_per_album_range"):
            concerts_config(genres_per_album_range=(3, 200))

    def test_reproducible(self):
        first = generate_concerts(concerts_config())
        second = generate_concerts(concerts_config())
        np.testing.assert_allclose(first.interest.values, second.interest.values)

    def test_albums_sharing_genres_have_correlated_interest(self):
        """Two albums with identical genre sets get identical interest columns."""
        instance = generate_concerts(concerts_config())
        genres = instance.metadata["candidate_genres"]
        values = instance.interest.values
        for first in range(len(genres)):
            for second in range(first + 1, len(genres)):
                if sorted(genres[first]) == sorted(genres[second]):
                    np.testing.assert_allclose(values[:, first], values[:, second])
