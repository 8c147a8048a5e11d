"""The "Concerts" dataset substitute: SES instances from simulated music ratings.

The paper's largest dataset is built from the Yahoo! "Music user ratings of
musical tracks, albums, artists and genres" collection: albums represent the
candidate events (music concerts of a festival) and a user's interest in an
album is derived from the user's *genre* ratings:

.. math::  µ(u, a) = \\Big(\\sum_{g ∈ G_a} r_g\\Big) / |G_a|

with ``r_g = 1`` for genres the user did not rate (the paper notes that the
alternative conventions — treating unrated genres as 0, or averaging only
over the commonly rated genres — give similar results; both are implemented
here as ``missing_policy`` options).

The raw Yahoo! data is not redistributable, so the ratings themselves are
simulated: each user has a latent preference over a small number of favourite
genres, rates a subset of genres accordingly, and albums carry one-to-four
genres with Zipf-distributed genre popularity.  This preserves the structural
property the SES experiments depend on: albums sharing genres have correlated
interest columns, and a few popular genres dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import DatasetError
from repro.core.instance import SESInstance
from repro.datasets.params import Table1Config

#: Genre taxonomy of the simulated ratings (a few broad, popular genres first).
GENRES: Tuple[str, ...] = (
    "pop", "rock", "hip-hop", "electronic", "r-and-b", "indie", "metal", "jazz",
    "classical", "country", "folk", "latin", "reggae", "blues", "punk", "soul",
    "funk", "house", "techno", "ambient", "gospel", "opera", "ska", "grunge",
)

#: Accepted conventions for genres a user did not rate (paper §4.1).
MISSING_POLICIES = ("missing_as_one", "missing_as_zero", "common_only")


@dataclass
class ConcertsConfig(Table1Config):
    """Configuration of the Concerts-substitute dataset (Table 1 fields plus the genre model)."""

    genres_per_album_range: Tuple[int, int] = (1, 4)
    rated_genres_range: Tuple[int, int] = (10, 18)
    favourite_genres_per_user: int = 4
    missing_policy: str = "missing_as_one"
    genre_popularity_exponent: float = 1.2
    seed: Optional[int] = 31
    name: str = "Concerts"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.missing_policy not in MISSING_POLICIES:
            raise DatasetError(
                f"unknown missing_policy {self.missing_policy!r}; choose one of {MISSING_POLICIES}"
            )
        low, high = self.rated_genres_range
        if not (1 <= low <= high <= len(GENRES)):
            raise DatasetError(
                f"rated_genres_range {self.rated_genres_range} must lie within [1, {len(GENRES)}]"
            )
        album_low, album_high = self.genres_per_album_range
        if not (1 <= album_low <= album_high <= len(GENRES)):
            raise DatasetError(
                f"genres_per_album_range {self.genres_per_album_range} must lie within "
                f"[1, {len(GENRES)}]"
            )


def interest_from_genre_ratings(
    ratings: Dict[int, float],
    album_genres: Sequence[int],
    *,
    missing_policy: str = "missing_as_one",
) -> float:
    """The paper's album-interest formula for one user and one album.

    ``ratings`` maps genre index → rating in [0, 1] (only rated genres appear);
    ``album_genres`` is the album's genre index list.
    """
    if missing_policy not in MISSING_POLICIES:
        raise DatasetError(f"unknown missing_policy {missing_policy!r}")
    if not album_genres:
        return 0.0
    if missing_policy == "common_only":
        common = [ratings[genre] for genre in album_genres if genre in ratings]
        return float(sum(common) / len(common)) if common else 0.0
    default = 1.0 if missing_policy == "missing_as_one" else 0.0
    total = sum(ratings.get(genre, default) for genre in album_genres)
    return float(total / len(album_genres))


def _simulate_ratings(
    rng: np.random.Generator, config: ConcertsConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate the user × genre rating matrix.

    Returns ``(ratings, rated_mask)`` where ``ratings`` holds values in [0, 1]
    (meaningful only where ``rated_mask`` is True).
    """
    num_genres = len(GENRES)
    ratings = np.zeros((config.num_users, num_genres), dtype=np.float64)
    rated_mask = np.zeros((config.num_users, num_genres), dtype=bool)

    genre_popularity = np.arange(1, num_genres + 1, dtype=np.float64) ** (
        -config.genre_popularity_exponent
    )
    genre_popularity /= genre_popularity.sum()

    low, high = config.rated_genres_range
    for user_index in range(config.num_users):
        favourites = rng.choice(
            num_genres, size=config.favourite_genres_per_user, replace=False, p=genre_popularity
        )
        num_rated = int(rng.integers(low, high + 1))
        rated = rng.choice(num_genres, size=num_rated, replace=False, p=genre_popularity)
        rated = np.union1d(rated, favourites)
        rated_mask[user_index, rated] = True
        base = rng.beta(1.6, 4.0, size=rated.shape)          # most ratings are lukewarm
        ratings[user_index, rated] = base
        favourite_boost = rng.beta(6.0, 1.8, size=favourites.shape)  # favourites rate high
        ratings[user_index, favourites] = favourite_boost
    return ratings, rated_mask


def _album_interest_matrix(
    ratings: np.ndarray,
    rated_mask: np.ndarray,
    album_genres: List[List[int]],
    missing_policy: str,
) -> np.ndarray:
    """Vectorised application of the paper's interest formula to every album."""
    num_users = ratings.shape[0]
    num_albums = len(album_genres)
    num_genres = ratings.shape[1]

    membership = np.zeros((num_genres, num_albums), dtype=np.float64)
    for album_index, genres in enumerate(album_genres):
        for genre in genres:
            membership[genre, album_index] = 1.0
    genres_per_album = np.maximum(membership.sum(axis=0), 1.0)

    if missing_policy == "missing_as_one":
        effective = np.where(rated_mask, ratings, 1.0)
        return (effective @ membership) / genres_per_album[np.newaxis, :]
    if missing_policy == "missing_as_zero":
        effective = np.where(rated_mask, ratings, 0.0)
        return (effective @ membership) / genres_per_album[np.newaxis, :]
    # common_only: average over the genres the user actually rated.
    rated = rated_mask.astype(np.float64)
    sums = (np.where(rated_mask, ratings, 0.0)) @ membership
    counts = rated @ membership
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.divide(sums, counts, out=np.zeros((num_users, num_albums)), where=counts > 0)
    return result


def generate_concerts(config: Optional[ConcertsConfig] = None, **overrides: object) -> SESInstance:
    """Build the Concerts-substitute SES instance.

    Accepts a full :class:`ConcertsConfig` or keyword overrides of its fields.
    """
    config = ConcertsConfig.resolve(config, overrides)

    rng = np.random.default_rng(config.seed)
    num_genres = len(GENRES)
    genre_popularity = np.arange(1, num_genres + 1, dtype=np.float64) ** (
        -config.genre_popularity_exponent
    )
    genre_popularity /= genre_popularity.sum()

    ratings, rated_mask = _simulate_ratings(rng, config)

    def draw_album_genres(count: int) -> List[List[int]]:
        album_low, album_high = config.genres_per_album_range
        albums: List[List[int]] = []
        for _ in range(count):
            size = int(rng.integers(album_low, album_high + 1))
            genres = rng.choice(num_genres, size=size, replace=False, p=genre_popularity)
            albums.append([int(genre) for genre in genres])
        return albums

    candidate_genres = draw_album_genres(config.num_events)
    competing_interval_indices = config.draw_competing_intervals(rng)
    competing_genres = draw_album_genres(len(competing_interval_indices))

    interest = _album_interest_matrix(ratings, rated_mask, candidate_genres, config.missing_policy)
    competing_interest = _album_interest_matrix(
        ratings, rated_mask, competing_genres, config.missing_policy
    )

    # Festival-goers' availability: every user has a handful of preferred slots.
    activity = np.clip(
        rng.beta(2.2, 2.8, size=(config.num_users, config.num_intervals)), 0.0, 1.0
    )

    metadata: Dict[str, object] = {
        "generator": "concerts-ratings",
        "num_genres": num_genres,
        "missing_policy": config.missing_policy,
        "seed": config.seed,
        "candidate_genres": [[GENRES[genre] for genre in genres] for genres in candidate_genres],
    }
    return config.assemble(
        rng,
        interest=np.clip(interest, 0.0, 1.0),
        activity=activity,
        competing_interest=np.clip(competing_interest, 0.0, 1.0),
        competing_interval_indices=competing_interval_indices,
        metadata=metadata,
        location_prefix="stage",
    )
