"""Named dataset builders used by the experiment harness and the CLI.

The paper evaluates on four datasets — Meetup, Concerts, Unf (uniform
synthetic) and Zip (Zipfian synthetic).  The experiment figures refer to them
by name, so this module offers a single entry point::

    instance = build_dataset("Zip", num_users=2000, num_events=72, ...)

Repeated builds of the same configuration are cached per process: the figure
sweeps re-use the same base instance across algorithms and parameter points
instead of regenerating it.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Callable, Dict, List

from repro.core.errors import DatasetError
from repro.core.instance import SESInstance
from repro.datasets.concerts import generate_concerts
from repro.datasets.meetup import generate_meetup
from repro.datasets.synthetic import generate_normal, generate_uniform, generate_zipfian

#: Dataset names as used in the paper's figures.
DATASET_NAMES = ("Meetup", "Concerts", "Unf", "Nrm", "Zip")


def dataset_names() -> List[str]:
    """The dataset names understood by :func:`build_dataset`."""
    return list(DATASET_NAMES)


def _normalise(name: str) -> str:
    lowered = name.strip().lower()
    aliases = {
        "meetup": "Meetup",
        "concerts": "Concerts",
        "concert": "Concerts",
        "unf": "Unf",
        "uniform": "Unf",
        "nrm": "Nrm",
        "normal": "Nrm",
        "zip": "Zip",
        "zipf": "Zip",
        "zipfian": "Zip",
    }
    try:
        return aliases[lowered]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(DATASET_NAMES)}"
        ) from None


#: The builder behind each dataset name; Unf / Nrm / Zip are the synthetic
#: shorthands, which set the interest distribution and the name.
_BUILDERS: Dict[str, Callable[..., SESInstance]] = {
    "Meetup": generate_meetup,
    "Concerts": generate_concerts,
    "Unf": generate_uniform,
    "Nrm": generate_normal,
    "Zip": generate_zipfian,
}


@lru_cache(maxsize=64)
def _build_cached(name: str, frozen_overrides: str) -> SESInstance:
    overrides: Dict[str, object] = json.loads(frozen_overrides)
    return _BUILDERS[name](**{key: _thaw(value) for key, value in overrides.items()})


def _thaw(value: object) -> object:
    """JSON round-trips tuples as lists; restore tuples for range parameters."""
    if isinstance(value, list):
        return tuple(value)
    return value


def build_dataset(name: str, **overrides: object) -> SESInstance:
    """Build (or fetch from the per-process cache) a named dataset instance.

    Keyword overrides are passed to the dataset's config class; see
    :class:`~repro.datasets.synthetic.SyntheticConfig`,
    :class:`~repro.datasets.meetup.MeetupConfig` and
    :class:`~repro.datasets.concerts.ConcertsConfig` for the accepted fields.
    """
    canonical = _normalise(name)
    frozen = json.dumps(overrides, sort_keys=True, default=list)
    return _build_cached(canonical, frozen)


def clear_dataset_cache() -> None:
    """Drop every cached instance (mainly useful in tests)."""
    _build_cached.cache_clear()
