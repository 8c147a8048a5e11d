"""Dataset substrates used by the paper's evaluation (§4.1).

The paper evaluates on two real datasets — a Meetup dump and the Yahoo! Music
ratings collection — and on synthetic interest matrices drawn from Uniform,
Normal and Zipfian distributions.  The real datasets are not redistributable,
so this package provides faithful *simulators* that produce SES instances
with the same structural characteristics (``docs/PAPER_MAPPING.md`` maps
each dataset to its builder and tests):

* :mod:`repro.datasets.synthetic` — Uniform / Normal / Zipfian generators
  driven by the Table 1 parameter grid.
* :mod:`repro.datasets.meetup` — an Event-Based Social Network simulator
  (topic-overlap interest, check-in-derived activity), standing in for the
  Meetup dataset.
* :mod:`repro.datasets.concerts` — a music-ratings simulator (genres, albums,
  user ratings) using the paper's exact interest-derivation formula, standing
  in for the Yahoo! "Concerts" dataset.
* :mod:`repro.datasets.params` — the Table 1 parameter grid and the scaled
  reproduction defaults.
* :mod:`repro.datasets.loaders` — JSON/NPZ persistence for instances.
"""

from repro.datasets.params import (
    PAPER_DEFAULTS,
    PAPER_GRID,
    REPRO_DEFAULTS,
    REPRO_GRID,
    ParameterGrid,
    default,
    paper_values,
    repro_values,
)
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.datasets.meetup import MeetupConfig, generate_meetup
from repro.datasets.concerts import ConcertsConfig, generate_concerts
from repro.datasets.loaders import load_instance, save_instance
from repro.datasets.builders import build_dataset, dataset_names

__all__ = [
    "PAPER_DEFAULTS",
    "PAPER_GRID",
    "REPRO_DEFAULTS",
    "REPRO_GRID",
    "ParameterGrid",
    "default",
    "paper_values",
    "repro_values",
    "SyntheticConfig",
    "generate_synthetic",
    "MeetupConfig",
    "generate_meetup",
    "ConcertsConfig",
    "generate_concerts",
    "load_instance",
    "save_instance",
    "build_dataset",
    "dataset_names",
]
