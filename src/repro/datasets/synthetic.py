"""Synthetic SES instance generator (paper §4.1, Table 1).

The paper generates synthetic users' interest values from three distribution
families — Uniform, Normal(0.5, 0.25) and Zipfian (exponents 1–3) — and the
social activity probabilities from Uniform or Normal(0.5, 0.25).  Everything
else (number of events, intervals, competing events per interval, locations,
resources) follows the Table 1 grid.

The qualitative property the distributions are meant to induce (and that the
paper's results hinge on) is the *spread of assignment scores*:

* **Uniform/Normal** interest makes every assignment score nearly equal, so
  the bound-based pruning of INC and HOR-I barely helps (Fig. 5g, 6g, 7d).
* **Zipfian** interest concentrates attractiveness on a few events, producing
  widely spread scores and strong pruning.

The generator reproduces this by drawing, for the Zipfian family, a per-event
popularity ∝ rank^(−s) that multiplies per-user uniform noise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import DatasetError
from repro.core.instance import SESInstance
from repro.datasets.params import REPRO_DEFAULTS, Table1Config

#: Interest / activity distribution names accepted by the generator.
INTEREST_DISTRIBUTIONS = ("uniform", "normal", "zipfian")
ACTIVITY_DISTRIBUTIONS = ("uniform", "normal")


@dataclass
class SyntheticConfig(Table1Config):
    """Configuration of one synthetic SES instance (Table 1 fields plus the distributions)."""

    interest_distribution: str = str(REPRO_DEFAULTS["interest_distribution"])
    zipf_exponent: float = float(REPRO_DEFAULTS["zipf_exponent"])
    activity_distribution: str = str(REPRO_DEFAULTS["activity_distribution"])
    seed: Optional[int] = 7
    name: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.interest_distribution not in INTEREST_DISTRIBUTIONS:
            raise DatasetError(
                f"unknown interest distribution {self.interest_distribution!r}; "
                f"choose one of {INTEREST_DISTRIBUTIONS}"
            )
        if self.activity_distribution not in ACTIVITY_DISTRIBUTIONS:
            raise DatasetError(
                f"unknown activity distribution {self.activity_distribution!r}; "
                f"choose one of {ACTIVITY_DISTRIBUTIONS}"
            )
        if not self.name:
            self.name = f"synthetic-{self.interest_distribution}"

    def describe(self) -> Dict[str, object]:
        """Flat dict of the configuration (stored in the instance metadata)."""
        description = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }
        del description["name"]
        return description


def _draw_probability_matrix(
    rng: np.random.Generator,
    shape: Tuple[int, int],
    distribution: str,
    zipf_exponent: float,
) -> np.ndarray:
    """Draw a matrix of values in [0, 1] from the requested distribution family."""
    if distribution == "uniform":
        return rng.random(shape)
    if distribution == "normal":
        return np.clip(rng.normal(loc=0.5, scale=0.25, size=shape), 0.0, 1.0)
    if distribution == "zipfian":
        num_items = shape[1]
        ranks = rng.permutation(num_items) + 1
        popularity = ranks.astype(np.float64) ** (-float(zipf_exponent))
        popularity /= popularity.max()
        return rng.random(shape) * popularity[np.newaxis, :]
    raise DatasetError(f"unknown distribution {distribution!r}")


def generate_synthetic(config: Optional[SyntheticConfig] = None, **overrides: object) -> SESInstance:
    """Generate a synthetic SES instance.

    Either pass a fully-built :class:`SyntheticConfig` or keyword overrides of
    its fields (the common pattern in the experiment sweeps)::

        instance = generate_synthetic(interest_distribution="zipfian", num_users=500)
    """
    config = SyntheticConfig.resolve(config, overrides)

    # One independent stream per component, so that sweeping one parameter
    # (e.g. the number of candidate events in Fig. 7) does not implicitly
    # resample the others (competing events, activity, resources).
    seed_sequence = np.random.SeedSequence(config.seed)
    interest_rng, activity_rng, competing_rng, layout_rng = (
        np.random.default_rng(child) for child in seed_sequence.spawn(4)
    )

    interest = _draw_probability_matrix(
        interest_rng,
        (config.num_users, config.num_events),
        config.interest_distribution,
        config.zipf_exponent,
    )
    activity = _draw_probability_matrix(
        activity_rng,
        (config.num_users, config.num_intervals),
        config.activity_distribution,
        config.zipf_exponent,
    )

    competing_interval_indices = config.draw_competing_intervals(competing_rng)
    competing_interest = _draw_probability_matrix(
        competing_rng,
        (config.num_users, len(competing_interval_indices)),
        config.interest_distribution,
        config.zipf_exponent,
    )

    return config.assemble(
        layout_rng,
        interest=interest,
        activity=activity,
        competing_interest=competing_interest,
        competing_interval_indices=competing_interval_indices,
        metadata={"generator": "synthetic", "config": config.describe()},
    )


def generate_uniform(**overrides: object) -> SESInstance:
    """Shorthand for the paper's "Unf" dataset."""
    overrides.setdefault("interest_distribution", "uniform")
    overrides.setdefault("name", "Unf")
    return generate_synthetic(**overrides)


def generate_normal(**overrides: object) -> SESInstance:
    """Shorthand for the paper's "Nrm" dataset (results match Unf in the paper)."""
    overrides.setdefault("interest_distribution", "normal")
    overrides.setdefault("name", "Nrm")
    return generate_synthetic(**overrides)


def generate_zipfian(**overrides: object) -> SESInstance:
    """Shorthand for the paper's "Zip" dataset (exponent 2 by default)."""
    overrides.setdefault("interest_distribution", "zipfian")
    overrides.setdefault("name", "Zip")
    return generate_synthetic(**overrides)
