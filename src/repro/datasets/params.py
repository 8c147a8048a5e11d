"""The experimental parameter grid of Table 1, plus scaled reproduction defaults.

Two grids are exposed:

* :data:`PAPER_GRID` / :data:`PAPER_DEFAULTS` — the values exactly as printed
  in Table 1 of the paper (defaults are the bold entries).  These document
  the original experiment and are used by the tests that verify the grid is
  encoded faithfully.
* :data:`REPRO_GRID` / :data:`REPRO_DEFAULTS` — the scaled-down values used
  by this repository's benchmark harness so that every figure can be
  regenerated on a laptop in pure Python.  The scaling preserves every ratio
  the paper's analysis relies on (k vs |T|, |E| vs k, competing events per
  interval, resources per event vs θ); the absolute sizes of each run live in
  the scale presets of :mod:`repro.experiments.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.errors import ExperimentError


@dataclass(frozen=True)
class ParameterGrid:
    """An immutable named parameter grid (defaults + examined values)."""

    name: str
    defaults: Dict[str, object] = field(default_factory=dict)
    values: Dict[str, Tuple[object, ...]] = field(default_factory=dict)

    def default(self, parameter: str) -> object:
        """Default value of a parameter."""
        try:
            return self.defaults[parameter]
        except KeyError:
            raise ExperimentError(
                f"unknown parameter {parameter!r} in grid {self.name!r}; "
                f"known: {', '.join(sorted(self.defaults))}"
            ) from None

    def examined(self, parameter: str) -> Tuple[object, ...]:
        """All values examined for a parameter."""
        try:
            return self.values[parameter]
        except KeyError:
            raise ExperimentError(
                f"unknown parameter {parameter!r} in grid {self.name!r}; "
                f"known: {', '.join(sorted(self.values))}"
            ) from None

    def parameters(self) -> List[str]:
        """All parameter names."""
        return sorted(self.defaults)


# --------------------------------------------------------------------------- #
# Table 1 — the paper's parameters (defaults in bold in the paper)
# --------------------------------------------------------------------------- #
PAPER_GRID = ParameterGrid(
    name="paper",
    defaults={
        "k": 100,
        "num_candidate_events": 300,          # 3k
        "num_intervals": 150,                 # 3k/2
        "competing_per_interval_range": (1, 16),   # mean 8.1 measured on Meetup
        "num_locations": 25,
        "available_resources": 30,
        "required_resources_range": (1, 15),  # Uniform [1, θ/2]
        "activity_distribution": "uniform",
        "num_users": 100_000,
        "interest_distribution": "uniform",
        "zipf_exponent": 2,
    },
    values={
        "k": (50, 70, 100, 200, 500),
        "num_candidate_events": ("k", "2k", "3k", "5k", "10k"),
        "num_intervals": ("k/5", "k/2", "k", "3k/2", "2k", "3k"),
        "competing_per_interval_range": ((1, 4), (1, 8), (1, 16), (1, 32), (1, 64)),
        "num_locations": (5, 10, 25, 50, 70),
        "available_resources": (10, 20, 30, 50, 100),
        "required_resources_range": ("[1,θ/4]", "[1,θ/3]", "[1,θ/2]", "[1,3θ/4]", "[1,θ]"),
        "activity_distribution": ("uniform", "normal"),
        "num_users": (10_000, 50_000, 100_000, 500_000, 1_000_000),
        "interest_distribution": ("uniform", "normal", "zipfian"),
        "zipf_exponent": (1, 2, 3),
    },
)

PAPER_DEFAULTS: Dict[str, object] = dict(PAPER_GRID.defaults)


# --------------------------------------------------------------------------- #
# Scaled reproduction grid (pure-Python laptop scale)
# --------------------------------------------------------------------------- #
#: Linear scale factor applied to k (and therefore |E|, |T|) and to |U|.
K_SCALE = 0.24
USER_SCALE = 0.02

REPRO_GRID = ParameterGrid(
    name="repro",
    defaults={
        "k": 24,
        "num_candidate_events": 72,           # 3k
        "num_intervals": 36,                  # 3k/2
        "competing_per_interval_range": (1, 16),
        "num_locations": 12,
        "available_resources": 30,
        "required_resources_range": (1, 15),
        "activity_distribution": "uniform",
        "num_users": 2_000,
        "interest_distribution": "uniform",
        "zipf_exponent": 2,
    },
    values={
        "k": (12, 17, 24, 48, 120),
        "num_candidate_events": ("k", "2k", "3k", "5k", "10k"),
        "num_intervals": ("k/5", "k/2", "k", "3k/2", "2k", "3k"),
        "competing_per_interval_range": ((1, 4), (1, 8), (1, 16), (1, 32), (1, 64)),
        "num_locations": (3, 6, 12, 24, 34),
        "available_resources": (10, 20, 30, 50, 100),
        "required_resources_range": ("[1,θ/4]", "[1,θ/3]", "[1,θ/2]", "[1,3θ/4]", "[1,θ]"),
        "activity_distribution": ("uniform", "normal"),
        "num_users": (200, 1_000, 2_000, 10_000, 20_000),
        "interest_distribution": ("uniform", "normal", "zipfian"),
        "zipf_exponent": (1, 2, 3),
    },
)

REPRO_DEFAULTS: Dict[str, object] = dict(REPRO_GRID.defaults)


def default(parameter: str, *, paper: bool = False) -> object:
    """Default value of a parameter in the reproduction (or the paper) grid."""
    grid = PAPER_GRID if paper else REPRO_GRID
    return grid.default(parameter)


def paper_values(parameter: str) -> Tuple[object, ...]:
    """Values examined in the paper for a parameter (Table 1 row)."""
    return PAPER_GRID.examined(parameter)


def repro_values(parameter: str) -> Tuple[object, ...]:
    """Values examined in the scaled reproduction for a parameter."""
    return REPRO_GRID.examined(parameter)


def resolve_relative(expression: object, k: int) -> int:
    """Resolve Table 1 expressions like ``"3k/2"`` or ``"k/5"`` against a concrete ``k``.

    Integers pass through unchanged; strings must be of the form ``a*k/b``
    written as ``"k"``, ``"2k"``, ``"k/5"``, ``"3k/2"`` and so on.
    """
    if isinstance(expression, bool):
        raise ExperimentError(f"cannot resolve boolean {expression!r} as a parameter value")
    if isinstance(expression, int):
        return expression
    if isinstance(expression, float):
        return int(round(expression))
    text = str(expression).strip().lower().replace(" ", "")
    if "k" not in text:
        raise ExperimentError(f"cannot resolve parameter expression {expression!r}")
    multiplier_text, _, divisor_text = text.partition("/")
    multiplier_text = multiplier_text.replace("k", "") or "1"
    try:
        multiplier = int(multiplier_text)
        divisor = int(divisor_text) if divisor_text else 1
    except ValueError:
        raise ExperimentError(f"cannot resolve parameter expression {expression!r}") from None
    if divisor <= 0:
        raise ExperimentError(f"divisor must be positive in {expression!r}")
    return max(1, (multiplier * k) // divisor)


def mean_of_range(bounds: Sequence[int]) -> float:
    """Mean of a uniform integer range given as ``(low, high)`` (inclusive)."""
    low, high = bounds
    return (float(low) + float(high)) / 2.0
