"""Fixed name table of the available schedulers.

The experiment harness, the CLI and downstream users refer to algorithms by
the names the paper uses (``"ALG"``, ``"INC"``, ``"HOR"``, ``"HOR-I"``,
``"TOP"``, ``"RAND"``, plus ``"EXACT"`` for the brute-force verifier).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.algorithms.ablations import AlgOrganizedScheduler, IncUpdatesOnlyScheduler
from repro.algorithms.alg import AlgScheduler
from repro.algorithms.base import BaseScheduler, SchedulerResult
from repro.algorithms.exact import ExactScheduler
from repro.algorithms.hor import HorScheduler
from repro.algorithms.hor_i import HorIScheduler
from repro.algorithms.inc import IncScheduler
from repro.algorithms.rand import RandScheduler
from repro.algorithms.top import TopScheduler
from repro.core.counters import ComputationCounter
from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance

_REGISTRY: Dict[str, Type[BaseScheduler]] = {
    AlgScheduler.name: AlgScheduler,
    IncScheduler.name: IncScheduler,
    HorScheduler.name: HorScheduler,
    HorIScheduler.name: HorIScheduler,
    TopScheduler.name: TopScheduler,
    RandScheduler.name: RandScheduler,
    ExactScheduler.name: ExactScheduler,
    IncUpdatesOnlyScheduler.name: IncUpdatesOnlyScheduler,
    AlgOrganizedScheduler.name: AlgOrganizedScheduler,
}

#: Canonical ordering used by reports (mirrors the paper's legends).
PAPER_METHODS: List[str] = ["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"]

#: The three algorithms contributed by the paper.
CONTRIBUTED_METHODS: List[str] = ["INC", "HOR", "HOR-I"]


def available_schedulers() -> List[str]:
    """Names of every registered scheduler."""
    return sorted(_REGISTRY)


def get_scheduler(name: str) -> Type[BaseScheduler]:
    """Return the scheduler class registered under ``name`` (case-insensitive).

    ``"HORI"`` and ``"HOR_I"`` are accepted aliases for ``"HOR-I"``.  A name
    that is not a string (``None``, a number, a list) raises
    :class:`~repro.core.errors.SolverError` instead of being looked up.
    """
    if not isinstance(name, str):
        raise SolverError(f"algorithm name must be a string, got {name!r}")
    canonical = name.strip().upper().replace("_", "-")
    if canonical == "HORI":
        canonical = "HOR-I"
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise SolverError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None


def run_scheduler(
    name: str,
    instance: SESInstance,
    k: int,
    *,
    seed: Optional[int] = None,
    counter: Optional[ComputationCounter] = None,
    execution: Optional[ExecutionConfig] = None,
    locked: Optional[Sequence[Tuple[int, int]]] = None,
) -> SchedulerResult:
    """Instantiate and run a scheduler by name (one-call convenience helper).

    ``execution`` holds the scoring engine's bulk-path knobs
    (:class:`~repro.core.execution.ExecutionConfig`; ``None`` uses the library
    defaults).  ``locked`` pins assignments ``(event_index, interval_index)``
    into the schedule before the algorithm runs (see
    :class:`~repro.algorithms.base.BaseScheduler`).
    """
    scheduler_cls = get_scheduler(name)
    scheduler = scheduler_cls(
        instance,
        counter=counter,
        seed=seed,
        execution=execution,
        locked=tuple(tuple(pair) for pair in locked) if locked else None,
    )
    return scheduler.schedule(k)
