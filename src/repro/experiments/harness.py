"""Run algorithms on instances and collect metric records.

The harness is deliberately small: it instantiates the requested schedulers,
runs them, validates the produced schedules (a safety net — an infeasible
schedule would silently distort every downstream comparison) and converts the
results into :class:`~repro.experiments.metrics.MetricRecord` objects.
"""

from __future__ import annotations

import contextlib
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence

from repro.algorithms.base import SchedulerResult
from repro.algorithms.registry import PAPER_METHODS, get_scheduler
from repro.core.errors import ExperimentError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.validation import validate_solution
from repro.datasets.builders import build_dataset
from repro.experiments.metrics import MetricRecord


def apply_storage(
    instance: SESInstance,
    storage: Optional[str],
    stack: contextlib.ExitStack,
) -> SESInstance:
    """``instance`` converted to the requested interest-matrix storage.

    ``None`` (or the storage the instance already uses) returns the instance
    unchanged.  Converting to the ``"mmap"`` storage spills the instance to an
    uncompressed NPZ in a temporary directory registered on ``stack``, so the
    backing file outlives every scheduler that maps it and is removed when
    the caller's stack closes.  Conversion never changes values, so results
    stay bit-identical across storages.
    """
    if storage is None or instance.storage == storage:
        return instance
    if storage == "mmap":
        directory = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="ses-repro-mmap-")
        )
        return instance.with_storage("mmap", directory=directory)
    return instance.with_storage(storage)


def run_algorithms(
    instance: SESInstance,
    k: int,
    *,
    algorithms: Optional[Sequence[str]] = None,
    experiment_id: str = "adhoc",
    params: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = 0,
    validate: bool = True,
    execution: Optional[ExecutionConfig] = None,
    results: Optional[List[SchedulerResult]] = None,
) -> List[MetricRecord]:
    """Run a set of algorithms on one instance and return one record per run.

    Parameters
    ----------
    algorithms:
        Algorithm names (defaults to the paper's six methods).  The HOR-I
        entry is skipped automatically when ``k <= |T|`` *and* HOR is also in
        the list, mirroring the paper's plots, unless it is requested
        explicitly as the only horizontal method.
    validate:
        Re-check feasibility and the claimed utility of every schedule.
    execution:
        Execution configuration forwarded to every scheduler
        (:class:`~repro.core.execution.ExecutionConfig`; ``None`` uses the
        library defaults).  Every config is metric-equivalent, so records
        only differ in wall-clock time; the storage and scoring plan actually
        used are recorded in every record's params, so figure runs can
        compare them.
    results:
        Optional sink: when given, the full :class:`SchedulerResult` of every
        run is appended to it (same order as the returned records).  The CLI
        uses this to print schedules without re-running the schedulers.
    """
    names = list(algorithms) if algorithms is not None else list(PAPER_METHODS)
    if not names:
        raise ExperimentError("at least one algorithm name is required")

    records: List[MetricRecord] = []
    for name in names:
        scheduler_cls = get_scheduler(name)
        scheduler = scheduler_cls(instance, seed=seed, execution=execution)
        result = scheduler.schedule(k)
        if results is not None:
            results.append(result)
        if validate:
            problems = validate_solution(
                instance, result.schedule, k=k, claimed_utility=result.utility
            )
            if problems:
                raise ExperimentError(
                    f"{name} produced an invalid schedule on {instance.name!r}: "
                    + "; ".join(problems)
                )
        records.append(
            MetricRecord.from_result(
                result,
                experiment_id=experiment_id,
                dataset=instance.name,
                params=params,
                seed=seed,
            )
        )
    return records


def run_experiment_point(
    dataset: str,
    *,
    k: int,
    experiment_id: str,
    dataset_overrides: Optional[Mapping[str, object]] = None,
    algorithms: Optional[Sequence[str]] = None,
    params: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = 0,
    execution: Optional[ExecutionConfig] = None,
    storage: Optional[str] = None,
) -> List[MetricRecord]:
    """Build a named dataset and run the algorithms on it (one sweep point).

    ``params`` is stored on every record (it is the x-axis annotation of the
    figures); ``dataset_overrides`` are forwarded to the dataset builder;
    ``execution`` to every scheduler.  ``storage`` converts the built
    instance to the named interest-matrix storage first (see
    :func:`apply_storage`); the storage actually used lands in every record's
    ``params["storage"]``.
    """
    merged_params: Dict[str, object] = dict(params or {})
    merged_params.setdefault("k", k)
    with contextlib.ExitStack() as stack:
        instance = apply_storage(
            build_dataset(dataset, **dict(dataset_overrides or {})), storage, stack
        )
        return run_algorithms(
            instance,
            k,
            algorithms=algorithms,
            experiment_id=experiment_id,
            params=merged_params,
            seed=seed,
            execution=execution,
        )
