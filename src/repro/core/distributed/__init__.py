"""Distributed ("cluster") execution — scoring sharded across machines.

This package scales the execution layer past one host.  Its RPC unit is one
*per-interval column task* — interval index plus two per-user scheduled-sum
vectors in, one score column out.  Those units travel over TCP, grouped into
pipelined batches (protocol v2) so a dispatch round-trip is paid
per batch rather than per column:

* :mod:`~repro.core.distributed.protocol` — the wire protocol (operations,
  the :class:`~repro.core.distributed.protocol.ColumnTask` unit, instance
  fingerprints, addresses, authentication keys);
* :mod:`~repro.core.distributed.cache` — the worker-side LRU of static
  instance matrices (shipped once per fingerprint);
* :mod:`~repro.core.distributed.server` — :class:`WireServer`, the listener
  and connection loop under the worker and the scheduling service
  (``repro serve``), each run by :meth:`WireServer.run`;
* :mod:`~repro.core.distributed.worker` — the worker server
  (``repro worker serve``) plus :func:`start_local_worker` for spawning
  localhost workers in tests/benchmarks/examples;
* :mod:`~repro.core.distributed.client` — the
  :class:`~repro.core.distributed.client.ClusterBackend` strategy, registered
  as ``"cluster"`` alongside ``scalar``/``batch``;
* :mod:`~repro.core.distributed.health` — read-only fleet probing behind
  ``repro cluster health`` (reachability, authentication, protocol version,
  uptime and served-work counters via the status op).

Select it like any other backend::

    ExecutionConfig(backend="cluster", workers_addr=("10.0.0.5:7077", ...))

Submodules are imported lazily (PEP 562): :mod:`repro.core.execution` imports
:mod:`~repro.core.distributed.protocol` for address/key resolution and then
registers :class:`ClusterBackend`, which itself subclasses a strategy from
:mod:`repro.core.execution` — the lazy indirection keeps that cycle open.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static-analysis aliases
    from repro.core.distributed.cache import DEFAULT_CACHE_CAPACITY, InstanceCache
    from repro.core.distributed.client import ClusterBackend, ClusterWorkerWarning
    from repro.core.distributed.health import (
        HEALTH_COLUMNS,
        fleet_health,
        probe_worker,
    )
    from repro.core.distributed.protocol import (
        DEFAULT_CLUSTER_KEY,
        MAX_TASK_BATCH,
        PIPELINE_DEPTH,
        PROTOCOL_VERSION,
        TASK_OVERSUBSCRIBE,
        ColumnTask,
        derive_task_batch,
        instance_fingerprint,
        parse_worker_address,
    )
    from repro.core.distributed.server import WireServer
    from repro.core.distributed.worker import (
        WorkerHandle,
        WorkerServer,
        start_local_worker,
    )

_EXPORTS = {
    "DEFAULT_CACHE_CAPACITY": "repro.core.distributed.cache",
    "InstanceCache": "repro.core.distributed.cache",
    "ClusterBackend": "repro.core.distributed.client",
    "ClusterWorkerWarning": "repro.core.distributed.client",
    "HEALTH_COLUMNS": "repro.core.distributed.health",
    "fleet_health": "repro.core.distributed.health",
    "probe_worker": "repro.core.distributed.health",
    "DEFAULT_CLUSTER_KEY": "repro.core.distributed.protocol",
    "MAX_TASK_BATCH": "repro.core.distributed.protocol",
    "PIPELINE_DEPTH": "repro.core.distributed.protocol",
    "PROTOCOL_VERSION": "repro.core.distributed.protocol",
    "TASK_OVERSUBSCRIBE": "repro.core.distributed.protocol",
    "ColumnTask": "repro.core.distributed.protocol",
    "derive_task_batch": "repro.core.distributed.protocol",
    "instance_fingerprint": "repro.core.distributed.protocol",
    "parse_worker_address": "repro.core.distributed.protocol",
    "WireServer": "repro.core.distributed.server",
    "WorkerHandle": "repro.core.distributed.worker",
    "WorkerServer": "repro.core.distributed.worker",
    "start_local_worker": "repro.core.distributed.worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve the public names from their submodules on first access."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
