"""The cluster worker server (``repro worker serve``).

A worker is one OS process that listens on a TCP address, caches the static
matrices of the instances it has been sent (see
:class:`~repro.core.distributed.cache.InstanceCache`) and answers
:data:`~repro.core.distributed.protocol.OP_SCORE_COLUMNS` batches by
running the library's single bit-identity-critical kernel
(:func:`~repro.core.execution.score_block_kernel`) over each interval column —
exactly what the in-process batch path runs per event block.

One worker computes one column at a time (the kernel is a NumPy pass that
holds the CPU); parallelism comes from running **several workers** — on one
machine or many — and letting the client stream tasks to all of them.  Each
client connection is served on its own thread, so a worker can also be shared
by several clients; the per-connection selection cache keeps a client's
subset-selected rows materialised once per ``score_matrix`` call.

Listener, connection threads and lifecycle are the
:class:`~repro.core.distributed.server.WireServer` base's; :class:`WorkerServer`
adds the cache, the served-work counters and the cluster operations.
:func:`start_local_worker` spawns a worker as a child process and returns a
:class:`WorkerHandle` whose :meth:`~WorkerHandle.stop` sends
:data:`~repro.core.distributed.protocol.OP_SHUTDOWN` (used by the tests, the
benchmark and ``examples/cluster_quickstart.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import Client
from typing import Dict, Optional

import numpy as np

from repro.core.distributed.cache import DEFAULT_CACHE_CAPACITY, InstanceCache
from repro.core.distributed.protocol import (
    DEFAULT_WORKER_HOST,
    ERROR_FILE_UNAVAILABLE,
    ERROR_UNKNOWN_INSTANCE,
    ERROR_UNKNOWN_SELECTION,
    OP_HAS_INSTANCE,
    OP_PING,
    OP_PUT_INSTANCE,
    OP_SCORE_COLUMNS,
    OP_SHUTDOWN,
    OP_STATUS,
    PROTOCOL_VERSION,
    SELECTOR_CACHED,
    STATUS_ERROR,
    STATUS_OK,
    ColumnTask,
    authkey_bytes,
    parse_worker_address,
)
from repro.core.distributed.server import WireServer
from repro.core.errors import DatasetError, InstanceValidationError, SolverError

#: Ops whose first argument is the instance fingerprint keying the cache.
_FINGERPRINT_OPS = frozenset({OP_HAS_INSTANCE, OP_PUT_INSTANCE, OP_SCORE_COLUMNS})


class FileUnavailableError(SolverError):
    """A ``{"kind": "file"}`` instance ship named a file this worker cannot map.

    Answered as the well-known :data:`ERROR_FILE_UNAVAILABLE` payload so the
    client can fall back to shipping the instance bytes — it is a routing
    condition, not a run-killing failure.
    """


def build_instance_record(payload) -> Dict[str, object]:
    """Rebuild one shipped instance into a worker-side scoring record.

    The record is what the cache stores and the scoring ops consume:
    ``{"rows": EventRowSource, "comp": ndarray, "sigma": ndarray}``.
    Payload kinds (see the protocol module): ``"arrays"`` wraps the shipped
    dense event-major rows; ``"csr"`` rebuilds the event-major CSR store over
    the shipped arrays (structure already validated client-side); ``"file"``
    memory-maps the named backing NPZ and derives the static arrays from it
    with the **same** :func:`~repro.core.scoring.build_static_arrays` /
    :func:`~repro.core.scoring.build_event_rows` code the client's engine
    ran, so the columns it produces are bit-identical to a byte ship.
    """
    from repro.core.storage import DenseEventRows, SparseStore, StoreEventRows

    if not isinstance(payload, dict) or "kind" not in payload:
        raise SolverError(f"malformed instance payload: {type(payload).__name__}")
    kind = payload["kind"]
    if kind == "arrays":
        arrays = payload["arrays"]
        return {
            # Unit event values ship µ under both names as one pickled
            # object; unpickling keeps the identity the row source reads.
            "rows": DenseEventRows(arrays["mu_rows"], arrays["value_mu_rows"]),
            "comp": arrays["comp"],
            "sigma": arrays["sigma"],
        }
    if kind == "csr":
        arrays = payload["arrays"]
        shape = tuple(int(extent) for extent in np.asarray(arrays["csr_shape"]))
        store = SparseStore(
            shape,
            arrays["csr_indptr"],
            arrays["csr_indices"],
            arrays["csr_data"],
            validate=False,
        )
        return {
            "rows": StoreEventRows(store, arrays["values"]),
            "comp": arrays["comp"],
            "sigma": arrays["sigma"],
        }
    if kind == "file":
        from repro.core.instance_io import load_npz
        from repro.core.scoring import build_event_rows, build_static_arrays

        try:
            instance = load_npz(payload["path"], mmap=True)
        except (OSError, DatasetError, InstanceValidationError) as error:
            raise FileUnavailableError(
                f"cannot map shipped instance file {payload['path']!r}: {error}"
            ) from error
        comp, sigma, values, _ = build_static_arrays(instance)
        return {
            "rows": build_event_rows(instance.interest.store, values),
            "comp": comp,
            "sigma": sigma,
        }
    raise SolverError(f"unknown instance payload kind {kind!r}")


def score_column(record: Dict[str, object], task: ColumnTask, rows) -> np.ndarray:
    """One interval's score column against a cached instance record.

    Runs the same :func:`~repro.core.execution.score_block_kernel` as the
    in-process batch path, chunked along the event axis with the task's step
    — sparse and memory-mapped row sources densify one block at a time — so
    the returned column is bit-identical to the serial batch computation
    regardless of which machine (or storage) produced it.  A record whose
    row source has unit event values takes the kernel's unit path; the
    task's scheduled sums are always passed (the wire carries no applied
    count, so the empty-interval path stays in-process).
    """
    from repro.core.execution import score_block_kernel

    comp_column = record["comp"][:, task.interval_index]
    sigma_column = record["sigma"][:, task.interval_index]
    num_rows = rows.num_rows
    scores = np.empty(num_rows, dtype=np.float64)
    for start in range(0, num_rows, task.step):
        stop = min(start + task.step, num_rows)
        mu_rows, value_mu_rows = rows.block(start, stop)
        scores[start:stop] = score_block_kernel(
            mu_rows,
            None if value_mu_rows is mu_rows else value_mu_rows,
            comp_column,
            sigma_column,
            task.scheduled,
            task.scheduled_value,
            task.utility,
        )
    return scores


class WorkerServer(WireServer):
    """One cluster worker: a :class:`~repro.core.distributed.server.WireServer` over an
    :class:`~repro.core.distributed.cache.InstanceCache` of ``capacity`` instances."""

    kind = "cluster worker"

    def __init__(
        self,
        host: str = DEFAULT_WORKER_HOST,
        port: int = 0,
        *,
        cluster_key: Optional[str] = None,
        capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        self._cache = InstanceCache(capacity)
        # Served-work counters behind OP_STATUS.
        self._tasks_served = 0
        self._bytes_served = 0
        super().__init__(host, port, cluster_key=cluster_key)

    @property
    def cache(self) -> InstanceCache:
        """The worker's instance cache."""
        return self._cache

    def _dispatch(self, request, selection: Dict[str, object]):
        """Answer one cluster operation; returns ``(response, shutdown)``.

        ``selection`` (the connection's scratch dict) caches the last subset
        selection: one ``score_matrix`` call sends many tasks with the same
        token, so the fancy-indexed row copy happens once per call.
        """
        op = request[0]
        if op == OP_PING:
            payload = {"version": PROTOCOL_VERSION, "pid": os.getpid(),
                       "instances": len(self._cache)}
            return (STATUS_OK, payload), False
        if op == OP_STATUS:
            with self._lock:
                tasks_served, bytes_served = self._tasks_served, self._bytes_served
            payload = {
                "version": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime_sec": time.monotonic() - self._started,
                "instances": self._cache.fingerprints(),
                "capacity": self._cache.capacity,
                "tasks_served": tasks_served,
                "bytes_served": bytes_served,
            }
            return (STATUS_OK, payload), False
        if op in _FINGERPRINT_OPS and not (
            len(request) > 1 and isinstance(request[1], str)
        ):
            # The fingerprint keys the instance cache; anything but a str
            # (e.g. None) could alias an unrelated instance's record.
            return (STATUS_ERROR, f"malformed request: {op!r} needs a str fingerprint"), False
        if op == OP_HAS_INSTANCE:
            (fingerprint,) = request[1:]
            return (STATUS_OK, fingerprint in self._cache), False
        if op == OP_PUT_INSTANCE:
            fingerprint, payload = request[1:]
            try:
                record = build_instance_record(payload)
            except FileUnavailableError:
                # A routing condition, not a failure: the client falls back
                # to shipping the instance bytes under the same fingerprint.
                return (STATUS_ERROR, ERROR_FILE_UNAVAILABLE), False
            self._cache.put(fingerprint, record)
            return (STATUS_OK, True), False
        if op == OP_SCORE_COLUMNS:
            # One request carries a whole batch of column tasks and one reply
            # carries every column, in task order — same kernel, same
            # chunking, one round-trip.  The batch fails as a unit (the
            # client re-sends it after healing), so the instance/selection
            # checks run before any column is computed.
            fingerprint, batch = request[1:]
            record = self._cache.get(fingerprint)
            if record is None:
                return (STATUS_ERROR, ERROR_UNKNOWN_INSTANCE), False
            columns = []
            for task in batch:
                rows = self._selected_rows(record, task, selection)
                if rows is None:
                    return (STATUS_ERROR, ERROR_UNKNOWN_SELECTION), False
                columns.append((task.interval_index, score_column(record, task, rows)))
            self._count_served(
                len(columns), sum(scores.nbytes for _, scores in columns)
            )
            return (STATUS_OK, tuple(columns)), False
        return super()._dispatch(request, selection)

    def _count_served(self, tasks: int, nbytes: int) -> None:
        """Record served work (connection threads share the counters)."""
        with self._lock:
            self._tasks_served += tasks
            self._bytes_served += nbytes

    @staticmethod
    def _selected_rows(
        record: Dict[str, object], task: ColumnTask, selection: Dict[str, object]
    ) -> Optional[object]:
        """The (possibly subset-selected) event-row source of one task.

        A task may reference its call's cached selection instead of carrying
        the index array (:data:`SELECTOR_CACHED` — the selector crosses the
        wire once per connection per call); ``None`` is returned when that
        cache entry is missing (worker restarted mid-call) so the dispatcher
        can answer :data:`ERROR_UNKNOWN_SELECTION` and the client retries
        with the array attached.
        """
        rows = record["rows"]
        if task.selector is None:
            return rows
        if isinstance(task.selector, str) and task.selector == SELECTOR_CACHED:
            if selection.get("token") != task.token:
                return None
            return selection.get("rows")
        if selection.get("token") != task.token:
            selection["token"] = task.token
            selection["rows"] = rows.select(task.selector)  # type: ignore[attr-defined]
        return selection["rows"]


def _local_worker_main(host, port, cluster_key, capacity, channel) -> None:
    """Child-process entry point of :func:`start_local_worker`."""
    WorkerServer(host, port, cluster_key=cluster_key, capacity=capacity).run(channel.send)


class WorkerHandle:
    """A locally-spawned worker process and its address.

    Returned by :func:`start_local_worker`; :meth:`stop` performs the
    deterministic shutdown handshake (falling back to ``terminate`` if the
    worker does not comply), :meth:`kill` hard-kills the process — the tests
    use it to exercise the client's failure re-dispatch.
    """

    def __init__(self, process: multiprocessing.Process, address: str,
                 cluster_key: Optional[str]) -> None:
        self.process = process
        self.address = address
        self._cluster_key = cluster_key

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the worker to shut down; terminate it if it does not."""
        if self.process.is_alive():
            try:
                host, port = parse_worker_address(self.address)
                connection = Client((host, port), authkey=authkey_bytes(self._cluster_key))
                try:
                    connection.send((OP_SHUTDOWN,))
                    connection.recv()
                finally:
                    connection.close()
            except (OSError, EOFError, multiprocessing.AuthenticationError):
                pass
            self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - unresponsive worker
            self.process.terminate()
            self.process.join(timeout)

    def kill(self, timeout: float = 5.0) -> None:
        """Hard-kill the worker (simulates a machine/process failure).

        SIGKILL, not SIGTERM: the point is abrupt death with no Python
        cleanup — no flushed buffers, no closed sockets — so the failure
        tests exercise what a powered-off machine looks like to the client.
        """
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)


def start_local_worker(
    host: str = DEFAULT_WORKER_HOST,
    port: int = 0,
    *,
    cluster_key: Optional[str] = None,
    capacity: int = DEFAULT_CACHE_CAPACITY,
) -> WorkerHandle:
    """Spawn a worker server as a child process and wait for its address.

    The child is started with the ``spawn`` method (safe regardless of this
    process's threads) and binds before the call returns, so the returned
    :class:`WorkerHandle.address` is immediately connectable.
    """
    context = multiprocessing.get_context("spawn")
    parent_end, child_end = context.Pipe(duplex=False)
    process = context.Process(
        target=_local_worker_main,
        args=(host, port, cluster_key, capacity, child_end),
        daemon=True,
    )
    process.start()
    child_end.close()
    try:
        if not parent_end.poll(30.0):
            raise SolverError("cluster worker did not report its address within 30s")
        address = parent_end.recv()
    except (EOFError, OSError):
        process.terminate()
        raise SolverError("cluster worker died before binding its address") from None
    finally:
        parent_end.close()
    return WorkerHandle(process, address, cluster_key)


__all__ = [
    "WorkerServer",
    "WorkerHandle",
    "FileUnavailableError",
    "build_instance_record",
    "score_column",
    "start_local_worker",
]
