"""The ``cluster`` execution backend (client side).

:class:`ClusterBackend` shards :meth:`ScoringEngine.score_matrix`'s
per-interval column tasks across remote worker processes
(:mod:`repro.core.distributed.worker`) over TCP.  It is the only network
boundary in the codebase:

* the static instance data ships to each worker **once per instance
  fingerprint** and is cached worker-side across calls, runs and clients.
  The ship payload is shaped by the instance's storage (protocol v3): dense
  instances ship the precomputed event-major rows, sparse instances the much
  smaller CSR arrays, and a memory-mapped instance whose backing NPZ the
  worker can see ships **only the file path** — zero-copy NPZ shipping, with
  a transparent fallback to byte shipping when the worker answers
  :data:`~repro.core.distributed.protocol.ERROR_FILE_UNAVAILABLE`;
* tasks move in **batches** (protocol v2): one
  :data:`~repro.core.distributed.protocol.OP_SCORE_COLUMNS` request carries
  ``ceil(|T| / (lanes * TASK_OVERSUBSCRIBE))`` columns (clamped to
  :data:`~repro.core.distributed.protocol.MAX_TASK_BATCH`), and each
  link keeps :data:`~repro.core.distributed.protocol.PIPELINE_DEPTH` batches
  in flight, so the worker prefetches the next batch from its socket buffer
  instead of idling one wire round-trip per column;
* every column is produced by the same
  :func:`~repro.core.execution.score_block_kernel` under the same event-axis
  chunking as the serial batch path, so results are **bit-identical** to every
  other backend regardless of which machine computed which column.

**Dispatch.**  ``score_matrix`` runs one *lane* thread per resolved
``workers`` (which :func:`~repro.core.execution.resolve_workers` clamps to
the number of configured addresses — the knob caps concurrency, never the
candidate worker set).  A lane acquires an idle live link, or dials a
configured address that has none; connecting and instance shipping happen
inside the lane, and while no link is serving yet the main thread computes
columns locally from the tail of the queue, so shipping overlaps with the
first locally-computed columns instead of blocking dispatch start.

**Failure tolerance and elasticity.**  A worker that dies mid-run (connection
reset / EOF) has its in-flight batches re-queued — re-split across the
surviving links so no single survivor inherits the whole share — and its lane
dials a replacement.  Failed addresses are retried with exponential backoff
(:data:`~repro.core.distributed.protocol.RECONNECT_BACKOFF_BASE`), and idle
lanes re-poll the configured addresses every
:data:`~repro.core.distributed.protocol.REDISCOVERY_INTERVAL` seconds, so a
worker restarted (or newly started) on a configured address joins an
*in-flight* ``score_matrix`` call instead of waiting for the next one.  If
every worker is lost the leftover columns are computed locally with the
serial batch kernel — the run always completes with the exact same matrix,
just slower.  A fatal (non-link) error sets a shared abort flag checked in
every lane's dispatch loop, so a run that is guaranteed to fail stops paying
for remote columns promptly.

**Observability.**  Per-link counters — tasks served, batches, round-trips,
bytes sent/received — accumulate per worker address (independent of link
objects, so they survive reconnects and :meth:`~ClusterBackend.close`) and
are exposed through :meth:`ClusterBackend.stats`, which the scheduler records
into :meth:`SchedulerResult.summary`.

**Degradation.**  With no workers configured
(:attr:`~repro.core.execution.ExecutionConfig.workers_addr` unset) the backend
behaves exactly like the serial ``batch`` backend it subclasses, so
``backend="cluster"`` is safe to hard-code in configs that only sometimes run
with remote workers.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import multiprocessing
import pickle
import threading
import time
import warnings
from multiprocessing.connection import Client, Connection
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.distributed import protocol
from repro.core.distributed.protocol import (
    ERROR_FILE_UNAVAILABLE,
    ERROR_UNKNOWN_INSTANCE,
    ERROR_UNKNOWN_SELECTION,
    OP_HAS_INSTANCE,
    OP_PING,
    OP_PUT_INSTANCE,
    OP_SCORE_COLUMNS,
    PROTOCOL_VERSION,
    RECONNECT_BACKOFF_BASE,
    RECONNECT_BACKOFF_MAX,
    REDISCOVERY_INTERVAL,
    SELECTOR_CACHED,
    STATUS_OK,
    ColumnTask,
    authkey_bytes,
    derive_task_batch,
    file_fingerprint,
    instance_fingerprint,
    parse_worker_address,
)
from repro.core.errors import SolverError
from repro.core.execution import BatchBackend, ExecutionConfig
from repro.core.storage import DenseEventRows, as_sparse

#: Exceptions that mean "this worker (or its link) is gone" — the batch is
#: re-dispatched instead of failing the run.
_LINK_FAILURES = (OSError, EOFError, BrokenPipeError, ConnectionError)

#: Heal-and-resend cycles tolerated per link per call before the worker is
#: declared broken (a healthy worker needs at most one instance re-ship and
#: one selector re-attach per call).
_MAX_HEALS = 4


class ClusterWorkerWarning(RuntimeWarning):
    """Warned when a configured worker is unreachable or dies mid-run."""


class _WorkerLink:
    """One live connection to a remote worker (driven by one lane at a time)."""

    __slots__ = ("address", "connection", "alive", "shipped", "selection_token")

    def __init__(self, address: str, connection: Connection) -> None:
        self.address = address
        self.connection = connection
        self.alive = True
        #: Fingerprints this client has confirmed resident on the worker.
        self.shipped: set = set()
        #: Call token whose selector already crossed this connection (the
        #: selector ships once per call per link; later tasks reference it).
        self.selection_token: Optional[int] = None

    def close(self) -> None:
        self.alive = False
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _CallState:
    """Shared state of one ``score_matrix`` dispatch (lanes + the main thread)."""

    __slots__ = (
        "tasks",
        "matrix",
        "pending",
        "lock",
        "errors",
        "abort",
        "token",
        "selector",
        "serving",
        "available",
        "connecting",
        "warned",
    )

    def __init__(
        self,
        tasks: Dict[int, ColumnTask],
        matrix: np.ndarray,
        pending: "Deque[List[int]]",
        token: int,
        selector: Optional[np.ndarray],
        available: List[_WorkerLink],
    ) -> None:
        self.tasks = tasks
        self.matrix = matrix
        #: Batches not yet dispatched (lanes pop from the left, the local
        #: overlap helper from the right).
        self.pending = pending
        self.lock = threading.Lock()
        self.errors: List[BaseException] = []
        #: Set on the first fatal (non-link) error: every lane checks it in
        #: its dispatch loop and stops sending promptly instead of draining
        #: the whole pending pool for a run that is guaranteed to fail.
        self.abort = threading.Event()
        self.token = token
        self.selector = selector
        #: Set when the first link is ready to serve — ends the main thread's
        #: ship-overlap local compute.
        self.serving = threading.Event()
        #: Idle live links (a lane holding a link is its only driver).
        self.available = available
        #: Addresses currently being dialled by some lane.
        self.connecting: Set[str] = set()
        #: Addresses already warned about this call (one warning per call).
        self.warned: Set[str] = set()


class ClusterBackend(BatchBackend):
    """Distributed strategy: score-matrix columns sharded across TCP workers.

    Selected with ``ExecutionConfig(backend="cluster",
    workers_addr=("host:port", ...))``; start the workers with
    ``repro worker serve``.  Single-interval bulk calls
    (:meth:`~ScoringEngine.interval_scores`, the incremental refresh path) use
    the local serial batch kernel — shipping one column's work over TCP cannot
    beat computing it in place.  With no ``workers_addr`` (or a call with at
    most one interval or no rows) the backend runs the inherited serial
    ``batch`` path.
    """

    name = "cluster"
    is_bulk = True
    uses_cluster = True

    def __init__(self, config: ExecutionConfig) -> None:
        super().__init__(config)
        self._links: Optional[List[_WorkerLink]] = None
        #: ``(fingerprint, payload)``, built once by the first lane that
        #: needs it and published as one tuple under ``_lock``: concurrent
        #: lanes must never see a payload without its fingerprint.
        self._ship: Optional[Tuple[str, Dict[str, object]]] = None
        self._lock = threading.Lock()
        self._call_tokens = itertools.count()
        #: Per-address dispatch counters.  Keyed by address — not by link —
        #: so they survive reconnects and remain readable after close().
        self._link_stats: Dict[str, Dict[str, int]] = {}
        self._local_columns = 0
        self._last_task_batch: Optional[int] = None
        #: Per-address reconnection backoff (seconds) and next-attempt
        #: deadline — exponential within a call, reset at every call start.
        self._backoff: Dict[str, float] = {}
        self._retry_at: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Instance shipping
    # ------------------------------------------------------------------ #
    def _instance_payload(self) -> Tuple[str, Dict[str, object]]:
        """The instance fingerprint and ship payload (computed once, thread-safe).

        Shaped by the instance's storage (see the protocol module): dense
        storage ships the precomputed event-major rows (``"arrays"``, exactly
        the v2 content — same fingerprint, too); sparse storage ships the CSR
        arrays (``"csr"``); a file-backed instance ships only its path
        (``"file"``), fingerprinted by the file's bytes — chunk-read, never
        materialised — with :meth:`_csr_payload` as the byte-ship fallback
        when the worker answers :data:`ERROR_FILE_UNAVAILABLE`.

        Lanes call this concurrently, and hashing a large buffer releases the
        GIL, so the pair is built under ``_lock`` and published in one
        assignment; the other lanes wait for it rather than hash again.
        """
        with self._lock:
            if self._ship is None:
                self._ship = self._build_ship()
            return self._ship

    def _build_ship(self) -> Tuple[str, Dict[str, object]]:
        engine = self.engine
        backing_file = engine.instance.backing_file
        if engine._store.is_file_backed and backing_file is not None:
            return file_fingerprint(backing_file), {"kind": "file", "path": backing_file}
        if isinstance(engine._event_rows, DenseEventRows):
            mu_rows, value_mu_rows = engine._event_rows.arrays
            arrays = {
                "mu_rows": mu_rows,
                "value_mu_rows": value_mu_rows,
                "comp": np.ascontiguousarray(engine._comp),
                "sigma": np.ascontiguousarray(engine._sigma),
            }
            return instance_fingerprint(arrays), {"kind": "arrays", "arrays": arrays}
        payload = self._csr_payload()
        return instance_fingerprint(payload["arrays"]), payload  # type: ignore[arg-type]

    def _csr_payload(self) -> Dict[str, object]:
        """The byte-ship form of a sparse/mmap instance (CSR arrays + statics)."""
        engine = self.engine
        indptr, indices, data = as_sparse(engine._store).csr_arrays
        arrays = {
            "csr_shape": np.asarray(engine._store.shape, dtype=np.int64),
            "csr_indptr": np.ascontiguousarray(indptr, dtype=np.int64),
            "csr_indices": np.ascontiguousarray(indices, dtype=np.int64),
            "csr_data": np.ascontiguousarray(data, dtype=np.float64),
            "values": np.ascontiguousarray(engine._values),
            "comp": np.ascontiguousarray(engine._comp),
            "sigma": np.ascontiguousarray(engine._sigma),
        }
        return {"kind": "csr", "arrays": arrays}

    def _connect(self, address: str) -> _WorkerLink:
        """Open, authenticate and version-check one worker connection."""
        host, port = parse_worker_address(address)
        try:
            connection = Client((host, port), authkey=authkey_bytes(self._config.cluster_key))
        except multiprocessing.AuthenticationError:
            # A key mismatch is a configuration error, not a dead worker —
            # re-dispatching would silently hide it.
            raise SolverError(
                f"cluster worker {address} rejected the authentication key; "
                "client and worker must share the same cluster_key"
            ) from None
        link = _WorkerLink(address, connection)
        status, payload = self._roundtrip(link, (OP_PING,))
        if status != STATUS_OK:
            link.close()
            raise SolverError(f"cluster worker {address} rejected the handshake: {payload}")
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != PROTOCOL_VERSION:
            link.close()
            raise SolverError(
                f"cluster worker {address} speaks protocol {version!r}, "
                f"this client speaks {PROTOCOL_VERSION}"
            )
        return link

    # ------------------------------------------------------------------ #
    # Wire primitives (byte-counting)
    # ------------------------------------------------------------------ #
    def _link_stat(self, address: str) -> Dict[str, int]:
        """The per-address counter record, created on first use."""
        stat = self._link_stats.get(address)
        if stat is None:
            stat = self._link_stats[address] = {
                "tasks": 0,
                "batches": 0,
                "round_trips": 0,
                "bytes_sent": 0,
                "bytes_received": 0,
            }
        return stat

    def _send(self, link: _WorkerLink, request: tuple) -> None:
        """Send one request (explicitly pickled so the byte counters see it).

        ``send_bytes`` of a ``pickle.dumps`` payload is wire-compatible with
        the worker's plain ``Connection.recv()`` — framing is identical, only
        the serialisation moves client-side where its size can be counted.
        """
        payload = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        link.connection.send_bytes(payload)
        stat = self._link_stat(link.address)
        stat["bytes_sent"] += len(payload)
        stat["round_trips"] += 1

    def _recv(self, link: _WorkerLink):
        """Receive one response, counting its wire size."""
        payload = link.connection.recv_bytes()
        self._link_stat(link.address)["bytes_received"] += len(payload)
        return pickle.loads(payload)

    def _roundtrip(self, link: _WorkerLink, request: tuple):
        """One synchronous request/response exchange on a link."""
        self._send(link, request)
        return self._recv(link)

    def _ship_instance(self, link: _WorkerLink) -> None:
        """Make the engine's instance resident on the worker (once per fingerprint).

        A file-backed instance ships only its path; a worker without
        filesystem visibility of that path answers
        :data:`ERROR_FILE_UNAVAILABLE` and the instance bytes ship instead
        (under the same fingerprint — the columns are bit-identical either
        way, only the wire cost differs).
        """
        fingerprint, payload = self._instance_payload()
        if fingerprint in link.shipped:
            return
        status, resident = self._roundtrip(link, (OP_HAS_INSTANCE, fingerprint))
        if status != STATUS_OK:
            raise SolverError(f"cluster worker {link.address} failed: {resident}")
        if not resident:
            status, reply = self._roundtrip(link, (OP_PUT_INSTANCE, fingerprint, payload))
            if (
                status != STATUS_OK
                and reply == ERROR_FILE_UNAVAILABLE
                and payload.get("kind") == "file"
            ):
                status, reply = self._roundtrip(
                    link, (OP_PUT_INSTANCE, fingerprint, self._csr_payload())
                )
            if status != STATUS_OK:
                raise SolverError(f"cluster worker {link.address} failed: {reply}")
        link.shipped.add(fingerprint)

    # ------------------------------------------------------------------ #
    # Link pool (lanes acquire; reconnection backoff + re-discovery)
    # ------------------------------------------------------------------ #
    def _candidate_addresses(self, state: _CallState) -> List[str]:
        """Configured addresses with no live link that no lane is dialling.

        Call under ``state.lock``.  This is the *candidate worker set* — it
        always spans every configured address; the ``workers`` knob caps the
        number of concurrent lanes, never this set, so a healthy worker
        beyond the cap picks up the share of a dead one.
        """
        linked = {link.address for link in self._links if link.alive}
        return [
            address
            for address in self._config.workers_addr
            if address not in linked and address not in state.connecting
        ]

    def _note_failure(self, address: str) -> None:
        """Push an address's next reconnection attempt out (exponential backoff)."""
        backoff = self._backoff.get(address)
        backoff = (
            RECONNECT_BACKOFF_BASE
            if backoff is None
            else min(backoff * 2.0, RECONNECT_BACKOFF_MAX)
        )
        self._backoff[address] = backoff
        self._retry_at[address] = time.monotonic() + backoff

    def _acquire_link(self, state: _CallState) -> Optional[_WorkerLink]:
        """An idle live link, or a fresh connection to an unlinked address.

        Returns ``None`` when nothing is connectable right now (every
        candidate is in reconnection backoff, being dialled by another lane,
        or refused the connection).  Configuration errors — authentication or
        protocol-version mismatch — propagate: they must fail the run, not
        demote it to local compute.
        """
        now = time.monotonic()
        with state.lock:
            while state.available:
                link = state.available.pop()
                if link.alive:
                    state.serving.set()
                    return link
            ready = [
                address
                for address in self._candidate_addresses(state)
                if self._retry_at.get(address, 0.0) <= now
            ]
            if not ready:
                return None
            address = ready[0]
            state.connecting.add(address)
        try:
            link = self._connect(address)
            self._ship_instance(link)
        except _LINK_FAILURES as error:
            self._note_failure(address)
            if address not in state.warned:
                state.warned.add(address)
                warnings.warn(
                    f"cluster worker {address} is unreachable ({error}); "
                    "its share re-dispatches to the remaining workers",
                    ClusterWorkerWarning,
                    stacklevel=3,
                )
            return None
        finally:
            with state.lock:
                state.connecting.discard(address)
        with state.lock:
            self._links.append(link)
        self._backoff.pop(address, None)
        self._retry_at.pop(address, None)
        state.serving.set()
        return link

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def score_matrix(self, selector: Optional[np.ndarray]) -> np.ndarray:
        engine = self.engine
        num_intervals = engine.instance.num_intervals
        num_rows = engine.instance.num_events if selector is None else int(selector.size)
        if not self._config.workers_addr or num_intervals <= 1 or num_rows == 0:
            # Degraded mode (no cluster configured) or nothing worth shipping:
            # the inherited serial batch path.
            return super().score_matrix(selector)
        if self._links is None:
            self._links = []
        else:
            self._links = [link for link in self._links if link.alive]
        # A new call grants every configured address a fresh immediate
        # (re)connection attempt; backoff only paces retries *within* a call.
        self._backoff.clear()
        self._retry_at.clear()

        source = engine._select_event_rows(selector)
        token = next(self._call_tokens)
        step = self._config.chunk_size
        matrix = np.empty((num_rows, num_intervals), dtype=np.float64)
        tasks = {
            interval_index: ColumnTask(
                interval_index=interval_index,
                token=token,
                selector=selector,
                scheduled=engine._scheduled_interest[interval_index],
                scheduled_value=engine._scheduled_value_interest[interval_index],
                utility=float(engine._interval_utility[interval_index]),
                step=step,
            )
            for interval_index in range(num_intervals)
        }
        num_lanes = self._config.workers
        batch_size = derive_task_batch(num_intervals, num_lanes)
        self._last_task_batch = batch_size
        pending: Deque[List[int]] = collections.deque(
            list(range(start, min(start + batch_size, num_intervals)))
            for start in range(0, num_intervals, batch_size)
        )
        state = _CallState(tasks, matrix, pending, token, selector, list(self._links))
        threads = [
            threading.Thread(
                target=self._drive_lane, args=(state,), name=f"ses-cluster-{index}"
            )
            for index in range(num_lanes)
        ]
        for thread in threads:
            thread.start()
        # Ship overlap: while no link is serving yet (first contact pays
        # connect + instance ship), compute columns locally from the tail of
        # the queue — but leave enough batches to fill every lane's pipeline,
        # so a fast local CPU never starves the remote dispatch on small
        # instances.
        floor = num_lanes * max(1, protocol.PIPELINE_DEPTH)
        while not state.serving.is_set():
            with state.lock:
                if len(state.pending) <= floor:
                    break
                batch = state.pending.pop()
            for interval_index in batch:
                matrix[:, interval_index] = self._sharded_scores(interval_index, source)
            self._local_columns += len(batch)
        for thread in threads:
            thread.join()
        if state.errors:
            raise state.errors[0]
        # Every batch a dead worker left behind (and anything never dispatched
        # because every worker was lost) is computed locally with the
        # bit-identical serial batch kernel.
        while state.pending:
            batch = state.pending.popleft()
            for interval_index in batch:
                matrix[:, interval_index] = self._sharded_scores(interval_index, source)
            self._local_columns += len(batch)
        return matrix

    def _drive_lane(self, state: _CallState) -> None:
        """One dispatch lane: acquire a link and stream batches until done.

        A lane whose link dies re-queues the in-flight batches (re-split
        across the survivors) and dials a replacement address — including
        addresses that had no worker at call start, which is what lets a
        restarted worker join an in-flight call.  A lane with nothing to dial
        waits out reconnection backoff in
        :data:`~repro.core.distributed.protocol.REDISCOVERY_INTERVAL` ticks
        while any *other* link is still making progress; once no link is
        alive the lane exits and the leftovers fall to local compute.
        """
        while not state.abort.is_set():
            with state.lock:
                if not state.pending:
                    return
            try:
                link = self._acquire_link(state)
            except BaseException as error:  # staticcheck: allow(broad-except) -- collected into state.errors and re-raised by score_matrix after the lanes join; lane threads have no caller to propagate to
                with state.lock:
                    state.errors.append(error)
                state.abort.set()
                return
            if link is None:
                with state.lock:
                    # A dial in progress counts as "alive": its link may land
                    # any moment, so this lane keeps polling for re-discovery
                    # instead of abandoning an address that is merely slow.
                    others_alive = any(l.alive for l in self._links) or bool(
                        state.connecting
                    )
                    candidates = bool(self._candidate_addresses(state))
                if not others_alive or not candidates:
                    return
                time.sleep(REDISCOVERY_INTERVAL)
                continue
            try:
                self._drive_link(state, link)
            except _LINK_FAILURES:
                continue  # died mid-run: batches re-queued, dial a replacement
            except BaseException as error:  # staticcheck: allow(broad-except) -- collected into state.errors and re-raised by score_matrix after the lanes join; lane threads have no caller to propagate to
                # In-flight replies may be unread — the connection is
                # desynchronised, so it is dropped rather than reused.
                link.close()
                with state.lock:
                    state.errors.append(error)
                state.abort.set()
                return
            else:
                if link.alive:
                    with state.lock:
                        state.available.append(link)
                return

    def _drive_link(self, state: _CallState, link: _WorkerLink) -> None:
        """Stream batches down one link, keeping the pipeline window full.

        Replies arrive in request order (the worker serves a connection on a
        single thread), so a FIFO of in-flight batches maps each reply back
        to its batch.  Link failures re-queue the window — re-split across
        the survivors — and propagate so the lane can dial a replacement.
        """
        depth = max(1, protocol.PIPELINE_DEPTH)
        inflight: Deque[List[int]] = collections.deque()
        heals = 0
        try:
            while True:
                while len(inflight) < depth and not state.abort.is_set():
                    with state.lock:
                        if not state.pending:
                            break
                        batch = state.pending.popleft()
                    try:
                        self._send_batch(state, link, batch)
                    except _LINK_FAILURES:
                        with state.lock:
                            state.pending.appendleft(batch)
                        raise
                    inflight.append(batch)
                if not inflight:
                    return
                if state.abort.is_set():
                    # Another lane hit a fatal error: stop now.  The unread
                    # in-flight replies would desynchronise the connection,
                    # so it is dropped rather than drained.
                    with state.lock:
                        state.pending.extendleft(reversed(inflight))
                    link.close()
                    return
                status, payload = self._recv(link)
                batch = inflight.popleft()
                if status == STATUS_OK:
                    self._store_batch(state, link, batch, payload)
                    continue
                # A well-known error reply.  Every later in-flight batch will
                # answer the same way (the worker replies in order), and the
                # healing round-trips cannot interleave with outstanding
                # score replies — so drain the window first, then heal, then
                # re-queue the failed batches.
                failed = [batch]
                while inflight:
                    drained_status, drained_payload = self._recv(link)
                    drained = inflight.popleft()
                    if drained_status == STATUS_OK:
                        self._store_batch(state, link, drained, drained_payload)
                    else:
                        failed.append(drained)
                heals += 1
                if heals > _MAX_HEALS:
                    raise SolverError(
                        f"cluster worker {link.address} keeps rejecting tasks: {payload}"
                    )
                self._heal(link, payload)
                with state.lock:
                    state.pending.extendleft(reversed(failed))
        except _LINK_FAILURES as error:
            self._discard_link(state, link, inflight, error)
            raise

    def _send_batch(self, state: _CallState, link: _WorkerLink, batch: List[int]) -> None:
        """One :data:`OP_SCORE_COLUMNS` request.

        The selector of a subset call crosses each connection once: the first
        task sent down a link carries the index array, every later task
        references it with :data:`SELECTOR_CACHED`.
        """
        fingerprint, _ = self._instance_payload()
        wire: List[ColumnTask] = []
        for interval_index in batch:
            task = state.tasks[interval_index]
            if state.selector is not None:
                if link.selection_token == state.token:
                    task = dataclasses.replace(task, selector=SELECTOR_CACHED)
                else:
                    link.selection_token = state.token
            wire.append(task)
        self._send(link, (OP_SCORE_COLUMNS, fingerprint, tuple(wire)))

    def _store_batch(
        self, state: _CallState, link: _WorkerLink, batch: List[int], payload
    ) -> None:
        """Write one batch reply's columns into the result matrix."""
        if not isinstance(payload, tuple) or len(payload) != len(batch):
            raise SolverError(
                f"cluster worker {link.address} answered a malformed batch "
                f"reply for a {len(batch)}-task batch"
            )
        for expected, (interval_index, scores) in zip(batch, payload):
            if interval_index != expected:  # pragma: no cover - defensive
                raise SolverError(
                    f"cluster worker {link.address} answered interval "
                    f"{interval_index} for task {expected}"
                )
            state.matrix[:, interval_index] = scores
        stat = self._link_stat(link.address)
        stat["tasks"] += len(batch)
        stat["batches"] += 1

    def _heal(self, link: _WorkerLink, payload) -> None:
        """Recover a link whose worker answered a well-known error payload.

        :data:`ERROR_UNKNOWN_INSTANCE` — evicted (or the worker restarted
        behind the connection): re-ship the matrices and re-attach the
        selector, the selection cache may be gone too.
        :data:`ERROR_UNKNOWN_SELECTION` — re-attach the selector on resend.
        Anything else is a real worker-side failure and raises.
        """
        fingerprint, _ = self._instance_payload()
        if payload == ERROR_UNKNOWN_INSTANCE:
            link.shipped.discard(fingerprint)
            link.selection_token = None
            self._ship_instance(link)
            return
        if payload == ERROR_UNKNOWN_SELECTION:
            link.selection_token = None
            return
        raise SolverError(f"cluster worker {link.address} failed: {payload}")

    def _discard_link(
        self,
        state: _CallState,
        link: _WorkerLink,
        inflight: "Deque[List[int]]",
        error: BaseException,
    ) -> None:
        """Close a dead link; re-split its in-flight batches across survivors.

        Whole-batch re-queueing would hand one survivor the dead worker's
        entire window; splitting each batch into per-survivor shares keeps
        the re-dispatch balanced.
        """
        link.close()
        self._note_failure(link.address)
        with state.lock:
            self._links = [other for other in self._links if other is not link]
            survivors = max(1, sum(1 for other in self._links if other.alive))
            for batch in reversed(inflight):
                share = max(1, -(-len(batch) // survivors))
                for start in range(0, len(batch), share):
                    state.pending.appendleft(batch[start : start + share])
        warnings.warn(
            f"cluster worker {link.address} died mid-run "
            f"({type(error).__name__}: {error}); "
            "re-dispatching its in-flight batches across the survivors",
            ClusterWorkerWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Per-link dispatch counters accumulated over this backend's lifetime.

        ``workers`` maps each contacted address to its counters (``tasks``,
        ``batches``, ``round_trips``, ``bytes_sent``, ``bytes_received``);
        the top level carries the totals plus ``local_columns`` (columns the
        client computed itself — ship overlap and failure fallback) and
        ``task_batch`` (the batch size of the most recent dispatch).  The
        counters are keyed by address, not link, so the snapshot stays valid
        after reconnects and :meth:`close`.
        """
        workers = {address: dict(stat) for address, stat in self._link_stats.items()}
        totals = {
            key: sum(stat[key] for stat in self._link_stats.values())
            for key in ("tasks", "batches", "round_trips", "bytes_sent", "bytes_received")
        }
        return {
            "workers": workers,
            "local_columns": self._local_columns,
            "task_batch": self._last_task_batch,
            **totals,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the worker connections (workers keep running)."""
        if self._links is not None:
            for link in self._links:
                link.close()
            self._links = None
        super().close()


__all__ = ["ClusterBackend", "ClusterWorkerWarning"]
