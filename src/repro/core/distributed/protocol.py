"""Wire protocol of the ``cluster`` execution backend.

The cluster backend and its workers talk over TCP through
:mod:`multiprocessing.connection` (stdlib ``Listener``/``Client``), which
provides message framing, pickling and HMAC challenge–response authentication
— there is no hand-rolled socket code and no new runtime dependency.  This
module defines everything both sides must agree on:

* the **operations** a client may request (:data:`OP_PING`,
  :data:`OP_STATUS`, :data:`OP_HAS_INSTANCE`, :data:`OP_PUT_INSTANCE`,
  :data:`OP_SCORE_COLUMNS`, :data:`OP_SHUTDOWN`) and
  the two response statuses (:data:`STATUS_OK`, :data:`STATUS_ERROR`).
  :data:`OP_STATUS` is the introspection op behind ``repro cluster health``:
  its reply carries the worker's protocol version, pid, uptime, cached
  instance fingerprints and served-work counters (tasks and score bytes), so
  an operator can audit a fleet without disturbing its caches;
* the **task unit** (:class:`ColumnTask`): one per-interval score column —
  interval index plus the interval's two per-user scheduled-sum vectors;
* the **batch sizing rule** (:func:`derive_task_batch`): protocol v2 moves
  tasks in batches of ``ceil(|T| / (lanes * TASK_OVERSUBSCRIBE))`` columns
  (clamped to :data:`MAX_TASK_BATCH`), and the client keeps
  :data:`PIPELINE_DEPTH` batches in flight per link, so the per-request wire
  latency is amortised over many columns and the workers prefetch instead of
  idling between round-trips;
* the **instance fingerprint** (:func:`instance_fingerprint` for shipped
  arrays, :func:`file_fingerprint` for a shared backing file): a content hash
  of the static instance data.  An instance ships to a worker **once per
  fingerprint** and is cached worker-side, so repeated runs on the same instance —
  and every task of every run — stream only a few KB each;
* address (:func:`parse_worker_address`), bind-host
  (:func:`is_loopback_host`) and authkey (:func:`authkey_bytes`) handling.

Every request is a tuple ``(op, *payload)`` and every response a pair
``(status, payload)``.  Protocol v3 made :data:`OP_PUT_INSTANCE`'s payload a
kind-dispatched dict shaped by the instance's storage:

* ``{"kind": "arrays", "arrays": {...}}`` — the classic dense ship: the
  precomputed event-major µ / value·µ rows plus competing sums and σ;
* ``{"kind": "csr", "arrays": {...}}`` — the ``"sparse"`` storage ships the
  (much smaller) event-major CSR arrays plus per-event values, and the
  worker densifies event blocks on demand;
* ``{"kind": "file", "path": ...}`` — a memory-mapped instance whose backing
  NPZ is visible to the worker (same machine or shared filesystem) ships
  **only its path**: the worker maps the file in place and rebuilds the
  static arrays itself (zero-copy NPZ shipping).  A worker that cannot open
  the path answers :data:`ERROR_FILE_UNAVAILABLE` and the client falls back
  to shipping the CSR bytes under the same fingerprint.

Responses to :data:`OP_SCORE_COLUMNS` carry a tuple of
``(interval_index, scores)`` pairs, one per task of the batch, in task order.
The well-known error payload :data:`ERROR_UNKNOWN_INSTANCE` tells the client
the worker evicted (or never had) the fingerprint, and the client re-ships the
instance and retries — a worker restart is therefore invisible apart from the
one-off reshipping cost.
"""

from __future__ import annotations

import hashlib
import ipaddress
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import SolverError

#: Version tag exchanged in the :data:`OP_PING` handshake; bumped whenever the
#: message layout changes incompatibly.  v2 added batched dispatch
#: (:data:`OP_SCORE_COLUMNS`); v3 made :data:`OP_PUT_INSTANCE`'s payload
#: storage-aware (kind-dispatched dict: dense arrays, CSR arrays, or a
#: backing-file path).  A mismatched peer is rejected at connect time with a
#: clear error instead of failing mid-run on an unknown message shape.
PROTOCOL_VERSION: int = 3

#: Shared secret used for ``multiprocessing.connection``'s HMAC handshake when
#: :attr:`~repro.core.execution.ExecutionConfig.cluster_key` is left unset.
#: It gates accidental cross-talk between unrelated clusters, not hostile
#: networks — run real deployments with an explicit key on a trusted network.
DEFAULT_CLUSTER_KEY: str = "ses-repro-cluster"

#: Default bind host of a worker server (loopback: explicit opt-in for LAN use).
DEFAULT_WORKER_HOST: str = "127.0.0.1"

# -- operations ------------------------------------------------------------- #
OP_PING = "ping"
OP_STATUS = "status"
OP_HAS_INSTANCE = "has-instance"
OP_PUT_INSTANCE = "put-instance"
OP_SCORE_COLUMNS = "score-columns"
OP_SHUTDOWN = "shutdown"

# -- scheduling-service operations (``repro serve``) ------------------------ #
# The online scheduling service (:mod:`repro.service`) reuses this wire layer
# (framing, pickling, HMAC handshake, status pairs) with its own operations.
# A session is created by OP_LOAD_INSTANCE (payload: ``SESInstance.to_dict()``)
# and addressed by the returned session id in every later request.
OP_LOAD_INSTANCE = "load-instance"
OP_MUTATE = "mutate"
OP_RESOLVE = "resolve"
OP_GET_SCHEDULE = "get-schedule"
OP_SESSION_STATUS = "session-status"

# -- batched, pipelined dispatch (protocol v2) ------------------------------- #
#: Batches a lane aims to produce per dispatch lane when the batch size is
#: auto-derived: enough slack that a fast worker can steal share from a slow
#: one, without collapsing back into per-column round-trips.
TASK_OVERSUBSCRIBE: int = 4

#: Upper clamp of the auto-derived batch size: one reply carries at most this
#: many score columns, which bounds both the reply's memory footprint and the
#: share a dying worker can strand in flight.
MAX_TASK_BATCH: int = 64

#: Batches the client keeps in flight per link (send the next batch before
#: receiving the current reply): the worker's OS socket buffer holds the next
#: request while it computes, so it never idles on the wire between batches.
PIPELINE_DEPTH: int = 2

#: Seconds before the first reconnection attempt to a failed worker address;
#: doubled per consecutive failure up to :data:`RECONNECT_BACKOFF_MAX`.
RECONNECT_BACKOFF_BASE: float = 0.05

#: Ceiling of the reconnection backoff (seconds).
RECONNECT_BACKOFF_MAX: float = 0.5

#: Poll interval (seconds) of an idle dispatch lane waiting for a configured
#: address to leave backoff — the period of mid-run re-discovery.
REDISCOVERY_INTERVAL: float = 0.02

# -- response statuses ------------------------------------------------------ #
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Error payload meaning "this worker does not hold the fingerprint" — the
#: client responds by re-shipping the instance matrices and retrying.
ERROR_UNKNOWN_INSTANCE = "unknown-instance"

#: Error payload meaning "a task referenced its call's cached selection, but
#: this connection has no selection cached under that token" (e.g. the worker
#: restarted mid-call) — the client retries with the full selector attached.
ERROR_UNKNOWN_SELECTION = "unknown-selection"

#: Error payload meaning "this worker cannot open the backing file of a
#: ``{"kind": "file"}`` instance ship" (no shared filesystem, file deleted,
#: or compressed/corrupt members) — the client falls back to shipping the
#: instance bytes under the same fingerprint.
ERROR_FILE_UNAVAILABLE = "file-unavailable"

#: Sentinel selector meaning "use the selection cached under this task's
#: token": one subset ``score_matrix`` call attaches the index array to the
#: first task it sends down each connection and this marker to the rest, so
#: the selector crosses the wire once per (connection, call) instead of once
#: per interval.
SELECTOR_CACHED = "cached"


@dataclass(frozen=True)
class ColumnTask:
    """One unit of remote work: one interval's score column.

    The static instance matrices live worker-side (shipped once per
    fingerprint), so a task carries only the engine's *mutable* per-interval
    state:

    Attributes
    ----------
    interval_index:
        The column to score.
    token:
        Client-call token: every task of one ``score_matrix`` call shares it,
        so the worker materialises a subset selection once per call (cached by
        token) instead of once per task.
    selector:
        Event-row selection of the call: ``None`` (every event), the index
        array itself (the worker caches it under ``token``), or
        :data:`SELECTOR_CACHED` (use the selection already cached under
        ``token``; the worker answers :data:`ERROR_UNKNOWN_SELECTION` if it
        has none, and the client retries with the array attached).
    scheduled, scheduled_value:
        The interval's per-user scheduled-interest and value-weighted sums.
    utility:
        The interval's current utility (subtracted to turn utilities into
        assignment scores).
    step:
        Event-axis chunk size the worker must apply (the memory guard — and a
        bit-identity requirement: the serial batch path chunks with the same
        step).
    """

    interval_index: int
    token: int
    selector: object  # None | ndarray | SELECTOR_CACHED
    scheduled: np.ndarray
    scheduled_value: np.ndarray
    utility: float
    step: int


def derive_task_batch(num_intervals: int, lanes: int) -> int:
    """Columns per :data:`OP_SCORE_COLUMNS` batch for one ``score_matrix`` call.

    The automatic size spreads the intervals over
    ``lanes * TASK_OVERSUBSCRIBE`` batches — enough batches that lanes keep
    re-balancing against each other (and against worker death), while each
    batch still amortises one round-trip over many columns:
    ``ceil(num_intervals / (lanes * TASK_OVERSUBSCRIBE))`` clamped to
    ``[1, MAX_TASK_BATCH]``.
    """
    num_intervals = max(1, int(num_intervals))
    lanes = max(1, int(lanes))
    derived = -(-num_intervals // (lanes * TASK_OVERSUBSCRIBE))
    return max(1, min(derived, MAX_TASK_BATCH))


def parse_worker_address(address: str) -> Tuple[str, int]:
    """Split a ``"host:port"`` worker address, validating both parts."""
    if not isinstance(address, str) or address.count(":") != 1:
        raise SolverError(
            f"worker address must be a 'host:port' string, got {address!r}"
        )
    host, _, port_text = address.partition(":")
    host = host.strip()
    try:
        port = int(port_text)
    except ValueError:
        raise SolverError(f"invalid port in worker address {address!r}") from None
    if not host or not (0 < port < 65536):
        raise SolverError(f"invalid worker address {address!r}")
    return host, port


def is_loopback_host(host: str) -> bool:
    """Whether a bind host stays on this machine.

    Only ``localhost`` and IP literals in a loopback range (``127.0.0.0/8``,
    ``::1``) qualify.  Any other name is refused, even one that merely starts
    with ``127.`` (``127.example.com`` resolves wherever its DNS says).
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def format_worker_address(host: str, port: int) -> str:
    """The canonical ``"host:port"`` form of a worker address."""
    return f"{host}:{int(port)}"


def authkey_bytes(cluster_key: Optional[str]) -> bytes:
    """The connection authkey as bytes (``None`` selects the library default)."""
    return (cluster_key or DEFAULT_CLUSTER_KEY).encode("utf-8")


#: Bytes hashed per digest update when fingerprinting arrays or files — keeps
#: peak memory flat even when an array is a disk-backed memmap view.
FINGERPRINT_CHUNK_BYTES: int = 16 * 1024 * 1024


def instance_fingerprint(arrays: Dict[str, np.ndarray]) -> str:
    """Content hash of the static instance matrices (the ship-once key).

    Hashes every array's name, shape, dtype and raw bytes, so two engines
    built from equal instances share one fingerprint (and one worker-side
    cache entry), while any change to the matrices — even a single element —
    produces a different key.  The bytes are fed to the digest in
    :data:`FINGERPRINT_CHUNK_BYTES` chunks — the digest stream (and therefore
    every historical fingerprint) is unchanged, but a memory-mapped array is
    never materialised whole.
    """
    digest = hashlib.sha1()
    for name in sorted(arrays):
        array = arrays[name]
        if not array.flags["C_CONTIGUOUS"]:
            array = np.ascontiguousarray(array)
        digest.update(name.encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.dtype.str.encode("utf-8"))
        flat = array.reshape(-1)
        step = max(1, FINGERPRINT_CHUNK_BYTES // max(1, array.itemsize))
        for start in range(0, flat.size, step):
            digest.update(np.asarray(flat[start : start + step]).tobytes())
    return digest.hexdigest()


def file_fingerprint(path: str) -> str:
    """Content hash of an instance's backing file (the zero-copy ship key).

    Chunk-reads the file, so a multi-GB NPZ fingerprints in bounded memory.
    Prefixed ``"file:"`` to keep the key space disjoint from
    :func:`instance_fingerprint` — the same logical instance shipped as
    arrays and as a file must not collide on one worker-side cache entry
    built from different payload shapes.
    """
    digest = hashlib.sha1()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(FINGERPRINT_CHUNK_BYTES)
            if not chunk:
                break
            digest.update(chunk)
    return "file:" + digest.hexdigest()


__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_CLUSTER_KEY",
    "DEFAULT_WORKER_HOST",
    "OP_PING",
    "OP_STATUS",
    "OP_HAS_INSTANCE",
    "OP_PUT_INSTANCE",
    "OP_SCORE_COLUMNS",
    "OP_SHUTDOWN",
    "OP_LOAD_INSTANCE",
    "OP_MUTATE",
    "OP_RESOLVE",
    "OP_GET_SCHEDULE",
    "OP_SESSION_STATUS",
    "STATUS_OK",
    "STATUS_ERROR",
    "ERROR_UNKNOWN_INSTANCE",
    "ERROR_UNKNOWN_SELECTION",
    "ERROR_FILE_UNAVAILABLE",
    "SELECTOR_CACHED",
    "FINGERPRINT_CHUNK_BYTES",
    "TASK_OVERSUBSCRIBE",
    "MAX_TASK_BATCH",
    "PIPELINE_DEPTH",
    "RECONNECT_BACKOFF_BASE",
    "RECONNECT_BACKOFF_MAX",
    "REDISCOVERY_INTERVAL",
    "ColumnTask",
    "derive_task_batch",
    "parse_worker_address",
    "is_loopback_host",
    "format_worker_address",
    "authkey_bytes",
    "instance_fingerprint",
    "file_fingerprint",
]
