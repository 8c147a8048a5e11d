"""The online scheduling service server (``repro serve``).

One process holds a set of named :class:`~repro.service.session.SchedulingSession`
objects and serves them over the cluster wire layer
(:mod:`repro.core.distributed.protocol`): the same stdlib
``multiprocessing.connection`` framing, pickling and HMAC handshake the
cluster workers use, with the service's own operations —
:data:`~repro.core.distributed.protocol.OP_LOAD_INSTANCE` creates a session
from a serialised instance, :data:`~repro.core.distributed.protocol.OP_MUTATE`
applies an atomic mutation batch,
:data:`~repro.core.distributed.protocol.OP_RESOLVE` re-solves incrementally,
and :data:`~repro.core.distributed.protocol.OP_GET_SCHEDULE` /
:data:`~repro.core.distributed.protocol.OP_SESSION_STATUS` query without
solving.

The failure contract mirrors the session's: a malformed or contradictory
batch is answered as a :data:`~repro.core.distributed.protocol.STATUS_ERROR`
reply (the client raises it as a
:class:`~repro.core.errors.SolverError`) with the session untouched, and a
client that disconnects mid-conversation only ends its own connection thread
— sessions live in the server, so the next connection finds them intact.
Like the cluster worker, binding a non-loopback host with the default
(public) cluster key is refused.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from multiprocessing.connection import Connection, Listener
from typing import Dict, Optional

from repro.core.distributed.protocol import (
    DEFAULT_WORKER_HOST,
    OP_GET_SCHEDULE,
    OP_LOAD_INSTANCE,
    OP_MUTATE,
    OP_PING,
    OP_RESOLVE,
    OP_SESSION_STATUS,
    OP_SHUTDOWN,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    authkey_bytes,
    format_worker_address,
    is_loopback_host,
    parse_worker_address,
)
from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.service.session import SchedulingSession, mutation_from_dict


class ServiceServer:
    """A TCP listener over a dictionary of live scheduling sessions.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; the actual address
        is available as :attr:`address` once constructed.
    cluster_key:
        Shared secret of the connection handshake (``None`` selects
        :data:`~repro.core.distributed.protocol.DEFAULT_CLUSTER_KEY`).
        Binding a **non-loopback** host with the default key is refused for
        the same reason the cluster worker refuses it: the key is public and
        an authenticated connection deserialises pickles.
    execution:
        The :class:`~repro.core.execution.ExecutionConfig` every session's
        resolves run under (``None`` selects the library defaults).
    """

    def __init__(
        self,
        host: str = DEFAULT_WORKER_HOST,
        port: int = 0,
        *,
        cluster_key: Optional[str] = None,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        if cluster_key is None and not is_loopback_host(host):
            raise SolverError(
                f"refusing to bind the scheduling service to non-loopback {host!r} "
                "with the default (public) cluster key: authenticated peers can "
                "send arbitrary pickles — pass an explicit secret via cluster_key "
                "(CLI: --cluster-key) shared with your clients"
            )
        self._execution = execution
        self._stop_event = threading.Event()
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._sessions: Dict[str, SchedulingSession] = {}
        self._session_counter = 0
        self._requests_served = 0
        try:
            self._listener = Listener((host, int(port)), authkey=authkey_bytes(cluster_key))
        except OSError as error:
            raise SolverError(
                f"cannot bind scheduling service to {host}:{port}: {error}"
            ) from None
        bound_host, bound_port = self._listener.address  # type: ignore[misc]
        self._address = format_worker_address(bound_host, bound_port)

    @property
    def address(self) -> str:
        """The actual ``"host:port"`` the service is listening on."""
        return self._address

    def num_sessions(self) -> int:
        """Number of live sessions."""
        with self._lock:
            return len(self._sessions)

    def serve_forever(self) -> None:
        """Accept connections until a shutdown request (or :meth:`stop`)."""
        while not self._stop_event.is_set():
            try:
                connection = self._listener.accept()
            except (OSError, EOFError):
                # Listener closed by stop()/shutdown, or a client failed the
                # authentication handshake / dropped mid-accept — keep serving
                # unless we were asked to stop.
                if self._stop_event.is_set():
                    break
                continue
            except multiprocessing.AuthenticationError:
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            )
            thread.start()
        self.stop()

    def stop(self) -> None:
        """Stop accepting and close the listener (safe to call repeatedly)."""
        first_stop = not self._stop_event.is_set()
        self._stop_event.set()
        if first_stop:
            # Closing a listening socket does not interrupt a concurrent
            # blocking accept() on Linux — wake it with a throwaway
            # connection so serve_forever observes the stop flag.
            host, port = parse_worker_address(self._address)
            if host in ("0.0.0.0", "::"):  # wildcard binds are not connectable
                host = "127.0.0.1"
            try:
                with socket.create_connection((host, port), timeout=1.0):
                    pass
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _serve_connection(self, connection: Connection) -> None:
        """Serve one client until it disconnects (one thread per connection)."""
        try:
            while not self._stop_event.is_set():
                try:
                    request = connection.recv()
                except (EOFError, OSError):
                    # Client went away (possibly mid-conversation).  Sessions
                    # outlive connections: only this thread ends.
                    break
                try:
                    response, shutdown = self._dispatch(request)
                except Exception as error:  # staticcheck: allow(broad-except) -- serialised into the STATUS_ERROR reply below: the client raises it as SolverError, and letting it kill this connection thread would hide it instead
                    response, shutdown = (
                        (STATUS_ERROR, f"{type(error).__name__}: {error}"),
                        False,
                    )
                try:
                    connection.send(response)
                except (OSError, BrokenPipeError):
                    break
                if shutdown:
                    self.stop()
                    break
        finally:
            connection.close()

    def _session(self, session_id) -> SchedulingSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SolverError(f"unknown session id: {session_id!r}")
        return session

    def _count_request(self) -> None:
        with self._lock:
            self._requests_served += 1

    def _dispatch(self, request):
        """Handle one request tuple; returns ``(response, shutdown)``."""
        if not isinstance(request, tuple) or not request:
            return (STATUS_ERROR, f"malformed request: {request!r}"), False
        self._count_request()
        op = request[0]
        if op == OP_PING:
            with self._lock:
                sessions, served = len(self._sessions), self._requests_served
            payload = {
                "version": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime_sec": time.monotonic() - self._started,
                "sessions": sessions,
                "requests_served": served,
            }
            return (STATUS_OK, payload), False
        if op == OP_LOAD_INSTANCE:
            payload = request[1]
            options = request[2] if len(request) > 2 else {}
            instance = SESInstance.from_dict(payload)
            session = SchedulingSession(
                instance,
                algorithm=str(options.get("algorithm", "INC")),
                seed=options.get("seed"),
                execution=self._execution,
            )
            with self._lock:
                session_id = f"s{self._session_counter}"
                self._session_counter += 1
                self._sessions[session_id] = session
            reply = {
                "session": session_id,
                "num_events": instance.num_events,
                "num_intervals": instance.num_intervals,
                "num_users": instance.num_users,
            }
            return (STATUS_OK, reply), False
        if op == OP_MUTATE:
            session_id, batch = request[1:]
            session = self._session(session_id)
            mutations = [mutation_from_dict(item) for item in batch]
            return (STATUS_OK, session.apply(mutations)), False
        if op == OP_RESOLVE:
            session_id, k = request[1:3]
            options = request[3] if len(request) > 3 else {}
            session = self._session(session_id)
            result = session.resolve(int(k), algorithm=options.get("algorithm"))
            reply = {
                "schedule": session.last_schedule(),
                "algorithm": result.algorithm,
                "k": result.k,
                "scheduled": result.num_scheduled,
                "utility": result.utility,
                "net_utility": result.net_utility,
                "elapsed_seconds": result.elapsed_seconds,
                "counters": dict(result.counters),
                "service": dict(result.service),
            }
            return (STATUS_OK, reply), False
        if op == OP_GET_SCHEDULE:
            (session_id,) = request[1:]
            return (STATUS_OK, self._session(session_id).last_schedule()), False
        if op == OP_SESSION_STATUS:
            (session_id,) = request[1:]
            status = self._session(session_id).status()
            status["session"] = session_id
            return (STATUS_OK, status), False
        if op == OP_SHUTDOWN:
            return (STATUS_OK, True), True
        return (STATUS_ERROR, f"unknown operation {op!r}"), False


def serve(
    host: str = DEFAULT_WORKER_HOST,
    port: int = 0,
    *,
    cluster_key: Optional[str] = None,
    execution: Optional[ExecutionConfig] = None,
    announce=None,
) -> str:
    """Run a scheduling service in this process until it is shut down.

    ``announce`` (when given) is called with the bound ``"host:port"`` before
    serving — the CLI prints it so scripts can scrape the ephemeral port.
    Returns the address after the server stops.
    """
    server = ServiceServer(host, port, cluster_key=cluster_key, execution=execution)
    if announce is not None:
        announce(server.address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        server.stop()
    return server.address


class ServiceHandle:
    """A service server running on a background thread of this process.

    Sessions hold live NumPy state, so (unlike the cluster workers, which are
    compute processes) the tests and the load benchmark run the service
    in-process: same wire protocol, no spawn cost.
    """

    def __init__(self, server: ServiceServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def address(self) -> str:
        """The ``"host:port"`` the service is listening on."""
        return self.server.address

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the server and join its accept thread."""
        self.server.stop()
        self.thread.join(timeout)


def start_local_service(
    host: str = DEFAULT_WORKER_HOST,
    port: int = 0,
    *,
    cluster_key: Optional[str] = None,
    execution: Optional[ExecutionConfig] = None,
) -> ServiceHandle:
    """Start a service server on a daemon thread and return its handle."""
    server = ServiceServer(host, port, cluster_key=cluster_key, execution=execution)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return ServiceHandle(server, thread)


__all__ = [
    "ServiceHandle",
    "ServiceServer",
    "serve",
    "start_local_service",
]
