"""The online scheduling service server (``repro serve``).

One process holds a set of named :class:`~repro.service.session.SchedulingSession`
objects: :class:`ServiceServer` is a :class:`~repro.service.wire.WireServer`
adding only the session table and the service's operations —
:data:`~repro.service.wire.OP_LOAD_INSTANCE` creates a session from a
serialised instance, :data:`~repro.service.wire.OP_MUTATE` applies an atomic
mutation batch, :data:`~repro.service.wire.OP_RESOLVE` re-solves
incrementally, and :data:`~repro.service.wire.OP_GET_SCHEDULE` /
:data:`~repro.service.wire.OP_SESSION_STATUS` query without solving.

The failure contract mirrors the session's: a malformed or contradictory
batch is answered as a :data:`~repro.service.wire.STATUS_ERROR` reply (the client raises it as a
:class:`~repro.core.errors.SolverError`) with the session untouched, and a
client that disconnects mid-conversation only ends its own connection thread
— sessions live in the server, so the next connection finds them intact.
Binding a non-loopback host with the default (public) authkey is refused.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.service.session import SchedulingSession, mutation_from_dict
from repro.service.wire import (
    DEFAULT_HOST,
    OP_GET_SCHEDULE,
    OP_LOAD_INSTANCE,
    OP_MUTATE,
    OP_PING,
    OP_RESOLVE,
    OP_SESSION_STATUS,
    PROTOCOL_VERSION,
    STATUS_OK,
    WireServer,
)


class ServiceServer(WireServer):
    """A :class:`~repro.service.wire.WireServer` over live scheduling sessions.

    Every session resolves under ``execution`` (``None``: library defaults).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        authkey: Optional[str] = None,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        self._execution = execution
        self._sessions: Dict[str, SchedulingSession] = {}
        self._session_counter = 0
        self._requests_served = 0
        super().__init__(host, port, authkey=authkey)

    def _session(self, session_id) -> SchedulingSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SolverError(f"unknown session id: {session_id!r}")
        return session

    def _dispatch(self, request):
        """Answer one service operation; returns ``(response, shutdown)``."""
        with self._lock:
            self._requests_served += 1
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
                algorithm=options.get("algorithm", "INC"),
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
            result = session.resolve(k, algorithm=options.get("algorithm"))
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
        return super()._dispatch(request)


class ServiceHandle:
    """A service server running on a background thread of this process.

    Sessions hold live NumPy state, so the tests and the load benchmark run
    the service in-process: same wire protocol, no spawn cost.
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
    host: str = DEFAULT_HOST,
    port: int = 0,
    *,
    authkey: Optional[str] = None,
    execution: Optional[ExecutionConfig] = None,
) -> ServiceHandle:
    """Start a service server on a daemon thread and return its handle."""
    server = ServiceServer(host, port, authkey=authkey, execution=execution)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return ServiceHandle(server, thread)


__all__ = [
    "ServiceHandle",
    "ServiceServer",
    "start_local_service",
]
