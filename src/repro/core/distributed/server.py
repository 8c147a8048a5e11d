"""The TCP server under both long-running processes of the wire layer.

:class:`WireServer` owns the listener, the accept loop and the per-connection
request loop of the cluster worker (``repro worker serve``) and the
scheduling service (``repro serve``); each subclass adds only its state and
:meth:`WireServer._dispatch`.  A non-loopback bind with the default (public)
cluster key is refused, every client gets its own daemon thread, and any
exception a request raises is answered as a
:data:`~repro.core.distributed.protocol.STATUS_ERROR` reply.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import socket
import threading
import time
from multiprocessing.connection import Connection, Listener
from typing import Callable, Dict, Optional

from repro.core.distributed.protocol import (
    DEFAULT_WORKER_HOST,
    OP_SHUTDOWN,
    STATUS_ERROR,
    STATUS_OK,
    authkey_bytes,
    format_worker_address,
    is_loopback_host,
    parse_worker_address,
)
from repro.core.errors import SolverError


class WireServer:
    """A TCP listener serving wire-protocol requests, one thread per connection.

    ``port=0`` binds an ephemeral port (read :attr:`address`).
    ``cluster_key`` is the handshake secret (``None`` selects
    :data:`~repro.core.distributed.protocol.DEFAULT_CLUSTER_KEY`); binding a
    **non-loopback** host with that public key is refused, because an
    authenticated connection deserialises pickles.  Subclasses set
    :attr:`kind`, override :meth:`_dispatch` and may share :attr:`_lock`
    and :attr:`_started` for their counters.
    """

    #: What the process is called in bind errors.
    kind = "wire server"

    def __init__(self, host: str = DEFAULT_WORKER_HOST, port: int = 0, *,
                 cluster_key: Optional[str] = None) -> None:
        if cluster_key is None and not is_loopback_host(host):
            raise SolverError(
                f"refusing to bind {self.kind} to non-loopback {host!r} with "
                "the default (public) cluster key: authenticated peers can send "
                "arbitrary pickles — pass an explicit secret via cluster_key "
                "(CLI: --cluster-key) shared with your clients"
            )
        self._stop_event = threading.Event()
        # time.monotonic (not time.time): uptime is an elapsed-time metric,
        # and the deterministic layers ban wall-clock reads.
        self._started = time.monotonic()
        self._lock = threading.Lock()
        try:
            self._listener = Listener((host, int(port)), authkey=authkey_bytes(cluster_key))
        except OSError as error:
            raise SolverError(f"cannot bind {self.kind} to {host}:{port}: {error}") from None
        bound_host, bound_port = self._listener.address  # type: ignore[misc]
        self._address = format_worker_address(bound_host, bound_port)

    @property
    def address(self) -> str:
        """The actual ``"host:port"`` the server is listening on."""
        return self._address

    def run(self, announce: Optional[Callable[[str], object]] = None) -> str:
        """Serve in this thread until shut down; returns the bound address.

        ``announce`` (when given) receives the address before serving — the
        CLI prints it so scripts can scrape an ephemeral port.
        """
        if announce is not None:
            announce(self.address)
        try:
            self.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            self.stop()
        return self.address

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
            with contextlib.suppress(OSError), socket.create_connection((host, port), 1.0):
                pass
        with contextlib.suppress(OSError):  # already closed
            self._listener.close()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _serve_connection(self, connection: Connection) -> None:
        """Serve one client until it disconnects (one thread per connection)."""
        # Per-connection state a subclass keeps between requests (the
        # worker's subset-selection cache); it dies with the connection.
        scratch: Dict[str, object] = {}
        try:
            while not self._stop_event.is_set():
                try:
                    request = connection.recv()
                except (EOFError, OSError):
                    # Client went away (possibly mid-conversation): only this
                    # thread ends; server state outlives connections.
                    break
                if not isinstance(request, tuple) or not request:
                    response, shutdown = (STATUS_ERROR, f"malformed request: {request!r}"), False
                else:
                    try:
                        response, shutdown = self._dispatch(request, scratch)
                    except Exception as error:  # staticcheck: allow(broad-except) -- serialised into the STATUS_ERROR reply below: the client raises it as SolverError, and letting it kill this connection thread would hide it instead
                        response, shutdown = (STATUS_ERROR, f"{type(error).__name__}: {error}"), False
                try:
                    connection.send(response)
                except (OSError, BrokenPipeError):
                    break
                if shutdown:
                    self.stop()
                    break
        finally:
            connection.close()

    def _dispatch(self, request: tuple, scratch: Dict[str, object]):
        """Answer ``shutdown`` and reject any other op; returns ``(response, shutdown)``.

        Subclasses answer their own operations and defer the rest here.
        """
        op = request[0]
        if op == OP_SHUTDOWN:
            return (STATUS_OK, True), True
        return (STATUS_ERROR, f"unknown operation {op!r}"), False


__all__ = ["WireServer"]
