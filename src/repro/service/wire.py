"""The wire layer of the scheduling service (``repro serve``).

Client and server talk over TCP through :mod:`multiprocessing.connection`
(stdlib ``Listener``/``Client``), which provides message framing, pickling
and HMAC challenge–response authentication — there is no hand-rolled socket
code and no runtime dependency beyond the standard library.  This module
holds everything both sides must agree on, plus the server loop:

* the **operations** a client may request (:data:`OP_PING`,
  :data:`OP_LOAD_INSTANCE`, :data:`OP_MUTATE`, :data:`OP_RESOLVE`,
  :data:`OP_GET_SCHEDULE`, :data:`OP_SESSION_STATUS`, :data:`OP_SHUTDOWN`)
  and the two response statuses (:data:`STATUS_OK`, :data:`STATUS_ERROR`);
* address (:func:`parse_address`), bind-host (:func:`is_loopback_host`) and
  authkey (:func:`authkey_bytes`) handling;
* :class:`WireServer`, the listener, accept loop and per-connection request
  loop under :class:`~repro.service.server.ServiceServer`.

Every request is a tuple ``(op, *payload)`` and every response a pair
``(status, payload)``.  A session is created by :data:`OP_LOAD_INSTANCE`
(payload: ``SESInstance.to_dict()``) and addressed by the returned session id
in every later request.
"""

from __future__ import annotations

import contextlib
import ipaddress
import multiprocessing
import socket
import threading
import time
from multiprocessing.connection import Connection, Listener
from typing import Callable, Optional, Tuple

from repro.core.errors import SolverError

#: Version tag of the :data:`OP_PING` reply, bumped whenever a message layout
#: changes incompatibly.  Versions 1–3 also covered the scoring ops of the
#: retired ``cluster`` backend; the service messages are unchanged since 3.
PROTOCOL_VERSION: int = 3

#: Shared secret of ``multiprocessing.connection``'s HMAC handshake when no
#: ``authkey`` is given.  It gates accidental cross-talk between unrelated
#: processes, not hostile networks: a non-loopback bind must pass its own key.
DEFAULT_AUTHKEY: str = "ses-repro-cluster"

#: Default bind host of the service (loopback: explicit opt-in for LAN use).
DEFAULT_HOST: str = "127.0.0.1"

# -- operations ------------------------------------------------------------- #
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"
OP_LOAD_INSTANCE = "load-instance"
OP_MUTATE = "mutate"
OP_RESOLVE = "resolve"
OP_GET_SCHEDULE = "get-schedule"
OP_SESSION_STATUS = "session-status"

# -- response statuses ------------------------------------------------------ #
STATUS_OK = "ok"
STATUS_ERROR = "error"


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``"host:port"`` address, validating both parts."""
    if not isinstance(address, str) or address.count(":") != 1:
        raise SolverError(f"address must be a 'host:port' string, got {address!r}")
    host, _, port_text = address.partition(":")
    host = host.strip()
    try:
        port = int(port_text)
    except ValueError:
        raise SolverError(f"invalid port in address {address!r}") from None
    if not host or not (0 < port < 65536):
        raise SolverError(f"invalid address {address!r}")
    return host, port


def is_loopback_host(host: str) -> bool:
    """Whether a bind host stays on this machine.

    Only ``localhost`` and IP literals in a loopback range (``127.0.0.0/8``
    for the IPv4 hosts :class:`WireServer` binds) qualify.  Any other name is
    refused, even one that merely starts with ``127.`` (``127.example.com``
    resolves wherever its DNS says).
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def authkey_bytes(authkey: Optional[str]) -> bytes:
    """The handshake key as bytes (``None`` selects :data:`DEFAULT_AUTHKEY`).

    An empty or non-string key is rejected rather than mapped to the default:
    a caller who passed a key meant a private one.
    """
    if authkey is None:
        return DEFAULT_AUTHKEY.encode("utf-8")
    if not isinstance(authkey, str) or not authkey:
        raise SolverError(f"authkey must be a non-empty string or None, got {authkey!r}")
    return authkey.encode("utf-8")


class WireServer:
    """A TCP listener serving wire-protocol requests, one thread per connection.

    ``port=0`` binds an ephemeral port (read :attr:`address`).  ``authkey``
    is the handshake secret (``None`` selects :data:`DEFAULT_AUTHKEY`);
    binding a **non-loopback** host with that public key is refused, because
    an authenticated connection deserialises pickles.  Subclasses override
    :meth:`_dispatch` and may share :attr:`_lock` and :attr:`_started` for
    their counters.  The listener is IPv4 only (``multiprocessing.connection``
    binds every ``(host, port)`` pair as ``AF_INET``), so an IPv6 literal is
    refused before binding.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = 0, *,
                 authkey: Optional[str] = None) -> None:
        if not isinstance(port, int) or isinstance(port, bool) or not 0 <= port <= 65535:
            raise SolverError(f"port must be an integer in 0..65535, got {port!r}")
        if isinstance(host, str) and ":" in host:
            raise SolverError(
                f"cannot bind the scheduling service to {host!r}: it binds IPv4 "
                "hosts only (use 127.0.0.1, 0.0.0.0 or an IPv4 address)"
            )
        key = authkey_bytes(authkey)
        if authkey is None and not is_loopback_host(host):
            raise SolverError(
                f"refusing to bind the scheduling service to non-loopback {host!r} "
                "with the default (public) authkey: authenticated peers can send "
                "arbitrary pickles — pass an explicit secret via authkey "
                "(CLI: --authkey) shared with your clients"
            )
        self._stop_event = threading.Event()
        # time.monotonic (not time.time): uptime is an elapsed-time metric,
        # and the deterministic layers ban wall-clock reads.
        self._started = time.monotonic()
        self._lock = threading.Lock()
        try:
            self._listener = Listener((host, port), authkey=key)
        except OSError as error:
            raise SolverError(f"cannot bind the scheduling service to {host}:{port}: {error}") from None
        bound_host, bound_port = self._listener.address  # type: ignore[misc]
        self._address = f"{bound_host}:{bound_port}"

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
            host, port = parse_address(self._address)
            if host == "0.0.0.0":  # a wildcard bind is not connectable
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
                        response, shutdown = self._dispatch(request)
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

    def _dispatch(self, request: tuple):
        """Answer ``shutdown`` and reject any other op; returns ``(response, shutdown)``.

        Subclasses answer their own operations and defer the rest here.
        """
        op = request[0]
        if op == OP_SHUTDOWN:
            return (STATUS_OK, True), True
        return (STATUS_ERROR, f"unknown operation {op!r}"), False


__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_AUTHKEY",
    "DEFAULT_HOST",
    "OP_PING",
    "OP_SHUTDOWN",
    "OP_LOAD_INSTANCE",
    "OP_MUTATE",
    "OP_RESOLVE",
    "OP_GET_SCHEDULE",
    "OP_SESSION_STATUS",
    "STATUS_OK",
    "STATUS_ERROR",
    "WireServer",
    "authkey_bytes",
    "is_loopback_host",
    "parse_address",
]
