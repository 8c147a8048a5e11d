"""Client of the online scheduling service (``repro serve``).

A thin, connection-per-client wrapper over :mod:`repro.service.wire`: every
method sends one ``(op, *payload)`` request and raises the server's
:data:`~repro.service.wire.STATUS_ERROR` replies as
:class:`~repro.core.errors.SolverError` — so a rejected mutation batch
surfaces as an exception client-side while the session server-side stays
exactly as it was.  Mutations may be passed as the dataclasses of
:mod:`repro.service.session` (serialised via
:func:`~repro.service.session.mutation_to_dict`) or as ready-made wire
dicts.
"""

from __future__ import annotations

from multiprocessing.connection import Client
from typing import Dict, List, Optional, Sequence, Union

from repro.core.errors import SolverError
from repro.core.instance import SESInstance
from repro.service.session import Mutation, mutation_to_dict
from repro.service.wire import (
    OP_GET_SCHEDULE,
    OP_LOAD_INSTANCE,
    OP_MUTATE,
    OP_PING,
    OP_RESOLVE,
    OP_SESSION_STATUS,
    OP_SHUTDOWN,
    STATUS_OK,
    authkey_bytes,
    parse_address,
)


class ServiceClient:
    """One authenticated connection to a :class:`~repro.service.server.ServiceServer`.

    Parameters
    ----------
    address:
        The service's ``"host:port"`` address.
    authkey:
        Shared secret of the connection handshake; must match the server's
        (``None`` selects the library default; an empty key is a
        :class:`~repro.core.errors.SolverError`).  A mismatch fails the HMAC
        handshake at connect time.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, address: str, *, authkey: Optional[str] = None) -> None:
        host, port = parse_address(address)
        self._connection = Client((host, port), authkey=authkey_bytes(authkey))

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection (the server keeps every session alive)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _request(self, *parts):
        if self._connection is None:
            raise SolverError("service client is closed")
        self._connection.send(tuple(parts))
        status, payload = self._connection.recv()
        if status != STATUS_OK:
            raise SolverError(f"scheduling service error: {payload}")
        return payload

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, object]:
        """Protocol version, pid, uptime and request counters of the server."""
        return self._request(OP_PING)

    def load_instance(
        self,
        instance: Union[SESInstance, Dict[str, object]],
        *,
        algorithm: str = "INC",
        seed: Optional[int] = None,
    ) -> str:
        """Create a session from an instance (object or ``to_dict`` payload).

        Returns the new session id used by every other operation.
        """
        payload = instance.to_dict() if isinstance(instance, SESInstance) else instance
        options = {"algorithm": algorithm, "seed": seed}
        reply = self._request(OP_LOAD_INSTANCE, payload, options)
        return str(reply["session"])

    def mutate(
        self,
        session_id: str,
        mutations: Sequence[Union[Mutation, Dict[str, object]]],
    ) -> Dict[str, int]:
        """Apply one atomic mutation batch to a session.

        Raises :class:`~repro.core.errors.SolverError` if the server rejects
        the batch; the session is then guaranteed unchanged.
        """
        batch: List[Dict[str, object]] = [
            item if isinstance(item, dict) else mutation_to_dict(item)
            for item in mutations
        ]
        return self._request(OP_MUTATE, session_id, batch)

    def resolve(
        self, session_id: str, k: int, *, algorithm: Optional[str] = None
    ) -> Dict[str, object]:
        """Re-solve a session; returns schedule, utilities and counters."""
        return self._request(OP_RESOLVE, session_id, k, {"algorithm": algorithm})

    def get_schedule(self, session_id: str) -> Optional[Dict[str, str]]:
        """The session's latest schedule (``None`` before the first resolve)."""
        return self._request(OP_GET_SCHEDULE, session_id)

    def session_status(self, session_id: str) -> Dict[str, object]:
        """Sizes, locks, pending staleness and saved-work stats of a session."""
        return self._request(OP_SESSION_STATUS, session_id)

    def shutdown_server(self) -> None:
        """Ask the server to stop serving (ends every session)."""
        self._request(OP_SHUTDOWN)


__all__ = ["ServiceClient"]
