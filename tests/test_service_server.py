"""Fault-injection and wire-level tests for the scheduling service.

The server's failure contract (`src/repro/service/server.py`) is that
nothing a client does can corrupt a session:

* a malformed or contradictory mutation batch — unknown event id, lock on a
  full interval, capacity below the locked count — is rejected as a
  ``STATUS_ERROR`` reply (raised client-side as
  :class:`~repro.core.errors.SolverError`) with the session untouched and
  queryable;
* a client that disconnects mid-conversation (even between a mutate request
  and its reply) only ends its own connection thread — the next connection
  finds every session intact;
* a client with the wrong cluster key fails the HMAC handshake before any
  request is read, and binding a non-loopback host with the default (public)
  key is refused outright.

Everything runs against an in-process server on an ephemeral loopback port,
the same wiring ``repro serve`` uses.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import Client

import pytest

from repro.core.distributed.protocol import (
    OP_MUTATE,
    OP_PING,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    authkey_bytes,
    parse_worker_address,
)
from repro.core.distributed.worker import WorkerServer
from repro.core.entities import Event
from repro.core.errors import SolverError
from repro.service import (
    ServiceClient,
    ServiceServer,
    mutation_to_dict,
    start_local_service,
)
from repro.service.session import (
    AddEvent,
    LockAssignment,
    SetIntervalCapacity,
    UpdateInterest,
)
from tests.conftest import make_random_instance


@pytest.fixture()
def service():
    handle = start_local_service("127.0.0.1", 0)
    yield handle
    handle.stop()


#: Both long-running servers share one ``WireServer`` lifecycle.
SERVER_KINDS = {"service": ServiceServer, "worker": WorkerServer}


def serve_on_thread(server):
    """Run ``server.serve_forever`` on a daemon thread and return the thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(params=sorted(SERVER_KINDS))
def wire_server(request):
    """A thread-hosted server of either kind on an ephemeral loopback port."""
    server = SERVER_KINDS[request.param]("127.0.0.1", 0)
    thread = serve_on_thread(server)
    yield server
    server.stop()
    thread.join(5.0)


@pytest.fixture()
def instance():
    return make_random_instance(seed=61, num_users=30, num_events=8, num_intervals=4)


def wait_until(predicate, timeout=5.0):
    """Poll a predicate until true (the server applies batches on its own thread)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestRoundTrip:
    def test_ping_reports_protocol_version(self, service):
        with ServiceClient(service.address) as client:
            reply = client.ping()
        assert reply["version"] == PROTOCOL_VERSION
        assert reply["sessions"] == 0
        assert reply["requests_served"] >= 1

    def test_load_mutate_resolve_roundtrip(self, service, instance):
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance, algorithm="INC", seed=3)
            first = client.resolve(session_id, 5)
            assert first["service"]["warm"] is False
            assert first["schedule"] == client.get_schedule(session_id)
            summary = client.mutate(
                session_id,
                [UpdateInterest(user_id="u0", values={"e0": 0.4, "e2": 0.9})],
            )
            assert summary["applied"] == 1
            second = client.resolve(session_id, 5)
            assert second["service"]["warm"] is True
            assert second["service"]["scores_saved"] > 0
            status = client.session_status(session_id)
            assert status["session"] == session_id
            assert status["stats"]["resolves_total"] == 2
            assert status["stats"]["warm_resolves"] == 1

    def test_mutations_accepted_as_wire_dicts(self, service, instance):
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            payload = mutation_to_dict(
                UpdateInterest(user_id="u1", values={"e1": 0.7})
            )
            summary = client.mutate(session_id, [payload])
            assert summary["applied"] == 1

    def test_unknown_session_id(self, service):
        with ServiceClient(service.address) as client:
            with pytest.raises(SolverError, match="unknown session id"):
                client.get_schedule("s999")


class TestRejectedBatches:
    def test_unknown_event_id_leaves_session_untouched(self, service, instance):
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.resolve(session_id, 5)
            before = client.session_status(session_id)
            with pytest.raises(SolverError, match="unknown event id"):
                client.mutate(
                    session_id,
                    [
                        UpdateInterest(user_id="u0", values={"e0": 0.5}),
                        UpdateInterest(user_id="u0", values={"nope": 0.5}),
                    ],
                )
            after = client.session_status(session_id)
            assert after == before  # atomic reject: no partial state, no stats drift
            assert client.resolve(session_id, 5)["scheduled"] >= 0

    @pytest.mark.parametrize("kind", ["add-event", "update-interest"])
    def test_nan_interest_rejected(self, service, instance, kind):
        if kind == "add-event":
            column = [0.5] * instance.num_users
            column[3] = float("nan")
            mutation = AddEvent(
                event=Event(id="e-new", location="loc-new"), interest=tuple(column)
            )
        else:
            mutation = UpdateInterest(user_id="u0", values={"e0": float("nan")})
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.resolve(session_id, 5)
            before = client.session_status(session_id)
            with pytest.raises(SolverError, match=r"\[0, 1\]"):
                client.mutate(session_id, [mutation])
            assert client.session_status(session_id) == before

    @pytest.mark.parametrize(
        "field, bad",
        [("value", float("nan")), ("required_resources", float("nan")), ("cost", float("inf"))],
    )
    def test_non_finite_event_number_rejected(self, service, instance, field, bad):
        """A NaN event value used to be accepted and turn the next utility into NaN."""
        event = {"id": "e-new", "location": "loc-new", field: bad}
        payload = {
            "op": "add-event",
            "event": event,
            "interest": [0.5] * instance.num_users,
        }
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            utility = client.resolve(session_id, 5)["utility"]
            before = client.session_status(session_id)
            with pytest.raises(SolverError, match=field):
                client.mutate(session_id, [payload])
            assert client.session_status(session_id) == before
            assert client.resolve(session_id, 5)["utility"] == utility

    def test_lock_on_full_interval_rejected(self, service, instance):
        events = [event.id for event in instance.events]
        # Two events on distinct locations so only capacity can reject.
        first = next(e for e in instance.events if e.location == "loc0").id
        second = next(e for e in instance.events if e.location == "loc1").id
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.mutate(
                session_id,
                [
                    SetIntervalCapacity(interval_id="t0", capacity=1),
                    LockAssignment(event_id=first, interval_id="t0"),
                ],
            )
            with pytest.raises(SolverError, match="interval is full"):
                client.mutate(
                    session_id, [LockAssignment(event_id=second, interval_id="t0")]
                )
            status = client.session_status(session_id)
            assert status["locks"] == {first: "t0"}
            assert second in events

    def test_capacity_below_locked_count_rejected(self, service, instance):
        first = next(e for e in instance.events if e.location == "loc0").id
        second = next(e for e in instance.events if e.location == "loc1").id
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.mutate(
                session_id,
                [
                    LockAssignment(event_id=first, interval_id="t1"),
                    LockAssignment(event_id=second, interval_id="t1"),
                ],
            )
            with pytest.raises(SolverError, match="already locked"):
                client.mutate(
                    session_id, [SetIntervalCapacity(interval_id="t1", capacity=1)]
                )
            status = client.session_status(session_id)
            assert status["locks"] == {first: "t1", second: "t1"}

    @pytest.mark.parametrize("k", [2.9, True, "3"], ids=repr)
    def test_coercible_k_is_rejected(self, service, instance, k):
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.resolve(session_id, 5)
            schedule = client.get_schedule(session_id)
            with pytest.raises(SolverError, match="k must be an integer"):
                client.resolve(session_id, k)
            assert client.get_schedule(session_id) == schedule

    def test_malformed_request_is_answered_not_fatal(self, wire_server):
        host, port = parse_worker_address(wire_server.address)
        with Client((host, port), authkey=authkey_bytes(None)) as connection:
            connection.send("not a tuple")
            status, payload = connection.recv()
            assert status == STATUS_ERROR
            assert "malformed request" in payload
            connection.send(("no-such-op",))
            status, payload = connection.recv()
            assert status == STATUS_ERROR
            assert "unknown operation" in payload
            connection.send((OP_PING,))
            status, _ = connection.recv()
            assert status != STATUS_ERROR  # the connection survived both errors


class TestDisconnects:
    def test_disconnect_mid_mutation_keeps_session_intact(self, service, instance):
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.resolve(session_id, 5)
        host, port = parse_worker_address(service.address)
        batch = [mutation_to_dict(UpdateInterest(user_id="u0", values={"e0": 0.3}))]
        rude = Client((host, port), authkey=authkey_bytes(None))
        rude.send((OP_MUTATE, session_id, batch))
        rude.close()  # gone before the reply: the server must not care
        with ServiceClient(service.address) as client:
            assert wait_until(
                lambda: client.session_status(session_id)["stats"]["mutations_applied"] == 1
            )
            status = client.session_status(session_id)
            assert status["stale_events"] == 1
            result = client.resolve(session_id, 5)
            assert result["service"]["warm"] is True

    def test_connect_then_vanish_without_request(self, service):
        host, port = parse_worker_address(service.address)
        Client((host, port), authkey=authkey_bytes(None)).close()
        with ServiceClient(service.address) as client:
            assert client.ping()["version"] == PROTOCOL_VERSION


class TestAuthAndShutdown:
    def test_wrong_cluster_key_fails_handshake(self, wire_server, instance):
        with pytest.raises(multiprocessing.AuthenticationError):
            ServiceClient(wire_server.address, cluster_key="not-the-key")
        # The failed handshake must not wedge the accept loop.
        with ServiceClient(wire_server.address) as client:
            if isinstance(wire_server, ServiceServer):
                assert client.load_instance(instance).startswith("s")
            else:
                assert client.ping()["version"] == PROTOCOL_VERSION

    @pytest.mark.parametrize("kind", sorted(SERVER_KINDS))
    def test_stop_ends_a_wildcard_bind(self, kind):
        """stop() wakes accept() through 127.0.0.1 when the bind is ``0.0.0.0``."""
        server = SERVER_KINDS[kind]("0.0.0.0", 0, cluster_key="wildcard-test-key")
        thread = serve_on_thread(server)
        _, port = parse_worker_address(server.address)
        # One answered request proves the accept loop is running.
        with ServiceClient(f"127.0.0.1:{port}", cluster_key="wildcard-test-key") as client:
            assert client.ping()["version"] == PROTOCOL_VERSION
        server.stop()
        thread.join(5.0)
        assert not thread.is_alive()

    def test_non_loopback_default_key_refused(self):
        for host in ("0.0.0.0", "127.example.com"):
            with pytest.raises(SolverError, match="refusing to bind"):
                ServiceServer(host, 0)

    def test_closed_client_raises_cleanly(self, service):
        client = ServiceClient(service.address)
        client.close()
        client.close()  # idempotent
        with pytest.raises(SolverError, match="client is closed"):
            client.ping()

    def test_shutdown_stops_serving(self, instance):
        handle = start_local_service("127.0.0.1", 0)
        with ServiceClient(handle.address) as client:
            client.load_instance(instance)
            client.shutdown_server()
        handle.thread.join(5.0)
        assert not handle.thread.is_alive()
        host, port = parse_worker_address(handle.address)
        with pytest.raises((OSError, EOFError)):
            Client((host, port), authkey=authkey_bytes(None))
