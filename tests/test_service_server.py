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
* a client with the wrong authkey fails the HMAC handshake before any
  request is read, and binding a non-loopback host with the default (public)
  key — or with an empty one — is refused outright, as is an out-of-range
  port.

Everything runs against an in-process server on an ephemeral loopback port,
the same wiring ``repro serve`` uses.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Client

import pytest

from repro.cli import main
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
from repro.service.wire import (
    DEFAULT_AUTHKEY,
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
    is_loopback_host,
    parse_address,
)
from tests.conftest import make_random_instance


@pytest.fixture()
def service():
    handle = start_local_service("127.0.0.1", 0)
    yield handle
    handle.stop()


def serve_on_thread(server):
    """Run ``server.serve_forever`` on a daemon thread and return the thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


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
        assert reply["version"] == PROTOCOL_VERSION == 3
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

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"seed": "abc"}, "seed must be an integer"),
            ({"seed": 2.5}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"algorithm": None}, "algorithm name must be a string"),
            ({"algorithm": 3}, "algorithm name must be a string"),
        ],
        ids=repr,
    )
    def test_bad_load_option_creates_no_session(self, service, instance, options, message):
        with ServiceClient(service.address) as client:
            with pytest.raises(SolverError, match=message):
                client.load_instance(instance, **options)
            assert client.ping()["sessions"] == 0

    @pytest.mark.parametrize("algorithm", [3, ["INC"]], ids=repr)
    def test_non_string_resolve_algorithm_is_rejected(self, service, instance, algorithm):
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.resolve(session_id, 5)
            schedule = client.get_schedule(session_id)
            with pytest.raises(SolverError, match="algorithm name must be a string"):
                client.resolve(session_id, 5, algorithm=algorithm)
            assert client.get_schedule(session_id) == schedule

    def test_malformed_request_is_answered_not_fatal(self, service):
        host, port = parse_address(service.address)
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
        host, port = parse_address(service.address)
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
        host, port = parse_address(service.address)
        Client((host, port), authkey=authkey_bytes(None)).close()
        with ServiceClient(service.address) as client:
            assert client.ping()["version"] == PROTOCOL_VERSION


class TestAuthAndShutdown:
    def test_wrong_authkey_fails_handshake(self, service, instance):
        with pytest.raises(multiprocessing.AuthenticationError):
            ServiceClient(service.address, authkey="not-the-key")
        # The failed handshake must not wedge the accept loop.
        with ServiceClient(service.address) as client:
            assert client.load_instance(instance).startswith("s")

    def test_stop_ends_a_wildcard_bind(self):
        """stop() wakes accept() through 127.0.0.1 when the bind is ``0.0.0.0``."""
        server = ServiceServer("0.0.0.0", 0, authkey="wildcard-test-key")
        thread = serve_on_thread(server)
        _, port = parse_address(server.address)
        # One answered request proves the accept loop is running.
        with ServiceClient(f"127.0.0.1:{port}", authkey="wildcard-test-key") as client:
            assert client.ping()["version"] == PROTOCOL_VERSION
        server.stop()
        thread.join(5.0)
        assert not thread.is_alive()

    @pytest.mark.parametrize("authkey", [None, ""], ids=["default", "empty"])
    def test_non_loopback_default_key_refused(self, authkey):
        for host in ("0.0.0.0", "127.example.com"):
            with pytest.raises(SolverError, match="refusing to bind|non-empty"):
                ServiceServer(host, 0, authkey=authkey)

    @pytest.mark.parametrize("authkey", ["", b"bytes-key", 7], ids=repr)
    def test_empty_or_non_string_authkey_rejected(self, service, authkey):
        with pytest.raises(SolverError, match="authkey"):
            ServiceServer("127.0.0.1", 0, authkey=authkey)
        with pytest.raises(SolverError, match="authkey"):
            ServiceClient(service.address, authkey=authkey)

    @pytest.mark.parametrize("port", [70000, -1, 65536])
    def test_out_of_range_port_refused(self, port):
        with pytest.raises(SolverError, match="0..65535"):
            ServiceServer("127.0.0.1", port)

    @pytest.mark.parametrize("port", [True, "7077", 7077.0, None], ids=repr)
    def test_non_integer_port_refused(self, port):
        with pytest.raises(SolverError, match="0..65535"):
            ServiceServer("127.0.0.1", port)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
            ["serve", "--host", "0.0.0.0", "--authkey", ""],
            ["serve", "--host", "0.0.0.0"],
        ],
        ids=["port-70000", "port-minus-1", "wildcard-empty-key", "wildcard-default-key"],
    )
    def test_cli_serve_refuses_before_listening(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "listening" not in captured.out
        assert captured.err.startswith("error: ")

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
        host, port = parse_address(handle.address)
        with pytest.raises((OSError, EOFError)):
            Client((host, port), authkey=authkey_bytes(None))


class TestAddresses:
    @pytest.mark.parametrize(
        "host, loopback",
        [
            ("localhost", True),
            ("127.0.0.1", True),
            ("127.0.0.2", True),
            ("::1", True),
            ("127.255.255.254", True),
            ("127.example.com", False),
            ("0.0.0.0", False),
            ("::", False),
            ("10.0.0.5", False),
            ("", False),
        ],
    )
    def test_loopback_host_check(self, host, loopback):
        assert is_loopback_host(host) is loopback

    @pytest.mark.parametrize(
        "address, expected",
        [
            ("127.0.0.1:7077", ("127.0.0.1", 7077)),
            ("localhost:1", ("localhost", 1)),
            ("example.org:65535", ("example.org", 65535)),
            (" host :80", ("host", 80)),
        ],
    )
    def test_valid_addresses_parse(self, address, expected):
        assert parse_address(address) == expected

    @pytest.mark.parametrize(
        "bad",
        [
            "nohost", "host:", "host:notaport", "host:0", "h:1:2",
            "", ":", ":7077", "host:65536", "host:-1", "[::1]:7077", 7077, None,
        ],
    )
    def test_invalid_addresses_rejected(self, bad):
        with pytest.raises(SolverError):
            parse_address(bad)

    @pytest.mark.parametrize(
        "authkey, expected",
        [
            (None, DEFAULT_AUTHKEY.encode("utf-8")),
            ("secret", b"secret"),
            ("clé", "clé".encode("utf-8")),
        ],
        ids=["default", "ascii", "non-ascii"],
    )
    def test_authkey_bytes(self, authkey, expected):
        assert authkey_bytes(authkey) == expected

    @pytest.mark.parametrize("authkey", ["", b"secret", 7, ["secret"]], ids=repr)
    def test_authkey_bytes_rejects_empty_or_non_string(self, authkey):
        with pytest.raises(SolverError, match="non-empty string"):
            authkey_bytes(authkey)


#: Stands for the id of the live session in :data:`MALFORMED_REQUESTS`.
LIVE = "<live session>"

#: Requests the service must answer with an error, one per way each op's
#: payload can be wrong.
MALFORMED_REQUESTS = [
    pytest.param((OP_LOAD_INSTANCE,), id="load-instance-missing-payload"),
    pytest.param((OP_LOAD_INSTANCE, "not a dict"), id="load-instance-non-mapping"),
    pytest.param((OP_LOAD_INSTANCE, {}), id="load-instance-empty-mapping"),
    pytest.param((OP_MUTATE, "s999", []), id="mutate-unknown-session"),
    pytest.param((OP_MUTATE, LIVE), id="mutate-missing-batch"),
    pytest.param((OP_MUTATE, LIVE, [{"op": "no-such-mutation"}]), id="mutate-unknown-mutation"),
    pytest.param((OP_MUTATE, LIVE, "not a list"), id="mutate-non-list-batch"),
    pytest.param((OP_RESOLVE, "s999", 3), id="resolve-unknown-session"),
    pytest.param((OP_RESOLVE, LIVE), id="resolve-missing-k"),
    pytest.param((OP_RESOLVE, LIVE, 3, {"algorithm": "NOPE"}), id="resolve-unknown-algorithm"),
    pytest.param((OP_GET_SCHEDULE, "s999"), id="get-schedule-unknown-session"),
    pytest.param((OP_GET_SCHEDULE,), id="get-schedule-missing-session"),
    pytest.param((OP_SESSION_STATUS, "s999"), id="session-status-unknown-session"),
    pytest.param((OP_SESSION_STATUS, LIVE, "extra"), id="session-status-extra-argument"),
    pytest.param((42,), id="non-string-op"),
    pytest.param((), id="empty-request"),
]


class TestMalformedOps:
    @pytest.mark.parametrize("request_", MALFORMED_REQUESTS)
    def test_answered_with_an_error_leaving_sessions_intact(self, service, instance, request_):
        """A malformed request gets an error reply; the connection keeps
        serving and the live session keeps its schedule."""
        host, port = parse_address(service.address)
        with ServiceClient(service.address) as client:
            session_id = client.load_instance(instance)
            client.resolve(session_id, 5)
            schedule = client.get_schedule(session_id)
            request_ = tuple(session_id if part == LIVE else part for part in request_)
            with Client((host, port), authkey=authkey_bytes(None)) as connection:
                connection.send(request_)
                status, payload = connection.recv()
                assert status == STATUS_ERROR
                assert isinstance(payload, str) and payload
                connection.send((OP_PING,))
                status, reply = connection.recv()
                assert status == STATUS_OK
                assert reply["sessions"] == 1
            assert client.get_schedule(session_id) == schedule


def test_serve_subcommand_end_to_end():
    """`repro serve` announces its address, answers a ping, and shuts down."""
    src_dir = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve"], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        line = process.stdout.readline().strip()
        assert "listening on" in line
        host, port = parse_address(line.rsplit(" ", 1)[-1])
        with Client((host, port), authkey=authkey_bytes(None)) as connection:
            connection.send((OP_PING,))
            status, payload = connection.recv()
            assert status == STATUS_OK
            assert payload["version"] == PROTOCOL_VERSION
            connection.send((OP_SHUTDOWN,))
            status, _ = connection.recv()
            assert status == STATUS_OK
        assert process.wait(timeout=10) == 0
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.wait()
