"""Handshake aborts at every message boundary: the gateway must record
a typed HandshakeError, count it apart from mid-session churn, and
release the session thread — no leaks, no hangs.

The client-vanishes cases write their frames and close *before* the
gateway adopts the socket (buffered bytes still deliver), which makes
each boundary deterministic instead of racing the gateway's replies.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import HandshakeError
from repro.fixedpoint import Q8_4
from repro.host import CloudServer
from repro.net.endpoint import SocketEndpoint
from repro.net.gateway import GCGateway
from repro.net.handshake import HELLO_TAG, PROTOCOL_VERSION, REJECT_TAG
from repro.serve import ServingConfig, ServingServer
from repro.telemetry import MetricsRegistry


@pytest.fixture
def gateway():
    server = CloudServer(
        np.array([[0.5, -0.25]]), Q8_4, pool_size=0, seed=0,
        auto_refill=False, telemetry=MetricsRegistry(),
    )
    # recv_timeout (2s) deliberately exceeds handshake_timeout (0.3s):
    # the reaper, not the receive timeout, must be what frees a
    # half-open session's thread
    serving = ServingServer(
        server, ServingConfig(workers=1, queue_depth=2, refill=False,
                              recv_timeout_s=2.0),
    )
    gw = GCGateway(
        server, serving=serving, handshake_timeout_s=0.3, reap_interval_s=0.05
    )
    yield gw
    gw.stop()


def _counters(gateway):
    return gateway.telemetry.snapshot()["counters"]


def _run_session(gateway, prepare):
    """Prepare the client side of a socketpair, then let the gateway
    serve the other half; returns the finished session thread."""
    ours, theirs = socket.socketpair()
    prepare(ours)
    thread = gateway.adopt(theirs)
    thread.join(timeout=5.0)
    return thread


def _assert_handshake_failure(gateway, thread):
    assert not thread.is_alive(), "gateway session thread leaked"
    assert isinstance(gateway._last_session_error, HandshakeError)
    counters = _counters(gateway)
    assert counters["gateway.handshake_failures"] == 1
    assert counters.get("gateway.sessions", 0) == 0  # never established


class TestAbortBoundaries:
    def test_close_before_any_frame(self, gateway):
        thread = _run_session(gateway, lambda sock: sock.close())
        _assert_handshake_failure(gateway, thread)

    def test_close_mid_frame(self, gateway):
        def partial(sock):
            sock.sendall(b"\x7f")  # one byte of a frame header, then gone
            sock.close()

        thread = _run_session(gateway, partial)
        _assert_handshake_failure(gateway, thread)

    def test_close_after_complete_hello(self, gateway):
        def hello_then_vanish(sock):
            ep = SocketEndpoint("abort-client", sock)
            hello = {"protocol_version": PROTOCOL_VERSION, "name": "abort"}
            ep.send(HELLO_TAG, json.dumps(hello, sort_keys=True).encode())
            ep.close()

        thread = _run_session(gateway, hello_then_vanish)
        _assert_handshake_failure(gateway, thread)

    def test_garbage_hello_payload(self, gateway):
        def garbage(sock):
            ep = SocketEndpoint("abort-client", sock)
            ep.send(HELLO_TAG, b"this is not json")
            ep.close()

        thread = _run_session(gateway, garbage)
        _assert_handshake_failure(gateway, thread)

    def test_version_skew(self, gateway):
        """A hello at any other version is answered with a typed
        ``net.reject`` naming both versions, which the client reads."""
        ours, theirs = socket.socketpair()
        ep = SocketEndpoint("abort-client", ours, recv_timeout_s=2.0)
        hello = {"protocol_version": PROTOCOL_VERSION - 1, "name": "old"}
        ep.send(HELLO_TAG, json.dumps(hello, sort_keys=True).encode())
        thread = gateway.adopt(theirs)
        reason = ep.recv(REJECT_TAG).decode()
        ep.close()
        thread.join(timeout=5.0)
        assert reason == (
            f"protocol version mismatch: client speaks v{PROTOCOL_VERSION - 1}, "
            f"gateway serves v{PROTOCOL_VERSION}"
        )
        _assert_handshake_failure(gateway, thread)


class TestReaper:
    def test_half_open_socket_is_reaped(self, gateway):
        """A client that connects and sends nothing (SYN-and-silence)
        must not pin a session thread past the handshake timeout."""
        ours, theirs = socket.socketpair()
        try:
            thread = gateway.adopt(theirs)
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "half-open session pinned its thread"
            counters = _counters(gateway)
            assert counters["gateway.reaped"] == 1
            assert counters["gateway.handshake_failures"] == 1
            assert isinstance(gateway._last_session_error, HandshakeError)
        finally:
            ours.close()

    def test_prompt_handshake_is_not_reaped(self, gateway):
        from repro.net.handshake import client_handshake
        from repro.net.gateway import BYE_TAG

        ours, theirs = socket.socketpair()
        client = SocketEndpoint("client", ours, recv_timeout_s=2.0)
        try:
            thread = gateway.adopt(theirs)
            descriptor = client_handshake(client, client_name="prompt")
            assert descriptor.protocol_version == PROTOCOL_VERSION
            time.sleep(0.5)  # well past handshake_timeout_s
            assert thread.is_alive()  # established sessions live on
            assert "gateway.reaped" not in _counters(gateway)
            client.send(BYE_TAG, b"")
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            client.close()


class TestNoThreadLeaks:
    def test_aborts_leave_no_gateway_threads(self, gateway):
        for _ in range(5):
            thread = _run_session(gateway, lambda sock: sock.close())
            assert not thread.is_alive()
        leaked = [
            t for t in threading.enumerate()
            if t.name.startswith("gateway-session") and t.is_alive()
        ]
        assert leaked == []
        assert _counters(gateway)["gateway.handshake_failures"] == 5
