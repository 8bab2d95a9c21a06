"""Resume protocol end to end: rebind after disconnect, replay, rejects.

The acceptance criteria under test: a v3 client whose wire breaks —
idle or mid-stream — reconnects, rebinds to the still-live session,
replays only unacked frames, and finishes with the bit-identical MAC
result *without a single round being re-garbled* (asserted through
``runs_garbled`` on a pool-less server: exactly one garbling per
query, disconnect or not).
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import HandshakeError, ResumeError
from repro.fixedpoint import Q8_4
from repro.host import CloudServer
from repro.net import GCGateway, RemoteAnalyticsClient
from repro.net.endpoint import SocketEndpoint
from repro.recover import BackoffPolicy
from repro.serve import ServingConfig
from repro.telemetry import MetricsRegistry

MODEL = np.array([
    [0.5, -1.0, 0.25, 0.75],
    [1.5, 0.25, -0.5, 1.0],
    [-0.75, 2.0, 0.125, -0.25],
    [1.0, 1.0, -1.5, 0.5],
])
RECV_TIMEOUT = 20.0


@pytest.fixture
def telemetry():
    return MetricsRegistry()


@pytest.fixture
def server(telemetry):
    # pool_size=0 + no refill: every query garbles exactly once, so
    # runs_garbled is a precise no-re-garbling oracle
    return CloudServer(
        MODEL, Q8_4, pool_size=0, seed=11, auto_refill=False,
        telemetry=telemetry,
    )


@pytest.fixture
def gateway(server):
    config = ServingConfig(
        workers=2, queue_depth=8, refill=False,
        recv_timeout_s=RECV_TIMEOUT, resume_window_s=10.0,
    )
    gw = GCGateway(server, config=config)
    gw.serving.start()
    yield gw
    gw.stop()


def resumable_client(gateway, **kwargs) -> RemoteAnalyticsClient:
    """A client whose dial adopts a fresh socketpair half into the gateway."""

    def dial():
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        return SocketEndpoint("client", ours, recv_timeout_s=RECV_TIMEOUT)

    kwargs.setdefault(
        "backoff", BackoffPolicy(base_s=0.01, cap_s=0.1, seed=5)
    )
    return RemoteAnalyticsClient(dial=dial, **kwargs)


def cut_wire(client) -> None:
    """Kill the client's current transport socket out from under it."""
    client.endpoint.transport._sock.close()


X = np.array([0.5, -0.25, 1.0, 0.75])


class TestRebind:
    def test_v3_session_is_resumable_and_correct(self, gateway):
        with resumable_client(gateway) as client:
            assert client.resumable
            assert client.session_id.startswith("s-")
            assert client.query_row(1, X) == pytest.approx(
                float(MODEL[1] @ X), abs=1e-12
            )

    def test_idle_disconnect_rebinds_transparently(self, server, gateway):
        with resumable_client(gateway) as client:
            client.query_row(0, X)
            garbled = server.stats.runs_garbled
            cut_wire(client)
            assert client.query_row(2, X) == pytest.approx(
                float(MODEL[2] @ X), abs=1e-12
            )
            assert client.endpoint.resumes == 1
            # the second query garbled exactly once: no re-garbling
            assert server.stats.runs_garbled == garbled + 1
            assert (
                server.telemetry.counter("gateway.resumes.rebind").value == 1
            )

    def test_mid_stream_disconnect_replays_unacked_frames(self, server, gateway):
        with resumable_client(gateway) as client:
            garbled = server.stats.runs_garbled

            def cutter():
                # wait until the garbled stream is demonstrably flowing,
                # then cut — the break lands mid-round
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if client.endpoint.recv_seq >= 3:
                        cut_wire(client)
                        return
                    time.sleep(0.001)

            t = threading.Thread(target=cutter)
            t.start()
            got = client.query_row(1, X)
            t.join(timeout=10.0)
            assert got == pytest.approx(float(MODEL[1] @ X), abs=1e-12)
            assert client.endpoint.resumes >= 1
            # completed rounds were never re-garbled
            assert server.stats.runs_garbled == garbled + 1
            assert (
                server.telemetry.counter("recover.gateway.rebinds").value >= 1
            )

    def test_multiple_disconnects_in_one_session(self, server, gateway):
        with resumable_client(gateway) as client:
            garbled = server.stats.runs_garbled
            for row in range(3):
                cut_wire(client)
                assert client.query_row(row, X) == pytest.approx(
                    float(MODEL[row] @ X), abs=1e-12
                )
            assert client.endpoint.resumes == 3
            assert server.stats.runs_garbled == garbled + 3


class TestResumeRejects:
    def test_unknown_session_is_a_typed_reject(self, gateway):
        with resumable_client(gateway) as client:
            client.query_row(0, X)
            client.endpoint.session_id = "s-never-existed"
            cut_wire(client)
            with pytest.raises(ResumeError, match="refused to resume"):
                client.query_row(1, X)
            assert (
                gateway.telemetry.counter("gateway.resume_requests").value >= 1
            )

    def test_replay_horizon_overrun_is_a_typed_reject(self, gateway):
        with resumable_client(gateway) as client:
            client.query_row(0, X)
            # claim to have verified far fewer frames than the gateway's
            # bounded replay buffer still holds... by shrinking the
            # *client's* record instead: pretend we acked nothing while
            # the gateway's buffer horizon has moved past frame 0
            live = gateway._live[client.session_id]
            buffer = live.channel.replay_buffer
            # simulate horizon advance: drop everything below send_seq
            buffer.ack(live.channel.send_seq)
            buffer.record(live.channel.send_seq + 10, "x", b"pad")
            client.endpoint.restore_sequences(
                client.endpoint.send_seq, 0
            )  # "I verified nothing"
            cut_wire(client)
            with pytest.raises(ResumeError, match="replay"):
                client.query_row(1, X)

    def test_exhausted_backoff_budget_is_typed(self, server):
        # a gateway that is simply gone: every dial fails
        config = ServingConfig(workers=1, recv_timeout_s=RECV_TIMEOUT)
        gw = GCGateway(server, config=config)
        gw.serving.start()
        try:
            alive = {"up": True}

            def dial():
                if not alive["up"]:
                    raise OSError("connection refused")
                ours, theirs = socket.socketpair()
                gw.adopt(theirs)
                return SocketEndpoint(
                    "client", ours, recv_timeout_s=RECV_TIMEOUT
                )

            client = RemoteAnalyticsClient(
                dial=dial,
                backoff=BackoffPolicy(
                    base_s=0.005, cap_s=0.01, max_attempts=3, seed=2
                ),
            )
            client.query_row(0, X)
            alive["up"] = False
            cut_wire(client)
            with pytest.raises(ResumeError, match="could not be resumed"):
                client.query_row(1, X)
            client.close()
        finally:
            gw.stop()


class TestVersionNegotiation:
    def test_loopback_socket_client_is_not_resumable(self, gateway):
        """No dial callable => plain transport, exactly the old behaviour."""
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        with RemoteAnalyticsClient.from_socket(
            ours, recv_timeout_s=RECV_TIMEOUT
        ) as client:
            assert not client.resumable
            from repro.net.handshake import PROTOCOL_VERSION

            assert client.descriptor.protocol_version == PROTOCOL_VERSION
            assert client.query_row(0, X) == pytest.approx(
                float(MODEL[0] @ X), abs=1e-12
            )

    def test_v2_client_is_rejected(self, gateway, monkeypatch):
        """The gateway speaks only the current version: an older client
        gets a typed rejection, not a negotiated-down session."""
        import repro.net.handshake as hs

        monkeypatch.setattr(hs, "PROTOCOL_VERSION", 2)
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        try:
            with pytest.raises(HandshakeError, match="client speaks v2"):
                RemoteAnalyticsClient.from_socket(
                    ours, recv_timeout_s=RECV_TIMEOUT
                )
        finally:
            ours.close()