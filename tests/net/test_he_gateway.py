"""HE-backed sessions through the gateway: negotiation + bit-identity.

The acceptance bar for the backend seam: an HE session served
end-to-end through :class:`GCGateway` must return the *same* decoded
fixed-point results as a GC session against the same model — and
clients that never heard of backends (v3 and below) must keep working
untouched.
"""

import json
import socket

import numpy as np
import pytest

from repro.errors import HandshakeError
from repro.fixedpoint import Q8_4
from repro.host import CloudServer
from repro.net import GCGateway, RemoteAnalyticsClient
from repro.net import socketpair_endpoints
from repro.net.endpoint import SocketEndpoint
from repro.net.handshake import (
    HELLO_TAG,
    REJECT_TAG,
    SessionDescriptor,
    client_session_handshake,
    server_handshake,
)
from repro.serve import ServingConfig

#: ridge-regression-shaped toy model (3 coefficients x 4 features)
MODEL = np.array([
    [0.5, -1.0, 0.25, 1.5],
    [1.25, 0.75, -0.5, -2.0],
    [-0.125, 2.0, 1.0, 0.5],
])
RECV_TIMEOUT = 20.0


@pytest.fixture
def server():
    return CloudServer(MODEL, Q8_4, pool_size=2, seed=17, auto_refill=False)


def make_gateway(server, **cfg_kwargs):
    config = ServingConfig(
        workers=2, queue_depth=8, refill=True, recv_timeout_s=RECV_TIMEOUT,
        **cfg_kwargs,
    )
    gw = GCGateway(server, config=config)
    gw.serving.start()
    return gw


@pytest.fixture
def gateway(server):
    gw = make_gateway(server)
    yield gw
    gw.stop()


def loopback_client(gateway, **kwargs) -> RemoteAnalyticsClient:
    ours, theirs = socket.socketpair()
    gateway.adopt(theirs)
    return RemoteAnalyticsClient.from_socket(
        ours, recv_timeout_s=RECV_TIMEOUT, **kwargs
    )


def q84_grid(rng, n):
    return np.round(rng.uniform(-2, 2, size=n) * 16) / 16


class TestBitIdentity:
    def test_he_session_matches_gc_and_plaintext(self, gateway):
        rng = np.random.default_rng(3)
        queries = [(r, q84_grid(rng, MODEL.shape[1]))
                   for r in range(MODEL.shape[0])]
        with loopback_client(gateway, backend="he") as he:
            assert he.backend == "he"
            he_results = [he.query_row(r, x) for r, x in queries]
            budgets = he.last_noise_budget_bits
        with loopback_client(gateway, backend="gc") as gc:
            assert gc.backend == "gc"
            gc_results = [gc.query_row(r, x) for r, x in queries]
        assert he_results == gc_results
        assert budgets > 0
        for (r, x), got in zip(queries, he_results):
            assert got == pytest.approx(float(MODEL[r] @ x), abs=1e-12)

    def test_mixed_backends_share_one_gateway(self, server, gateway):
        x = np.array([0.5, -0.25, 1.0, 0.75])
        with loopback_client(gateway, backend="he") as he, \
                loopback_client(gateway) as default:
            assert default.backend == "gc"
            assert he.query_row(1, x) == default.query_row(1, x)
        assert server.stats.he_queries == 1
        assert server.telemetry.counter("gateway.sessions.he").value == 1
        assert server.telemetry.counter("gateway.sessions.gc").value == 1


class TestNegotiation:
    def test_default_backend_is_gc(self, gateway):
        with loopback_client(gateway) as remote:
            assert remote.backend == "gc"
            assert remote.circuit is not None

    def test_gateway_default_backend_from_config(self, server):
        gw = make_gateway(server, backend="he")
        try:
            with loopback_client(gw) as remote:
                assert remote.backend == "he"
                assert remote.circuit is None  # HE sessions skip the GC build
                assert remote.query_row(0, [1.0, 0.0, 0.0, 0.0]) == \
                    pytest.approx(0.5, abs=1e-12)
        finally:
            gw.stop()

    def test_gateway_default_backend_from_env(self, server, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "he")
        gw = make_gateway(server)
        try:
            with loopback_client(gw) as remote:
                assert remote.backend == "he"
        finally:
            gw.stop()

    def test_explicit_gc_overrides_he_default(self, server):
        gw = make_gateway(server, backend="he")
        try:
            with loopback_client(gw, backend="gc") as remote:
                assert remote.backend == "gc"
        finally:
            gw.stop()

    def test_unknown_backend_is_rejected_typed(self, gateway):
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        ep = SocketEndpoint("probe", ours, recv_timeout_s=RECV_TIMEOUT)
        with pytest.raises(HandshakeError, match="unsupported backend"):
            client_session_handshake(ep, backend="paillier")
        ours.close()

    def test_v3_client_is_rejected(self, gateway):
        """A pre-v4 hello (no backend field) gets a typed ``net.reject``
        naming the version, never a welcome."""
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        ep = SocketEndpoint("legacy", ours, recv_timeout_s=RECV_TIMEOUT)
        ep.send(HELLO_TAG, json.dumps(
            {"protocol_version": 3, "name": "legacy"}
        ).encode())
        reason = ep.recv(REJECT_TAG).decode()
        assert "client speaks v3" in reason
        ours.close()

    def test_pre_v4_session_cannot_grant_he(self):
        """Even with an HE default, a v3 hello is refused: the gateway
        rejects it and the client sees the rejection typed."""
        import threading

        a, b = socketpair_endpoints("gateway", "client", recv_timeout_s=5.0)
        descriptor = SessionDescriptor(
            protocol_version=4, total_bits=8, frac_bits=4, acc_width=19,
            rounds=4, n_rows=3, fingerprint="f" * 64, group_p=23, group_g=5,
        )
        server_err = []

        def serve():
            try:
                server_handshake(a, descriptor, backends=("gc", "he"),
                                 default_backend="he")
            except HandshakeError as exc:
                server_err.append(exc)

        t = threading.Thread(target=serve)
        t.start()
        b.send(HELLO_TAG, json.dumps(
            {"protocol_version": 3, "name": "legacy", "backend": "he"}
        ).encode())
        assert "client speaks v3" in b.recv(REJECT_TAG).decode()
        t.join(timeout=5.0)
        assert server_err and "version mismatch" in str(server_err[0])


class TestParameterCheck:
    def test_mismatched_he_params_fail_before_any_query(self, server, gateway,
                                                        monkeypatch):
        import repro.net.client as client_mod

        real = client_mod.params_for_workload
        monkeypatch.setattr(
            client_mod, "params_for_workload",
            lambda fmt, rows, cols: real(fmt, rows + 1, cols),
        )
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        with pytest.raises(HandshakeError, match="HE parameter mismatch"):
            RemoteAnalyticsClient.from_socket(
                ours, recv_timeout_s=RECV_TIMEOUT, backend="he"
            )
