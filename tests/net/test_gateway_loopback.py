"""Gateway end-to-end over loopback sockets: the acceptance tests.

* remote results are bit-identical to the in-process ``AnalyticsClient``;
* one gateway serves >= 2 concurrent remote sessions;
* malformed/hostile clients fail typed within the configured timeout
  and never wedge the gateway.

Most tests use ``socketpair`` adoption (no ports bound); one covers the
full TCP accept path on 127.0.0.1 with an ephemeral port.
"""

import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import HandshakeError, ServingError, WireError
from repro.fixedpoint import Q8_4
from repro.host import AnalyticsClient, CloudServer
from repro.net import GCGateway, RemoteAnalyticsClient
from repro.serve import ServingConfig

MODEL = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0], [1.0, 1.0]])
RECV_TIMEOUT = 20.0


@pytest.fixture
def server():
    return CloudServer(MODEL, Q8_4, pool_size=2, seed=11, auto_refill=False)


@pytest.fixture
def gateway(server):
    config = ServingConfig(
        workers=2, queue_depth=8, refill=True, recv_timeout_s=RECV_TIMEOUT
    )
    gw = GCGateway(server, config=config)
    gw.serving.start()
    yield gw
    gw.stop()


def loopback_client(gateway, **kwargs) -> RemoteAnalyticsClient:
    ours, theirs = socket.socketpair()
    gateway.adopt(theirs)
    return RemoteAnalyticsClient.from_socket(
        ours, recv_timeout_s=RECV_TIMEOUT, **kwargs
    )


def q84_grid(rng, n):
    """Random vector snapped to the Q8.4 grid (bit-exact vs plaintext)."""
    return np.round(rng.uniform(-1, 1, size=n) * 16) / 16


class TestBitIdentity:
    def test_remote_equals_in_process_for_every_row(self, server, gateway):
        local = AnalyticsClient(server)
        rng = np.random.default_rng(21)
        with loopback_client(gateway) as remote:
            for row in range(MODEL.shape[0]):
                x = q84_grid(rng, MODEL.shape[1])
                assert remote.query_row(row, x) == local.query_row(row, x)

    def test_remote_matches_plaintext_on_grid(self, gateway):
        rng = np.random.default_rng(5)
        with loopback_client(gateway) as remote:
            for _ in range(3):
                row = int(rng.integers(0, MODEL.shape[0]))
                x = q84_grid(rng, MODEL.shape[1])
                assert remote.query_row(row, x) == pytest.approx(
                    float(MODEL[row] @ x), abs=1e-12
                )

    def test_descriptor_reflects_model(self, gateway):
        with loopback_client(gateway) as remote:
            assert remote.n_rows == MODEL.shape[0]
            assert remote.rounds_per_request == MODEL.shape[1]


class TestConcurrentSessions:
    def test_two_plus_concurrent_remote_sessions(self, server, gateway):
        n_clients, per_client = 3, 2
        results: dict[int, list[tuple[float, float]]] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_clients)

        def one_client(cid: int):
            rng = np.random.default_rng(100 + cid)
            try:
                with loopback_client(gateway, name=f"client-{cid}") as remote:
                    barrier.wait(timeout=10.0)  # all sessions live at once
                    pairs = []
                    for _ in range(per_client):
                        row = int(rng.integers(0, MODEL.shape[0]))
                        x = q84_grid(rng, MODEL.shape[1])
                        pairs.append((remote.query_row(row, x), float(MODEL[row] @ x)))
                    results[cid] = pairs
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=one_client, args=(c,)) for c in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors
        assert len(results) == n_clients
        for pairs in results.values():
            for got, expected in pairs:
                assert got == pytest.approx(expected, abs=1e-12)
        assert server.telemetry.counter("gateway.sessions").value == n_clients
        # the handler thread bumps gateway.queries *after* the client has
        # already read its result off the socket, so give the last
        # increment a moment to land before pinning the exact count
        deadline = time.monotonic() + 5.0
        queries = server.telemetry.counter("gateway.queries")
        while queries.value < n_clients * per_client and time.monotonic() < deadline:
            time.sleep(0.01)
        assert queries.value == n_clients * per_client
        # paper-style accounting: table bytes dominate and are per-tag visible
        assert server.telemetry.counter("channel.bytes.seq.tables").value > 0

    def test_sessions_share_the_pregarbled_pool(self, server, gateway):
        with loopback_client(gateway) as remote:
            remote.query_row(0, [0.5, 0.25])
        assert server.stats.pool_hits >= 1


class TestTcpPath:
    def test_tcp_accept_loop_end_to_end(self, server):
        config = ServingConfig(workers=2, recv_timeout_s=RECV_TIMEOUT)
        local = AnalyticsClient(server)
        x = np.array([0.5, -0.25])
        with GCGateway(server, config=config) as gw:
            host, port = gw.address
            assert port != 0
            with RemoteAnalyticsClient(host, port, recv_timeout_s=RECV_TIMEOUT) as remote:
                assert remote.query_row(2, x) == local.query_row(2, x)


class TestHostileClients:
    def test_http_client_fails_typed_and_gateway_survives(self, server, gateway):
        ours, theirs = socket.socketpair()
        session_thread = gateway.adopt(theirs)
        ours.sendall(b"GET / HTTP/1.1\r\nHost: gc\r\n\r\n")
        session_thread.join(timeout=RECV_TIMEOUT + 5.0)
        assert not session_thread.is_alive()
        assert isinstance(gateway._last_session_error, WireError)
        assert server.telemetry.counter("gateway.session_errors").value == 1
        ours.close()
        # the gateway keeps serving well-formed sessions afterwards
        with loopback_client(gateway) as remote:
            assert remote.query_row(0, [0.5, 0.25]) == pytest.approx(
                float(MODEL[0] @ [0.5, 0.25]), abs=1e-12
            )

    def test_mid_handshake_disconnect_is_contained(self, server, gateway):
        ours, theirs = socket.socketpair()
        session_thread = gateway.adopt(theirs)
        ours.close()  # vanish before saying hello
        session_thread.join(timeout=RECV_TIMEOUT + 5.0)
        assert not session_thread.is_alive()
        assert server.telemetry.counter("gateway.session_errors").value == 1

    def test_bad_row_gets_typed_refusal_and_session_continues(self, gateway):
        with loopback_client(gateway) as remote:
            with pytest.raises(ServingError, match="no row"):
                remote.query_row(99, [0.5, 0.25])
            # same session still works
            assert remote.query_row(0, [0.5, 0.25]) == pytest.approx(
                float(MODEL[0] @ [0.5, 0.25]), abs=1e-12
            )

    def test_backpressure_is_a_typed_refusal(self, server):
        # serving layer not started: submission fails, client sees net.error
        gw = GCGateway(server, config=ServingConfig(recv_timeout_s=RECV_TIMEOUT))
        try:
            with pytest.raises(ServingError, match="refused"):
                with loopback_client(gw) as remote:
                    remote.query_row(0, [0.5, 0.25])
        finally:
            gw.stop()

    def test_fingerprint_mismatch_fails_before_any_query(self, server, gateway, monkeypatch):
        import repro.net.client as client_mod

        monkeypatch.setattr(
            client_mod, "netlist_fingerprint", lambda circuit: "deadbeef"
        )
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        with pytest.raises(HandshakeError, match="fingerprint mismatch"):
            RemoteAnalyticsClient.from_socket(ours, recv_timeout_s=RECV_TIMEOUT)


class TestConcurrentAdopt:
    def test_adopts_racing_a_drain_and_a_stop_are_all_joined(
        self, server, monkeypatch
    ):
        """Eight threads adopt at once while a drain and a stop run: a
        session is registered and started in one step, so no teardown
        joins an unstarted thread and no concurrent adopt drops a
        peer's session — every adopted session is joined by the stop.
        Session threads start 2 ms late, which widens any window
        between registering a session and starting it."""
        real_start = threading.Thread.start

        def late_start(thread):
            if thread.name == "gateway-session":
                time.sleep(0.002)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", late_start)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._race_adopts_against_teardown(server)
        finally:
            sys.setswitchinterval(switch)

    @staticmethod
    def _race_adopts_against_teardown(server):
        for _ in range(10):
            config = ServingConfig(workers=1, recv_timeout_s=RECV_TIMEOUT)
            gw = GCGateway(server, config=config)
            gw.serving.start()
            pairs = [socket.socketpair() for _ in range(8)]
            start = threading.Barrier(len(pairs) + 2)
            threads, errors = [], []

            def adopt(sock):
                start.wait()
                try:
                    threads.append(gw.adopt(sock))
                except WireError:
                    pass  # refused once the stop began, as a dead listener
                except Exception as exc:
                    errors.append(exc)

            def teardown(step):
                start.wait()
                time.sleep(0.003)  # once the first adopts have registered
                try:
                    step()
                except Exception as exc:
                    errors.append(exc)

            workers = [threading.Thread(target=adopt, args=(theirs,))
                       for _ours, theirs in pairs]
            workers += [
                threading.Thread(target=teardown, args=(lambda: gw.drain(1.0),)),
                threading.Thread(target=teardown, args=(gw.stop,)),
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30.0)
            assert not any(w.is_alive() for w in workers)
            gw.stop()
            joined = all(not t.is_alive() for t in threads)
            for ours, theirs in pairs:
                ours.close()
                theirs.close()
            assert not errors, errors
            assert joined, "the stop left an adopted session running"
            registered = {s.thread for s in gw._sessions}
            assert registered <= set(threads)
