"""Graceful drain, overload shedding, and the configurable reaper.

Acceptance criteria under test:

* SIGTERM (or ``drain()``) lets an in-flight session finish its current
  round, checkpoints it, and the client completes the query against a
  successor gateway sharing the store — without re-garbling;
* a saturated/draining gateway answers ``net.retry_after`` and a v3
  client succeeds after honouring the backoff hint;
* ``ServingConfig.reaper_timeout_s`` / ``REPRO_REAPER_TIMEOUT_S`` feed
  the half-open-session reaper, visible as ``gateway.sessions.reaped``.
"""

import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, OverloadedError
from repro.fixedpoint import Q8_4
from repro.host import CloudServer
from repro.net import GCGateway, RemoteAnalyticsClient
from repro.net.endpoint import SocketEndpoint
from repro.recover import BackoffPolicy, JsonlSessionStore
from repro.serve import ServingConfig, resolve_reaper_timeout
from repro.serve.config import DEFAULT_REAPER_TIMEOUT_S, REAPER_TIMEOUT_ENV
from repro.telemetry import MetricsRegistry
from repro.testkit.oracle import FrameGate, round_end

MODEL = np.array([
    [0.5, -1.0, 0.25, 0.75, -0.5, 1.0, 0.125, -0.25],
    [1.0, 1.0, -1.5, 0.5, 0.75, -0.75, 2.0, 0.25],
])
X = np.array([0.5, -0.25, 1.0, 0.75, 0.125, -0.5, 0.25, 1.0])
RECV_TIMEOUT = 20.0


def fresh_server():
    return CloudServer(
        MODEL, Q8_4, pool_size=0, seed=13, auto_refill=False,
        telemetry=MetricsRegistry(),
    )


def make_gateway(server, store=None, **cfg_kwargs):
    cfg_kwargs.setdefault("workers", 2)
    cfg_kwargs.setdefault("queue_depth", 8)
    cfg_kwargs.setdefault("refill", False)
    cfg_kwargs.setdefault("recv_timeout_s", RECV_TIMEOUT)
    cfg_kwargs.setdefault("drain_timeout_s", 10.0)
    gw = GCGateway(server, config=ServingConfig(**cfg_kwargs), store=store)
    gw.serving.start()
    return gw


def client_for(target, **kwargs):
    """``target`` is a one-element list so tests can swap gateways."""

    def dial():
        ours, theirs = socket.socketpair()
        target[0].adopt(theirs)
        return SocketEndpoint("client", ours, recv_timeout_s=RECV_TIMEOUT)

    kwargs.setdefault("backoff", BackoffPolicy(base_s=0.01, cap_s=0.1, seed=3))
    return RemoteAnalyticsClient(dial=dial, **kwargs)


class TestReaperConfig:
    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(REAPER_TIMEOUT_ENV, raising=False)
        assert resolve_reaper_timeout() == DEFAULT_REAPER_TIMEOUT_S
        monkeypatch.setenv(REAPER_TIMEOUT_ENV, "3.5")
        assert resolve_reaper_timeout() == 3.5
        assert resolve_reaper_timeout(configured=2.0) == 2.0
        assert resolve_reaper_timeout(explicit=1.0, configured=2.0) == 1.0

    def test_bad_env_values_fail_typed(self, monkeypatch):
        monkeypatch.setenv(REAPER_TIMEOUT_ENV, "soon")
        with pytest.raises(ConfigurationError, match="number of seconds"):
            resolve_reaper_timeout()
        monkeypatch.setenv(REAPER_TIMEOUT_ENV, "-1")
        with pytest.raises(ConfigurationError, match="positive"):
            resolve_reaper_timeout()

    def test_config_reaper_timeout_reaches_the_gateway(self):
        server = fresh_server()
        gw = GCGateway(
            server, config=ServingConfig(reaper_timeout_s=0.75)
        )
        try:
            assert gw.handshake_timeout_s == 0.75
        finally:
            gw.stop()

    def test_env_reaper_timeout_reaches_the_gateway(self, monkeypatch):
        monkeypatch.setenv(REAPER_TIMEOUT_ENV, "0.5")
        server = fresh_server()
        gw = GCGateway(server, config=ServingConfig())
        try:
            assert gw.handshake_timeout_s == 0.5
        finally:
            gw.stop()

    def test_half_open_session_is_reaped_and_counted(self):
        server = fresh_server()
        gw = GCGateway(
            server,
            config=ServingConfig(
                reaper_timeout_s=0.2, recv_timeout_s=RECV_TIMEOUT
            ),
            reap_interval_s=0.05,
        )
        gw.serving.start()
        try:
            ours, theirs = socket.socketpair()
            thread = gw.adopt(theirs)  # never say hello
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert server.telemetry.counter("gateway.sessions.reaped").value == 1
            # the legacy counter name stays pinned alongside the new one
            assert server.telemetry.counter("gateway.reaped").value == 1
            ours.close()
        finally:
            gw.stop()


class TestShedding:
    def test_draining_gateway_sheds_v3_with_retry_after(self):
        server = fresh_server()
        gw = make_gateway(server, retry_after_s=0.02)
        try:
            target = [gw]
            with client_for(
                target,
                telemetry=server.telemetry,
                backoff=BackoffPolicy(
                    base_s=0.005, cap_s=0.02, max_attempts=3, seed=3
                ),
            ) as client:
                gw._draining.set()
                with pytest.raises(OverloadedError, match="still shedding"):
                    client.query_row(0, X)
                assert server.telemetry.counter("gateway.shed").value >= 3
                assert server.telemetry.counter("client.shed").value >= 3
        finally:
            gw._draining.clear()
            gw.stop()

    def test_client_succeeds_after_backoff_when_shedding_clears(self):
        server = fresh_server()
        gw = make_gateway(server, retry_after_s=0.02)
        try:
            target = [gw]
            with client_for(target, telemetry=server.telemetry) as client:
                gw._draining.set()
                threading.Timer(0.1, gw._draining.clear).start()
                got = client.query_row(1, X)
                assert got == pytest.approx(float(MODEL[1] @ X), abs=1e-12)
                assert server.telemetry.counter("client.shed").value >= 1
        finally:
            gw.stop()

    def test_draining_gateway_sheds_with_retry_after_not_error(self):
        """Every session is resumable, so a draining gateway's overload
        reply is always the ``net.retry_after`` hint, never ``net.error``."""
        server = fresh_server()
        gw = make_gateway(server)
        try:
            ours, theirs = socket.socketpair()
            gw.adopt(theirs)
            client = RemoteAnalyticsClient.from_socket(
                ours, recv_timeout_s=RECV_TIMEOUT,
                backoff=BackoffPolicy(max_attempts=1),
            )
            gw._draining.set()
            with pytest.raises(OverloadedError, match="still shedding"):
                client.query_row(0, X)
            client.close()
        finally:
            gw._draining.clear()
            gw.stop()

    def test_queue_saturation_raises_typed_overload(self):
        """The serving layer's bounded queue refuses with OverloadedError
        (the admission-control primitive the gateway turns into
        net.retry_after)."""
        server = fresh_server()
        gw = make_gateway(server, workers=1, queue_depth=1)
        try:
            release = threading.Event()
            from repro.serve.server import PendingRequest

            class Blocker(PendingRequest):
                retryable = False

                def __init__(self):
                    super().__init__(0, None, time.monotonic() + 30.0)

                def _execute(self, server_, group):
                    release.wait(timeout=30.0)

            # one blocker occupies the worker, one fills the depth-1 queue
            gw.serving._enqueue(Blocker(), block=True)
            deadline = time.monotonic() + 5.0
            while not gw.serving._queue.empty():
                if time.monotonic() > deadline:
                    pytest.fail("worker never picked up the blocker")
                time.sleep(0.005)
            gw.serving._enqueue(Blocker(), block=True)
            with pytest.raises(OverloadedError):
                gw.serving._enqueue(Blocker(), block=False)
            release.set()
        finally:
            gw.stop()


class TestDrain:
    def test_drain_with_no_sessions_is_clean_and_fast(self):
        server = fresh_server()
        gw = make_gateway(server)
        try:
            t0 = time.monotonic()
            assert gw.drain(timeout_s=5.0) is True
            assert time.monotonic() - t0 < 5.0
            assert server.telemetry.counter("gateway.drains").value == 1
            assert server.telemetry.counter("gateway.drained").value == 1
        finally:
            gw.stop()

    def test_drain_checkpoints_and_successor_finishes_the_query(self, tmp_path):
        """The tentpole scenario: drain mid-query, client resumes against
        a successor gateway sharing the JSONL store, result is bit-exact,
        and no completed round was re-garbled."""
        server = fresh_server()
        store = JsonlSessionStore(tmp_path / "sessions.jsonl", ttl_s=60.0)
        gw1 = make_gateway(server, store=store)
        gw2 = make_gateway(server, store=store)
        target = [gw1]
        client = client_for(target, telemetry=server.telemetry)
        garbled0 = server.stats.runs_garbled
        result = {}
        # the stream free-runs past the client: hold gw1's streams at
        # their first round boundary until the drain is under way, so
        # it lands mid-query
        at_boundary = threading.Event()
        round_hook = gw1._round_hook

        def held_hook(sid):
            on_round = round_hook(sid)

            def held(next_round):
                if next_round == 1:
                    at_boundary.set()
                    while not gw1.draining:
                        time.sleep(0.001)
                on_round(next_round)

            return held

        gw1._round_hook = held_hook

        def query():
            result["got"] = client.query_row(1, X)

        t = threading.Thread(target=query)
        t.start()
        try:
            if not at_boundary.wait(timeout=15.0):
                pytest.fail("the stream never reached a round boundary")
            target[0] = gw2  # reconnects land on the successor
            clean = gw1.drain(timeout_s=10.0)
            t.join(timeout=30.0)
            assert not t.is_alive(), "query never finished after the drain"
            assert clean is True
            assert result["got"] == pytest.approx(
                float(MODEL[1] @ X), abs=1e-12
            )
            # exactly one garbling for the whole drained-and-resumed query
            assert server.stats.runs_garbled == garbled0 + 1
            assert (
                server.telemetry.counter("gateway.resumes.restart").value == 1
            )
            assert (
                server.telemetry.counter("gateway.sessions.drained").value >= 1
            )
            # the resumed query completed but the checkpoint is retained
            # until the client confirms (BYE) — a post-completion crash
            # could still need the tail re-served
            assert store.get(client.session_id) is not None
            sid = client.session_id
            client.close()  # idempotent; the finally-close is still safe
            deadline = time.monotonic() + 5.0
            while store.get(sid) is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert store.get(sid) is None, "BYE never deleted the checkpoint"
        finally:
            client.close()
            gw2.stop()
            gw1.stop()

    def test_sigterm_triggers_the_drain_path(self):
        server = fresh_server()
        gw = make_gateway(server)
        saved = signal.getsignal(signal.SIGTERM)
        try:
            gw.start()  # bind a real listener so drain has one to close
            gw.install_signal_handlers()
            signal.raise_signal(signal.SIGTERM)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if server.telemetry.counter("gateway.drained").value >= 1:
                    break
                time.sleep(0.01)
            assert server.telemetry.counter("gateway.drains").value == 1
            assert server.telemetry.counter("gateway.drained").value == 1
            assert gw.draining
        finally:
            signal.signal(signal.SIGTERM, saved)
            gw.stop()

    def test_drain_keeps_an_unread_answer_open_for_its_bye(self):
        """An answer streamed in full while its client is still reading
        it: the drain returns without waiting for that session but
        leaves it open, so the client reads the answer and its BYE
        still deletes the checkpoint."""
        server = fresh_server()
        gw = make_gateway(server)

        def dial():
            ours, theirs = socket.socketpair()
            # room for the whole answer, so it streams while unread
            theirs.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
            gw.adopt(theirs)
            return SocketEndpoint("client", ours, recv_timeout_s=RECV_TIMEOUT)

        client = RemoteAnalyticsClient(
            dial=dial, backoff=BackoffPolicy(base_s=0.01, cap_s=0.1, seed=3)
        )
        sid = client.session_id
        ep = client.endpoint
        gate = FrameGate(ep, ep.recv_seq + 2)  # past net.ack, seq.rounds
        result = {}
        t = threading.Thread(
            target=lambda: result.update(got=client.query_row(1, X))
        )
        t.start()
        try:
            deadline = time.monotonic() + 15.0
            assert gate.wait(t, deadline)
            # past round 0's OT flight; then the gateway streams the
            # rest and releases the lease once every frame is sent
            assert gate.hold(round_end(gw.store, sid, 1, deadline), t, deadline)
            while gw.store.get(sid) is None or gw.store.lease_holder(sid):
                assert time.monotonic() < deadline, "the stream never finished"
                time.sleep(0.005)
            t0 = time.monotonic()
            assert gw.drain(timeout_s=5.0) is True
            assert time.monotonic() - t0 < 5.0
        finally:
            gate.release()
        t.join(timeout=15.0)
        assert not t.is_alive(), "the answer was never read"
        assert result["got"] == pytest.approx(float(MODEL[1] @ X), abs=1e-12)
        assert gw.store.get(sid) is not None
        client.close()
        deadline = time.monotonic() + 5.0
        while gw.store.get(sid) is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gw.store.get(sid) is None, "the BYE never reached the gateway"
        gw.stop()

    def test_drain_meets_its_deadline_against_an_idle_session(self):
        """An idle (handshaken, between-queries) session must not hold
        the drain for the full timeout."""
        server = fresh_server()
        gw = make_gateway(server)
        target = [gw]
        client = client_for(target)
        client.query_row(0, X)  # session now idle in its query loop
        t0 = time.monotonic()
        assert gw.drain(timeout_s=5.0) is True
        assert time.monotonic() - t0 < 5.0
        client.endpoint.disable_resume()
        client.close()
        gw.stop()
