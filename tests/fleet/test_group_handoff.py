"""GatewayGroup: lifecycle, kill/drain handoff, lease-fenced adoption.

The tentpole scenarios: a client mid-query when its gateway dies (or
drains) fails over to a peer, which adopts the session from the shared
store — lease steal, checkpoint rewind to the client's acked round,
batched restart stream — and the query finishes bit-identical with the
session garbled exactly once.
"""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fixedpoint import Q8_4
from repro.fleet import GatewayGroup
from repro.host import AnalyticsClient, CloudServer
from repro.net import RemoteAnalyticsClient
from repro.recover import BackoffPolicy
from repro.serve import ServingConfig
from repro.telemetry import MetricsRegistry

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


def make_group(server, n=3, lease_ttl_s=0.4):
    cfg = ServingConfig(
        workers=2,
        queue_depth=8,
        refill=False,
        recv_timeout_s=RECV_TIMEOUT,
        drain_timeout_s=10.0,
        lease_ttl_s=lease_ttl_s,
        resume_batch_window_s=0.01,
        retry_after_s=0.02,
    )
    return GatewayGroup(server, n_gateways=n, config=cfg)


def client_for(group, start_at=0):
    dialer = group.loopback_dialer(
        name="client", recv_timeout_s=RECV_TIMEOUT,
        telemetry=group.server.telemetry, start_at=start_at,
    )
    return RemoteAnalyticsClient(
        dial=dialer,
        telemetry=group.server.telemetry,
        backoff=BackoffPolicy(base_s=0.02, cap_s=0.1, max_attempts=12, seed=3),
    )


def run_handoff(group, fault, row=1):
    """Start a query, fire ``fault(sid)`` at the first committed
    round-boundary checkpoint, and return the client plus its result.

    The trigger hooks the store's two commit paths (admission ``put``,
    boundary ``cas_advance``) rather than polling: once the client's
    single OT flight lands the gateway streams every round without
    waiting, so a polling loop usually misses the mid-query window.
    """
    client = client_for(group)
    result = {}
    boundary = threading.Event()
    hit = {}
    orig_put, orig_cas = group.store.put, group.store.cas_advance

    def observe(cp):
        if not boundary.is_set() and 1 <= cp.next_round < cp.rounds:
            hit["sid"] = cp.session_id
            boundary.set()

    def hooked_put(cp):
        orig_put(cp)
        observe(cp)

    def hooked_cas(cp, *args, **kwargs):
        orig_cas(cp, *args, **kwargs)
        observe(cp)

    group.store.put, group.store.cas_advance = hooked_put, hooked_cas

    def query():
        try:
            result["got"] = client.query_row(row, X)
        except BaseException as exc:  # surfaced to the assertion below
            result["err"] = exc

    t = threading.Thread(target=query)
    t.start()
    try:
        if not boundary.wait(timeout=15.0):
            pytest.fail("no round-boundary checkpoint appeared")
        fault(hit["sid"], client)
    finally:
        group.store.put, group.store.cas_advance = orig_put, orig_cas
        t.join(timeout=60.0)
    assert not t.is_alive(), "query never finished after the fault"
    if "err" in result:
        raise result["err"]
    return client, result["got"]


class TestGroupLifecycle:
    def test_needs_at_least_one_member(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            GatewayGroup(fresh_server(), n_gateways=0)

    def test_members_share_the_store_and_get_distinct_ids(self):
        group = make_group(fresh_server())
        assert len(group) == 3
        ids = [gw.gateway_id for gw in group.gateways]
        assert ids == ["gw0", "gw1", "gw2"]
        assert all(gw.store is group.store for gw in group.gateways)

    def test_bind_start_exposes_addresses_and_stop_is_idempotent(self):
        group = make_group(fresh_server(), n=2)
        group.start(bind=True)
        try:
            addrs = group.addresses
            assert len(addrs) == 2
            assert all(port > 0 for _, port in addrs)
        finally:
            group.stop()
            group.stop()  # killed/stopped members tolerate a second stop

    def test_killed_member_refuses_adoption_and_dialer_rotates(self):
        server = fresh_server()
        group = make_group(server).start()
        try:
            group.kill(0)
            client = client_for(group, start_at=0)
            try:
                # the dialer walked past the dead member transparently
                assert client.session_id
                assert client.query_row(0, X) == pytest.approx(
                    float(MODEL[0] @ X), abs=1e-12
                )
            finally:
                client.close()
            assert server.telemetry.counter("fleet.dialer.failures").value >= 1
        finally:
            group.stop()


class TestKillHandoff:
    def test_kill_mid_query_migrates_bit_exact(self):
        """A gateway crash mid-stream: the client fails over, a peer
        steals the expired lease, and the result is bit-identical to the
        uninterrupted reference with zero re-garbled rounds."""
        server = fresh_server()
        # uninterrupted reference, garbled independently
        reference = AnalyticsClient(server).query_row(1, X)
        garbled0 = server.stats.runs_garbled
        group = make_group(server).start()
        try:
            def fault(sid, client):
                transport = client.endpoint.transport
                group.kill(0)
                # the socketpair still holds buffered frames the dead
                # gateway wrote; drop them so the break is observable
                transport.close()

            client, got = run_handoff(group, fault)
            try:
                assert got == reference  # bit-for-bit, not approx
                # the migrated session was garbled exactly once
                assert server.stats.runs_garbled == garbled0 + 1
                tm = server.telemetry
                assert tm.counter("gateway.resumes.restart").value == 1
                assert tm.counter("recover.lease.steals").value == 1
                # the answering gateway provably was not the dead one
                assert client.endpoint.last_gateway_id in ("gw1", "gw2")
            finally:
                client.close()
        finally:
            group.stop()

    def test_hard_kill_abandons_sockets_and_still_migrates(self):
        """Satellite: the hard-kill path skips every cooperative
        teardown hook (no channel.kill, no joins, no serving stop) yet
        the client still fails over through the store and finishes
        bit-identical — the thread fleet's closest stand-in for the
        process tier's SIGKILL."""
        server = fresh_server()
        reference = AnalyticsClient(server).query_row(1, X)
        garbled0 = server.stats.runs_garbled
        group = make_group(server).start()
        try:
            def fault(sid, client):
                transport = client.endpoint.transport
                group.kill(0, hard=True)
                transport.close()

            client, got = run_handoff(group, fault)
            try:
                assert got == reference
                assert server.stats.runs_garbled == garbled0 + 1
                tm = server.telemetry
                assert tm.counter("gateway.hard_kills").value == 1
                assert tm.counter("gateway.resumes.restart").value == 1
                assert tm.counter("recover.lease.steals").value == 1
                assert client.endpoint.last_gateway_id in ("gw1", "gw2")
            finally:
                client.close()
        finally:
            group.stop()

    def test_crash_between_commit_and_last_frame_rewinds_bit_exact(self):
        """The victim's ``on_commit`` hook raises right after round k's
        store commit, before that round's last frame: the store says k
        while the client holds k - 1 rounds.  A successor resumes from
        the store, rewinds to the client's round and finishes bit-exact
        with zero re-garbled rounds."""
        k = 3
        server = fresh_server()
        reference = AnalyticsClient(server).query_row(1, X)
        garbled0 = server.stats.runs_garbled
        group = make_group(server).start()
        committed, crashed = threading.Event(), threading.Event()
        victim = group.gateways[0]
        boundaries = victim._commit_boundaries

        def crashing_boundaries(sid, state):
            on_commit, on_round = boundaries(sid, state)

            def commit_then_crash(next_round):
                on_commit(next_round)  # the store CAS
                if next_round == k:
                    committed.set()
                    crashed.wait(timeout=15.0)
                    raise RuntimeError("gateway died between commit and last frame")

            return commit_then_crash, on_round

        victim._commit_boundaries = crashing_boundaries
        client = client_for(group)
        result = {}

        def query():
            try:
                result["got"] = client.query_row(1, X)
            except BaseException as exc:  # surfaced to the assertion below
                result["err"] = exc

        t = threading.Thread(target=query)
        t.start()
        try:
            assert committed.wait(timeout=15.0), "round k was never committed"
            assert group.store.committed_round(client.session_id) == k
            transport = client.endpoint.transport
            group.kill(0, hard=True)
            transport.close()
            crashed.set()
            t.join(timeout=60.0)
            assert not t.is_alive(), "query never finished after the crash"
            if "err" in result:
                raise result["err"]
            assert result["got"] == reference  # bit-for-bit, not approx
            assert server.stats.runs_garbled == garbled0 + 1
            tm = server.telemetry
            assert tm.counter("gateway.resumes.restart").value == 1
            assert tm.counter("gateway.resumes.rewound").value == 1
            assert client.endpoint.last_gateway_id in ("gw1", "gw2")
        finally:
            crashed.set()
            client.close()
            group.stop()

    def test_live_lease_sheds_then_expiry_steals(self):
        """Satellite (gateway layer): while the dead owner's lease is
        still live a peer's adoption is denied — a typed shed, served
        rounds untouched — and only after expiry does exactly one peer
        steal and finish.  The loser's serve is a no-op."""
        server = fresh_server()
        group = make_group(server, lease_ttl_s=0.6).start()
        try:
            committed_at_kill = {}

            def fault(sid, client):
                transport = client.endpoint.transport
                group.kill(0)
                transport.close()
                committed_at_kill["round"] = group.store.committed_round(sid)

            client, got = run_handoff(group, fault)
            try:
                assert got == pytest.approx(float(MODEL[1] @ X), abs=1e-12)
                tm = server.telemetry
                # at least one adoption bounced off the live lease...
                assert tm.counter("recover.lease.denied").value >= 1
                # ...and the denial did not advance the session
                assert committed_at_kill["round"] is not None
                # exactly one steal won the session
                assert tm.counter("recover.lease.steals").value == 1
                assert tm.counter("gateway.resumes.restart").value == 1
                assert server.stats.runs_garbled == 1
            finally:
                client.close()
        finally:
            group.stop()


class TestDrainHandoff:
    def test_drain_hands_off_without_a_steal(self):
        """A graceful drain releases the session's lease, so the
        successor adopts epoch-clean — no steal, no re-garble."""
        server = fresh_server()
        group = make_group(server).start()
        try:
            def fault(sid, client):
                assert group.drain(0, timeout_s=10.0) is True

            client, got = run_handoff(group, fault)
            try:
                assert got == pytest.approx(float(MODEL[1] @ X), abs=1e-12)
                tm = server.telemetry
                assert tm.counter("recover.lease.steals").value == 0
                assert tm.counter("gateway.resumes.restart").value == 1
                assert tm.counter("gateway.sessions.drained").value >= 1
                assert server.stats.runs_garbled == 1
            finally:
                client.close()
        finally:
            group.stop()
