"""GatewayGroup: lifecycle, kill/drain handoff, lease-fenced adoption.

The tentpole scenarios: a client mid-query when its gateway dies (or
drains) fails over to a peer, which adopts the session from the shared
store — lease steal, checkpoint rewind to the client's acked round,
batched restart stream — and the query finishes bit-identical with the
session garbled exactly once.
"""

import threading
import time

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


def run_query(client, row=1):
    """Start ``client.query_row`` on a thread; returns (thread, result)."""
    result = {}

    def query():
        try:
            result["got"] = client.query_row(row, X)
        except BaseException as exc:  # surfaced to the caller's assertion
            result["err"] = exc

    t = threading.Thread(target=query)
    t.start()
    return t, result


def finish(t, result):
    t.join(timeout=60.0)
    assert not t.is_alive(), "query never finished after the fault"
    if "err" in result:
        raise result["err"]
    return result["got"]


def run_handoff(group, fault, row=1):
    """Start a query, fire ``fault(sid, client)`` once the client holds
    round 1, and return the client plus its result.

    The client's reads are held at that frame count (read from the
    session's stored frame map) while the fault fires: past the
    client's single OT flight the gateway streams every round without
    waiting, so a polling trigger usually misses the mid-query window.
    """
    client = client_for(group)
    sid = client.session_id
    # held after net.ack and seq.rounds: the checkpoint is stored
    gate = FrameGate(client.endpoint, client.endpoint.recv_seq + 2)
    t, result = run_query(client, row)
    deadline = time.monotonic() + 15.0
    try:
        assert gate.wait(t, deadline), "the stream never started"
        end = round_end(group.store, sid, 1, deadline)
        assert end is not None and gate.hold(end, t, deadline), (
            "the client never reached round 1"
        )
        fault(sid, client)
    finally:
        gate.release()
    return client, finish(t, result)


class hold_on_next_connection:
    """Park the client's reads once it has verified ``at`` frames of a
    connection it opens after this call (a resumed stream's)."""

    def __init__(self, endpoint, at):
        self._first = endpoint.transport
        self._endpoint = endpoint
        self._raw = endpoint._recv_message
        self._at = at
        self._cond = threading.Condition()
        self._held = self._go = False
        endpoint._recv_message = self._recv_message

    def _recv_message(self, timeout):
        ep = self._endpoint
        with self._cond:
            while (ep.transport is not self._first and ep.recv_seq >= self._at
                   and not self._go):
                self._held = True
                self._cond.notify_all()
                self._cond.wait()
        return self._raw(timeout)

    def wait(self, worker, deadline):
        with self._cond:
            while not self._held:
                if not worker.is_alive() or time.monotonic() > deadline:
                    return False
                self._cond.wait(0.005)
        return True

    def release(self):
        with self._cond:
            self._go = True
            self._cond.notify_all()


def assert_ledger_balanced(store, sid):
    """After the client's BYE: checkpoint tombstoned, lease released."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if store.get(sid) is None and store.lease_holder(sid) is None:
            return
        time.sleep(0.01)
    pytest.fail(
        f"ledger unbalanced: checkpoint={store.get(sid) is not None}, "
        f"lease_holder={store.lease_holder(sid)!r}"
    )


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

    def test_he_query_whose_gateway_died_before_its_put_is_asked_again(self):
        """An HE gateway stores its checkpoint only once the client's
        ciphertext arrives.  Killed between ``net.ack`` and that put, it
        leaves a lease and no record: once the lease expires a peer
        adopts the session idle, and the client's query, asked again,
        reads exact there."""
        server = fresh_server()
        group = make_group(server, lease_ttl_s=0.1).start()
        dialer = group.loopback_dialer(
            name="client", recv_timeout_s=RECV_TIMEOUT, start_at=0,
        )
        client = RemoteAnalyticsClient(
            dial=dialer, backend="he", telemetry=server.telemetry,
            backoff=BackoffPolicy(base_s=0.02, cap_s=0.1, max_attempts=12, seed=3),
        )
        sent, killed = client._he_result, []

        def killed_before_the_put(query):
            if not killed:  # the first ask: gw0 has acked, not yet stored
                killed.append(client.endpoint.transport)
                group.kill(0)
                killed[0].close()
            return sent(query)

        client._he_result = killed_before_the_put
        try:
            got = client.query_row(1, X)
            assert got == pytest.approx(float(MODEL[1] @ X), abs=1e-12)
            assert server.telemetry.counter("gateway.resumes.idle").value == 1
            assert client.endpoint.last_gateway_id in ("gw1", "gw2")
        finally:
            client.close()
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

    def test_kill_before_every_frame_resumes_bit_exact(self):
        """The gateway dies with the client holding exactly the first k
        frames of the query's stream, for every k from seq.rounds to
        seq.output_map: the frame map stored with the query's one put
        tells the successor where to restart, and every kill resumes
        bit-identical — one garble, a resume, a balanced ledger."""
        server = fresh_server()
        reference = AnalyticsClient(server).query_row(1, X)
        # rounds 1..M-1 are 4 frames; cold round 0 is 7 (ot.pool and
        # ot.base.B); seq.rounds and seq.output_map add one each
        frames = 1 + 7 + 4 * (MODEL.shape[1] - 1) + 1
        for k in range(frames):
            garbled0 = server.stats.runs_garbled
            group = make_group(server, n=2, lease_ttl_s=0.1).start()
            client = client_for(group)
            try:
                sid = client.session_id
                ep = client.endpoint
                # the stream starts after net.ack
                gate = FrameGate(ep, ep.recv_seq + 1 + k)
                t, result = run_query(client)
                try:
                    assert gate.wait(t, time.monotonic() + 15.0), k
                    # the kill lands after the put (the stream's first
                    # frame follows it), never in the admission window
                    assert round_end(group.store, sid, 0, time.monotonic() + 15.0) == 0
                    transport = ep.transport
                    group.kill(0)
                    transport.close()
                finally:
                    gate.release()
                got = finish(t, result)
                assert got == reference, k  # bit-for-bit, not approx
                assert ep.resumes >= 1, k
                assert ep.last_gateway_id == "gw1", k
                assert server.stats.runs_garbled == garbled0 + 1, k
                client.close()
                assert_ledger_balanced(group.store, sid)
            finally:
                client.close()
                group.stop()

    @pytest.mark.parametrize("second", ["after-put", 1, 4, 5, 12, 28])
    def test_fault_while_a_peer_adopts_resumes_bit_exact(self, second):
        """A second fault while a peer adopts the session still ends
        bit-exact.  The adopter stores the rewound checkpoint before
        ``net.resume_ok`` and its new stream's frame map only at the
        client's first frame on the new connection, so the stored map
        reads whichever count the client retries with: the old
        stream's when the adopting connection is cut right after the
        put (``after-put``), the new stream's when the adopter dies
        with the client holding ``second`` frames of the new connection
        — after ``net.resume_ok`` (1), before its OT reply (4), after
        it (5), after round 3 (12), before the output map (28)."""
        server = fresh_server()
        reference = AnalyticsClient(server).query_row(1, X)
        garbled0 = server.stats.runs_garbled
        group = make_group(server, n=3, lease_ttl_s=0.1).start()
        client = client_for(group)
        try:
            sid = client.session_id
            ep = client.endpoint
            raw_put = group.store.put
            cut = []

            def put(cp, owner=None):
                raw_put(cp, owner)
                if second == "after-put" and owner != "gw0" and not cut:
                    # the adopter's first put, on its session thread
                    for gw in group.gateways:
                        for s in gw._sessions:
                            if s.thread is threading.current_thread():
                                cut.append(gw.gateway_id)
                                s.endpoint.close()

            group.store.put = put
            gate = FrameGate(ep, ep.recv_seq + 2)
            t, result = run_query(client)
            deadline = time.monotonic() + 15.0
            try:
                assert gate.wait(t, deadline)
                end = round_end(group.store, sid, 2, deadline)
                assert gate.hold(end, t, deadline)
                transport = ep.transport
                group.kill(0)
                transport.close()
                if second != "after-put":
                    held = hold_on_next_connection(ep, second)
            finally:
                gate.release()
            if second != "after-put":
                assert held.wait(t, deadline), "the adopted stream never started"
                adopter = ep.last_gateway_id
                transport = ep.transport
                group.kill(int(adopter[2:]))
                transport.close()
                held.release()
            got = finish(t, result)
            assert got == reference
            if second == "after-put":
                assert cut, "no peer adopted the session"
                assert ep.resumes >= 1
            else:
                assert ep.resumes >= 2
                assert ep.last_gateway_id not in ("gw0", adopter)
            assert server.stats.runs_garbled == garbled0 + 1
            client.close()
            assert_ledger_balanced(group.store, sid)
        finally:
            client.close()
            group.stop()

    def test_resume_tells_the_client_nothing_new(self):
        """PROTOCOL.md's safety argument, observed: across the dead
        stream and the resumed one, each (round, evaluator-input wire)
        gets exactly one label, and every re-sent ``seq.tables`` and
        ``seq.garbler_labels`` is byte-identical to the first send."""
        server = fresh_server()
        group = make_group(server, n=2, lease_ttl_s=0.1).start()
        client = client_for(group)
        ep = client.endpoint
        frames, labels = [], []
        raw_recv, raw_receive = ep.recv, client._ot.receive

        def recv(tag, timeout=None):
            payload = raw_recv(tag, timeout)
            frames.append((tag, payload))
            return payload

        def receive(channel, choices, upcoming=None):
            got = raw_receive(channel, choices, upcoming)
            tables = next(p for tag, p in reversed(frames) if tag == "seq.tables")
            labels.append((tables, got))
            return got

        ep.recv, client._ot.receive = recv, receive
        try:
            sid = client.session_id
            gate = FrameGate(ep, ep.recv_seq + 2)
            t, result = run_query(client)
            deadline = time.monotonic() + 15.0
            try:
                assert gate.wait(t, deadline)
                # inside round 2, past its ot.e: round 2 is re-sent whole
                end = round_end(group.store, sid, 2, deadline)
                assert gate.hold(end + 3, t, deadline)
                round_of = {m.tables: m.round_index
                            for m in group.store.get(sid).materials}
                transport = ep.transport
                group.kill(0)
                transport.close()
            finally:
                gate.release()
            assert finish(t, result) == pytest.approx(
                float(MODEL[1] @ X), abs=1e-12
            )
            assert ep.resumes >= 1
        finally:
            client.close()
            group.stop()
        by_round: dict = {}
        for tables, got in labels:
            by_round.setdefault(round_of[tables], []).append(got)
        assert sorted(by_round) == list(range(MODEL.shape[1]))
        assert len(by_round[2]) == 2, "round 2 was not re-sent"
        for r, sends in by_round.items():
            for wire in zip(*sends):
                assert len(set(wire)) == 1, f"round {r}: two labels for one wire"
        first: dict = {}
        for i, (tag, payload) in enumerate(frames):
            if tag != "seq.tables":
                continue
            r = round_of[payload]
            garbler = frames[i + 1]
            assert garbler[0] == "seq.garbler_labels"
            assert first.setdefault(r, (payload, garbler[1])) == (payload, garbler[1])

    def test_live_lease_sheds_then_expiry_steals(self):
        """Satellite (gateway layer): while the dead owner's lease is
        still live a peer's adoption is denied — a typed shed, served
        rounds untouched — and only after expiry does exactly one peer
        steal and finish.  The loser's serve is a no-op."""
        server = fresh_server()
        group = make_group(server, lease_ttl_s=0.6).start()
        try:
            stored_at_kill = {}

            def fault(sid, client):
                transport = client.endpoint.transport
                group.kill(0)
                transport.close()
                stored_at_kill["cp"] = group.store.get(sid)

            client, got = run_handoff(group, fault)
            try:
                assert got == pytest.approx(float(MODEL[1] @ X), abs=1e-12)
                tm = server.telemetry
                # at least one adoption bounced off the live lease...
                assert tm.counter("recover.lease.denied").value >= 1
                # ...while the dead owner's checkpoint waited in the store
                assert stored_at_kill["cp"] is not None
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
        # the stream free-runs past the client: gw0's streams wait at
        # round 1's boundary for the drain, so it lands mid-query
        gw0 = group.gateways[0]
        round_hook = gw0._round_hook

        def held_hook(sid):
            on_round = round_hook(sid)

            def held(next_round):
                if next_round == 1:
                    while not gw0.draining:
                        time.sleep(0.001)
                on_round(next_round)

            return held

        gw0._round_hook = held_hook
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

    def test_idle_session_drained_before_its_query_finishes_on_a_peer(self):
        """Welcome, drain, then query: the drain parks the idle session
        (one idle record), and a peer adopts it with no query in
        flight, so the client's query reads bit-exact there.  20 runs,
        every one."""
        expected = float(MODEL[1] @ X)
        for run in range(20):
            server = fresh_server()
            group = make_group(server).start()
            try:
                client = client_for(group)
                sid = client.session_id
                try:
                    assert group.drain(0, timeout_s=10.0) is True
                    assert group.store.get(sid).is_idle, f"run {run}"
                    got = client.query_row(1, X)
                    assert got == pytest.approx(expected, abs=1e-12), f"run {run}"
                    assert client.endpoint.resumes == 1
                    assert client.endpoint.last_gateway_id != "gw0"
                    tm = server.telemetry
                    assert tm.counter("gateway.resumes.idle").value == 1
                    assert server.stats.runs_garbled == 1
                    # the query on the peer deleted the idle record
                    assert group.store.get(sid) is not None
                    assert not group.store.get(sid).is_idle
                finally:
                    client.close()
            finally:
                group.stop()
