"""ProcessFleet: real gateway subprocesses sharing one store file.

The thread-fleet handoff suite proves the lease/checkpoint design;
these tests prove the same invariants survive real process boundaries:
TCP transports, SIGKILL (counters lost, leases leaked, maybe a torn
append), SIGTERM (drain + compact + clean exit), heartbeat-based silent
death detection, and cumulative garble accounting across respawns.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import ProcessFleet
from repro.fleet.procs import derive_model
from repro.net import RemoteAnalyticsClient
from repro.recover import BackoffPolicy
from repro.serve import ServingConfig
from repro.testkit.oracle import FrameGate, round_end

RECV_TIMEOUT = 20.0
X6 = np.array([0.5, -0.25, 1.0, 0.75, 0.125, -0.5])


def fleet_config(lease_ttl_s=0.3):
    return ServingConfig(
        workers=1,
        queue_depth=4,
        refill=False,
        recv_timeout_s=RECV_TIMEOUT,
        drain_timeout_s=10.0,
        lease_ttl_s=lease_ttl_s,
        resume_batch_window_s=0.01,
        retry_after_s=0.02,
    )


def make_fleet(n=2, seed=7, rounds=6, **kwargs):
    return ProcessFleet(
        n_members=n, seed=seed, rows=2, rounds=rounds,
        config=fleet_config(), **kwargs,
    )


def make_client(fleet, start_at=0, seed=3):
    return RemoteAnalyticsClient(
        dial=fleet.dialer(recv_timeout_s=RECV_TIMEOUT, start_at=start_at),
        backoff=BackoffPolicy(base_s=0.02, cap_s=0.2, max_attempts=12,
                              seed=seed),
    )


def run_query_with_fault(fleet, client, fire, row=1, x=X6, at_round=1,
                         deadline_s=30.0):
    """Run ``query_row`` on a thread; call ``fire()`` once the client
    holds every round below ``at_round``.  The client's reads are held
    at that frame count — read from the session's checkpoint in the
    shared store, which lands before the stream's first frame — while
    the fault fires, so it hits the same point of the stream however
    far the member streamed ahead.  Returns (result, fired)."""
    result = {}
    sid = client.session_id
    audit = fleet.open_store()
    # held after net.ack and seq.rounds: the checkpoint is stored
    gate = FrameGate(client.endpoint, client.endpoint.recv_seq + 2)

    def query():
        try:
            result["got"] = client.query_row(row, x)
        except BaseException as exc:
            result["err"] = exc

    t = threading.Thread(target=query)
    t.start()
    fired = False
    deadline = time.monotonic() + deadline_s
    try:
        if gate.wait(t, deadline):
            end = round_end(audit, sid, at_round, deadline)
            if end is not None and gate.hold(end, t, deadline):
                fire()
                fired = True
    finally:
        gate.release()
        audit.close()
    t.join(timeout=deadline_s)
    assert not t.is_alive(), "query never finished after the fault"
    if "err" in result:
        raise result["err"]
    return result["got"], fired


def listening(port):
    """Whether a socket listens on local TCP ``port`` (read from
    ``/proc/net/tcp``, so the check opens no connection)."""
    with open("/proc/net/tcp", encoding="ascii") as fh:
        next(fh)
        return any(
            fields[1].endswith(f":{port:04X}") and fields[3] == "0A"
            for fields in (line.split() for line in fh)
        )


def sigterm_and_await_drain(fleet, index, deadline_s=30.0):
    """SIGTERM member ``index`` and return once its drain is under way:
    the drain marks the gateway draining, then closes its listener."""
    port = fleet.members[index].port
    assert listening(port)
    os.kill(fleet.pid(index), signal.SIGTERM)
    deadline = time.monotonic() + deadline_s
    while listening(port):
        if time.monotonic() > deadline:
            pytest.fail(f"member m{index} never began to drain")
        time.sleep(0.005)


class TestFleetLifecycle:
    def test_needs_at_least_one_member(self):
        with pytest.raises(ConfigurationError, match="at least one member"):
            ProcessFleet(n_members=0)

    def test_model_is_shared_and_deterministic(self):
        fleet = ProcessFleet(n_members=1, seed=11, rows=3, rounds=4)
        assert np.array_equal(fleet.model, derive_model(11, 3, 4))
        # snapped to the Q8.4 grid so results compare bit-exact
        assert np.array_equal(fleet.model, np.round(fleet.model * 16) / 16)

    def test_serves_queries_over_tcp_and_reports_counters(self):
        with make_fleet(n=2, rounds=3) as fleet:
            assert all(port > 0 for _, port in fleet.addresses)
            x = X6[:3]
            client = make_client(fleet, start_at=0)
            try:
                got = client.query_row(1, x)
                assert got == fleet.expected(1, x)  # bit-exact
            finally:
                client.close()
            # the worker shipped its garble counter over the results pipe
            deadline = time.monotonic() + 5.0
            while fleet.total_runs_garbled() < 1:
                assert time.monotonic() < deadline, "stats never arrived"
                time.sleep(0.01)
            assert fleet.runs_garbled_by_member() == [1, 0]
            # both members heartbeat, nobody looks silently dead
            assert fleet.detect_silent_deaths(max_age_s=5.0) == []

    def test_sigterm_stop_exits_clean_and_removes_tmpdir(self):
        fleet = make_fleet(n=2, rounds=3).start()
        tmpdir = fleet.dir
        fleet.stop()
        import os
        assert not os.path.exists(tmpdir)
        assert all(m.process.exitcode == 0 for m in fleet.members)


class TestProcessFaults:
    def test_sigkill_mid_query_fails_over_bit_exact(self):
        """The tentpole invariant at the process tier: SIGKILL of the
        serving member mid-stream, the client fails over over TCP, a
        peer steals the leaked lease and adopts from the shared file —
        bit-identical result, zero re-garbled rounds (proved by the
        per-process counters), and the store file afterwards is clean
        of torn tails."""
        with make_fleet(n=2, rounds=6) as fleet:
            client = make_client(fleet, start_at=0)
            try:
                def kill():
                    fleet.kill(0)
                    # frames the victim streamed past round 1 die with it
                    client.endpoint.transport.close()

                got, fired = run_query_with_fault(fleet, client, fire=kill)
                assert fired, "query finished before the kill window"
                assert got == fleet.expected(1, X6)
                assert not fleet.alive(0)
            finally:
                client.close()
            # zero re-garbles: the victim garbled once (reported before
            # it died), the adopter streamed from the checkpoint only
            assert fleet.total_runs_garbled() == 1
            assert fleet.member_runs_garbled(1) == 0
            # session completed + BYE: the ledger balances (bounded wait
            # — the BYE tombstone is written by the adopter's thread)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                audit = fleet.open_store()
                if (audit.get(client.session_id) is None
                        and audit.lease_holder(client.session_id) is None):
                    break
                time.sleep(0.05)
            audit = fleet.open_store()
            assert audit.torn_tail_recovered == 0
            assert audit.get(client.session_id) is None
            assert audit.lease_holder(client.session_id) is None

    def test_sigterm_drains_and_peer_resumes_without_steal(self):
        """SIGTERM is the graceful surface: the member stops its
        in-flight stream at the next round boundary, tells the client
        (``net.drain``), releases the lease, compacts, and exits 0; the
        client resumes on the peer with no steal needed.

        The member streams a whole query past the client's one OT
        flight, so the client is held inside round 0 — the member waits
        on its base-OT reply — until the member has begun draining
        (its listener is closed)."""
        with make_fleet(n=2, rounds=6) as fleet:
            client = make_client(fleet, start_at=0)
            ep = client.endpoint
            # net.ack, seq.rounds, seq.tables, seq.garbler_labels and
            # ot.pool: the client has sent ot.setup and waits on the
            # member's ot.base.B
            gate = FrameGate(ep, ep.recv_seq + 5)
            result = {}

            def query():
                try:
                    result["got"] = client.query_row(1, X6)
                except BaseException as exc:
                    result["err"] = exc

            t = threading.Thread(target=query)
            t.start()
            try:
                assert gate.wait(t, time.monotonic() + 30.0), (
                    "the stream never started"
                )
                sigterm_and_await_drain(fleet, 0)
                gate.release()
                t.join(timeout=30.0)
                assert not t.is_alive(), "query never finished after the drain"
                if "err" in result:
                    raise result["err"]
                assert result["got"] == fleet.expected(1, X6)
                assert ep.resumes == 1
                assert ep.last_gateway_id == fleet.members[1].member_id
            finally:
                gate.release()
                client.close()
            assert fleet.await_exit(0, timeout_s=20.0) is True
            assert fleet.members[0].process.exitcode == 0
            assert fleet.total_runs_garbled() == 1

    def test_sigterm_after_the_answer_streamed_hears_the_bye(self):
        """A SIGTERM that finds the answer streamed in full but not yet
        read: the drained member keeps the session open, the client
        reads its answer, and its BYE still deletes the checkpoint —
        the ledger balances and the member exits 0."""
        with make_fleet(n=2, rounds=6) as fleet:
            client = make_client(fleet, start_at=0)
            sid = client.session_id
            audit = fleet.open_store()

            def sigterm_once_streamed():
                # the member releases the lease once every frame is sent
                deadline = time.monotonic() + 30.0
                while audit.get(sid) is None or audit.lease_holder(sid):
                    assert time.monotonic() < deadline, "never streamed"
                    time.sleep(0.005)
                sigterm_and_await_drain(fleet, 0)

            try:
                got, fired = run_query_with_fault(
                    fleet, client, fire=sigterm_once_streamed,
                )
                assert fired, "query finished before the drain window"
                assert got == fleet.expected(1, X6)
                assert client.endpoint.resumes == 0
            finally:
                client.close()
            deadline = time.monotonic() + 5.0
            while audit.get(sid) is not None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert audit.get(sid) is None, "the BYE never deleted the checkpoint"
            assert audit.lease_holder(sid) is None
            audit.close()
            assert fleet.await_exit(0, timeout_s=20.0) is True
            assert fleet.total_runs_garbled() == 1

    def test_heartbeat_detects_a_dead_member(self):
        with make_fleet(n=2, rounds=3,
                        heartbeat_interval_s=0.02) as fleet:
            assert fleet.detect_silent_deaths(max_age_s=5.0) == []
            fleet.kill(0)
            # the frozen heartbeat file goes stale; detection does not
            # consult the pid table
            time.sleep(0.3)
            assert fleet.detect_silent_deaths(max_age_s=0.2) == [0]

    def test_respawn_folds_counters_across_generations(self):
        with make_fleet(n=2, rounds=3) as fleet:
            x = X6[:3]
            c1 = make_client(fleet, start_at=0)
            try:
                assert c1.query_row(0, x) == fleet.expected(0, x)
            finally:
                c1.close()
            deadline = time.monotonic() + 5.0
            while fleet.member_runs_garbled(0) < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            fleet.kill(0)
            fleet.respawn(0)
            assert fleet.alive(0)
            c2 = make_client(fleet, start_at=0)
            try:
                assert c2.query_row(1, x) == fleet.expected(1, x)
            finally:
                c2.close()
            deadline = time.monotonic() + 5.0
            while fleet.member_runs_garbled(0) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # generation 1's garble survived the respawn in the base
            assert fleet.member_runs_garbled(0) == 2

    def test_respawn_requires_a_dead_member(self):
        with make_fleet(n=1, rounds=3) as fleet:
            with pytest.raises(ConfigurationError, match="still alive"):
                fleet.respawn(0)


class TestPlacement:
    def test_client_pins_to_the_placed_owner(self):
        """After the handshake the dialer cursor sits on the session's
        rendezvous owner, so reconnects dial the owner first."""
        with make_fleet(n=3, rounds=3) as fleet:
            dialer = fleet.dialer(recv_timeout_s=RECV_TIMEOUT, start_at=1)
            client = RemoteAnalyticsClient(
                dial=dialer,
                backoff=BackoffPolicy(base_s=0.02, cap_s=0.2,
                                      max_attempts=12, seed=5),
            )
            try:
                assert client.session_id
                assert dialer.cursor == fleet.place(client.session_id)
            finally:
                client.close()

    def test_live_only_placement_moves_only_dead_members_keys(self):
        with make_fleet(n=3, rounds=3) as fleet:
            keys = [f"session-{i}" for i in range(60)]
            before = {k: fleet.place(k) for k in keys}
            fleet.kill(1)
            for k in keys:
                after = fleet.place(k, live_only=True)
                if before[k] != 1:
                    assert after == before[k], k
                else:
                    assert after in (0, 2), k
