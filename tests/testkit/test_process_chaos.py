"""The process chaos tier: seeded SIGKILL/SIGTERM/TCP-cut faults
against a fleet of real gateway subprocesses sharing one store file.

The cross-process conformance contract: any single process fault
mid-stream ends with the bit-identical MAC result, zero re-garbled
rounds (proved by the per-process counters over the results pipes),
and a balanced lease ledger in the shared file after recovery — never
a hang, never a silent wrong answer, never a double garble.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import ProcessFleet
from repro.net import RemoteAnalyticsClient
from repro.recover import BackoffPolicy
from repro.serve import ServingConfig
from repro.testkit import (
    DISCONNECT_PROCESS,
    KILL_PROCESS,
    PROCESS_FAULT_KINDS,
    RECOVERED,
    TERM_PROCESS,
    TOLERATED,
    ChaosConfig,
    ChaosRunner,
    FaultPlan,
)
from repro.testkit.oracle import FrameGate, round_end


class TestProcessPlans:
    def test_generator_is_deterministic(self):
        a = FaultPlan.random_processes(1234, n_members=3)
        b = FaultPlan.random_processes(1234, n_members=3)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_plans_stay_inside_the_fleet_and_commit_range(self):
        for seed in range(60):
            plan = FaultPlan.random_processes(
                seed, n_members=3, max_commit_round=5
            )
            assert plan.is_process
            (spec,) = plan.faults
            assert spec.kind in PROCESS_FAULT_KINDS
            assert 0 <= spec.gateway < 3
            # the trigger is a round, strictly mid-stream
            assert 1 <= spec.frame <= 5

    def test_kills_outnumber_the_cooperative_kinds(self):
        kinds = [
            FaultPlan.random_processes(s, n_members=3).faults[0].kind
            for s in range(120)
        ]
        assert kinds.count(KILL_PROCESS) > kinds.count(TERM_PROCESS) > 0
        assert kinds.count(DISCONNECT_PROCESS) > 0

    def test_single_member_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            FaultPlan.random_processes(1, n_members=1)

    def test_plan_dict_roundtrip_keeps_the_member(self):
        plan = FaultPlan.random_processes(99, n_members=3)
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan
        assert rebuilt.faults[0].gateway == plan.faults[0].gateway


class TestProcessConfig:
    def test_profile_requires_two_gateways(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            ChaosConfig(profile="processes", gateways=1).validate()

    def test_commit_triggers_stay_below_the_round_count(self):
        """A trigger at the final round would hit the query after its
        last round instead of mid-stream — the plan stream must cap at
        rounds - 1."""
        runner = ChaosRunner(
            ChaosConfig(profile="processes", sessions=40, seed=7, rounds=6)
        )
        for s in range(40):
            (spec,) = runner.plan_for(s).faults
            assert 1 <= spec.frame <= 5


class TestProcessTier:
    """The live tier: a 2-member subprocess fleet under seeded faults."""

    @pytest.fixture(scope="class")
    def report(self):
        config = ChaosConfig(
            profile="processes",
            sessions=4,
            seed=7,
            gateways=2,
            rounds=6,
            pool_size=0,
            deadline_s=30.0,
        )
        return ChaosRunner(config).run()

    def test_no_session_violates_the_cross_process_contract(self, report):
        assert report.ok, report.format()
        for v in report.verdicts:
            assert v.verdict in (TOLERATED, RECOVERED), report.format()

    def test_fired_faults_recover_through_the_shared_store(self, report):
        recovered = [v for v in report.verdicts if v.verdict == RECOVERED]
        assert recovered, "no process fault fired in the whole tier"
        for v in recovered:
            assert "bit-identical" in v.detail
            assert "ledger balanced" in v.detail

    def test_real_kills_happened(self, report):
        """Seed 7's first sessions include SIGKILLs — the tier must have
        exercised the crash surface, not just the graceful ones."""
        kinds = {
            FaultPlan.from_dict(v.plan).faults[0].kind
            for v in report.verdicts
        }
        assert KILL_PROCESS in kinds

    def test_replay_log_reruns_green(self, report, tmp_path):
        """Process replay logs carry the member per fault and the round
        count, and re-execute to the same verdicts.  (The full signature
        is not compared: resume attempt counts across real processes are
        timing-dependent; the verdict and plan stream are not.)"""
        log = tmp_path / "processes.jsonl"
        report.write_log(log)
        records = [json.loads(l) for l in open(log)]
        header = records[0]
        assert header["profile"] == "processes"
        assert header["rounds"] == 6
        body = records[1:]
        assert all("gateway" in r["plan"]["faults"][0] for r in body)
        replayed = ChaosRunner.replay(log)
        assert replayed.ok, replayed.format()
        assert [v.verdict for v in replayed.verdicts] == [
            v.verdict for v in report.verdicts
        ]
        assert [
            FaultPlan.from_dict(v.plan).describe() for v in replayed.verdicts
        ] == [FaultPlan.from_dict(v.plan).describe() for v in report.verdicts]


#: Rounds per kill-point query; the stream is seq.rounds, a cold round 0
#: of 7 frames (ot.pool and ot.base.B included), 4 frames per later
#: round, then seq.output_map.
KILL_ROUNDS = 3
KILL_FRAMES = 1 + 7 + 4 * (KILL_ROUNDS - 1) + 1
X3 = np.array([0.5, -0.25, 1.0])


@pytest.fixture(scope="module")
def kill_fleet():
    config = ServingConfig(
        workers=1, queue_depth=4, refill=False, recv_timeout_s=20.0,
        drain_timeout_s=10.0, lease_ttl_s=0.2, resume_batch_window_s=0.01,
        retry_after_s=0.02,
    )
    with ProcessFleet(n_members=2, seed=7, rows=2, rounds=KILL_ROUNDS,
                      config=config) as fleet:
        yield fleet


def sigkill_before_frame(fleet, k: int) -> None:
    """SIGKILL the serving member with the client holding exactly the
    first ``k`` frames of its query's stream (its wire drops with the
    member), then require the process tier's bar: a resume on the peer,
    the bit-identical MAC, zero re-garbled rounds, a balanced ledger."""
    audit = fleet.open_store()
    before = fleet.runs_garbled_by_member()
    client = RemoteAnalyticsClient(
        dial=fleet.dialer(recv_timeout_s=20.0, start_at=0),
        backoff=BackoffPolicy(base_s=0.02, cap_s=0.2, max_attempts=12, seed=k),
    )
    try:
        sid = client.session_id
        ep = client.endpoint
        # the stream starts after net.ack
        gate = FrameGate(ep, ep.recv_seq + 1 + k)
        result = {}

        def query():
            try:
                result["got"] = client.query_row(1, X3)
            except BaseException as exc:
                result["err"] = exc

        t = threading.Thread(target=query)
        t.start()
        deadline = time.monotonic() + 30.0
        try:
            assert gate.wait(t, deadline), f"frame {k} never reached"
            # the put precedes the stream's first frame: the kill lands
            # after it, never in the admission window
            assert round_end(audit, sid, 0, deadline) == 0
            fleet.kill(0)
            ep.transport.close()
        finally:
            gate.release()
        t.join(timeout=30.0)
        assert not t.is_alive(), f"frame {k}: query hung after the kill"
        if "err" in result:
            raise result["err"]
        assert result["got"] == fleet.expected(1, X3), k
        assert ep.resumes >= 1, k
        deltas = [a - b for a, b in zip(fleet.runs_garbled_by_member(), before)]
        assert deltas[1] == 0, f"frame {k}: the survivor re-garbled {deltas}"
        client.close()
        deadline = time.monotonic() + 5.0
        while audit.get(sid) is not None or audit.lease_holder(sid) is not None:
            assert time.monotonic() < deadline, f"frame {k}: ledger unbalanced"
            time.sleep(0.02)
    finally:
        client.close()
        audit.close()
        if not fleet.alive(0):
            fleet.respawn(0)


class TestProcessKillPoints:
    """SIGKILL at pinned frames of a real subprocess's stream."""

    @pytest.mark.parametrize(
        "k",
        [2, 1 + 7 + 4, KILL_FRAMES - 1],
        ids=["inside-round-0", "round-boundary", "after-last-round"],
    )
    def test_kill_point_resumes_bit_exact(self, kill_fleet, k):
        sigkill_before_frame(kill_fleet, k)

    @pytest.mark.slow
    def test_every_frame_kill_resumes_bit_exact(self, kill_fleet):
        for k in range(KILL_FRAMES):
            sigkill_before_frame(kill_fleet, k)
