"""The process chaos tier: seeded SIGKILL/SIGTERM/TCP-cut faults
against a fleet of real gateway subprocesses sharing one store file.

The cross-process conformance contract: any single process fault
mid-stream ends with the bit-identical MAC result, zero re-garbled
rounds (proved by the per-process counters over the results pipes),
and a balanced lease ledger in the shared file after recovery — never
a hang, never a silent wrong answer, never a double garble.
"""

import json

import pytest

from repro.errors import ConfigurationError
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
            # the trigger is a committed round, strictly mid-stream
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
        """A trigger at the final round would race the victim's own
        completion (result sent, BYE not yet written) instead of firing
        mid-stream — the plan stream must cap at rounds - 1."""
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
