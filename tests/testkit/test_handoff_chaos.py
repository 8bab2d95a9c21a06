"""The handoff chaos tier: seeded gateway kills/drains under the oracle.

The migration conformance contract: any single gateway kill or drain
mid-stream ends with the bit-identical MAC result served by a peer,
zero re-garbled rounds, and a verdict in {tolerated, recovered} —
never a hang, never a silent wrong answer, never a double garble.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.testkit import (
    DRAIN_GATEWAY,
    HANDOFF_FAULT_KINDS,
    KILL_GATEWAY,
    RECOVERED,
    TOLERATED,
    ChaosConfig,
    ChaosRunner,
    FaultPlan,
)


class TestHandoffPlans:
    def test_generator_is_deterministic(self):
        a = FaultPlan.random_handoff(1234, n_gateways=3)
        b = FaultPlan.random_handoff(1234, n_gateways=3)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_plans_stay_inside_the_fleet(self):
        for seed in range(60):
            plan = FaultPlan.random_handoff(seed, n_gateways=3)
            assert plan.is_handoff
            (spec,) = plan.faults
            assert spec.kind in HANDOFF_FAULT_KINDS
            assert 0 <= spec.gateway < 3
            assert spec.frame >= 1

    def test_kills_outnumber_drains(self):
        kinds = [
            FaultPlan.random_handoff(s, n_gateways=3).faults[0].kind
            for s in range(120)
        ]
        assert kinds.count(KILL_GATEWAY) > kinds.count(DRAIN_GATEWAY) > 0

    def test_single_gateway_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            FaultPlan.random_handoff(1, n_gateways=1)

    def test_plan_dict_roundtrip_keeps_the_gateway(self):
        plan = FaultPlan.random_handoff(99, n_gateways=3)
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan
        assert rebuilt.faults[0].gateway == plan.faults[0].gateway

    def test_old_logs_without_gateway_field_still_load(self):
        raw = {"kind": "disconnect", "side": "evaluator", "frame": 3}
        from repro.testkit import FaultSpec

        spec = FaultSpec.from_dict(raw)
        assert spec.gateway == 0


class TestHandoffConfig:
    def test_profile_requires_two_gateways(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            ChaosConfig(profile="handoff", gateways=1).validate()


class TestHandoffTier:
    """The live tier: a 3-gateway fleet under seeded kills and drains."""

    @pytest.fixture(scope="class")
    def report(self):
        config = ChaosConfig(
            profile="handoff",
            sessions=5,
            seed=2026,
            gateways=3,
            pool_size=0,
            deadline_s=30.0,
        )
        return ChaosRunner(config).run()

    def test_no_session_violates_the_migration_contract(self, report):
        assert report.ok, report.format()
        for v in report.verdicts:
            assert v.verdict in (TOLERATED, RECOVERED), report.format()

    def test_fired_faults_recover_and_carry_the_gateway_id(self, report):
        recovered = [v for v in report.verdicts if v.verdict == RECOVERED]
        assert recovered, "no handoff fault fired in the whole tier"
        for v in recovered:
            assert "bit-identical" in v.detail

    def test_replay_log_roundtrip_is_deterministic(self, report, tmp_path):
        """Satellite: handoff replay logs carry the fleet shape (gateway
        per fault, gateways in the header) and replay to the same
        verdict signature."""
        log = tmp_path / "handoff.jsonl"
        report.write_log(log)
        records = [json.loads(l) for l in open(log)]
        header = records[0]
        assert header["record"] == "chaos_header"
        assert header["profile"] == "handoff"
        assert header["gateways"] == 3
        body = records[1:]
        assert all("gateway" in r["plan"]["faults"][0] for r in body)
        assert all("gateway_id" in r for r in body)
        replayed = ChaosRunner.replay(log)
        assert replayed.config.gateways == 3
        assert replayed.signature() == report.signature(), (
            "handoff replay diverged from the original run"
        )
