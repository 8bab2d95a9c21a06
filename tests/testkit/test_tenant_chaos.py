"""The tenant-isolation chaos tier: one tenant's pathology must stay
its own problem.

The ``tenants`` profile draws poison / stall / disconnect faults against
a victim tenant on a ring-scheduled, run-plan serving layer.  The
oracle then proves the multi-tenant contract: every bystander tenant's
query returns the bit-identical MAC result within the deadline, the
victim's own fate is typed, no worker dies, and the credit ledger still
balances.
"""

import json

import pytest

from repro.gc.vector_garble import VectorRun
from repro.testkit import (
    PROFILES,
    TENANT_FAULT_KINDS,
    TOLERATED,
    ChaosConfig,
    ChaosRunner,
    FaultPlan,
)


def _config(seed, sessions=6):
    return ChaosConfig(
        profile="tenants",
        sessions=sessions,
        seed=seed,
        pool_size=0,
        deadline_s=30.0,
    )


class TestTenantsProfile:
    def test_profile_is_registered(self):
        assert "tenants" in PROFILES

    def test_runner_uses_the_vectorized_path(self):
        """Cross-tenant batching runs on the run-plan garbler, the one
        path the isolation tier stresses."""
        runner = ChaosRunner(_config(seed=7))
        assert all(isinstance(run, VectorRun) for run in runner.server._pool)

    def test_every_plan_is_a_tenant_plan(self):
        runner = ChaosRunner(_config(seed=7, sessions=12))
        for s in range(12):
            plan = runner.plan_for(s)
            assert plan.is_tenant, (s, plan)
            assert all(f.kind in TENANT_FAULT_KINDS for f in plan.faults)

    def test_plans_are_seed_deterministic(self):
        a = ChaosRunner(_config(seed=11, sessions=8))
        b = ChaosRunner(_config(seed=11, sessions=8))
        assert [a.plan_for(s) for s in range(8)] == [
            b.plan_for(s) for s in range(8)
        ]

    def test_the_seed_covers_every_fault_kind(self):
        """Both CI seeds must actually exercise all three pathologies —
        a profile that only ever draws poison proves nothing about
        stalls or disconnects."""
        for seed in (7, 2026):
            runner = ChaosRunner(_config(seed=seed, sessions=12))
            kinds = {
                f.kind for s in range(12) for f in runner.plan_for(s).faults
            }
            assert kinds == set(TENANT_FAULT_KINDS), (seed, kinds)

    def test_tenant_plans_serialize_roundtrip(self):
        plan = ChaosRunner(_config(seed=7)).plan_for(0)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert "t" in plan.describe()


class TestTenantIsolationTier:
    """The live tier on the two pinned CI seeds."""

    @pytest.fixture(scope="class", params=[7, 2026], ids=["seed7", "seed2026"])
    def report(self, request):
        return ChaosRunner(_config(seed=request.param)).run()

    def test_zero_violations_on_the_pinned_seed(self, report):
        assert report.ok, report.format()
        for v in report.verdicts:
            assert v.verdict == TOLERATED, report.format()

    def test_bystanders_stayed_bit_identical(self, report):
        for v in report.verdicts:
            assert "bit-identical" in v.detail, v

    def test_log_header_records_the_profile(self, report, tmp_path):
        log = tmp_path / "tenants.jsonl"
        report.write_log(log)
        with open(log) as fh:
            header = json.loads(fh.readline())
        assert header["record"] == "chaos_header"
        assert header["profile"] == "tenants"

    def test_replay_is_deterministic(self, report, tmp_path):
        log = tmp_path / "tenants.jsonl"
        report.write_log(log)
        replayed = ChaosRunner.replay(log)
        assert replayed.ok, replayed.format()

        def stable(rep):
            return [v.signature() for v in rep.verdicts]

        assert stable(replayed) == stable(report), (
            "tenants replay diverged from the original run"
        )
