"""The ``slo`` chaos tier: faults against a mid-adaptation controller.

The oracle warms each recovery gateway's SLO controller to a
non-default operating point (two synthetic overload ticks shrink the
adoption batch), then fires the planned fault.  The tier's three
invariants ride on top of the standard recovery oracle:

* recovered MACs are bit-identical and re-garble zero new circuits;
* the adaptive ``retry_after`` hint round-trips through shed answers;
* the drained gateway's operating point is inherited *intact* by the
  successor (checkpointed under ``controller.operating_point`` in the
  shared session store) — losing it silently would reset the fleet to
  cold-start knobs exactly when it is busiest.

Plan generation gets its own determinism pins: ``random_slo`` is a
separate seeded stream so the older profiles' pinned seed → plan
mappings can never remap.
"""

import json

import pytest

from repro.testkit import (
    RECOVERED,
    SURFACED,
    TOLERATED,
    ChaosConfig,
    ChaosRunner,
    FaultPlan,
    contract_for,
    derive_session_seed,
)
from repro.testkit.faults import DISCONNECT, SHED, STALL


def _allowed(v):
    """A typed error passes only where the plan's fault kind allows one."""
    if contract_for(FaultPlan.from_dict(v.plan)) == RECOVERED:
        return (TOLERATED, RECOVERED)
    return (TOLERATED, RECOVERED, SURFACED)


def _config(seed, sessions=6):
    return ChaosConfig(
        profile="slo",
        sessions=sessions,
        seed=seed,
        pool_size=0,
        deadline_s=30.0,
    )


class TestSloProfileConfig:
    def test_profile_validates_on_a_single_gateway(self):
        """Unlike handoff/fleet tiers, slo recovery drains onto a
        successor over the shared store — one gateway is enough."""
        ChaosConfig(profile="slo", sessions=2, seed=7, gateways=1).validate()

    def test_profile_selects_the_slo_controller(self):
        assert ChaosRunner(_config(seed=7)).profile.controller == "slo"
        for profile, kw in (
            ("default", {}),
            ("recovery", {}),
            ("handoff", {"gateways": 2}),
        ):
            cfg = ChaosConfig(profile=profile, sessions=2, seed=7, **kw)
            assert ChaosRunner(cfg).profile.controller == "static", profile

    def test_plan_stream_is_deterministic(self):
        runner_a = ChaosRunner(_config(seed=13, sessions=8))
        runner_b = ChaosRunner(_config(seed=13, sessions=8))
        for s in range(8):
            assert runner_a.plan_for(s) == runner_b.plan_for(s)

    def test_plans_come_from_the_slo_generator(self):
        runner = ChaosRunner(_config(seed=13, sessions=8))
        for s in range(8):
            expected = FaultPlan.random_slo(
                derive_session_seed(13, s),
                recv_timeout_s=runner.config.recv_timeout_s,
            )
            assert runner.plan_for(s) == expected

    def test_generator_draws_only_recovery_class_faults(self):
        kinds = set()
        for seed in range(64):
            plan = FaultPlan.random_slo(seed)
            for fault in plan.faults:
                kinds.add(fault.kind)
                if fault.kind == DISCONNECT:
                    assert fault.side == "evaluator"
                    assert 1 <= fault.frame <= 24
        assert kinds == {DISCONNECT, SHED, STALL}

    def test_stream_is_independent_of_the_recovery_profile(self):
        """Same seed, different profile generator: the slo stream must
        not be a relabelling of ``random_recovery`` (otherwise pinning
        one would silently pin the other)."""
        slo = [FaultPlan.random_slo(seed).faults for seed in range(32)]
        rec = [FaultPlan.random_recovery(seed).faults for seed in range(32)]
        assert slo != rec


class TestSloTier:
    """The live tier on a pinned seed."""

    @pytest.fixture(scope="class")
    def run(self):
        runner = ChaosRunner(_config(seed=7, sessions=6))
        return runner, runner.run()

    @pytest.fixture(scope="class")
    def report(self, run):
        return run[1]

    def test_green_on_the_pinned_seed(self, report):
        assert report.ok, report.format()
        for v in report.verdicts:
            assert v.verdict in _allowed(v), report.format()

    def test_recoveries_kept_the_operating_point(self, report):
        recovered = [v for v in report.verdicts if v.verdict == RECOVERED]
        assert recovered, "pinned seed produced no recovered session"
        for v in recovered:
            assert "operating point survived the drain" in v.detail, v

    def test_adaptation_actually_happened(self, run):
        """The tier is only meaningful if the controller moved before
        the faults hit: the warm-up ticks must show up in telemetry."""
        runner, report = run
        counters = runner.telemetry.snapshot()["counters"]
        # stall plans route to the in-memory oracle; every gateway-run
        # session warms its controller with two overload ticks first
        assert counters["controller.ticks"] >= 2
        assert counters["controller.batch_shrink"] >= 2
        assert counters["controller.restored"] >= 1

    def test_log_header_records_the_controller(self, report, tmp_path):
        log = tmp_path / "slo.jsonl"
        report.write_log(log)
        with open(log) as fh:
            header = json.loads(fh.readline())
        assert header["record"] == "chaos_header"
        assert header["profile"] == "slo"
        assert header["controller"] == "slo"

    def test_replay_stays_green(self, report, tmp_path):
        log = tmp_path / "slo.jsonl"
        report.write_log(log)
        replayed = ChaosRunner.replay(log)
        assert replayed.ok, replayed.format()
        assert len(replayed.verdicts) == len(report.verdicts)
