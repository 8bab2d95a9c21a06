"""The one verdict ladder, fed fake outcomes with no gateway.

Every remote topology (one gateway, one with a warmed SLO controller,
an in-process gateway group, the process fleet) and the channel tier
judge a session on :func:`repro.testkit.oracle.judge`: hang, typed
error, untyped error, wrong result, the topology's invariants in
order, then recovered or tolerated.
"""

import pytest

from repro.errors import WireError
from repro.telemetry import MetricsRegistry
from repro.testkit import (
    RECOVERED,
    SURFACED,
    TOLERATED,
    VIOLATION,
    ConformanceOracle,
    FaultPlan,
    FaultSpec,
)
from repro.testkit.faults import (
    DISCONNECT,
    DRAIN_GATEWAY,
    KILL_GATEWAY,
    KILL_PROCESS,
    SHED,
    STALL,
    TERM_PROCESS,
)
from repro.testkit.oracle import (
    Outcome,
    _GatewayTopology,
    _GroupTopology,
    _ProcessTopology,
    judge,
)

EXPECTED = 1.25


def _topology(cls, kind, controller="static"):
    oracle = ConformanceOracle(
        None, telemetry=MetricsRegistry(), gateways=3, controller=controller
    )
    plan = FaultPlan(faults=(FaultSpec(kind=kind, frame=2, gateway=1),), seed=5)
    return cls(oracle, plan)


#: (topology, hang noun, wrong-result place, recovered-detail substring)
TOPOLOGIES = {
    "gateway": (
        lambda kind=DISCONNECT: _topology(_GatewayTopology, kind),
        "recovery session", "after recovery", "fault hit a live session",
    ),
    "slo": (
        lambda kind=DISCONNECT: _topology(_GatewayTopology, kind, "slo"),
        "slo recovery session", "after recovery",
        "operating point survived the drain",
    ),
    "group": (
        lambda kind=KILL_GATEWAY: _topology(_GroupTopology, kind),
        "handoff session", "after handoff", "gateway gw1 killed mid-stream",
    ),
    "procs": (
        lambda kind=KILL_PROCESS: _topology(_ProcessTopology, kind),
        "process session", "across processes", "ledger balanced",
    ),
}


def _judge(top, outcome, fired="x", resumes=1, invariants=()):
    top.invariants = lambda: invariants
    return top.judge(outcome, EXPECTED, fired, resumes)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
class TestTopologyLadder:
    def test_hang(self, name):
        make, noun, _, _ = TOPOLOGIES[name]
        verdict, detail, _ = _judge(make(), Outcome(hang=True, value=EXPECTED))
        assert verdict == VIOLATION
        assert f"{noun} exceeded its deadline (hang)" in detail

    def test_typed_error_breaks_the_recovery_contract(self, name):
        make = TOPOLOGIES[name][0]
        verdict, detail, error_type = _judge(make(), Outcome(error=WireError("cut")))
        assert verdict == VIOLATION
        assert "typed error where recovery is promised" in detail
        assert error_type == "WireError"

    def test_untyped_error(self, name):
        make = TOPOLOGIES[name][0]
        verdict, detail, error_type = _judge(make(), Outcome(error=KeyError("k")))
        assert verdict == VIOLATION
        assert "untyped exception escaped: KeyError" in detail
        assert error_type == "KeyError"

    def test_wrong_value(self, name):
        make, _, where, _ = TOPOLOGIES[name]
        verdict, detail, _ = _judge(make(), Outcome(value=EXPECTED + 1))
        assert verdict == VIOLATION
        assert f"silent wrong MAC result {where}" in detail

    def test_invariants_run_in_order_after_the_value(self, name):
        make = TOPOLOGIES[name][0]
        seen = []

        def ok():
            seen.append("ok")
            return ""

        def broken():
            seen.append("broken")
            return "ledger unbalanced"

        def never():
            seen.append("never")
            return "unreachable"

        verdict, detail, _ = _judge(
            make(), Outcome(value=EXPECTED), invariants=(ok, broken, never)
        )
        assert (verdict, detail) == (VIOLATION, "ledger unbalanced")
        assert seen == ["ok", "broken"]
        # a wrong value is judged before any invariant runs
        seen.clear()
        _judge(make(), Outcome(value=0.0), invariants=(broken,))
        assert seen == []

    def test_fired_and_resumed_is_recovered(self, name):
        make, _, _, recovered = TOPOLOGIES[name]
        verdict, detail, _ = _judge(make(), Outcome(value=EXPECTED))
        assert verdict == RECOVERED
        assert recovered in detail
        assert "bit-identical" in detail

    def test_never_fired_is_tolerated(self, name):
        make = TOPOLOGIES[name][0]
        verdict, detail, _ = _judge(make(), Outcome(value=EXPECTED), fired="")
        assert verdict == TOLERATED
        assert "fault never fired" in detail

    def test_fired_without_resume_is_tolerated(self, name):
        make = TOPOLOGIES[name][0]
        verdict, _, _ = _judge(make(), Outcome(value=EXPECTED), resumes=0)
        assert verdict == TOLERATED


@pytest.mark.parametrize(
    "name, kind",
    [("gateway", SHED), ("slo", SHED), ("group", DRAIN_GATEWAY),
     ("procs", TERM_PROCESS)],
)
def test_kinds_that_recover_without_a_resume(name, kind):
    top = TOPOLOGIES[name][0](kind)
    verdict, _, _ = _judge(top, Outcome(value=EXPECTED), resumes=0)
    assert verdict == RECOVERED


class TestChannelLadder:
    """The channel tier's defaults, under each contract."""

    def test_clean_value_is_tolerated(self):
        verdict, detail, _ = judge(Outcome(value=EXPECTED), EXPECTED)
        assert verdict == TOLERATED
        assert "bit-identical to the fault-free session" in detail

    def test_hang_names_no_topology(self):
        verdict, detail, _ = judge(Outcome(hang=True), EXPECTED)
        assert (verdict, detail) == (
            VIOLATION, "session exceeded its deadline (hang)"
        )

    def test_typed_error_surfaces_where_the_contract_allows(self):
        verdict, detail, error_type = judge(
            Outcome(error=WireError("stalled")), EXPECTED, SURFACED
        )
        assert verdict == SURFACED
        assert detail == "typed error within deadline: stalled"
        assert error_type == "WireError"

    def test_typed_error_is_a_violation_where_recovery_is_promised(self):
        verdict, detail, _ = judge(
            Outcome(error=WireError("cut")), EXPECTED, RECOVERED
        )
        assert verdict == VIOLATION
        assert detail.startswith("typed error where recovery is promised")

    def test_stall_plan_contract_is_surfaced(self):
        top = _topology(_GatewayTopology, DISCONNECT)
        top.plan = FaultPlan(faults=(FaultSpec(kind=STALL),))
        verdict, _, _ = _judge(top, Outcome(error=WireError("stalled")))
        assert verdict == SURFACED

    def test_wrong_value(self):
        verdict, detail, _ = judge(Outcome(value=0.5), EXPECTED)
        assert verdict == VIOLATION
        assert detail == "silent wrong MAC result: got 0.5, expected 1.25"
