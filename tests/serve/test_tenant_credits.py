"""Tenant credits: the ledger, the weighted refiller, and the live
scheduler built on them (:mod:`repro.serve.tenants`).

The property tests drive :class:`TenantScheduler` the way the
``scheduler="ring"`` serving path does — admissions, completions and
refunds in any order — and check that credits are conserved and that
refill shares follow the tenants' weights.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, OverloadedError
from repro.serve.tenants import (
    CreditAccount,
    TenantScheduler,
    WeightedRefiller,
    jain_index,
)

WEIGHTS = st.sampled_from([0.5, 1.0, 2.0, 4.0])
CAPS = st.integers(1, 4)


# ----------------------------------------------------------------------
# credit conservation
# ----------------------------------------------------------------------
@given(
    weights=st.lists(WEIGHTS, min_size=1, max_size=4),
    cap=CAPS,
    max_inflight=st.integers(1, 3),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["admit", "complete", "release"]),
            st.integers(0, 3),
        ),
        max_size=60,
    ),
)
@settings(max_examples=50, deadline=None)
def test_credits_conserved_under_arbitrary_interleavings(
    weights, cap, max_inflight, ops
):
    """minted == spent + held and in-flight within ``[0, max_inflight]``
    for every tenant, after every admit/complete/release."""
    tenants = [f"t{i}" for i in range(len(weights))]
    sched = TenantScheduler(
        weights=tuple(zip(tenants, weights)),
        credit_cap=cap, max_inflight=max_inflight,
    )
    outstanding = dict.fromkeys(tenants, 0)
    for op, idx in ops:
        tenant = tenants[idx % len(tenants)]
        if op == "admit":
            try:
                sched.admit(tenant)
            except OverloadedError:
                pass
            else:
                outstanding[tenant] += 1
        elif outstanding[tenant]:
            getattr(sched, op)(tenant)
            outstanding[tenant] -= 1
        sched.check_invariants()
        for name, entry in sched.snapshot()["tenants"].items():
            assert 0 <= entry["inflight"] <= max_inflight
            assert entry["inflight"] == outstanding[name]
    for tenant in tenants:
        for _ in range(outstanding[tenant]):
            sched.complete(tenant)
    sched.check_invariants()
    assert all(
        entry["inflight"] == 0
        for entry in sched.snapshot()["tenants"].values()
    )


# ----------------------------------------------------------------------
# fairness
# ----------------------------------------------------------------------
def _saturated_admissions(sched, tenants, completions, data) -> dict:
    """Every tenant admits until shed, then one outstanding request
    (drawn by hypothesis) completes; repeat.  Returns admissions per
    tenant — the shares the refiller's grants decide."""
    outstanding = []
    for _ in range(completions):
        for tenant in tenants:
            while True:
                try:
                    outstanding.append(sched.admit(tenant))
                except OverloadedError:
                    break
        pick = data.draw(st.integers(0, len(outstanding) - 1), label="done")
        sched.complete(outstanding.pop(pick))
    sched.check_invariants()
    return {t: e["admitted"] for t, e in sched.snapshot()["tenants"].items()}


@given(n_tenants=st.integers(2, 6), cap=CAPS, data=st.data())
@settings(max_examples=15, deadline=None)
def test_equal_weights_reach_jain_090(n_tenants, cap, data):
    tenants = [f"t{i}" for i in range(n_tenants)]
    # credits + in-flight sum to n * cap across tenants, so this bound
    # never binds: credits alone gate admission
    sched = TenantScheduler(credit_cap=cap, max_inflight=n_tenants * cap)
    admitted = _saturated_admissions(sched, tenants, 20 * n_tenants, data)
    assert jain_index(admitted.values()) >= 0.9, admitted


@given(cap=CAPS, data=st.data())
@settings(max_examples=10, deadline=None)
def test_weighted_fairness_tracks_the_weights(cap, data):
    """2:1 refill weights give 2:1 credit grants, so a saturated heavy
    tenant admits about twice what the light one does."""
    sched = TenantScheduler(
        weights=(("heavy", 2.0), ("light", 1.0)),
        credit_cap=cap, max_inflight=2 * cap,
    )
    admitted = _saturated_admissions(sched, ["heavy", "light"], 120, data)
    # every account starts full: the first ``cap`` admissions are free
    ratio = (admitted["heavy"] - cap) / (admitted["light"] - cap)
    assert 1.9 <= ratio <= 2.1, admitted


# ----------------------------------------------------------------------
# units: the primitives
# ----------------------------------------------------------------------
class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5, 5, 5, 5]) == 1.0

    def test_one_tenant_takes_everything(self):
        assert jain_index([12, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_read_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0


class TestCreditAccount:
    def test_spend_complete_roundtrip(self):
        acct = CreditAccount("a", cap=2, max_inflight=1)
        acct.spend()
        assert (acct.credits, acct.inflight) == (1, 1)
        acct.complete()
        assert acct.inflight == 0
        acct.check()

    def test_spend_without_credits_is_typed(self):
        acct = CreditAccount("a", cap=1)
        acct.spend()
        with pytest.raises(ConfigurationError, match="no credits"):
            acct.spend()

    def test_refund_at_cap_forfeits_but_balances(self):
        acct = CreditAccount("a", cap=2, max_inflight=2)
        acct.spend()
        acct.grant(1)  # back at cap while one unit is in flight
        acct.refund()  # the refunded credit has nowhere to go
        assert acct.forfeited == 1
        acct.check()

    def test_grant_clips_at_the_cap(self):
        acct = CreditAccount("a", cap=3)
        assert acct.grant(5) == 0
        acct.spend()
        assert acct.grant(5) == 1
        acct.check()


class TestWeightedRefiller:
    def test_grants_converge_to_weight_proportions(self):
        accounts = [
            CreditAccount("heavy", weight=3.0, cap=10**9),
            CreditAccount("light", weight=1.0, cap=10**9),
        ]
        for acct in accounts:  # start empty so neither account caps out
            acct.credits = acct.minted = 0
        refiller = WeightedRefiller(accounts)
        grants = {"heavy": 0, "light": 0}
        for _ in range(400):
            winner = refiller.tick()
            grants[winner.tenant] += 1
        assert grants["heavy"] == 300
        assert grants["light"] == 100

    def test_capped_accounts_are_skipped(self):
        full = CreditAccount("full", weight=100.0, cap=1)
        hungry = CreditAccount("hungry", weight=1.0, cap=4)
        hungry.spend()
        refiller = WeightedRefiller([full, hungry])
        assert refiller.tick() is hungry

    def test_all_capped_returns_none(self):
        refiller = WeightedRefiller([CreditAccount("a", cap=1)])
        assert refiller.tick() is None

    def test_capped_accounts_bank_at_most_one_round(self):
        """A tenant capped for a long stretch must not accumulate
        unbounded WRR entitlement to spend as a monopoly burst once it
        rejoins — the lockout the no-starvation property caught after a
        warm-up left one tenant sitting at its cap for hundreds of
        ticks.  With priorities clamped to the total weight, catch-up
        is bounded by two ``ceil(total / min_weight)`` rounds however
        long the gap was."""
        heavy = CreditAccount("heavy", weight=4.0, cap=1)  # starts capped
        light = CreditAccount("light", weight=0.5, cap=1)
        refiller = WeightedRefiller([heavy, light])
        for _ in range(200):
            light.spend()
            light.complete()  # stay hungry without growing in-flight
            assert refiller.tick() is light  # heavy is capped throughout
        heavy.spend()
        heavy.complete()  # heavy rejoins the rotation
        window = []
        for _ in range(18):  # two ceil(total_weight / min_weight) rounds
            for acct in (heavy, light):
                if acct.credits >= acct.cap:  # keep both competing
                    acct.spend()
                    acct.complete()
            winner = refiller.tick()
            window.append(winner.tenant)
        assert "light" in window, window
