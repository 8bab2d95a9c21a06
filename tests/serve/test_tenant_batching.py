"""Cross-tenant batching and tenant-credit admission: the regression
tests pinning PR 8's two serving-layer claims.

1. Two tenants whose queries share a circuit fingerprint garble in ONE
   batched AES invocation (one ``gc.aes_batch_calls`` increment per
   topological stage, regardless of batch size); distinct fingerprints
   never co-batch.
2. The ``TenantScheduler`` bounds every tenant — including a
   mass-adoption burst through the :class:`ResumeBatcher` — so no
   tenant can starve the others of admission.
"""

import queue
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, OverloadedError, ServingError
from repro.fixedpoint import Q8_4
from repro.host import CloudServer
from repro.serve import (
    GarbleStation,
    ResumeBatcher,
    ServingConfig,
    ServingServer,
    TenantScheduler,
)
from repro.telemetry import MetricsRegistry

MODEL = np.array([[1.5, -0.5], [0.25, 2.0]])


def _vector_server(**kwargs):
    return CloudServer(
        MODEL, Q8_4, pool_size=0, seed=7, auto_refill=False, **kwargs,
    )


def _take_in_threads(station, accel, keys):
    """Run one station.take per key on concurrent threads."""
    results = {}
    errors = []

    def taker(idx, key):
        try:
            results[idx] = station.take(accel, 2, key)
        except BaseException as exc:  # noqa: BLE001 — surfaced in the test
            errors.append(exc)

    threads = [
        threading.Thread(target=taker, args=(i, k)) for i, k in enumerate(keys)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not errors, errors
    return results


class TestGarbleStation:
    def test_same_fingerprint_cobatches_one_aes_invocation(self):
        """Two takers, one fingerprint: a single ``garble_vectorized``
        pass — the AES batch counter rises exactly as much as ONE run's
        garbling would, and both takers get distinct fresh-label runs."""
        accel = _vector_server().accelerator

        solo = MetricsRegistry()
        accel.garble_vectorized(2, 1, telemetry=solo)
        per_run_batches = solo.counter("gc.aes_batch_calls").value
        assert per_run_batches > 0

        tm = MetricsRegistry()
        station = GarbleStation(window_s=10.0, max_batch=2, telemetry=tm)
        runs = _take_in_threads(station, accel, ["fp-same", "fp-same"])
        assert len(runs) == 2
        assert runs[0] is not runs[1]
        assert tm.counter("station.batches").value == 1
        assert tm.counter("station.batched_runs").value == 2
        assert tm.counter("station.cobatched").value == 1
        # the whole point: batching two tenants did not double the AES work
        assert tm.counter("gc.aes_batch_calls").value == per_run_batches

    def test_distinct_fingerprints_never_cobatch(self):
        accel = _vector_server().accelerator
        tm = MetricsRegistry()
        station = GarbleStation(window_s=0.05, max_batch=2, telemetry=tm)
        runs = _take_in_threads(station, accel, ["fp-a", "fp-b"])
        assert len(runs) == 2
        assert tm.counter("station.batches").value == 2
        assert tm.counter("station.cobatched").value == 0

    def test_leader_error_propagates_to_every_rider(self):
        class _Broken:
            def garble_vectorized(self, rounds, n, telemetry=None):
                raise ServingError("injected garble failure")

        station = GarbleStation(window_s=10.0, max_batch=2)
        errors = []

        def taker():
            try:
                station.take(_Broken(), 2, "fp")
            except ServingError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=taker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(errors) == 2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GarbleStation(window_s=-0.1)
        with pytest.raises(ConfigurationError):
            GarbleStation(max_batch=0)


class TestServingCobatch:
    def test_two_tenants_share_one_garble_through_the_server(self):
        """End to end: ring-scheduled serving on the vectorized path,
        two tenants' pool-missing queries meet in the garble station and
        still return their own correct MAC results."""
        server = _vector_server()
        tm = server.telemetry
        config = ServingConfig(
            workers=2, queue_depth=8, refill=False, scheduler="ring",
        )
        with ServingServer(server, config) as serving:
            # swap in a patient station so the co-ride is deterministic
            station = GarbleStation(window_s=5.0, max_batch=2, telemetry=tm)
            serving.station = station
            server.attach_garble_station(station)
            xa, xb = [0.5, 0.25], [-0.75, 1.0]
            ra = serving.submit(0, xa, tenant="alice")
            rb = serving.submit(1, xb, tenant="bob")
            assert ra.wait(timeout=30.0) == pytest.approx(
                float(MODEL[0] @ np.array(xa)), abs=0.1
            )
            assert rb.wait(timeout=30.0) == pytest.approx(
                float(MODEL[1] @ np.array(xb)), abs=0.1
            )
        assert tm.counter("station.cobatched").value >= 1
        assert server.stats.runs_garbled == 2  # one garbled run each


class TestTenantScheduler:
    def test_inflight_bound_sheds_typed_with_the_tenant_named(self):
        sched = TenantScheduler(credit_cap=4, max_inflight=1)
        assert sched.admit("a") == "a"
        with pytest.raises(OverloadedError, match="tenant a is at its in-flight"):
            sched.admit("a")
        sched.complete("a")
        assert sched.admit("a") == "a"

    def test_blank_tenant_pools_into_default(self):
        sched = TenantScheduler()
        assert sched.admit("") == "default"
        sched.complete("")
        snap = sched.snapshot()
        assert snap["tenants"]["default"]["admitted"] == 1

    def test_credits_exhaust_and_refill_on_completion(self):
        sched = TenantScheduler(credit_cap=2, max_inflight=8)
        sched.admit("a")
        sched.admit("a")
        with pytest.raises(OverloadedError, match="out of admission credits"):
            sched.admit("a")
        sched.complete("a")  # mints one credit back through the WRR
        assert sched.admit("a") == "a"
        sched.check_invariants()

    def test_release_refunds_a_raced_admission(self):
        sched = TenantScheduler(credit_cap=2, max_inflight=2)
        sched.admit("a")
        sched.release("a")
        snap = sched.snapshot()
        assert snap["tenants"]["a"]["credits"] == 2
        assert snap["tenants"]["a"]["inflight"] == 0
        sched.check_invariants()

    def test_weighted_refill_favors_the_heavy_tenant(self):
        sched = TenantScheduler(
            weights=(("heavy", 3.0), ("light", 1.0)),
            credit_cap=2, max_inflight=2,
        )
        # drain both, then mint four credits via four completions
        for t in ("heavy", "light"):
            sched.admit(t)
            sched.admit(t)
        for _ in range(2):
            sched.complete("heavy")
            sched.complete("light")
        snap = sched.snapshot()["tenants"]
        assert snap["heavy"]["credits"] >= snap["light"]["credits"]
        sched.check_invariants()

    def test_one_tenant_cannot_block_another(self):
        sched = TenantScheduler(credit_cap=1, max_inflight=1)
        sched.admit("greedy")
        with pytest.raises(OverloadedError):
            sched.admit("greedy")
        assert sched.admit("patient") == "patient"

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TenantScheduler(credit_cap=0)
        with pytest.raises(ConfigurationError):
            TenantScheduler(max_inflight=0)
        with pytest.raises(ConfigurationError):
            TenantScheduler(weights=(("a", -1.0),))
        with pytest.raises(ConfigurationError):
            TenantScheduler(weights=(("", 1.0),))


class FakeServing:
    """Just enough of ServingServer for the batcher, with a live
    :class:`TenantScheduler` attached (the PR 8 adoption seam).

    Deliberately has NO ``resume_batch_cap`` attribute: batcher code
    must ``getattr``-guard the controller seam, not assume it."""

    def __init__(self, depth=64, credit_cap=2, max_inflight=2):
        self.config = ServingConfig(refill=False, queue_depth=depth)
        self.scheduler = TenantScheduler(
            credit_cap=credit_cap, max_inflight=max_inflight
        )
        self._queue = queue.Queue(maxsize=depth)
        self._accepting = True
        self.enqueued = []

    def _enqueue(self, req, block):
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            raise OverloadedError("queue full") from None
        self.enqueued.append(req)
        return req


def checkpoint_stub(sid="s-b", tenant=""):
    class _Cp:
        session_id = sid
    _Cp.tenant = tenant
    _Cp.row_index = 0
    return _Cp()


class TestAdoptionFairness:
    """The latent ResumeBatcher unfairness, fixed: adoption rides the
    same tenant credits as live admission, so a mass-adoption burst for
    one tenant cannot starve the others."""

    def test_adoption_burst_is_credit_bounded(self):
        serving = FakeServing(credit_cap=2, max_inflight=2)
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=64)
        admitted, shed = 0, 0
        for i in range(10):
            try:
                batcher.submit(checkpoint_stub(f"s-{i}", tenant="burster"), None, None)
                admitted += 1
            except OverloadedError:
                shed += 1
        assert admitted == 2  # exactly the in-flight bound
        assert shed == 8
        serving.scheduler.check_invariants()

    def test_live_tenant_admits_through_the_burst(self):
        serving = FakeServing(credit_cap=2, max_inflight=2)
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=64)
        for i in range(10):
            try:
                batcher.submit(checkpoint_stub(f"s-{i}", tenant="burster"), None, None)
            except OverloadedError:
                pass
        # the burster is pinned at its bound; a live tenant still admits
        assert serving.scheduler.admit("live") == "live"

    def test_adoption_completion_returns_the_credit(self):
        serving = FakeServing(credit_cap=2, max_inflight=2)
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=2)
        h1 = batcher.submit(checkpoint_stub("s-1", tenant="t"), None, None)
        h2 = batcher.submit(checkpoint_stub("s-2", tenant="t"), None, None)
        for h in (h1, h2):
            h._finish(ServingError("session ended"))
        snap = serving.scheduler.snapshot()["tenants"]["t"]
        assert snap["inflight"] == 0
        assert snap["credits"] == 2
        serving.scheduler.check_invariants()

    def test_finish_is_idempotent_on_the_ledger(self):
        serving = FakeServing(credit_cap=2, max_inflight=2)
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=64)
        h = batcher.submit(checkpoint_stub("s-1", tenant="t"), None, None)
        h._finish(None)
        h._finish(ServingError("late duplicate"))  # must not double-credit
        snap = serving.scheduler.snapshot()["tenants"]["t"]
        assert snap["inflight"] == 0
        serving.scheduler.check_invariants()


class TestAdoptionBatchHeadroom:
    """The PR 10 batcher fix: adoption batches used to be sized from
    static config even when the serving queue was nearly full, landing
    a full-size batch exactly when the fleet had no room for it.
    ``effective_max_batch`` now caps by live queue headroom (and by the
    SLO controller's adoption ceiling, when one is attached)."""

    def test_static_config_sizing_without_controller_or_pressure(self):
        serving = FakeServing(depth=64, credit_cap=64, max_inflight=64)
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=4)
        # FakeServing has no resume_batch_cap: the getattr guard holds
        assert batcher.effective_max_batch() == 4

    def test_saturated_queue_shrinks_the_batch_to_headroom(self):
        serving = FakeServing(depth=4, credit_cap=64, max_inflight=64)
        for _ in range(2):
            serving._queue.put_nowait(object())  # live traffic: 2 of 4
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=4)
        assert batcher.effective_max_batch() == 2
        # the flush trigger honours the shrunken cap: two submissions
        # flush immediately instead of waiting to accumulate four
        batcher.submit(checkpoint_stub("s-1", tenant="t1"), None, None)
        assert not serving.enqueued
        batcher.submit(checkpoint_stub("s-2", tenant="t2"), None, None)
        assert len(serving.enqueued) == 1
        assert len(serving.enqueued[0].entries) == 2

    def test_controller_cap_bounds_the_batch(self):
        serving = FakeServing(depth=64, credit_cap=64, max_inflight=64)
        serving.resume_batch_cap = 2  # what an SLO controller exposes
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=8)
        assert batcher.effective_max_batch() == 2
        serving.resume_batch_cap = 1
        assert batcher.effective_max_batch() == 1
        batcher.submit(checkpoint_stub("s-1", tenant="t1"), None, None)
        assert len(serving.enqueued) == 1
        assert len(serving.enqueued[0].entries) == 1

    def test_headroom_floor_is_one(self):
        """One free slot left: the batch shrinks to 1, it does not
        wedge at 0 (the submit pre-check already sheds a full queue)."""
        serving = FakeServing(depth=4, credit_cap=64, max_inflight=64)
        for _ in range(3):
            serving._queue.put_nowait(object())
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=4)
        assert batcher.effective_max_batch() == 1

    def test_full_queue_still_sheds_typed_at_submit(self):
        serving = FakeServing(depth=2, credit_cap=64, max_inflight=64)
        for _ in range(2):
            serving._queue.put_nowait(object())
        batcher = ResumeBatcher(serving, window_s=60.0, max_batch=4)
        with pytest.raises(OverloadedError, match="batched admission shed"):
            batcher.submit(checkpoint_stub("s-1", tenant="t"), None, None)
