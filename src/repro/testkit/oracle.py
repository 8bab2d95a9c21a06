"""The conformance oracle: every faulted session must end well.

"Well" means exactly one of two things, each within the configured
deadline:

* **tolerated** — the session completes with the bit-identical MAC
  result the fault-free session produces (possibly after one bounded
  retry of a retryable fault);
* **surfaced** — a typed error from the :mod:`repro.errors` hierarchy.

Anything else — a silent wrong answer, an untyped exception, a hang —
is a **violation**, the class of failure TinyGarble-style sequential
garbling makes catastrophic: a desynchronised accumulator label stream
that keeps running and reports garbage.

The oracle runs the *real* stack: ``CloudServer.serve_row`` against the
unmodified ``SequentialEvaluator``, over either transport, with
:class:`~repro.testkit.FaultyEndpoint` wrappers injecting the plan.
Environment faults (pool exhaustion, worker poison, handshake abort)
drive the serving layer and gateway instead of the wire.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bits import from_bits, to_bits
from repro.errors import (
    ConfigurationError,
    HandshakeError,
    OverloadedError,
    ReproError,
    ServingError,
)
from repro.gc.channel import run_two_party
from repro.gc.sequential_gc import SequentialEvaluator
from repro.he import HE_QUERY_TAG, HE_RESULT_TAG, HEMacClient
from repro.host import CloudServer
from repro.net.client import RemoteAnalyticsClient
from repro.net.endpoint import SocketEndpoint
from repro.net.gateway import GCGateway
from repro.net.handshake import HELLO_TAG, PROTOCOL_VERSION
from repro.recover.endpoint import BackoffPolicy
from repro.serve import (
    LoadSample,
    PendingRequest,
    ServingConfig,
    ServingServer,
)
from repro.telemetry import MetricsRegistry
from repro.testkit.endpoint import faulty_pair
from repro.testkit.faults import (
    ABORT_HANDSHAKE,
    DISCONNECT,
    DISCONNECT_PROCESS,
    DISCONNECT_TENANT,
    DRAIN_GATEWAY,
    EXHAUST_POOL,
    FaultPlan,
    HANDOFF_FAULT_KINDS,
    KILL_GATEWAY,
    KILL_PROCESS,
    KILL_WORKER,
    POISON_TENANT,
    PROCESS_FAULT_KINDS,
    SHED,
    STALL_TENANT,
    TENANT_FAULT_KINDS,
    TERM_PROCESS,
)

TOLERATED = "tolerated"
SURFACED = "surfaced"
VIOLATION = "violation"
#: The fourth outcome (session resume): the session lost its wire (or was
#: shed) mid-query and still finished with the bit-identical result —
#: without re-garbling any completed round.
RECOVERED = "recovered"


@dataclass
class SessionVerdict:
    """What one faulted session ended as, and why."""

    plan: dict
    transport: str
    verdict: str
    detail: str = ""
    error_type: str = ""
    attempts: int = 1
    injected: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    session: int = -1
    #: fleet runs: the gateway that finally served the session (may
    #: differ from the one that started it).  Deliberately excluded
    #: from :meth:`signature` — which member wins a lease race is
    #: timing-dependent; what must be reproducible is the verdict.
    gateway_id: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict != VIOLATION

    def signature(self) -> tuple:
        """The reproducibility fingerprint: seed-stable fields only."""
        return (
            self.session,
            self.transport,
            FaultPlan.from_dict(self.plan).describe(),
            self.verdict,
            self.error_type,
            self.attempts,
            tuple(self.injected),
        )

    def to_dict(self) -> dict:
        return {
            "session": self.session,
            "transport": self.transport,
            "plan": self.plan,
            "verdict": self.verdict,
            "detail": self.detail,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "injected": self.injected,
            "elapsed_s": round(self.elapsed_s, 4),
            "gateway_id": self.gateway_id,
        }


class _BlockerRequest(PendingRequest):
    """Occupies a worker (or a queue slot) until released — the
    ``shed`` fault's way of saturating admission control."""

    retryable = False

    def __init__(self, release: threading.Event, deadline: float):
        super().__init__(0, None, deadline)
        self._release = release

    def _execute(self, client):
        self._release.wait(timeout=30.0)


class PoisonRequest(PendingRequest):
    """A request whose execution raises an untyped exception — the
    ``kill_worker`` fault.  Pre-hardening this killed the worker thread;
    the serving layer must now isolate it as a typed failure."""

    retryable = False

    def __init__(self, deadline: float):
        super().__init__(0, None, deadline)

    def _execute(self, client):
        raise RuntimeError("injected poison request (testkit kill_worker fault)")


class _StallRequest(PendingRequest):
    """A request that hogs its worker for ``duration_s`` — the
    ``stall_tenant`` fault.  Under the ring scheduler the stalling
    tenant's in-flight bound confines the damage to one worker; the
    bystander tenants must keep flowing on the rest."""

    retryable = False

    def __init__(self, duration_s: float, deadline: float):
        super().__init__(0, None, deadline)
        self._duration_s = duration_s

    def _execute(self, client):
        time.sleep(self._duration_s)
        return 0.0


class ConformanceOracle:
    """Runs faulted sessions against one server and classifies them."""

    def __init__(
        self,
        server,
        telemetry: MetricsRegistry | None = None,
        recv_timeout_s: float = 0.25,
        deadline_s: float = 10.0,
        max_retries: int = 1,
        gateways: int = 3,
        backend: str = "gc",
        controller: str = "static",
        fleet_seed: int | None = None,
    ):
        self.server = server
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        self.recv_timeout_s = recv_timeout_s
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.gateways = gateways
        #: private-MAC backend the recovery/handoff sessions negotiate;
        #: the wire/environment fault tiers always exercise the GC path
        self.backend = backend
        #: serving controller the recovery gateways run: ``slo`` routes
        #: recovery plans through :meth:`run_slo_recovery`, which warms
        #: the controller to a non-default operating point first and
        #: checks the drain/adopt handoff of that state afterwards
        self.controller = controller
        #: seed the process fleet's members derive the shared model from
        #: (must reproduce ``server.model``); the fleet itself is built
        #: lazily on the first process-tier session and lives until
        #: :meth:`close`
        self.fleet_seed = fleet_seed
        self._fleet = None
        self._fleet_audit = None

    def close(self) -> None:
        """Tear down the (lazily built) process fleet, if any."""
        if self._fleet_audit is not None:
            self._fleet_audit.close()
            self._fleet_audit = None
        if self._fleet is not None:
            self._fleet.stop()
            self._fleet = None

    def _served_runs(self, server) -> int:
        """The zero-recompute oracle counter for this backend: a query,
        resumed or not, must evaluate exactly once (GC: garbled runs;
        HE: homomorphic products — a re-served checkpoint re-streams
        the stored result ciphertext without recomputing it)."""
        if self.backend == "he":
            return server.stats.he_queries
        return server.stats.runs_garbled

    def _recompute_detail(self, served: int) -> str:
        if self.backend == "he":
            return (
                f"query evaluated {served} HE products (expected exactly 1): "
                "a checkpointed result was recomputed"
            )
        return (
            f"query garbled {served} runs (expected exactly 1): "
            "a completed round was re-garbled"
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run_session(
        self, plan: FaultPlan, row: int, x_values, transport: str = "memory",
        ot_mode: str = "per_round",
    ) -> SessionVerdict:
        """Run one session under ``plan`` and return its verdict."""
        if ABORT_HANDSHAKE in plan.kinds:
            verdict = self.run_handshake_abort(plan)
        elif KILL_WORKER in plan.kinds:
            verdict = self.run_worker_poison(plan, row, x_values)
        elif EXHAUST_POOL in plan.kinds:
            verdict = self.run_pool_exhaustion(plan, row, x_values, transport)
        elif plan.is_tenant:
            verdict = self.run_tenant_isolation(plan, row, x_values)
        elif plan.is_process:
            verdict = self.run_process_session(plan, row, x_values, ot_mode)
        elif plan.is_handoff:
            verdict = self.run_gateway_handoff(plan, row, x_values, ot_mode)
        elif plan.is_recovery:
            if self.controller == "slo":
                verdict = self.run_slo_recovery(plan, row, x_values)
            else:
                verdict = self.run_gateway_recovery(plan, row, x_values)
        else:
            verdict = self.run_channel_session(plan, row, x_values, transport)
        self.telemetry.counter(
            {
                TOLERATED: "faults.tolerated",
                SURFACED: "faults.surfaced",
                VIOLATION: "faults.violations",
                RECOVERED: "faults.recovered",
            }[verdict.verdict]
        ).inc()
        return verdict

    # ------------------------------------------------------------------
    # wire faults
    # ------------------------------------------------------------------
    def run_channel_session(
        self, plan: FaultPlan, row: int, x_values, transport: str
    ) -> SessionVerdict:
        start = time.perf_counter()
        expected = self._expected(row, x_values)
        injected: list[str] = []
        attempts = 0
        current = plan
        while True:
            attempts += 1
            status, value = self._attempt_with_deadline(
                current, row, x_values, transport, injected
            )
            if status == "hang":
                return self._verdict(
                    plan, transport, VIOLATION, "session exceeded its deadline (hang)",
                    attempts=attempts, injected=injected, start=start,
                )
            if status == "ok":
                if abs(value - expected) < 1e-9:
                    return self._verdict(
                        plan, transport, TOLERATED,
                        "result bit-identical to the fault-free session",
                        attempts=attempts, injected=injected, start=start,
                    )
                return self._verdict(
                    plan, transport, VIOLATION,
                    f"silent wrong MAC result: got {value}, expected {expected}",
                    attempts=attempts, injected=injected, start=start,
                )
            exc = value
            if not isinstance(exc, ReproError):
                return self._verdict(
                    plan, transport, VIOLATION,
                    f"untyped exception escaped: {type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    attempts=attempts, injected=injected, start=start,
                )
            if plan.retryable and attempts <= self.max_retries:
                # the fault was one-shot: a bounded retry should succeed
                self.telemetry.counter("faults.retried").inc()
                current = FaultPlan(seed=plan.seed)
                continue
            return self._verdict(
                plan, transport, SURFACED, f"typed error within deadline: {exc}",
                error_type=type(exc).__name__,
                attempts=attempts, injected=injected, start=start,
            )

    def _he_channel_attempt(self, g_chan, e_chan, row: int, x_values) -> float:
        """One HE exchange over the faulty pair — the channel tier's
        differential twin of the GC two-party run.  The injected faults
        hit the ``he.query``/``he.result`` frames, so a corrupted or
        stalled ciphertext must surface typed exactly like a garbled
        table would."""
        fmt = self.server.fmt
        he_client = HEMacClient(self.server.he_mac.params, fmt, seed=0)
        query = he_client.encrypt_query(np.asarray(x_values, dtype=np.float64))
        box: dict = {}

        def evaluator_side():
            e_chan.send(HE_QUERY_TAG, query)
            box["result"] = e_chan.recv(HE_RESULT_TAG)

        run_two_party(
            lambda: self.server.serve_row_he(g_chan, row),
            evaluator_side,
            cleanup=lambda: (g_chan.close(), e_chan.close()),
            join_timeout_s=max(1.0, 4 * self.recv_timeout_s),
        )
        return fmt.decode_product(he_client.decrypt_row_result(box["result"]))

    def _attempt_with_deadline(
        self, plan: FaultPlan, row: int, x_values, transport: str, injected: list
    ):
        """One session attempt on a watchdog thread: ok/error/hang."""
        box: dict = {}

        def attempt():
            g_chan, e_chan = faulty_pair(
                plan,
                transport,
                telemetry=self.telemetry,
                recv_timeout_s=self.recv_timeout_s,
            )
            injected_ref = (g_chan, e_chan)
            try:
                if self.backend == "he":
                    box["value"] = self._he_channel_attempt(
                        g_chan, e_chan, row, x_values
                    )
                    return
                fmt = self.server.fmt
                x_bits = [
                    to_bits(int(v), fmt.total_bits)
                    for v in fmt.encode_array(np.asarray(x_values, dtype=np.float64))
                ]
                circuit = self.server.accelerator.circuit.circuit
                evaluator = SequentialEvaluator(circuit, e_chan, self.server.group)
                _, report = run_two_party(
                    lambda: self.server.serve_row(g_chan, row),
                    lambda: evaluator.run(x_bits),
                    cleanup=lambda: (g_chan.close(), e_chan.close()),
                    join_timeout_s=max(1.0, 4 * self.recv_timeout_s),
                )
                raw = from_bits(report.output_bits, signed=True)
                box["value"] = fmt.decode_product(raw)
            finally:
                for ep in injected_ref:
                    for kind, frame, tag in ep.injected:
                        injected.append(f"{kind}@{ep.side}:{frame}:{tag}")

        def runner():
            try:
                attempt()
            except BaseException as exc:
                box["error"] = exc

        watchdog = threading.Thread(target=runner, daemon=True, name="oracle-session")
        watchdog.start()
        watchdog.join(timeout=self.deadline_s)
        if watchdog.is_alive():
            return "hang", None
        if "error" in box:
            return "error", box["error"]
        return "ok", box["value"]

    # ------------------------------------------------------------------
    # environment faults
    # ------------------------------------------------------------------
    def run_pool_exhaustion(
        self, plan: FaultPlan, row: int, x_values, transport: str
    ) -> SessionVerdict:
        """Drain the pre-garbled pool, then serve: must degrade, not fail."""
        start = time.perf_counter()
        dropped = self.server.drain_pool()
        self.telemetry.counter(f"faults.injected.{EXHAUST_POOL}").inc()
        inner = self.run_channel_session(FaultPlan(seed=plan.seed), row, x_values, transport)
        inner.plan = plan.to_dict()
        inner.injected.insert(0, f"{EXHAUST_POOL}:dropped={dropped}")
        inner.elapsed_s = time.perf_counter() - start
        if inner.verdict == SURFACED:
            # with no wire fault there is nothing legitimate to surface:
            # an empty pool must never fail a session
            inner.verdict = VIOLATION
            inner.detail = f"pool exhaustion was not tolerated: {inner.detail}"
        return inner

    def run_worker_poison(self, plan: FaultPlan, row: int, x_values) -> SessionVerdict:
        """A poison request must fail typed AND leave its worker serving."""
        start = time.perf_counter()
        injected = [f"{KILL_WORKER}:poison"]
        self.telemetry.counter(f"faults.injected.{KILL_WORKER}").inc()
        config = ServingConfig(
            workers=1,
            queue_depth=4,
            request_timeout_s=self.deadline_s,
            max_retries=0,
            refill=False,
            recv_timeout_s=self.recv_timeout_s,
        )
        expected = self._expected(row, x_values)
        serving = ServingServer(self.server, config, telemetry=self.telemetry)
        try:
            serving.start()
            poison = PoisonRequest(deadline=time.perf_counter() + self.deadline_s)
            serving._enqueue(poison, block=True)
            try:
                poison.wait(timeout=self.deadline_s)
                return self._verdict(
                    plan, "serving", VIOLATION,
                    "poison request reported success",
                    injected=injected, start=start,
                )
            except ServingError:
                pass  # typed isolation: exactly right
            except ReproError as exc:
                return self._verdict(
                    plan, "serving", VIOLATION,
                    f"poison surfaced as {type(exc).__name__}, expected ServingError",
                    error_type=type(exc).__name__, injected=injected, start=start,
                )
            health = serving.health()
            if health["workers_alive"] != health["workers_expected"]:
                return self._verdict(
                    plan, "serving", VIOLATION,
                    f"poison killed a worker: {health}",
                    injected=injected, start=start,
                )
            result = serving.query(row, x_values, timeout=self.deadline_s)
            if abs(result - expected) < 1e-9:
                return self._verdict(
                    plan, "serving", TOLERATED,
                    "poison isolated typed; follow-up query served correctly",
                    injected=injected, start=start,
                )
            return self._verdict(
                plan, "serving", VIOLATION,
                f"follow-up query wrong after poison: {result} != {expected}",
                injected=injected, start=start,
            )
        except ReproError as exc:
            return self._verdict(
                plan, "serving", VIOLATION,
                f"worker poison broke the serving layer: {exc}",
                error_type=type(exc).__name__, injected=injected, start=start,
            )
        finally:
            serving.stop()

    def run_tenant_isolation(self, plan: FaultPlan, row: int, x_values) -> SessionVerdict:
        """One tenant misbehaves under the ring scheduler; the rest must
        keep their bit-identical results within the deadline.

        Four tenants share a two-worker ring-scheduled serving layer
        with a deliberately tight credit budget (cap 2, in-flight 1).
        The victim tenant injects its pathology — poison requests, a
        worker-hogging stall, or a submit-then-vanish disconnect — and
        every bystander tenant then runs a real query.  A wrong answer
        or a deadline miss on any bystander is a violation: the whole
        point of per-tenant credits is that one tenant's pathology
        stays that tenant's problem.
        """
        start = time.perf_counter()
        spec = next(f for f in plan.faults if f.kind in TENANT_FAULT_KINDS)
        tenants = [f"t{i}" for i in range(4)]
        victim = tenants[spec.tenant % len(tenants)]
        injected = [f"{spec.kind}:{victim}"]
        self.telemetry.counter(f"faults.injected.{spec.kind}").inc()
        config = ServingConfig(
            workers=2,
            queue_depth=16,
            request_timeout_s=self.deadline_s,
            max_retries=0,
            refill=False,
            recv_timeout_s=self.recv_timeout_s,
            scheduler="ring",
            tenant_credit_cap=2,
            tenant_max_inflight=1,
        )
        expected = self._expected(row, x_values)
        serving = ServingServer(self.server, config, telemetry=self.telemetry)
        try:
            serving.start()
            victim_req = self._inject_tenant_fault(serving, spec, victim, row, x_values)
            # every bystander runs a real query through the same ring
            handles = []
            for name in tenants:
                if name != victim:
                    handles.append((name, serving.submit(row, x_values, tenant=name)))
            for name, handle in handles:
                try:
                    result = handle.wait(timeout=self.deadline_s)
                except ServingError as exc:
                    return self._verdict(
                        plan, "serving", VIOLATION,
                        f"tenant {name} starved behind {spec.kind}: {exc}",
                        error_type=type(exc).__name__,
                        injected=injected, start=start,
                    )
                if abs(result - expected) >= 1e-9:
                    return self._verdict(
                        plan, "serving", VIOLATION,
                        f"tenant {name} got a wrong result behind {spec.kind}: "
                        f"{result} != {expected}",
                        injected=injected, start=start,
                    )
            # the victim's own fate must be typed — never a hang, never
            # an untyped escape
            try:
                victim_req.wait(timeout=self.deadline_s)
                if spec.kind == POISON_TENANT:
                    return self._verdict(
                        plan, "serving", VIOLATION,
                        "poison tenant's request reported success",
                        injected=injected, start=start,
                    )
            except ServingError:
                pass  # typed: poison isolated / disconnect cancelled
            except ReproError as exc:
                return self._verdict(
                    plan, "serving", VIOLATION,
                    f"victim surfaced {type(exc).__name__}, expected ServingError",
                    error_type=type(exc).__name__, injected=injected, start=start,
                )
            health = serving.health()
            if health["workers_alive"] != health["workers_expected"]:
                return self._verdict(
                    plan, "serving", VIOLATION,
                    f"{spec.kind} killed a worker: {health}",
                    injected=injected, start=start,
                )
            serving.scheduler.check_invariants()
            return self._verdict(
                plan, "serving", TOLERATED,
                f"{victim}'s {spec.kind} stayed its own problem: "
                "bystander tenants bit-identical within deadline",
                injected=injected, start=start,
            )
        except AssertionError as exc:
            return self._verdict(
                plan, "serving", VIOLATION,
                f"credit invariant broken after {spec.kind}: {exc}",
                injected=injected, start=start,
            )
        except ReproError as exc:
            return self._verdict(
                plan, "serving", VIOLATION,
                f"{spec.kind} broke the serving layer: {exc}",
                error_type=type(exc).__name__, injected=injected, start=start,
            )
        finally:
            serving.stop()

    def _inject_tenant_fault(
        self, serving: ServingServer, spec, victim: str, row: int, x_values
    ) -> PendingRequest:
        """Apply the victim tenant's pathology; returns its request."""
        deadline = time.perf_counter() + self.deadline_s
        if spec.kind == POISON_TENANT:
            req = PoisonRequest(deadline=deadline)
            req.tenant = victim
            serving._enqueue(req, block=False)
            # a burst beyond the in-flight bound must shed typed at the
            # credit gate, never occupy a queue slot; whether it sheds
            # here races the first poison's (fast) completion, so the
            # outcome is counted, not recorded in the seed signature
            extra = PoisonRequest(deadline=deadline)
            extra.tenant = victim
            try:
                serving._enqueue(extra, block=False)
            except OverloadedError:
                self.telemetry.counter("faults.tenant.backpressure").inc()
            return req
        if spec.kind == STALL_TENANT:
            req = _StallRequest(spec.duration_s, deadline=deadline)
            req.tenant = victim
            serving._enqueue(req, block=False)
            return req
        assert spec.kind == DISCONNECT_TENANT, spec.kind
        # submit a real query, then vanish: the worker must skip the
        # cancelled request typed and hand the credit straight back
        req = serving.submit(row, x_values, block=False, tenant=victim)
        req.cancel()
        return req

    def run_handshake_abort(self, plan: FaultPlan) -> SessionVerdict:
        """Client vanishes mid-negotiation: gateway must surface
        :class:`HandshakeError` and release the session thread."""
        start = time.perf_counter()
        spec = next(f for f in plan.faults if f.kind == ABORT_HANDSHAKE)
        injected = [f"{ABORT_HANDSHAKE}:after={spec.after_frames}"]
        self.telemetry.counter(f"faults.injected.{ABORT_HANDSHAKE}").inc()
        config = ServingConfig(
            workers=1, queue_depth=4, refill=False, recv_timeout_s=self.recv_timeout_s
        )
        serving = ServingServer(self.server, config, telemetry=self.telemetry)
        gateway = GCGateway(
            self.server,
            serving=serving,
            telemetry=self.telemetry,
            handshake_timeout_s=self.recv_timeout_s,
            reap_interval_s=0.05,
        )
        ours, theirs = socket.socketpair()
        # send the client's frames and close BEFORE the gateway adopts the
        # socket: the buffered bytes are still delivered, and the abort is
        # deterministic (no race between our close and the gateway's
        # welcome) — the gateway always observes a vanished peer
        client = SocketEndpoint(
            "chaos-client", ours, recv_timeout_s=self.recv_timeout_s
        )
        try:
            if spec.after_frames >= 1:
                hello = {"protocol_version": PROTOCOL_VERSION, "name": "chaos-abort"}
                client.send(HELLO_TAG, json.dumps(hello, sort_keys=True).encode())
        finally:
            client.close()
        thread = gateway.adopt(theirs)
        thread.join(timeout=self.deadline_s)
        try:
            if thread.is_alive():
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    "gateway session thread leaked after handshake abort",
                    injected=injected, start=start,
                )
            error = gateway._last_session_error
            if isinstance(error, HandshakeError):
                return self._verdict(
                    plan, "gateway", SURFACED,
                    f"gateway surfaced typed HandshakeError: {error}",
                    error_type=type(error).__name__, injected=injected, start=start,
                )
            return self._verdict(
                plan, "gateway", VIOLATION,
                f"expected HandshakeError, gateway recorded {error!r}",
                error_type=type(error).__name__ if error else "",
                injected=injected, start=start,
            )
        finally:
            gateway.stop()

    # ------------------------------------------------------------------
    # recovery faults (session resume)
    # ------------------------------------------------------------------
    def run_gateway_recovery(self, plan: FaultPlan, row: int, x_values) -> SessionVerdict:
        """Cut or shed a live gateway session; the query must still end
        with the bit-identical result — and without re-garbling.

        The run gets its own :class:`CloudServer` with ``pool_size=0``
        so ``runs_garbled`` is an exact oracle: one query, resumed or
        not, must garble exactly once.  A delta of 2 means a completed
        round was re-garbled, which is both wasted accelerator work and
        a label-reuse hazard.
        """
        start = time.perf_counter()
        spec = next(f for f in plan.faults if f.kind in (DISCONNECT, SHED))
        injected: list[str] = []
        self.telemetry.counter(f"faults.injected.{spec.kind}").inc()
        expected = self._expected(row, x_values)
        rec_server = CloudServer(
            self.server.model,
            self.server.fmt,
            pool_size=0,
            seed=plan.seed,
            auto_refill=False,
            telemetry=self.telemetry,
            garble_mode=getattr(self.server, "garble_mode", "sequential"),
        )
        recv_timeout = max(1.0, 8.0 * self.recv_timeout_s)
        config = ServingConfig(
            workers=1,
            queue_depth=1,
            refill=False,
            recv_timeout_s=recv_timeout,
            request_timeout_s=self.deadline_s,
            resume_window_s=self.deadline_s,
            retry_after_s=0.02,
        )
        serving = ServingServer(rec_server, config, telemetry=self.telemetry)
        gateway = GCGateway(rec_server, serving=serving, telemetry=self.telemetry)
        serving.start()
        client = None
        release = threading.Event()
        try:
            def dial():
                ours, theirs = socket.socketpair()
                gateway.adopt(theirs)
                return SocketEndpoint(
                    "chaos-recovery", ours, recv_timeout_s=recv_timeout
                )

            client = RemoteAnalyticsClient(
                dial=dial,
                name="chaos-recovery",
                backoff=BackoffPolicy(
                    base_s=0.01, cap_s=0.1, max_attempts=10, seed=plan.seed
                ),
                recv_timeout_s=recv_timeout,
                backend=self.backend if self.backend != "gc" else None,
            )
            if spec.kind == SHED:
                self._saturate(serving, release)
            served_before = self._served_runs(rec_server)
            box: dict = {}

            def attempt():
                try:
                    box["value"] = client.query_row(row, x_values)
                except BaseException as exc:
                    box["error"] = exc

            worker = threading.Thread(
                target=attempt, daemon=True, name="oracle-recovery"
            )
            worker.start()
            if spec.kind == DISCONNECT:
                cut = self._cut_after_frame(client, spec.frame, worker)
                if cut:
                    injected.append(f"{DISCONNECT}:cut@{spec.frame}")
            else:
                # the queue is saturated, so the first QUERY is shed;
                # release the blockers once the shed reply went out
                self._await_counter("gateway.shed", worker)
                injected.append(f"{SHED}:queue_full")
                release.set()
            worker.join(timeout=self.deadline_s)
            if worker.is_alive():
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    "recovery session exceeded its deadline (hang)",
                    injected=injected, start=start,
                )
            if "error" in box:
                exc = box["error"]
                if isinstance(exc, ReproError):
                    return self._verdict(
                        plan, "gateway", SURFACED,
                        f"typed error within deadline: {exc}",
                        error_type=type(exc).__name__,
                        injected=injected, start=start,
                    )
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    f"untyped exception escaped: {type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    injected=injected, start=start,
                )
            if abs(box["value"] - expected) >= 1e-9:
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    f"silent wrong MAC result after recovery: "
                    f"got {box['value']}, expected {expected}",
                    injected=injected, start=start,
                )
            served = self._served_runs(rec_server) - served_before
            if served != 1:
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    self._recompute_detail(served),
                    injected=injected, start=start,
                )
            resumes = getattr(client.endpoint, "resumes", 0)
            if injected and (resumes >= 1 or spec.kind == SHED):
                return self._verdict(
                    plan, "gateway", RECOVERED,
                    "fault hit a live session; query finished bit-identical "
                    "without recomputing",
                    attempts=1 + resumes, injected=injected, start=start,
                )
            return self._verdict(
                plan, "gateway", TOLERATED,
                "fault never fired (cut frame beyond the session); clean run",
                injected=injected, start=start,
            )
        finally:
            release.set()
            if client is not None:
                client.close()
            gateway.stop()
            serving.stop()

    def run_slo_recovery(self, plan: FaultPlan, row: int, x_values) -> SessionVerdict:
        """The recovery invariants with the SLO controller in the loop.

        The gateway runs ``controller="slo"`` with the worker knob
        pinned (``min == max == 1`` — the saturation fault assumes the
        1-worker/depth-1 layer) and a tick interval far beyond the
        deadline, so the only ticks are the two deterministic warm-up
        ticks this method fires by hand: an overloaded sample trace
        that walks the escalation ladder to a non-default operating
        point (batch ceiling shrunk 4 → 2, shed left at zero so the
        session's own query is never probabilistically dropped).  The
        fault then fires mid-adaptation, and on top of the standard
        checks (bit-identical MAC, exactly one garble, typed errors)
        the drained gateway's operating point must be inherited intact
        by a successor built on the same store.
        """
        start = time.perf_counter()
        spec = next(f for f in plan.faults if f.kind in (DISCONNECT, SHED))
        injected: list[str] = []
        self.telemetry.counter(f"faults.injected.{spec.kind}").inc()
        expected = self._expected(row, x_values)
        rec_server = CloudServer(
            self.server.model,
            self.server.fmt,
            pool_size=0,
            seed=plan.seed,
            auto_refill=False,
            telemetry=self.telemetry,
            garble_mode=getattr(self.server, "garble_mode", "sequential"),
        )
        recv_timeout = max(1.0, 8.0 * self.recv_timeout_s)
        config = ServingConfig(
            workers=1,
            queue_depth=1,
            refill=False,
            recv_timeout_s=recv_timeout,
            request_timeout_s=self.deadline_s,
            resume_window_s=self.deadline_s,
            retry_after_s=0.02,
            controller="slo",
            slo_min_workers=1,
            slo_max_workers=1,
            slo_tick_s=60.0,
            slo_cooldown_ticks=1,
        )
        serving = ServingServer(rec_server, config, telemetry=self.telemetry)
        gateway = GCGateway(rec_server, serving=serving, telemetry=self.telemetry)
        serving.start()
        # two deterministic warm ticks: pinned workers + overload walks
        # the ladder to batch-shrink; shed stays 0 after two moves
        hot = LoadSample(
            queue_depth=1, queue_capacity=1, inflight=1, workers=1,
            p50_ms=4.0 * config.slo_p99_ms, p99_ms=4.0 * config.slo_p99_ms,
        )
        for _ in range(2):
            serving.controller.tick(hot)
        client = None
        release = threading.Event()
        try:
            def dial():
                ours, theirs = socket.socketpair()
                gateway.adopt(theirs)
                return SocketEndpoint(
                    "chaos-slo", ours, recv_timeout_s=recv_timeout
                )

            client = RemoteAnalyticsClient(
                dial=dial,
                name="chaos-slo",
                backoff=BackoffPolicy(
                    base_s=0.01, cap_s=0.1, max_attempts=10, seed=plan.seed
                ),
                recv_timeout_s=recv_timeout,
                backend=self.backend if self.backend != "gc" else None,
            )
            if spec.kind == SHED:
                self._saturate(serving, release)
            served_before = self._served_runs(rec_server)
            box: dict = {}

            def attempt():
                try:
                    box["value"] = client.query_row(row, x_values)
                except BaseException as exc:
                    box["error"] = exc

            worker = threading.Thread(
                target=attempt, daemon=True, name="oracle-slo"
            )
            worker.start()
            if spec.kind == DISCONNECT:
                cut = self._cut_after_frame(client, spec.frame, worker)
                if cut:
                    injected.append(f"{DISCONNECT}:cut@{spec.frame}")
            else:
                self._await_counter("gateway.shed", worker)
                injected.append(f"{SHED}:queue_full")
                release.set()
            worker.join(timeout=self.deadline_s)
            if worker.is_alive():
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    "slo recovery session exceeded its deadline (hang)",
                    injected=injected, start=start,
                )
            if "error" in box:
                exc = box["error"]
                if isinstance(exc, ReproError):
                    return self._verdict(
                        plan, "gateway", SURFACED,
                        f"typed error within deadline: {exc}",
                        error_type=type(exc).__name__,
                        injected=injected, start=start,
                    )
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    f"untyped exception escaped: {type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    injected=injected, start=start,
                )
            if abs(box["value"] - expected) >= 1e-9:
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    f"silent wrong MAC result after recovery: "
                    f"got {box['value']}, expected {expected}",
                    injected=injected, start=start,
                )
            served = self._served_runs(rec_server) - served_before
            if served != 1:
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    self._recompute_detail(served),
                    injected=injected, start=start,
                )
            # the controller's operating point must ride the drain:
            # a successor on the same store inherits it verbatim
            op_before = serving.controller.operating_point.to_dict()
            gateway.drain(timeout_s=2.0)
            successor_serving = ServingServer(
                rec_server, config, telemetry=self.telemetry
            )
            GCGateway(
                rec_server, serving=successor_serving,
                store=gateway.store, telemetry=self.telemetry,
            )
            op_after = successor_serving.controller.operating_point.to_dict()
            if op_after != op_before:
                return self._verdict(
                    plan, "gateway", VIOLATION,
                    f"controller state lost across drain: predecessor "
                    f"checkpointed {op_before}, successor restored "
                    f"{op_after}",
                    injected=injected, start=start,
                )
            resumes = getattr(client.endpoint, "resumes", 0)
            if injected and (resumes >= 1 or spec.kind == SHED):
                return self._verdict(
                    plan, "gateway", RECOVERED,
                    "fault hit a live adapting session; query finished "
                    "bit-identical without recomputing and the operating "
                    "point survived the drain",
                    attempts=1 + resumes, injected=injected, start=start,
                )
            return self._verdict(
                plan, "gateway", TOLERATED,
                "fault never fired (cut frame beyond the session); clean "
                "adaptive run, operating point survived the drain",
                injected=injected, start=start,
            )
        finally:
            release.set()
            if client is not None:
                client.close()
            gateway.stop()
            serving.stop()

    def run_gateway_handoff(
        self, plan: FaultPlan, row: int, x_values, ot_mode: str = "per_round"
    ) -> SessionVerdict:
        """Kill or drain one member of a gateway fleet mid-stream; a
        peer sharing the session store must finish the query.

        The conformance bar is the tentpole's acceptance criterion: the
        migrated session ends with the bit-identical MAC result, exactly
        one run is garbled (``pool_size=0`` makes ``runs_garbled`` an
        exact no-double-garbling oracle — a lease-fencing failure shows
        up as a delta of 2), and either OT mode survives the handoff
        (an ``upfront`` session's remaining label slices ride in the
        checkpoint).
        """
        from repro.fleet import GatewayGroup

        start = time.perf_counter()
        spec = next(f for f in plan.faults if f.kind in HANDOFF_FAULT_KINDS)
        injected: list[str] = []
        self.telemetry.counter(f"faults.injected.{spec.kind}").inc()
        expected = self._expected(row, x_values)
        rec_server = CloudServer(
            self.server.model,
            self.server.fmt,
            pool_size=0,
            seed=plan.seed,
            auto_refill=False,
            telemetry=self.telemetry,
            garble_mode=getattr(self.server, "garble_mode", "sequential"),
        )
        recv_timeout = max(1.0, 8.0 * self.recv_timeout_s)
        config = ServingConfig(
            workers=1,
            queue_depth=2,
            refill=False,
            recv_timeout_s=recv_timeout,
            request_timeout_s=self.deadline_s,
            resume_window_s=self.deadline_s,
            retry_after_s=0.02,
            # short enough that a peer steals a dead member's lease well
            # inside the client's backoff budget
            lease_ttl_s=0.3,
            resume_batch_window_s=0.01,
        )
        group = GatewayGroup(
            rec_server, n_gateways=self.gateways, config=config,
            telemetry=self.telemetry,
        )
        group.start()
        client = None
        try:
            # the dialer starts at the target member so the fault is
            # guaranteed to hit the gateway actually serving the session
            dialer = group.loopback_dialer(
                name="chaos-handoff",
                recv_timeout_s=recv_timeout,
                start_at=spec.gateway,
            )
            client = RemoteAnalyticsClient(
                dial=dialer,
                name="chaos-handoff",
                backoff=BackoffPolicy(
                    base_s=0.02, cap_s=0.1, max_attempts=12, seed=plan.seed
                ),
                recv_timeout_s=recv_timeout,
                backend=self.backend if self.backend != "gc" else None,
            )
            served_before = self._served_runs(rec_server)
            box: dict = {}

            def attempt():
                try:
                    box["value"] = client.query_row(row, x_values, ot_mode=ot_mode)
                except BaseException as exc:
                    box["error"] = exc

            worker = threading.Thread(
                target=attempt, daemon=True, name="oracle-handoff"
            )
            worker.start()
            fired = self._fire_gateway_fault(client, group, spec, worker)
            if fired:
                injected.append(f"{spec.kind}:gw{spec.gateway}@{spec.frame}")
            worker.join(timeout=self.deadline_s)
            gateway_id = getattr(client.endpoint, "last_gateway_id", "")
            if worker.is_alive():
                return self._verdict(
                    plan, "fleet", VIOLATION,
                    "handoff session exceeded its deadline (hang)",
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            if "error" in box:
                exc = box["error"]
                if isinstance(exc, ReproError):
                    return self._verdict(
                        plan, "fleet", SURFACED,
                        f"typed error within deadline: {exc}",
                        error_type=type(exc).__name__,
                        injected=injected, start=start, gateway_id=gateway_id,
                    )
                return self._verdict(
                    plan, "fleet", VIOLATION,
                    f"untyped exception escaped: {type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            if abs(box["value"] - expected) >= 1e-9:
                return self._verdict(
                    plan, "fleet", VIOLATION,
                    f"silent wrong MAC result after handoff: "
                    f"got {box['value']}, expected {expected}",
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            served = self._served_runs(rec_server) - served_before
            if served != 1:
                return self._verdict(
                    plan, "fleet", VIOLATION,
                    self._recompute_detail(served),
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            resumes = getattr(client.endpoint, "resumes", 0)
            if fired and (resumes >= 1 or spec.kind == DRAIN_GATEWAY):
                return self._verdict(
                    plan, "fleet", RECOVERED,
                    f"gateway gw{spec.gateway} {spec.kind.split('_')[0]}ed "
                    "mid-stream; a peer finished the query bit-identical "
                    "without recomputing",
                    attempts=1 + resumes, injected=injected, start=start,
                    gateway_id=gateway_id,
                )
            return self._verdict(
                plan, "fleet", TOLERATED,
                "fault never fired (cut frame beyond the session); clean run",
                injected=injected, start=start, gateway_id=gateway_id,
            )
        finally:
            if client is not None:
                client.close()
            group.stop()

    def _fire_gateway_fault(self, client, group, spec, worker) -> bool:
        """Trigger the handoff fault once the client has verified
        ``spec.frame`` session frames; returns False if the query
        finished before the trigger point was reached."""
        deadline = time.monotonic() + self.deadline_s
        while time.monotonic() < deadline and worker.is_alive():
            if client.endpoint.recv_seq >= spec.frame:
                break
            time.sleep(0.001)
        else:
            return False
        if spec.kind == KILL_GATEWAY:
            # the power-cut model: the member dies AND the client's wire
            # drops.  Closing only the server side would leave buffered
            # socketpair bytes readable — a free-running upfront stream
            # could finish without ever migrating, testing nothing.
            transport = client.endpoint.transport
            group.kill(spec.gateway)
            try:
                transport.close()
            except Exception:
                pass
            return True
        # graceful drain: blocks until the member checkpointed its
        # sessions and released their leases
        group.drain(spec.gateway, timeout_s=max(2.0, self.deadline_s / 4))
        return True

    # ------------------------------------------------------------------
    # process-fleet faults (real subprocesses, shared store file)
    # ------------------------------------------------------------------
    def _ensure_fleet(self):
        """The lazily built, session-spanning :class:`ProcessFleet`:
        spawning real gateway processes costs ~1 s, so one fleet serves
        every process-tier session of the run and is respawned member
        by member as the faults kill them."""
        if self._fleet is not None:
            return self._fleet
        from repro.fleet import ProcessFleet

        if self.fleet_seed is None:
            raise ConfigurationError(
                "process-tier sessions need fleet_seed (the members "
                "re-derive the shared model from it)"
            )
        rows, rounds = self.server.model.shape
        recv_timeout = max(1.0, 8.0 * self.recv_timeout_s)
        config = ServingConfig(
            workers=1,
            queue_depth=4,
            refill=False,
            recv_timeout_s=recv_timeout,
            request_timeout_s=self.deadline_s,
            resume_window_s=self.deadline_s,
            retry_after_s=0.02,
            lease_ttl_s=0.3,
            resume_batch_window_s=0.01,
            drain_timeout_s=10.0,
        )
        fleet = ProcessFleet(
            n_members=self.gateways,
            seed=self.fleet_seed,
            rows=rows,
            rounds=rounds,
            pool_size=0,
            auto_refill=False,
            config=config,
            telemetry=self.telemetry,
        )
        if not np.array_equal(fleet.model, self.server.model):
            raise ConfigurationError(
                "fleet_seed does not reproduce the oracle server's model; "
                "process-tier verdicts would compare against the wrong MAC"
            )
        fleet.start()
        self._fleet = fleet
        self._fleet_audit = fleet.open_store()
        return fleet

    def run_process_session(
        self, plan: FaultPlan, row: int, x_values, ot_mode: str = "per_round"
    ) -> SessionVerdict:
        """Kill (``SIGKILL``), drain (``SIGTERM``), or cut the wire to a
        member of a *real* subprocess fleet mid-stream.

        The conformance bar is the tentpole's: the session ends with the
        bit-identical MAC result; **zero re-garbled rounds**, proved by
        the per-process ``runs_garbled`` counters shipped over the
        results pipes (a SIGKILL may erase the victim's last report —
        its delta may read 0 — but no *survivor* may ever garble the
        migrated session again); and the lease ledger balances after
        recovery (checkpoint tombstoned, lease released, in the shared
        file).  The fault fires only once the store shows the session's
        commit at the plan's round — the frame counts other tiers use
        can land inside the admission window, where a lease exists but
        no checkpoint does.
        """
        start = time.perf_counter()
        spec = next(f for f in plan.faults if f.kind in PROCESS_FAULT_KINDS)
        injected: list[str] = []
        self.telemetry.counter(f"faults.injected.{spec.kind}").inc()
        fleet = self._ensure_fleet()
        audit = self._fleet_audit
        expected = self._expected(row, x_values)
        victim = spec.gateway % fleet.n_members
        before = fleet.runs_garbled_by_member()
        recv_timeout = max(1.0, 8.0 * self.recv_timeout_s)
        client = None
        respawn_error = ""
        try:
            # dial the victim directly so the fault provably hits the
            # member serving the session
            client = RemoteAnalyticsClient(
                dial=fleet.dialer(
                    name="chaos-procs", recv_timeout_s=recv_timeout,
                    start_at=victim,
                ),
                name="chaos-procs",
                backoff=BackoffPolicy(
                    base_s=0.02, cap_s=0.1, max_attempts=12, seed=plan.seed
                ),
                recv_timeout_s=recv_timeout,
            )
            sid = client.session_id
            box: dict = {}

            def attempt():
                try:
                    box["value"] = client.query_row(row, x_values, ot_mode=ot_mode)
                except BaseException as exc:
                    box["error"] = exc

            worker = threading.Thread(
                target=attempt, daemon=True, name="oracle-procs"
            )
            worker.start()
            fired = self._fire_process_fault(
                audit, fleet, client, sid, spec, victim, worker
            )
            if fired:
                injected.append(f"{spec.kind}:m{victim}@commit{spec.frame}")
            worker.join(timeout=self.deadline_s)
            gateway_id = getattr(client.endpoint, "last_gateway_id", "")
            if worker.is_alive():
                return self._verdict(
                    plan, "procs", VIOLATION,
                    "process session exceeded its deadline (hang)",
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            if "error" in box:
                exc = box["error"]
                if isinstance(exc, ReproError):
                    return self._verdict(
                        plan, "procs", SURFACED,
                        f"typed error within deadline: {exc}",
                        error_type=type(exc).__name__,
                        injected=injected, start=start, gateway_id=gateway_id,
                    )
                return self._verdict(
                    plan, "procs", VIOLATION,
                    f"untyped exception escaped: {type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            if abs(box["value"] - expected) >= 1e-9:
                return self._verdict(
                    plan, "procs", VIOLATION,
                    f"silent wrong MAC result across processes: "
                    f"got {box['value']}, expected {expected}",
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            detail = self._check_process_counters(fleet, spec, victim, before)
            if detail:
                return self._verdict(
                    plan, "procs", VIOLATION, detail,
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            # the ledger must balance after recovery: the adopter (or the
            # survivor) tombstones the checkpoint and releases the lease
            client.close()
            detail = self._await_balanced_ledger(audit, sid)
            if detail:
                return self._verdict(
                    plan, "procs", VIOLATION, detail,
                    injected=injected, start=start, gateway_id=gateway_id,
                )
            resumes = getattr(client.endpoint, "resumes", 0)
            if fired and (resumes >= 1 or spec.kind == TERM_PROCESS):
                return self._verdict(
                    plan, "procs", RECOVERED,
                    f"member m{victim} hit {spec.kind} mid-stream; the "
                    "session finished bit-identical through the shared "
                    "store, zero rounds re-garbled, ledger balanced",
                    attempts=1 + resumes, injected=injected, start=start,
                    gateway_id=gateway_id,
                )
            return self._verdict(
                plan, "procs", TOLERATED,
                "fault never fired (commit trigger beyond the session); "
                "clean run, ledger balanced",
                injected=injected, start=start, gateway_id=gateway_id,
            )
        finally:
            if client is not None:
                client.close()
            for i in range(fleet.n_members):
                if not fleet.alive(i):
                    try:
                        fleet.respawn(i)
                    except (ReproError, OSError) as exc:
                        respawn_error = f"member m{i} failed to respawn: {exc}"
            if respawn_error:
                # later sessions will surface the hole (their dials
                # fail); the counter records where it opened
                self.telemetry.counter("faults.procs.respawn_failures").inc()

    def _fire_process_fault(
        self, audit, fleet, client, sid, spec, victim: int, worker
    ) -> bool:
        """Fire the process fault once the shared store shows the
        session's commit at ``spec.frame``; returns False if the query
        finished (or the deadline passed) before the trigger."""
        deadline = time.monotonic() + self.deadline_s
        while time.monotonic() < deadline and worker.is_alive():
            committed = audit.committed_round(sid)
            if committed is not None and committed >= spec.frame:
                break
            time.sleep(0.001)
        else:
            return False
        if spec.kind == KILL_PROCESS:
            fleet.kill(victim)
        elif spec.kind == TERM_PROCESS:
            fleet.terminate(victim, timeout_s=max(5.0, self.deadline_s))
        else:
            assert spec.kind == DISCONNECT_PROCESS, spec.kind
            try:
                client.endpoint.transport.close()
            except OSError:
                pass
        return True

    def _check_process_counters(self, fleet, spec, victim: int, before) -> str:
        """The zero-re-garble oracle over the per-process counters.
        Returns an empty string when the invariant holds, else the
        violation detail."""
        if spec.kind in (TERM_PROCESS, DISCONNECT_PROCESS):
            # the serving member is (or exited) cooperative: its garble
            # report ships over the pipe — wait for it, then require
            # exactly one garble fleet-wide
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                after = fleet.runs_garbled_by_member()
                if sum(after) - sum(before) >= 1:
                    break
                time.sleep(0.01)
            time.sleep(0.05)  # let a (buggy) second report land too
            after = fleet.runs_garbled_by_member()
            total = sum(after) - sum(before)
            if total != 1:
                return (
                    f"query garbled {total} runs across the fleet "
                    "(expected exactly 1): a completed round was re-garbled"
                )
            return ""
        # SIGKILL: the victim's last report may be lost with the process
        # (delta 0 or 1), but the survivors adopted a checkpoint — any
        # garble on their side is a re-garble
        after = fleet.runs_garbled_by_member()
        deltas = [a - b for a, b in zip(after, before)]
        survivors = [d for i, d in enumerate(deltas) if i != victim]
        if any(d != 0 for d in survivors):
            return (
                f"a survivor re-garbled the killed member's session "
                f"(per-member deltas {deltas}, victim m{victim})"
            )
        if deltas[victim] > 1:
            return (
                f"victim m{victim} garbled {deltas[victim]} runs for one "
                "query before dying"
            )
        return ""

    def _await_balanced_ledger(self, audit, sid: str) -> str:
        """Wait (bounded) for the shared store to show a balanced ledger
        for ``sid``: checkpoint tombstoned, lease released.  Returns an
        empty string on balance, else the violation detail."""
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if (audit.get(sid) is None
                    and audit.lease_holder(sid) is None):
                return ""
            time.sleep(0.02)
        cp = audit.get(sid)
        lease = audit.lease_holder(sid)
        return (
            f"lease ledger unbalanced after recovery: checkpoint="
            f"{'present' if cp is not None else 'none'}, "
            f"lease_holder={lease!r}"
        )

    def _cut_after_frame(self, client, frame: int, worker) -> bool:
        """Close the client's transport once it has verified ``frame``
        session frames; returns False if the query finished first."""
        deadline = time.monotonic() + self.deadline_s
        while time.monotonic() < deadline and worker.is_alive():
            endpoint = client.endpoint
            if endpoint.recv_seq >= frame:
                endpoint.transport.close()
                return True
            time.sleep(0.001)
        return False

    def _await_counter(self, name: str, worker, minimum: int = 1) -> None:
        deadline = time.monotonic() + self.deadline_s
        while time.monotonic() < deadline and worker.is_alive():
            if self.telemetry.counter(name).value >= minimum:
                return
            time.sleep(0.001)

    def _saturate(self, serving, release: threading.Event) -> None:
        """Fill the 1-worker/depth-1 serving layer with requests that
        block on ``release``, so the next admission must shed."""
        deadline = time.perf_counter() + self.deadline_s

        first = _BlockerRequest(release, deadline)
        serving._enqueue(first, block=True)
        # wait until the worker picked it up, then fill the queue slot
        wait_until = time.monotonic() + self.deadline_s
        while time.monotonic() < wait_until and not serving._queue.empty():
            time.sleep(0.001)
        serving._enqueue(_BlockerRequest(release, deadline), block=True)

    # ------------------------------------------------------------------
    def _expected(self, row: int, x_values) -> float:
        return float(
            self.server.model[row] @ np.asarray(x_values, dtype=np.float64)
        )

    @staticmethod
    def _verdict(
        plan, transport, verdict, detail, error_type="", attempts=1, injected=None,
        start=0.0, gateway_id="",
    ) -> SessionVerdict:
        return SessionVerdict(
            plan=plan.to_dict(),
            transport=transport,
            verdict=verdict,
            detail=detail,
            error_type=error_type,
            attempts=attempts,
            injected=list(injected or []),
            elapsed_s=time.perf_counter() - start,
            gateway_id=gateway_id,
        )
