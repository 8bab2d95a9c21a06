"""The conformance oracle: every faulted session must end well.

"Well" means exactly one of two things, each within the configured
deadline:

* **tolerated** — the session completes with the bit-identical MAC
  result the fault-free session produces (possibly after one bounded
  retry of a retryable fault);
* **surfaced** — a typed error from the :mod:`repro.errors` hierarchy,
  for a fault kind whose contract allows one (:data:`CONTRACTS`): where
  recovery is promised, a typed error is a violation too.

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
import os
import signal
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
    RECOVERY_FAULT_KINDS,
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

#: What each fault kind promises.  ``RECOVERED``: the query finishes
#: bit-identical (``tolerated`` when the fault never fired), so a typed
#: error is a violation.  Every other kind may end ``SURFACED``.
CONTRACTS = {
    DISCONNECT: RECOVERED,
    SHED: RECOVERED,
    KILL_GATEWAY: RECOVERED,
    DRAIN_GATEWAY: RECOVERED,
    KILL_PROCESS: RECOVERED,
    TERM_PROCESS: RECOVERED,
    DISCONNECT_PROCESS: RECOVERED,
}


def contract_for(plan: FaultPlan) -> str:
    """The plan's contract: recovery only when all its faults promise it."""
    kinds = plan.kinds
    if kinds and all(CONTRACTS.get(k) == RECOVERED for k in kinds):
        return RECOVERED
    return SURFACED


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


class FrameGate:
    """Holds a client endpoint's reads at a chosen frame count.

    While armed (:meth:`hold`), the thread reading from ``endpoint``
    parks before each frame once the endpoint has verified ``seq``
    frames, until the gate is re-armed or released.  A fault fired
    while the reader is held lands at that exact frame of the stream,
    however far the server has streamed ahead.
    """

    def __init__(self, endpoint, seq: int | None = None):
        self._endpoint = endpoint
        self._raw_recv = endpoint._recv_message
        self._cond = threading.Condition()
        self._at = seq
        self._held = False
        endpoint._recv_message = self._recv_message

    def _recv_message(self, timeout: float):
        with self._cond:
            while self._at is not None and self._endpoint.recv_seq >= self._at:
                self._held = True
                self._cond.notify_all()
                self._cond.wait()
        return self._raw_recv(timeout)

    def _arm(self, seq: int | None) -> None:
        with self._cond:
            self._at = seq
            self._held = False
            self._cond.notify_all()

    def wait(self, worker: threading.Thread, deadline: float) -> bool:
        """Wait until the reader is held; False if ``worker`` ended or
        the monotonic ``deadline`` passed first."""
        while True:
            with self._cond:
                if self._cond.wait_for(lambda: self._held, 0.005):
                    return True
            if not worker.is_alive() or time.monotonic() > deadline:
                return False

    def hold(self, seq: int, worker: threading.Thread, deadline: float) -> bool:
        """Re-arm at ``seq`` verified frames (letting a held reader go
        on) and :meth:`wait` until the reader is held there."""
        self._arm(seq)
        return self.wait(worker, deadline)

    def release(self) -> None:
        self._arm(None)


def round_end(store, sid: str, round_index: int, deadline: float) -> int | None:
    """The frames a client has verified once it holds every round below
    ``round_index`` of session ``sid``'s stored stream, read from the
    checkpoint's ``stream_boundaries`` (waiting for its put until the
    monotonic ``deadline``); None past the deadline or the stream."""
    while (cp := store.get(sid)) is None:
        if time.monotonic() > deadline:
            return None
        time.sleep(0.001)
    return dict(map(tuple, cp.stream_boundaries)).get(round_index)




@dataclass
class Outcome:
    """What one session attempt ended as, before it is judged: the MAC
    value it returned, the exception it raised, or a hang."""

    value: float | None = None
    error: BaseException | None = None
    hang: bool = False


def judge(
    outcome: Outcome,
    expected: float,
    contract: str = SURFACED,
    *,
    noun: str = "",
    where: str = "",
    invariants=(),
    recovered: str = "",
    clean: str = "result bit-identical to the fault-free session",
) -> tuple[str, str, str]:
    """The one verdict ladder: ``(verdict, detail, error_type)``.

    Hang, then typed error (a violation where ``contract`` promises
    recovery), then untyped error, then a wrong result, then each of
    ``invariants`` in order (a callable returning ``""`` when it holds,
    else the violation detail), then ``recovered`` (the detail of a
    fault that fired and was healed) or ``clean``.  ``noun`` names the
    session in a hang's detail, ``where`` says where a wrong result
    showed up.
    """
    if outcome.hang:
        return VIOLATION, f"{noun} session exceeded its deadline (hang)".strip(), ""
    exc = outcome.error
    if isinstance(exc, ReproError):
        detail = f"typed error within deadline: {exc}"
        if contract == RECOVERED:
            detail = f"typed error where recovery is promised: {detail}"
            return VIOLATION, detail, type(exc).__name__
        return SURFACED, detail, type(exc).__name__
    if exc is not None:
        return (
            VIOLATION,
            f"untyped exception escaped: {type(exc).__name__}: {exc}",
            type(exc).__name__,
        )
    if abs(outcome.value - expected) >= 1e-9:
        return (
            VIOLATION,
            f"silent wrong MAC result{where}: got {outcome.value}, "
            f"expected {expected}",
            "",
        )
    for check in invariants:
        detail = check()
        if detail:
            return VIOLATION, detail, ""
    return (RECOVERED, recovered, "") if recovered else (TOLERATED, clean, "")


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
        #: private-MAC backend the remote sessions negotiate; the
        #: wire/environment fault tiers always exercise the GC path
        self.backend = backend
        #: serving controller the single-gateway topology runs (``slo``
        #: warms it to a non-default operating point first and checks
        #: that the point survives a drain afterwards)
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

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run_session(
        self, plan: FaultPlan, row: int, x_values, transport: str = "memory",
    ) -> SessionVerdict:
        """Run one session under ``plan`` and return its verdict."""
        topology = next(
            (t for t in TOPOLOGIES if set(plan.kinds) & set(t.kinds)), None
        )
        if ABORT_HANDSHAKE in plan.kinds:
            verdict = self.run_handshake_abort(plan)
        elif KILL_WORKER in plan.kinds:
            verdict = self.run_worker_poison(plan, row, x_values)
        elif EXHAUST_POOL in plan.kinds:
            verdict = self.run_pool_exhaustion(plan, row, x_values, transport)
        elif plan.is_tenant:
            verdict = self.run_tenant_isolation(plan, row, x_values)
        elif topology is not None:
            verdict = self.run_remote(topology(self, plan), row, x_values)
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

    def _watch(self, work, fire=None) -> tuple[Outcome, str]:
        """Run ``work`` on a watchdog thread; ``fire(worker)`` (if given)
        runs meanwhile and returns what it injected.  A worker still
        running ``deadline_s`` after that is a hang."""
        outcome = Outcome()

        def run():
            try:
                outcome.value = work()
            except BaseException as exc:
                outcome.error = exc

        worker = threading.Thread(target=run, daemon=True, name="oracle-session")
        worker.start()
        injected = fire(worker) if fire is not None else ""
        worker.join(timeout=self.deadline_s)
        outcome.hang = worker.is_alive()
        return outcome, injected

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
            outcome = self._attempt_with_deadline(
                current, row, x_values, transport, injected
            )
            verdict, detail, error_type = judge(
                outcome, expected, contract_for(plan)
            )
            if verdict == SURFACED and plan.retryable and attempts <= self.max_retries:
                # the fault was one-shot: a bounded retry should succeed
                self.telemetry.counter("faults.retried").inc()
                current = FaultPlan(seed=plan.seed)
                continue
            return self._verdict(
                plan, transport, verdict, detail, error_type=error_type,
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
    ) -> Outcome:
        """One session attempt over a faulty pair, on the watchdog."""

        def attempt() -> float:
            g_chan, e_chan = faulty_pair(
                plan,
                transport,
                telemetry=self.telemetry,
                recv_timeout_s=self.recv_timeout_s,
            )
            try:
                if self.backend == "he":
                    return self._he_channel_attempt(g_chan, e_chan, row, x_values)
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
                return fmt.decode_product(raw)
            finally:
                for ep in (g_chan, e_chan):
                    for kind, frame, tag in ep.injected:
                        injected.append(f"{kind}@{ep.side}:{frame}:{tag}")

        return self._watch(attempt)[0]

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
    # remote sessions (a real client through a gateway topology)
    # ------------------------------------------------------------------
    def run_remote(self, topology: "_Topology", row: int, x_values) -> SessionVerdict:
        """One query through ``topology`` while it fires the plan's
        fault, judged on the verdict ladder and the topology's
        invariants."""
        start = time.perf_counter()
        self.telemetry.counter(f"faults.injected.{topology.spec.kind}").inc()
        expected = self._expected(row, x_values)
        try:
            client = topology.open()
            outcome, fired = self._watch(
                lambda: client.query_row(row, x_values), topology.fire
            )
            resumes = getattr(client.endpoint, "resumes", 0)
            verdict, detail, error_type = topology.judge(
                outcome, expected, fired, resumes
            )
            return self._verdict(
                topology.plan, topology.transport, verdict, detail,
                error_type=error_type,
                attempts=1 + resumes if verdict == RECOVERED else 1,
                injected=[fired] if fired else [], start=start,
                gateway_id=topology.gateway_id(),
            )
        finally:
            topology.close()

    def _remote_config(self, **extra) -> ServingConfig:
        """The serving config every remote topology starts from: one
        worker, no refill, a resume window as long as the deadline."""
        return ServingConfig(
            workers=1,
            refill=False,
            recv_timeout_s=self.remote_recv_timeout_s,
            request_timeout_s=self.deadline_s,
            resume_window_s=self.deadline_s,
            retry_after_s=0.02,
            **extra,
        )

    @property
    def remote_recv_timeout_s(self) -> float:
        return max(1.0, 8.0 * self.recv_timeout_s)

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
        fleet = ProcessFleet(
            n_members=self.gateways,
            seed=self.fleet_seed,
            rows=rows,
            rounds=rounds,
            pool_size=0,
            auto_refill=False,
            config=self._remote_config(
                queue_depth=4, lease_ttl_s=0.3, resume_batch_window_s=0.01,
                drain_timeout_s=10.0,
            ),
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


#: fault kinds a session recovers from with no client resume: a shed is
#: retried, a drain (in process, or a member's SIGTERM) hands the stream
#: over; once one fired, a bit-identical finish counts as recovered
_RECOVERED_WITHOUT_RESUME = frozenset({SHED, DRAIN_GATEWAY, TERM_PROCESS})


class _Topology:
    """The serving side of one remote session.

    A topology builds the serving side and the client's dialer
    (:meth:`open`), fires the plan's fault while the query runs
    (:meth:`fire`, which returns what it injected, ``""`` if the query
    finished first) and lists the invariants a bit-identical finish
    must also meet (:meth:`invariants`).  The oracle owns the watchdog
    and the verdict ladder (:func:`judge`).  Every topology serves from
    a pool-less server (``pool_size=0``), so a query, resumed or not,
    must evaluate exactly once.
    """

    #: the fault kinds this topology fires
    kinds: tuple[str, ...] = ()
    #: the verdict's transport label
    transport = "gateway"
    #: the session in a hang's detail; where a wrong result showed up
    noun, where = "recovery", " after recovery"
    clean = "fault never fired (cut frame beyond the session); clean run"
    client = server = None

    def __init__(self, oracle: ConformanceOracle, plan: FaultPlan):
        self.oracle = oracle
        self.plan = plan
        self.spec = next(f for f in plan.faults if f.kind in self.kinds)

    def open(self) -> RemoteAnalyticsClient:
        raise NotImplementedError

    def fire(self, worker: threading.Thread) -> str:
        raise NotImplementedError

    def recovered(self) -> str:
        """The detail of a fault that fired and was healed."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def invariants(self) -> tuple:
        return (self._one_evaluation,)

    def judge(self, outcome: Outcome, expected: float, fired: str, resumes: int):
        recovered = bool(fired) and (
            resumes >= 1 or self.spec.kind in _RECOVERED_WITHOUT_RESUME
        )
        return judge(
            outcome, expected, contract_for(self.plan),
            noun=self.noun, where=self.where, invariants=self.invariants(),
            recovered=self.recovered() if recovered else "", clean=self.clean,
        )

    def gateway_id(self) -> str:
        """The member that finally served the session (it may differ
        from the one that started it)."""
        return getattr(self.client.endpoint, "last_gateway_id", "")

    # -- shared parts ---------------------------------------------------
    def _pool_less_server(self) -> CloudServer:
        o = self.oracle
        self.server = CloudServer(
            o.server.model, o.server.fmt, pool_size=0, seed=self.plan.seed,
            auto_refill=False, telemetry=o.telemetry,
        )
        return self.server

    def _client(self, dial, name: str, base_s: float, max_attempts: int):
        o = self.oracle
        self.client = RemoteAnalyticsClient(
            dial=dial,
            name=name,
            backoff=BackoffPolicy(
                base_s=base_s, cap_s=0.1, max_attempts=max_attempts,
                seed=self.plan.seed,
            ),
            recv_timeout_s=o.remote_recv_timeout_s,
            backend=o.backend if o.backend != "gc" else None,
        )
        return self.client

    def _served(self) -> int:
        """The backend's evaluation counter: GC garbled runs; HE
        homomorphic products (a re-served checkpoint re-streams the
        stored result ciphertext without recomputing it)."""
        stats = self.server.stats
        return stats.he_queries if self.oracle.backend == "he" else stats.runs_garbled

    def _one_evaluation(self) -> str:
        """Invariant: the query evaluated exactly once.  A delta of 2
        means a completed round was re-garbled (wasted accelerator work,
        a label-reuse hazard, or a lease-fencing failure)."""
        served = self._served() - self.served_before
        if served == 1:
            return ""
        if self.oracle.backend == "he":
            return (
                f"query evaluated {served} HE products (expected exactly 1): "
                "a checkpointed result was recomputed"
            )
        return (
            f"query garbled {served} runs (expected exactly 1): "
            "a completed round was re-garbled"
        )


class _GatewayTopology(_Topology):
    """One :class:`GCGateway` on a 1-worker/depth-1 serving layer; the
    fault cuts the client's wire at a :class:`FrameGate` or sheds its
    query from a saturated queue.

    With the ``slo`` controller the worker knob is pinned (``min == max
    == 1``: the shed assumes the 1-worker layer) and the tick interval
    lies far beyond the deadline, so the only ticks are two warm-up
    ticks fired by hand: an overloaded sample trace that walks the
    escalation ladder to a non-default operating point (batch ceiling
    4 → 2, shed left at zero so the session's own query is never
    dropped).  The fault then fires mid-adaptation, and the operating
    point must survive a drain.
    """

    kinds = RECOVERY_FAULT_KINDS
    gateway = None

    def __init__(self, oracle, plan):
        super().__init__(oracle, plan)
        self.slo = oracle.controller == "slo"
        self.release = threading.Event()
        if self.slo:
            self.noun = "slo recovery"
            self.clean = (
                "fault never fired (cut frame beyond the session); clean "
                "adaptive run, operating point survived the drain"
            )

    def open(self):
        o = self.oracle
        slo = dict(
            controller="slo", slo_min_workers=1, slo_max_workers=1,
            slo_tick_s=60.0, slo_cooldown_ticks=1,
        )
        self.config = o._remote_config(queue_depth=1, **(slo if self.slo else {}))
        self.serving = ServingServer(
            self._pool_less_server(), self.config, telemetry=o.telemetry
        )
        self.gateway = GCGateway(self.server, serving=self.serving, telemetry=o.telemetry)
        self.serving.start()
        if self.slo:
            p99 = 4.0 * self.config.slo_p99_ms
            hot = LoadSample(
                queue_depth=1, queue_capacity=1, inflight=1, workers=1,
                p50_ms=p99, p99_ms=p99,
            )
            for _ in range(2):
                self.serving.controller.tick(hot)
        name = "chaos-slo" if self.slo else "chaos-recovery"

        def dial():
            ours, theirs = socket.socketpair()
            self.gateway.adopt(theirs)
            return SocketEndpoint(name, ours, recv_timeout_s=o.remote_recv_timeout_s)

        client = self._client(dial, name, base_s=0.01, max_attempts=10)
        if self.spec.kind == SHED:
            self._saturate()
        else:
            self.gate = FrameGate(client.endpoint, self.spec.frame)
        self.served_before = self._served()
        return client

    def fire(self, worker):
        deadline = time.monotonic() + self.oracle.deadline_s
        if self.spec.kind == SHED:
            # the queue is saturated, so the first QUERY is shed;
            # release the blockers once the shed reply went out
            shed = self.oracle.telemetry.counter("gateway.shed")
            while time.monotonic() < deadline and worker.is_alive():
                if shed.value >= 1:
                    break
                time.sleep(0.001)
            self.release.set()
            return f"{SHED}:queue_full"
        # holding the reader lands the cut at the same frame on every
        # run, however far the gateway has streamed ahead
        held = self.gate.wait(worker, deadline)
        if held:
            self.client.endpoint.transport.close()
        self.gate.release()
        return f"{DISCONNECT}:cut@{self.spec.frame}" if held else ""

    def invariants(self):
        if self.slo:
            return (self._one_evaluation, self._operating_point)
        return (self._one_evaluation,)

    def recovered(self):
        if self.slo:
            return (
                "fault hit a live adapting session; query finished "
                "bit-identical without recomputing and the operating "
                "point survived the drain"
            )
        return (
            "fault hit a live session; query finished bit-identical "
            "without recomputing"
        )

    def gateway_id(self):
        return ""  # one gateway: no member to name

    def close(self):
        self.release.set()
        if self.client is not None:
            self.client.close()
        if self.gateway is not None:
            self.gateway.stop()
            self.serving.stop()

    def _operating_point(self) -> str:
        """Invariant: the controller's operating point rides the drain —
        a successor on the same store inherits it verbatim."""
        o = self.oracle
        before = self.serving.controller.operating_point.to_dict()
        self.gateway.drain(timeout_s=2.0)
        successor = ServingServer(self.server, self.config, telemetry=o.telemetry)
        GCGateway(
            self.server, serving=successor, store=self.gateway.store,
            telemetry=o.telemetry,
        )
        after = successor.controller.operating_point.to_dict()
        if after == before:
            return ""
        return (
            f"controller state lost across drain: predecessor "
            f"checkpointed {before}, successor restored {after}"
        )

    def _saturate(self) -> None:
        """Fill the 1-worker/depth-1 serving layer with requests that
        block on ``release``, so the next admission must shed."""
        deadline = time.perf_counter() + self.oracle.deadline_s
        serving = self.serving
        serving._enqueue(_BlockerRequest(self.release, deadline), block=True)
        # wait until the worker picked it up, then fill the queue slot
        wait_until = time.monotonic() + self.oracle.deadline_s
        while time.monotonic() < wait_until and not serving._queue.empty():
            time.sleep(0.001)
        serving._enqueue(_BlockerRequest(self.release, deadline), block=True)


class _GroupTopology(_Topology):
    """An in-process :class:`~repro.fleet.GatewayGroup` on one session
    store; the fault kills or drains the member serving the session
    once the client has verified ``spec.frame`` frames, and a peer must
    finish the query.  The lease TTL is short enough that a peer steals
    a dead member's lease well inside the client's backoff budget."""

    kinds = HANDOFF_FAULT_KINDS
    transport = "fleet"
    noun, where = "handoff", " after handoff"
    group = None

    def open(self):
        from repro.fleet import GatewayGroup

        o = self.oracle
        config = o._remote_config(
            queue_depth=2, lease_ttl_s=0.3, resume_batch_window_s=0.01
        )
        self.group = GatewayGroup(
            self._pool_less_server(), n_gateways=o.gateways, config=config,
            telemetry=o.telemetry,
        )
        if self.spec.kind == DRAIN_GATEWAY:
            self._hold_rounds_for_drain(self.group.gateways[self.spec.gateway])
        self.group.start()
        # the dialer starts at the target member so the fault is
        # guaranteed to hit the gateway actually serving the session
        dialer = self.group.loopback_dialer(
            name="chaos-handoff", recv_timeout_s=o.remote_recv_timeout_s,
            start_at=self.spec.gateway,
        )
        client = self._client(dialer, "chaos-handoff", base_s=0.02, max_attempts=12)
        self.served_before = self._served()
        return client

    def fire(self, worker):
        spec = self.spec
        deadline = time.monotonic() + self.oracle.deadline_s
        while time.monotonic() < deadline and worker.is_alive():
            if self.client.endpoint.recv_seq >= spec.frame:
                break
            time.sleep(0.001)
        else:
            return ""
        if spec.kind == KILL_GATEWAY:
            # the power-cut model: the member dies AND the client's wire
            # drops.  Closing only the server side would leave buffered
            # socketpair bytes readable — a stream that never waits on the
            # client could finish without ever migrating, testing nothing.
            transport = self.client.endpoint.transport
            self.group.kill(spec.gateway)
            try:
                transport.close()
            except Exception:
                pass
        else:
            # graceful drain: blocks until the member checkpointed its
            # sessions and released their leases
            self.group.drain(
                spec.gateway, timeout_s=max(2.0, self.oracle.deadline_s / 4)
            )
        return f"{spec.kind}:gw{spec.gateway}@{spec.frame}"

    def recovered(self):
        return (
            f"gateway gw{self.spec.gateway} {self.spec.kind.split('_')[0]}ed "
            "mid-stream; a peer finished the query bit-identical "
            "without recomputing"
        )

    def close(self):
        if self.client is not None:
            self.client.close()
        if self.group is not None:
            self.group.stop()

    def _hold_rounds_for_drain(self, gw: GCGateway) -> None:
        """Pin where a drain triggered at client frame ``spec.frame``
        lands.

        Past its one OT flight the client sends nothing until the
        result, so the stream runs ahead of the client's frame count
        and would race the drain to its next round boundary: the same
        plan would checkpoint mid-stream on one run and finish clean on
        the next.  Every round boundary of ``gw``'s streams that ends at
        or after the frame (per the session's stored frame map) waits
        for the drain that the client's count triggers, so the drain
        stops the stream at the first boundary at or after that frame.
        """
        round_hook, frame = gw._round_hook, self.spec.frame
        deadline_s = self.oracle.deadline_s

        def held(sid: str):
            on_round = round_hook(sid)

            def on_round_held(next_round: int) -> None:
                cp = gw.store.get(sid)
                ends = dict(map(tuple, cp.stream_boundaries)) if cp else {}
                if ends.get(next_round, 0) >= frame:
                    deadline = time.monotonic() + deadline_s
                    while not gw.draining and time.monotonic() < deadline:
                        time.sleep(0.001)
                on_round(next_round)

            return on_round_held

        gw._round_hook = held


class _ProcessTopology(_Topology):
    """A fleet of *real* gateway subprocesses on one store file; the
    fault kills (``SIGKILL``) or drains (``SIGTERM``) a member, or cuts
    the client's wire to it, once the client has verified every frame
    of the plan's round.

    The zero-re-garble proof is the per-process ``runs_garbled``
    counters shipped over the results pipes (a SIGKILL may erase the
    victim's last report — its delta may read 0 — but no *survivor* may
    ever garble the migrated session again), and the lease ledger must
    balance after recovery (checkpoint tombstoned, lease released, in
    the shared file).
    """

    kinds = PROCESS_FAULT_KINDS
    transport = "procs"
    noun, where = "process", " across processes"
    clean = (
        "fault never fired (round trigger beyond the session); "
        "clean run, ledger balanced"
    )
    fleet = None
    fired = False

    def __init__(self, oracle, plan):
        super().__init__(oracle, plan)
        self.victim = self.spec.gateway % oracle.gateways

    def open(self):
        o = self.oracle
        self.fleet = o._ensure_fleet()
        self.audit = o._fleet_audit
        self.before = self.fleet.runs_garbled_by_member()
        # dial the victim directly so the fault provably hits the
        # member serving the session
        dialer = self.fleet.dialer(
            name="chaos-procs", recv_timeout_s=o.remote_recv_timeout_s,
            start_at=self.victim,
        )
        client = self._client(dialer, "chaos-procs", base_s=0.02, max_attempts=12)
        # held once it has read net.ack and seq.rounds: the stream's
        # first frame follows the query's checkpoint put
        self.gate = FrameGate(client.endpoint, client.endpoint.recv_seq + 2)
        self.sid = client.session_id
        return client

    def fire(self, worker):
        """The frame count of the plan's round comes from the session's
        stored checkpoint (``stream_boundaries``), which is on disk
        before the stream's first frame: the gate holds the client there
        until the count is read, then again at the count while the fault
        fires.  Past the client's one OT flight the member streams the
        whole query without waiting, so by then it has sent frames the
        client has not read.  A SIGKILL drops the client's wire with
        them — the power-cut model — and lands at the planned round, as
        does a cut.  A SIGTERM is only a signal: the member drains while
        the client reads on, and its exit is awaited once the client has
        said goodbye (:meth:`close`)."""
        spec, gate, fleet = self.spec, self.gate, self.fleet
        deadline = time.monotonic() + self.oracle.deadline_s
        try:
            if not gate.wait(worker, deadline):
                return ""
            end = round_end(self.audit, self.sid, spec.frame, deadline)
            if end is None or not gate.hold(end, worker, deadline):
                return ""
            if spec.kind == TERM_PROCESS:
                os.kill(fleet.pid(self.victim), signal.SIGTERM)
            else:
                if spec.kind == KILL_PROCESS:
                    fleet.kill(self.victim)
                try:
                    self.client.endpoint.transport.close()
                except OSError:
                    pass
            self.fired = True
            return f"{spec.kind}:m{self.victim}@round{spec.frame}"
        finally:
            gate.release()

    def invariants(self):
        return (self._process_counters, self._balanced_ledger)

    def recovered(self):
        return (
            f"member m{self.victim} hit {self.spec.kind} mid-stream; the "
            "session finished bit-identical through the shared "
            "store, zero rounds re-garbled, ledger balanced"
        )

    def close(self):
        if self.client is not None:
            self.client.close()
        fleet = self.fleet
        if fleet is None:
            return
        if self.fired and self.spec.kind == TERM_PROCESS:
            # the drain heard the client's goodbye; now it exits
            fleet.await_exit(self.victim, timeout_s=max(5.0, self.oracle.deadline_s))
        failed = False
        for i in range(fleet.n_members):
            if not fleet.alive(i):
                try:
                    fleet.respawn(i)
                except (ReproError, OSError):
                    failed = True
        if failed:
            # later sessions will surface the hole (their dials fail);
            # the counter records where it opened
            self.oracle.telemetry.counter("faults.procs.respawn_failures").inc()

    def _process_counters(self) -> str:
        """Invariant: zero re-garbled rounds, over the per-process
        counters."""
        fleet, before, victim = self.fleet, self.before, self.victim
        if self.spec.kind in (TERM_PROCESS, DISCONNECT_PROCESS):
            # the serving member is (or exited) cooperative: its garble
            # report ships over the pipe — wait for it, then require
            # exactly one garble fleet-wide
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if sum(fleet.runs_garbled_by_member()) - sum(before) >= 1:
                    break
                time.sleep(0.01)
            time.sleep(0.05)  # let a (buggy) second report land too
            total = sum(fleet.runs_garbled_by_member()) - sum(before)
            if total != 1:
                return (
                    f"query garbled {total} runs across the fleet "
                    "(expected exactly 1): a completed round was re-garbled"
                )
            return ""
        # SIGKILL: the victim's last report may be lost with the process
        # (delta 0 or 1), but the survivors adopted a checkpoint — any
        # garble on their side is a re-garble
        deltas = [a - b for a, b in zip(fleet.runs_garbled_by_member(), before)]
        if any(d != 0 for i, d in enumerate(deltas) if i != victim):
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

    def _balanced_ledger(self) -> str:
        """Invariant: once the client says goodbye, the shared store
        shows a balanced ledger for the session (the adopter, or the
        survivor, tombstones the checkpoint and releases the lease)."""
        self.client.close()
        audit, sid = self.audit, self.sid
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if audit.get(sid) is None and audit.lease_holder(sid) is None:
                return ""
            time.sleep(0.02)
        cp = audit.get(sid)
        return (
            f"lease ledger unbalanced after recovery: checkpoint="
            f"{'present' if cp is not None else 'none'}, "
            f"lease_holder={audit.lease_holder(sid)!r}"
        )


#: the remote topologies, in dispatch order (a plan runs on the first
#: whose fault kinds it holds)
TOPOLOGIES = (_ProcessTopology, _GroupTopology, _GatewayTopology)
