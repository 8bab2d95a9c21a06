"""The remote analytics client: ``AnalyticsClient`` over a real socket.

Mirrors :class:`repro.host.AnalyticsClient` — same query API, same
result — but the garbler is a :class:`repro.net.gateway.GCGateway` on
the far side of a TCP connection (or an adopted socketpair half).  The
handshake's session descriptor tells the client how to rebuild the MAC
round circuit locally; the fingerprint check guarantees the rebuild
matches what the gateway garbles, so a skewed client fails typed at
connect time, not with garbage labels mid-evaluation.

The evaluator that runs here is the *unmodified*
:class:`repro.gc.sequential_gc.SequentialEvaluator` — the socket
endpoint is drop-in for the in-memory channel, which is the whole point
of the transport layer.

Recovery (:mod:`repro.recover`): when constructed with a
``dial`` callable (or host+port, from which one is synthesized), the
session endpoint is a :class:`ResumableClientEndpoint` — a wire break
mid-query reconnects under capped exponential backoff, resumes the
session by id, and either continues the interrupted frame stream
in place (rebind) or re-enters the evaluation at the gateway's last
checkpointed round (restart), carrying the accumulator state labels
forward so completed rounds are never re-evaluated.  A ``net.drain``
notice and a ``net.retry_after`` shed reply are handled the same way:
back off, come back, finish the query.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np

from repro.accel.tree_mac import build_scheduled_mac
from repro.bits import from_bits, to_bits
from repro.errors import (
    GCProtocolError,
    HandshakeError,
    OverloadedError,
    ResumeError,
    ServingError,
    SessionDrainedError,
)
from repro.fixedpoint import FixedPointFormat
from repro.gc.sequential_gc import OT_MODES, SequentialEvaluator
from repro.gc.stage_plan import stage_plan_for, warm_run_plans
from repro.he import (
    HE_QUERY_TAG,
    HE_RESULT_TAG,
    HEMacClient,
    params_for_workload,
)
from repro.net.endpoint import SocketEndpoint
from repro.net.gateway import ACK_TAG, BYE_TAG, ERROR_TAG, QUERY_TAG
from repro.net.handshake import client_session_handshake, netlist_fingerprint
from repro.recover.checkpoint import EvaluatorProgress
from repro.recover.endpoint import (
    RETRY_AFTER_TAG,
    BackoffPolicy,
    ResumableClientEndpoint,
)


class RemoteAnalyticsClient:
    """Query a remote model over the GC wire: OT in, one scalar out.

    ``dial`` is a zero-argument callable returning a *connected*
    transport endpoint (a :class:`SocketEndpoint`); it is what makes
    the session resumable — without one (the ``from_socket`` loopback
    path) the client cannot reconnect.  ``backoff`` shapes both reconnect pacing
    and how a ``net.retry_after`` shed reply is honored.

    ``backend`` picks the private-MAC backend (negotiated in the hello,
    :data:`repro.privatemac.BACKENDS`): ``None`` accepts the gateway's
    default, a named backend is a hard requirement.  An HE session
    re-derives the BFV ring parameters from the session descriptor and
    verifies them against the gateway's ``backend_params`` — the HE
    analogue of the GC circuit-fingerprint check.  ``he_seed`` seeds
    the HE key generation for reproducible transcripts.
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        sock: socket.socket | None = None,
        name: str = "client",
        telemetry=None,
        recv_timeout_s: float | None = None,
        dial=None,
        backoff: BackoffPolicy | None = None,
        sleeper=time.sleep,
        addresses=None,
        backend: str | None = None,
        he_seed: int | None = None,
        tenant: str = "",
    ):
        self.telemetry = telemetry
        #: admission account this session's queries are charged to under
        #: a ring-scheduled gateway ("" pools into the default tenant)
        self.tenant = tenant
        self.backoff = backoff or BackoffPolicy()
        self._sleeper = sleeper
        if dial is None and addresses:
            # fleet mode: walk the gateway list on failure — any member
            # sharing the session store can answer this client's resume
            from repro.fleet import FailoverDialer

            dial = FailoverDialer.from_addresses(
                addresses,
                name=name,
                telemetry=telemetry,
                recv_timeout_s=recv_timeout_s,
            )
        if dial is None and host is not None and port is not None:
            def dial():
                s = socket.create_connection((host, port))
                return SocketEndpoint(
                    name, s, telemetry=telemetry, recv_timeout_s=recv_timeout_s
                )
        self._dial = dial
        if sock is not None:
            transport = SocketEndpoint(
                name, sock, telemetry=telemetry, recv_timeout_s=recv_timeout_s
            )
        elif self._dial is not None:
            transport = self._dial()
        else:
            raise ServingError(
                "RemoteAnalyticsClient needs host+port, a socket, or a dial callable"
            )
        self.descriptor, welcome = client_session_handshake(
            transport, client_name=name, backend=backend, tenant=tenant
        )
        d = self.descriptor
        self.backend = str(welcome.get("negotiated_backend", "gc"))
        self.fmt = FixedPointFormat(d.total_bits, d.frac_bits)
        self._he: HEMacClient | None = None
        if self.backend == "he":
            # the descriptor pins the workload; both endpoints derive
            # the ring parameters independently and must agree exactly
            params = params_for_workload(self.fmt, d.n_rows, d.rounds)
            published = welcome.get("backend_params")
            if published != params.to_wire():
                transport.close()
                raise HandshakeError(
                    "HE parameter mismatch: gateway published "
                    f"{published!r}, this client derived {params.to_wire()!r} "
                    "(version skew between client and gateway builds)"
                )
            self._he = HEMacClient(params, self.fmt, seed=he_seed)
            self.circuit = None  # HE sessions never evaluate the GC circuit
            self._plan = None
        else:
            self.circuit = build_scheduled_mac(d.total_bits, d.acc_width).circuit
            local_print = netlist_fingerprint(self.circuit)
            if local_print != d.fingerprint:
                transport.close()
                raise HandshakeError(
                    "circuit fingerprint mismatch: gateway garbles "
                    f"{d.fingerprint[:16]}..., this client built {local_print[:16]}... "
                    "(version skew between client and gateway builds)"
                )
            # every query of this connection evaluates on the same plans
            self._plan = stage_plan_for(self.circuit.netlist)
            warm_run_plans(self.circuit, d.rounds, self._plan)
        self.group = d.group
        self.session_id = str(welcome.get("session_id", ""))
        if (
            self.session_id
            and self._dial is not None
            and getattr(self._dial, "place_sessions", False)
        ):
            # fleet placement: reconnects dial the session's rendezvous
            # owner first instead of whoever answered the handshake
            self._dial.pin(self.session_id)
        if self.session_id and self._dial is not None:
            self.endpoint = ResumableClientEndpoint(
                transport,
                dial=self._dial,
                session_id=self.session_id,
                policy=self.backoff,
                telemetry=telemetry,
                recv_timeout_s=recv_timeout_s,
                sleeper=sleeper,
            )
        else:
            self.endpoint = transport
        self._closed = False

    @classmethod
    def from_socket(cls, sock: socket.socket, **kwargs) -> "RemoteAnalyticsClient":
        """Wrap an already-connected socket (socketpair loopback tests)."""
        return cls(sock=sock, **kwargs)

    # ------------------------------------------------------------------
    @property
    def rounds_per_request(self) -> int:
        return self.descriptor.rounds

    @property
    def n_rows(self) -> int:
        return self.descriptor.n_rows

    @property
    def resumable(self) -> bool:
        return isinstance(self.endpoint, ResumableClientEndpoint)

    @property
    def last_noise_budget_bits(self) -> int | None:
        """Noise budget of the last HE decryption (None on GC sessions)."""
        return self._he.last_noise_budget_bits if self._he is not None else None

    def query_row(self, row_index: int, x_values, ot_mode: str = "per_round") -> float:
        """Learn <model[row], x> without revealing x — over the wire.

        Survives (when resumable) a gateway shed, a mid-stream
        disconnect, and a graceful drain: the query always either
        completes with the correct scalar or raises a typed error.
        ``ot_mode`` picks the label-transfer schedule (see
        :data:`repro.gc.sequential_gc.OT_MODES`); either mode survives a
        mid-query migration to another gateway.
        """
        if self._closed:
            raise ServingError("client is closed")
        if ot_mode not in OT_MODES:
            raise GCProtocolError(
                f"unknown OT mode {ot_mode!r} (expected one of {OT_MODES})"
            )
        x = np.asarray(x_values, dtype=np.float64)
        if x.shape != (self.descriptor.rounds,):
            raise GCProtocolError(
                f"query vector must have {self.descriptor.rounds} entries"
            )
        if self.backend == "he":
            return self._query_he(row_index, x)
        x_bits = [
            to_bits(int(v), self.fmt.total_bits) for v in self.fmt.encode_array(x)
        ]
        self._admit(row_index, ot_mode)
        report = self._evaluate(x_bits)
        raw = from_bits(report.output_bits, signed=True)
        return self.fmt.decode_product(raw)

    def _query_he(self, row_index: int, x) -> float:
        """One encrypted-MAC round trip: ``he.query`` out, ``he.result``
        back, decrypted and decoded locally.

        Recovery differs from the GC path in one way: the query
        ciphertext is never re-sent.  A restarted session (drain notice
        or wire break) re-streams the *stored result* ciphertext from
        the checkpoint — the adopted session is already past its
        receive phase — so the client only ever re-enters the receive.
        """
        ep = self.endpoint
        self._admit(row_index, "per_round")
        ep.send(HE_QUERY_TAG, self._he.encrypt_query(x))
        while True:
            try:
                result = ep.recv(HE_RESULT_TAG)
                break
            except SessionDrainedError as exc:
                if not self.resumable:
                    raise
                if exc.resumed:
                    next_round = exc.next_round
                else:
                    next_round = ep.force_resume()
                if next_round not in (0, 1):
                    raise ResumeError(
                        f"gateway resumed HE session {self.session_id} at "
                        f"round {next_round}; an HE query has exactly one"
                    ) from exc
                if self.telemetry is not None:
                    self.telemetry.counter("client.resumed_queries").inc()
        raw = self._he.decrypt_row_result(result)
        if self.telemetry is not None:
            self.telemetry.counter("client.he_queries").inc()
        return self.fmt.decode_product(raw)

    def _admit(self, row_index: int, ot_mode: str = "per_round") -> None:
        """QUERY until ACKed, honoring ``net.retry_after`` shed replies."""
        ep = self.endpoint
        payload = json.dumps(
            {"row": int(row_index), "ot_mode": ot_mode}, sort_keys=True
        ).encode()
        for attempt in range(self.backoff.max_attempts):
            ep.send(QUERY_TAG, payload)
            tag, reply = ep.recv_any((ACK_TAG, ERROR_TAG, RETRY_AFTER_TAG))
            if tag == ACK_TAG:
                return
            if tag == ERROR_TAG:
                raise ServingError(
                    f"gateway refused the query: {reply.decode(errors='replace')}"
                )
            # shed: the gateway is saturated (or draining) right now
            try:
                hint = float(json.loads(reply.decode()).get("delay_s", 0.0))
            except (ValueError, TypeError):
                hint = 0.0
            if self.telemetry is not None:
                self.telemetry.counter("client.shed").inc()
            if attempt + 1 >= self.backoff.max_attempts:
                break
            self.backoff.sleep(attempt, hint_s=hint, sleeper=self._sleeper)
        raise OverloadedError(
            f"gateway still shedding after {self.backoff.max_attempts} attempts"
        )

    def _evaluate(self, x_bits):
        """Run the evaluator, re-entering at a checkpointed round after
        a drain notice or a restart-mode resume."""
        ep = self.endpoint
        progress = EvaluatorProgress()
        evaluator = SequentialEvaluator(self.circuit, ep, self.group, plan=self._plan)
        start_round = 0
        state_labels = None
        while True:
            try:
                return evaluator.run(
                    x_bits,
                    start_round=start_round,
                    state_labels=state_labels,
                    progress=progress,
                )
            except SessionDrainedError as exc:
                if not self.resumable:
                    raise
                if exc.resumed:
                    # a wire break resumed as a checkpoint restart
                    next_round = exc.next_round
                else:
                    # an explicit drain notice: reconnect and resume now
                    next_round = ep.force_resume()
                if next_round != progress.completed_rounds:
                    raise ResumeError(
                        f"gateway resumed session {self.session_id} at round "
                        f"{next_round} but this client completed "
                        f"{progress.completed_rounds} — state diverged"
                    ) from exc
                if self.telemetry is not None:
                    self.telemetry.counter("client.resumed_queries").inc()
                start_round = next_round
                state_labels = (
                    list(progress.state_labels) if next_round > 0 else None
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.resumable:
            self.endpoint.disable_resume()
        try:
            self.endpoint.send(BYE_TAG, b"")
        except (GCProtocolError, ServingError):
            pass  # gateway already gone; nothing left to say
        self.endpoint.close()

    def __enter__(self) -> "RemoteAnalyticsClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
