"""The GC gateway: a TCP front door for remote evaluators.

Figure 1's deployment finally made literal — the cloud host accepts
client connections over the network, handshakes each session
(:mod:`repro.net.handshake`), and streams garbled tables + OT through
the PR 1 serving layer, so remote sessions share the pre-garbled pool,
bounded queue, deadlines, and telemetry with in-process traffic.

Session wire lifecycle (client's view)::

    connect -> net.hello -> net.welcome (or net.reject)
    repeat:
        net.query {row} -> net.ack (or net.error {reason},
                                    or net.retry_after {delay_s})
        <seq.* table/label/OT stream, evaluated locally>
    net.bye -> close

Ordering matters on a single socket: the worker that streams tables
must not start before ``net.ack`` is on the wire, which is what
``RemoteSessionRequest.start_gate`` enforces.

Recovery (:mod:`repro.recover`): a reconnecting client
opens with ``net.resume`` instead of ``net.hello``.  If the original
session thread is still alive (parked on its broken wire inside a
:class:`RebindableEndpoint`), the gateway *rebinds* the fresh socket to
it and both sides replay only unacked frames — completed rounds are
never re-garbled.  If the thread is gone (graceful drain, gateway
restart with a JSONL store), the gateway *restarts* the stream at the
last checkpointed round boundary from the session store.  A SIGTERM
drain stops accepting, lets in-flight sessions finish their current
round, checkpoints them, and tells clients where to resume.

For CI and benches the gateway also serves *adopted* sockets
(:meth:`GCGateway.adopt`) — one half of a ``socketpair`` — so the whole
stack runs without binding a port.

Fleet operation (:mod:`repro.fleet`): N gateways share one session
store.  Every streamed session is fenced by a store lease
(``acquire_lease`` / ``cas_advance``) so the gateway that answers a
``net.resume`` — possibly not the one that issued the checkpoint —
provably owns the session before it streams a single round, and two
gateways can never garble or re-stream the same round.  A resume
restart rewinds to the round the *client* proved it completed (its
``last_acked_seq`` against the checkpoint's stream-boundary map) and
goes through the :class:`~repro.serve.batcher.ResumeBatcher`, which
coalesces the reconnect burst after a gateway kill into batched
round-robin serves.  :meth:`GCGateway.kill` is the crash used by the
handoff chaos profile: no drain, no lease release — successors steal
expired leases.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
import uuid

from repro.errors import (
    GCProtocolError,
    HandshakeError,
    LeaseError,
    OverloadedError,
    ResumeError,
    ServingError,
    SessionDrainedError,
    WireError,
)
from repro.gc.sequential_gc import OT_MODES
from repro.host import CloudServer
from repro.net.endpoint import SocketEndpoint
from repro.net.handshake import (
    HELLO_TAG,
    REJECT_TAG,
    descriptor_for,
    server_handshake,
)
from repro.privatemac import BACKENDS
from repro.recover.checkpoint import SessionCheckpoint, checkpoint_from_stream
from repro.recover.endpoint import (
    DRAIN_TAG,
    RESUME_OK_TAG,
    RESUME_TAG,
    RETRY_AFTER_TAG,
    RebindableEndpoint,
)
from repro.recover.store import InMemorySessionStore, SessionStore
from repro.serve import (
    CONTROLLER_STATE_KEY,
    OperatingPoint,
    ServingConfig,
    ServingServer,
    resolve_backend,
    resolve_reaper_timeout,
)
from repro.serve.batcher import ResumeBatcher
from repro.telemetry import MetricsRegistry

QUERY_TAG = "net.query"
ACK_TAG = "net.ack"
ERROR_TAG = "net.error"
BYE_TAG = "net.bye"


class _GatewaySession:
    """One live connection: its thread, endpoints, and reaper bookkeeping."""

    __slots__ = (
        "thread", "endpoint", "channel", "started_at", "handshaken",
        "reaped", "session_id", "client_name", "in_query",
        "handoff", "backend", "tenant",
    )

    def __init__(self, thread: threading.Thread | None, endpoint: SocketEndpoint):
        self.thread = thread
        self.endpoint = endpoint
        #: the session-layer endpoint queries run on (a
        #: :class:`RebindableEndpoint` over the transport)
        self.channel = None
        self.started_at = time.monotonic()
        self.handshaken = False
        self.reaped = False
        self.session_id = ""
        self.client_name = "client"
        #: negotiated private-MAC backend
        self.backend = "gc"
        self.in_query = False
        #: admission account from the hello ("" = the default tenant)
        self.tenant = ""
        #: set when this connection's socket was handed to another live
        #: session (resume rebind) — teardown must not close it
        self.handoff = False

    def close_hard(self) -> None:
        """Tear the session down, waking any parked or blocked thread."""
        if self.handoff:
            return
        channel = self.channel
        if channel is not None and hasattr(channel, "kill"):
            channel.kill()
        else:
            self.endpoint.close()


class GCGateway:
    """Accepts N concurrent evaluator connections for one :class:`CloudServer`.

    ``handshake_timeout_s`` bounds how long a connection may sit without
    completing session negotiation before the reaper closes it: a
    half-open socket (SYN-and-silence, a port scanner, a client that
    died mid-connect) otherwise pins a session thread for the full
    receive timeout each.  It resolves through
    :func:`repro.serve.resolve_reaper_timeout` (explicit argument >
    ``ServingConfig.reaper_timeout_s`` > ``REPRO_REAPER_TIMEOUT_S`` >
    default).  ``session_lifetime_s``, when set, is a hard cap on any
    session's total wall time regardless of progress.

    ``store`` holds resumable session checkpoints; pass a
    :class:`repro.recover.JsonlSessionStore` to survive gateway
    restarts (a restarted gateway sharing the file serves ``net.resume``
    for sessions its predecessor drained).
    """

    def __init__(
        self,
        server: CloudServer,
        serving: ServingServer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        config: ServingConfig | None = None,
        telemetry: MetricsRegistry | None = None,
        handshake_timeout_s: float | None = None,
        session_lifetime_s: float | None = None,
        reap_interval_s: float = 0.25,
        store: SessionStore | None = None,
        gateway_id: str = "",
        backend: str | None = None,
        scheduler=None,
    ):
        self.server = server
        self.gateway_id = gateway_id or f"gw-{uuid.uuid4().hex[:8]}"
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        if serving is None:
            # ``scheduler`` may be a TenantScheduler shared by a whole
            # gateway group, making per-tenant bounds fleet-wide
            serving = ServingServer(
                server, config, telemetry=self.telemetry, scheduler=scheduler
            )
            self._owns_serving = True
        else:
            self._owns_serving = False
        self.serving = serving
        self.host = host
        self.port = port
        #: backend granted to clients that don't request one
        #: (explicit argument > ``ServingConfig.backend`` >
        #: ``REPRO_BACKEND`` > ``gc``)
        self.default_backend = resolve_backend(
            backend, self.serving.config.backend
        )
        self.descriptor = descriptor_for(server)
        self.handshake_timeout_s = resolve_reaper_timeout(
            handshake_timeout_s, self.serving.config.reaper_timeout_s
        )
        self.session_lifetime_s = session_lifetime_s
        self.reap_interval_s = reap_interval_s
        self.store = (
            store
            if store is not None
            else InMemorySessionStore(
                ttl_s=self.serving.config.checkpoint_ttl_s,
                telemetry=self.telemetry,
            )
        )
        self._batcher = ResumeBatcher(
            self.serving,
            window_s=self.serving.config.resume_batch_window_s,
            max_batch=self.serving.config.resume_batch_max,
            telemetry=self.telemetry,
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._reaper_thread: threading.Thread | None = None
        self._sessions: list[_GatewaySession] = []
        self._sessions_lock = threading.Lock()
        #: session_id -> live _GatewaySession, for resume rebinds
        self._live: dict[str, _GatewaySession] = {}
        self._stopping = threading.Event()
        self._draining = threading.Event()
        #: the most recent session-terminating error (post-mortem aid)
        self._last_session_error: BaseException | None = None
        # inherit a drained predecessor's operating point: runs here in
        # __init__ (not start()) because adopt-only successors — e.g.
        # the oracle's recovery gateways — never bind a port
        self._restore_controller_state()

    def _restore_controller_state(self) -> None:
        """Resume the SLO controller from the checkpointed operating
        point a draining predecessor left in the shared store."""
        controller = self.serving.controller
        if controller is None or not hasattr(self.store, "get_meta"):
            return
        raw = self.store.get_meta(CONTROLLER_STATE_KEY)
        if not raw:
            return
        try:
            controller.restore(OperatingPoint.from_dict(raw))
        except (KeyError, TypeError, ValueError):
            # a malformed or future-format record must not brick the
            # gateway; it just starts from its configured point
            self.telemetry.counter("controller.restore_rejected").inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound — resolves port 0 to the real one."""
        if self._listener is None:
            return (self.host, self.port)
        return self._listener.getsockname()[:2]

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> "GCGateway":
        if self._listener is not None:
            return self
        self._stopping.clear()
        self._draining.clear()
        if self._owns_serving:
            self.serving.start()
        self._listener = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        self._listener.settimeout(0.2)  # so stop() is noticed promptly
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        self._close_listener()
        with self._sessions_lock:
            sessions = list(self._sessions)
        for s in sessions:
            s.thread.join(timeout=self.serving.config.request_timeout_s)
            if s.thread.is_alive():
                s.close_hard()  # wedge-breaker: wake any blocked recv
                s.thread.join(timeout=5.0)
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=5.0)
            self._reaper_thread = None
        self._batcher.close()
        if self._owns_serving:
            self.serving.stop()

    def kill(self, hard: bool = False) -> None:
        """Crash this gateway: no drain, no checkpoint flush, no lease
        release, no compaction — the chaos profile's model of a power
        cut.  Sessions it was streaming keep their store leases until
        expiry, which is exactly what a peer's lease *steal* is for.

        ``hard=True`` goes further: it abandons the sockets outright —
        raw transport closes out from under the session threads, no
        cooperative ``channel.kill()``, no thread joins, no batcher or
        serving teardown — the closest a thread fleet gets to SIGKILL.
        A later :meth:`stop` (idempotent) reclaims the leftovers.
        """
        self.telemetry.counter("gateway.kills").inc()
        if hard:
            self.telemetry.counter("gateway.hard_kills").inc()
            self._stopping.set()
            listener = self._listener
            self._listener = None
            if listener is not None:
                try:
                    listener.close()
                except OSError:
                    pass
            with self._sessions_lock:
                sessions = list(self._sessions)
                self._sessions = []
                self._live.clear()
            for s in sessions:
                s.handoff = False  # a crash closes every socket it holds
                try:
                    s.endpoint.close()
                except OSError:
                    pass
            return
        self._stopping.set()
        self._close_listener()
        with self._sessions_lock:
            sessions = list(self._sessions)
            self._sessions = []
            self._live.clear()
        for s in sessions:
            s.handoff = False  # a crash closes every socket it holds
            s.close_hard()
        for s in sessions:
            s.thread.join(timeout=2.0)
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=2.0)
            self._reaper_thread = None
        self._batcher.close()
        if self._owns_serving:
            self.serving.stop()

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            finally:
                self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown of traffic (the SIGTERM path): stop
        accepting, let in-flight sessions reach their next round
        boundary and checkpoint, close idle ones, and hard-close
        whatever is left when the deadline expires.

        Returns True when every session ended inside the deadline.
        The serving layer keeps running — call :meth:`stop` after (a
        drained gateway can also hand its store to a successor).
        """
        timeout = (
            timeout_s if timeout_s is not None
            else self.serving.config.drain_timeout_s
        )
        self.telemetry.counter("gateway.drains").inc()
        self._draining.set()
        self._close_listener()
        deadline = time.monotonic() + timeout
        with self._sessions_lock:
            sessions = list(self._sessions)
        # idle sessions have nothing to checkpoint: close them now so
        # the deadline is spent on sessions that are mid-stream
        for s in sessions:
            if not s.in_query and not s.handoff and s.thread.is_alive():
                s.close_hard()
        clean = True
        for s in sessions:
            s.thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for s in sessions:
            if s.thread.is_alive():
                clean = False
                s.close_hard()
                s.thread.join(timeout=1.0)
        # the controller's operating point goes with the sessions: the
        # successor resumes from the learned knob settings instead of
        # re-walking the escalation ladder under the same load
        if self.serving.controller is not None and hasattr(self.store, "put_meta"):
            self.store.put_meta(
                CONTROLLER_STATE_KEY,
                self.serving.controller.operating_point.to_dict(),
            )
        # hand ownership to the fleet: a successor adopting a drained
        # session must not wait out this gateway's lease
        if hasattr(self.store, "release_lease"):
            for sid in self.store.session_ids():
                self.store.release_lease(sid, self.gateway_id)
        if hasattr(self.store, "compact"):
            self.store.compact()
        self.telemetry.counter("gateway.drained").inc()
        return clean

    def install_signal_handlers(self, signals=(signal.SIGTERM,)) -> None:
        """Route SIGTERM to :meth:`drain` then :meth:`stop` (call from
        the main thread; the CLI ``gateway`` command does)."""

        def handler(signum, frame):
            threading.Thread(
                target=self._drain_and_stop, name="gateway-drain", daemon=True
            ).start()

        for sig in signals:
            signal.signal(sig, handler)

    def _drain_and_stop(self) -> None:
        self.drain()
        self.stop()

    def __enter__(self) -> "GCGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # connection intake
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            self.adopt(sock)

    def adopt(self, sock: socket.socket) -> threading.Thread:
        """Serve an already-connected socket (the socketpair/CI entry point)."""
        if self._stopping.is_set():
            # a killed/stopped gateway refuses new sockets the way a dead
            # listener would: the failover dialer rotates to a peer
            try:
                sock.close()
            except OSError:
                pass
            raise WireError(f"gateway {self.gateway_id} is not accepting")
        self.telemetry.counter("gateway.connections").inc()
        endpoint = SocketEndpoint(
            "gateway",
            sock,
            telemetry=self.telemetry,
            recv_timeout_s=self.serving.config.recv_timeout_s,
        )
        session = _GatewaySession(None, endpoint)
        session.thread = threading.Thread(
            target=self._session, args=(session,), name="gateway-session", daemon=True
        )
        with self._sessions_lock:
            self._sessions = [s for s in self._sessions if s.thread.is_alive()]
            self._sessions.append(session)
        self._ensure_reaper()
        session.thread.start()
        return session.thread

    # ------------------------------------------------------------------
    # the session reaper
    # ------------------------------------------------------------------
    def _ensure_reaper(self) -> None:
        """Start the reaper lazily (``adopt`` works without ``start()``)."""
        if self._reaper_thread is not None and self._reaper_thread.is_alive():
            return
        self._reaper_thread = threading.Thread(
            target=self._reap_loop, name="gateway-reaper", daemon=True
        )
        self._reaper_thread.start()

    def _reap_loop(self) -> None:
        while not self._stopping.wait(timeout=self.reap_interval_s):
            now = time.monotonic()
            with self._sessions_lock:
                self._sessions = [s for s in self._sessions if s.thread.is_alive()]
                sessions = list(self._sessions)
            for s in sessions:
                if s.reaped or s.handoff:
                    continue
                age = now - s.started_at
                half_open = not s.handshaken and age > self.handshake_timeout_s
                over_lifetime = (
                    self.session_lifetime_s is not None
                    and age > self.session_lifetime_s
                )
                if half_open or over_lifetime:
                    s.reaped = True
                    self.telemetry.counter("gateway.reaped").inc()
                    self.telemetry.counter("gateway.sessions.reaped").inc()
                    # closing the session wakes the thread's blocked
                    # (or parked) recv with a typed WireError
                    s.close_hard()

    # ------------------------------------------------------------------
    # one session
    # ------------------------------------------------------------------
    def _session(self, session: _GatewaySession) -> None:
        tm = self.telemetry
        endpoint = session.endpoint
        try:
            with tm.span("gateway.session"):
                try:
                    tag, payload = endpoint.recv_any((HELLO_TAG, RESUME_TAG))
                except HandshakeError:
                    raise
                except GCProtocolError as exc:
                    raise HandshakeError(
                        f"client failed before completing its hello: {exc}"
                    ) from exc
                if tag == RESUME_TAG:
                    self._resume_session(session, payload)
                    return
                session_id = f"s-{uuid.uuid4().hex[:12]}"
                hello = server_handshake(
                    endpoint, self.descriptor,
                    hello_payload=payload, session_id=session_id,
                    backends=BACKENDS,
                    default_backend=self.default_backend,
                    backend_params=self._backend_params,
                )
                session.handshaken = True
                session.session_id = session_id
                session.client_name = str(hello.get("name", "client"))
                session.backend = str(hello.get("negotiated_backend", "gc"))
                session.tenant = str(hello.get("tenant") or "")
                tm.counter("gateway.sessions").inc()
                tm.counter(f"gateway.sessions.{session.backend}").inc()
                self._query_loop(session)
        except HandshakeError as exc:
            # the session never existed: half-open socket, rogue peer,
            # version skew — counted apart from mid-session failures
            tm.counter("gateway.handshake_failures").inc()
            tm.counter("gateway.session_errors").inc()
            self._last_session_error = exc
        except SessionDrainedError as exc:
            # a drained session is a *successful* graceful degradation,
            # not an error: it was checkpointed and told where to resume
            tm.counter("gateway.sessions.drained").inc()
            self._last_session_error = exc
        except (WireError, GCProtocolError, ServingError) as exc:
            if self._draining.is_set() and isinstance(exc, WireError):
                # an idle session closed by drain, not a real failure
                tm.counter("gateway.sessions.drained").inc()
            else:
                # a vanished client mid-session is routine churn
                tm.counter("gateway.session_errors").inc()
            self._last_session_error = exc
        finally:
            if session.session_id:
                with self._sessions_lock:
                    if self._live.get(session.session_id) is session:
                        del self._live[session.session_id]
            session.close_hard()

    def _backend_params(self, granted: str) -> dict | None:
        """Welcome extras for the granted backend.

        For HE sessions the gateway publishes its independently derived
        BFV ring parameters; the client re-derives them from the same
        session descriptor and *verifies* the two match — the HE
        analogue of the GC circuit-fingerprint check.
        """
        if granted == "he":
            return self.server.he_mac.params.to_wire()
        return None

    def _query_loop(self, session: _GatewaySession) -> None:
        """Serve QUERY/BYE on a handshaken session until it ends."""
        cfg = self.serving.config
        # sessions survive wire breaks: the rebindable wrapper inherits
        # the transport's post-handshake counters, so the wire stream is
        # the transport's own until a resume happens
        session.channel = RebindableEndpoint(
            session.endpoint,
            resume_window_s=cfg.resume_window_s,
            telemetry=self.telemetry,
            recv_timeout_s=cfg.recv_timeout_s,
            replay_capacity=cfg.replay_buffer_frames,
        )
        with self._sessions_lock:
            self._live[session.session_id] = session
        channel = session.channel
        while not self._stopping.is_set():
            tag, payload = channel.recv_any((QUERY_TAG, BYE_TAG))
            if tag == BYE_TAG:
                # an explicit goodbye confirms every answer arrived:
                # nothing left for any gateway to resume
                self.store.delete(session.session_id)
                break
            session.in_query = True
            try:
                self._serve_query(session, payload)
            finally:
                session.in_query = False

    def _serve_query(self, session: _GatewaySession, payload: bytes) -> None:
        tm = self.telemetry
        cfg = self.serving.config
        channel = session.channel
        try:
            query = json.loads(payload.decode())
            row = int(query["row"])
            ot_mode = str(query.get("ot_mode", "per_round"))
        except (ValueError, KeyError, TypeError) as exc:
            channel.send(ERROR_TAG, f"malformed query: {exc}".encode())
            return
        if ot_mode not in OT_MODES:
            channel.send(
                ERROR_TAG,
                f"unknown ot_mode {ot_mode!r} (expected one of {OT_MODES})".encode(),
            )
            return
        if not 0 <= row < self.descriptor.n_rows:
            channel.send(
                ERROR_TAG,
                f"model has no row {row} (rows: 0..{self.descriptor.n_rows - 1})".encode(),
            )
            return
        if self._draining.is_set():
            self._shed(channel, "gateway is draining", tenant=session.tenant)
            return
        # a new query proves the previous one fully arrived: drop its
        # checkpoint (kept until now for the post-completion tail)
        self.store.delete(session.session_id)
        # lease before ack: peers answering an early failover resume
        # (this gateway killed mid-garble, before the first put) must
        # see a live lease — "shed, retry" — not an unknown session
        lease = self.store.acquire_lease(
            session.session_id, self.gateway_id, cfg.lease_ttl_s
        )
        if lease is None:
            self._shed(channel, "session is leased to a peer", tenant=session.tenant)
            return
        on_run, on_round = self._checkpoint_hooks(session, row)
        try:
            request = self.serving.submit_remote(
                row, channel, on_round=on_round, on_run=on_run,
                ot_mode=ot_mode, backend=session.backend,
                tenant=session.tenant,
            )
        except OverloadedError as exc:  # transient saturation: shed with a hint
            # nothing was garbled: don't pin the admission lease
            self.store.release_lease(session.session_id, self.gateway_id)
            self._shed(channel, str(exc), tenant=session.tenant)
            return
        except ServingError as exc:  # not running / hard failure: terminal
            self.store.release_lease(session.session_id, self.gateway_id)
            tm.counter("gateway.rejected").inc()
            channel.send(ERROR_TAG, str(exc).encode())
            return
        # ack first, *then* open the gate: both share the socket, and the
        # client reads the ack before the first streamed table
        channel.send(ACK_TAG, b"{}")
        request.start_gate.set()
        try:
            request.wait(timeout=cfg.request_timeout_s)
        except SessionDrainedError as exc:
            self._notify_drained(session, exc)
            raise
        # every round is streamed, but the client may not have read them
        # all yet: keep the checkpoint (its unacked tail) until the
        # client's next query/bye confirms delivery, or the TTL judges
        # the session abandoned.  Ownership is released so a post-crash
        # resume needs no lease steal.
        self.store.release_lease(session.session_id, self.gateway_id)
        tm.counter("gateway.queries").inc()

    def _checkpoint_hooks(self, session: _GatewaySession, row: int):
        """Build a fresh query's ``on_run``/``on_round`` pair.

        ``on_run(stream)`` fires before the first byte is streamed: it
        re-checks the session's lease, snapshots the stream's material
        (GC rounds, or the one HE result ciphertext) into the store and
        binds the checkpoint to the stream, which advances it at every
        round boundary.  ``on_round`` is the one boundary hook that
        resumed streams share (:meth:`_commit_boundaries`).
        """
        cfg = self.serving.config
        state: dict = {}

        def on_run(stream) -> None:
            lease = self.store.acquire_lease(
                session.session_id, self.gateway_id, cfg.lease_ttl_s
            )
            if lease is None:
                raise LeaseError(
                    f"session {session.session_id}: lease held by another "
                    "gateway; refusing to stream"
                )
            cp = checkpoint_from_stream(
                stream, session.session_id, row,
                client_name=session.client_name, tenant=session.tenant,
            )
            self.store.put(cp)
            state["cp"], state["expected"] = cp, cp.next_round
            stream.checkpoint = cp

        return on_run, self._commit_boundaries(session.session_id, state)

    def _commit_boundaries(self, sid: str, state: dict):
        """The ``on_round`` hook of every streamed query, fresh or resumed.

        The stream has already advanced ``state["cp"]`` past the round
        it just sent; the hook commits that boundary through the store's
        fenced compare-and-swap against ``state["expected"]``.  If
        another gateway stole this session's lease (this one looked
        dead) the CAS raises :class:`LeaseError` and streaming stops at
        the boundary — two gateways never advance the same session.  A
        draining gateway stops every stream at its next boundary.
        """
        cfg = self.serving.config

        def on_round(next_round: int) -> None:
            cp = state["cp"]
            self.store.cas_advance(
                cp, self.gateway_id, state["expected"], cfg.lease_ttl_s
            )
            state["expected"] = cp.next_round
            if self._draining.is_set():
                raise SessionDrainedError(
                    f"gateway draining: session {sid} checkpointed at "
                    f"round {next_round}",
                    session_id=sid,
                    next_round=next_round,
                )

        return on_round

    def _shed(self, channel, reason: str, tenant: str = "") -> None:
        """Overload reply: a machine-readable ``net.retry_after`` backoff
        hint.  ``tenant`` attributes the shed — the hint names who was
        over budget and the per-tenant counter makes noisy neighbours
        visible."""
        self.telemetry.counter("gateway.shed").inc()
        if tenant:
            self.telemetry.counter(f"gateway.shed.tenant.{tenant}").inc()
        hint = {
            # live value under the SLO controller (scales with how hard
            # we are shedding), the static config otherwise
            "delay_s": self.serving.retry_after_s,
            "reason": reason,
        }
        if tenant:
            hint["tenant"] = tenant
        channel.send(RETRY_AFTER_TAG, json.dumps(hint, sort_keys=True).encode())

    def _notify_drained(self, session: _GatewaySession,
                        exc: SessionDrainedError) -> None:
        """Tell the client its session was checkpointed (drain), then
        unregister it so a resume goes through the store, not a rebind."""
        with self._sessions_lock:
            if self._live.get(session.session_id) is session:
                del self._live[session.session_id]
        notice = {
            "session_id": session.session_id,
            "next_round": exc.next_round,
        }
        try:
            session.channel.send(
                DRAIN_TAG, json.dumps(notice, sort_keys=True).encode()
            )
        except (WireError, GCProtocolError):
            pass  # the checkpoint still exists; the client can resume blind

    # ------------------------------------------------------------------
    # resume intake
    # ------------------------------------------------------------------
    def _resume_session(self, session: _GatewaySession, payload: bytes) -> None:
        """Handle a ``net.resume`` opener on a fresh connection."""
        tm = self.telemetry
        cfg = self.serving.config
        endpoint = session.endpoint
        tm.counter("gateway.resume_requests").inc()
        try:
            request = json.loads(payload.decode())
            sid = str(request["session_id"])
            client_acked = int(request["last_acked_seq"])
        except (ValueError, KeyError, TypeError) as exc:
            endpoint.send(REJECT_TAG, f"malformed resume: {exc}".encode())
            raise HandshakeError(f"malformed resume request: {exc}") from exc
        session.handshaken = True  # negotiation is done; don't reap mid-resume
        session.session_id = sid

        with self._sessions_lock:
            live = self._live.get(sid)
        if (
            live is not None
            and live.channel is not None
            and live.thread.is_alive()
        ):
            self._rebind(session, live, client_acked)
            return
        self._restart_from_store(session, sid, client_acked)

    def _rebind(self, session: _GatewaySession, live: _GatewaySession,
                client_acked: int) -> None:
        """Splice a fresh socket into a still-live (parked) session."""
        tm = self.telemetry
        endpoint = session.endpoint
        buffer = live.channel.replay_buffer
        if buffer is not None and not buffer.can_replay_from(client_acked):
            endpoint.send(
                REJECT_TAG,
                (
                    f"cannot resume session {session.session_id}: replay "
                    f"horizon passed frame {client_acked}"
                ).encode(),
            )
            raise ResumeError(
                f"resume for {session.session_id} beyond the replay horizon"
            )
        answer = {
            "mode": "rebind",
            "last_acked_seq": live.channel.recv_seq,
            "session_id": session.session_id,
            "gateway_id": self.gateway_id,
        }
        # the OK must be on the wire before any replayed session frame:
        # the client reads it on the fresh transport's own counters
        endpoint.send(RESUME_OK_TAG, json.dumps(answer, sort_keys=True).encode())
        live.channel.rebind(endpoint, client_acked)
        live.endpoint = endpoint  # teardown follows the live socket
        session.handoff = True  # this thread no longer owns the socket
        tm.counter("gateway.resumes.rebind").inc()

    def _restart_from_store(self, session: _GatewaySession, sid: str,
                            client_acked: int = 0) -> None:
        """Serve the remaining rounds of a checkpointed session, then
        fall into the normal query loop on this connection.

        This is the cross-gateway adoption path: the checkpoint may have
        been written by a *different* gateway.  Adoption (1) takes the
        session's lease (stealing it if the writer's expired), (2)
        deep-copies the stored checkpoint so no two gateways ever mutate
        one object, (3) rewinds it to the round the client's
        ``last_acked_seq`` proves complete — the writer's ``next_round``
        runs ahead of the client by however much the dead stream had
        buffered — and (4) commits the rewound state through the fenced
        CAS before streaming a byte.
        """
        tm = self.telemetry
        cfg = self.serving.config
        endpoint = session.endpoint
        stored = self.store.get(sid)
        if stored is None:
            holder = self.store.lease_holder(sid)
            if holder is not None:
                # the session is mid-admission on its owner: the lease
                # was taken before the query ack but the first checkpoint
                # put has not landed yet (the owner may have just been
                # killed mid-garble — its put still completes).  Shed so
                # the client retries once there is material to adopt.
                self._shed(endpoint, f"session {sid} is admitting on {holder}")
                raise ResumeError(
                    f"resume for {sid} shed: admission in flight on {holder}"
                )
            endpoint.send(
                REJECT_TAG,
                f"unknown session {sid}: nothing to resume".encode(),
            )
            raise ResumeError(f"resume for unknown session {sid}")
        if self._draining.is_set():
            self._shed(endpoint, "gateway is draining")
            raise ResumeError(f"resume for {sid} shed: gateway draining")
        lease = self.store.acquire_lease(sid, self.gateway_id, cfg.lease_ttl_s)
        if lease is None:
            # a live peer owns the stream; tell the client to come back
            # (or rotate gateways) — the lease expires if the owner died
            self._shed(endpoint, f"session {sid} is leased to a peer")
            raise ResumeError(f"resume for {sid} shed: lease held by a peer")
        checkpoint = SessionCheckpoint.from_dict(stored.to_dict())
        committed = self.store.committed_round(sid)
        restart_round = checkpoint.acked_round(client_acked)
        if restart_round < checkpoint.next_round:
            checkpoint.rewind_to(restart_round)
            tm.counter("gateway.resumes.rewound").inc()
        try:
            # commit the adoption (and any rewind) under the fence before
            # anything reaches the wire
            self.store.cas_advance(
                checkpoint, self.gateway_id,
                committed if committed is not None else checkpoint.next_round,
                cfg.lease_ttl_s,
            )
        except LeaseError as exc:
            self._shed(endpoint, str(exc))
            raise ResumeError(f"resume for {sid} lost the adoption race") from exc
        on_round = self._commit_boundaries(
            sid, {"cp": checkpoint, "expected": checkpoint.next_round}
        )
        try:
            handle = self._batcher.submit(
                checkpoint, endpoint, self.server.group, on_round=on_round
            )
        except OverloadedError as exc:
            # either the resume queue is full or the checkpoint's tenant
            # is over its credit budget — adoption does not jump queues
            self._shed(endpoint, str(exc), tenant=checkpoint.tenant)
            return
        except ServingError as exc:
            endpoint.send(REJECT_TAG, str(exc).encode())
            raise ResumeError(f"resume for {sid} failed: {exc}") from exc
        answer = {
            "mode": "restart",
            "next_round": checkpoint.next_round,
            "last_acked_seq": 0,
            "session_id": sid,
            "gateway_id": self.gateway_id,
        }
        endpoint.send(RESUME_OK_TAG, json.dumps(answer, sort_keys=True).encode())
        # counted at admission, not completion: the OK precedes every
        # streamed frame, so once a client holds the result this counter
        # provably reflects its restart (completion would race the
        # client's own return)
        tm.counter("gateway.resumes.restart").inc()
        handle.start_gate.set()
        try:
            handle.wait(timeout=cfg.request_timeout_s)
        except SessionDrainedError as exc:
            session.channel = endpoint
            self._notify_drained(session, exc)
            raise
        except LeaseError:
            tm.counter("gateway.resumes.lease_lost").inc()
            raise
        # like a fresh query: keep the checkpoint for the unacked tail,
        # give up ownership now that streaming is done
        self.store.release_lease(sid, self.gateway_id)
        session.client_name = checkpoint.client_name or session.client_name
        session.backend = checkpoint.backend
        session.tenant = checkpoint.tenant
        tm.counter("gateway.queries").inc()
        # the resumed query is done; keep serving this connection like
        # any other session (the wrapper inherits the live counters)
        self._query_loop(session)
