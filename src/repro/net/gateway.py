"""The GC gateway: a TCP front door for remote evaluators.

Figure 1's deployment made literal: the cloud host accepts client
connections, handshakes each session (:mod:`repro.net.handshake`) and
streams garbled tables + OT through the serving layer, so remote
sessions share its pool, bounded queue, deadlines and telemetry.

One thread serves each connection.  What a session may do next is the
transition table of :mod:`repro.net.lifecycle`, drawn in
``docs/PROTOCOL.md`` ("Session lifecycle"); a fresh query and a stored
stream adopted on resume share one routine, :meth:`GCGateway._stream`.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
import uuid

from repro.crypto.ot import OTExtensionSender
from repro.errors import (
    GCProtocolError, HandshakeError, LeaseError, OverloadedError,
    ResumeError, ServingError, SessionDrainedError, WireError,
)
from repro.host import CloudServer
from repro.net.endpoint import SocketEndpoint
from repro.net.handshake import (
    HELLO_TAG, descriptor_for, read_resume, server_handshake,
)
from repro.net.lifecycle import (
    ADMITTED, BYE, BYE_TAG, CLOSE, CRASH, DONE, DRAIN, DRAINED, END, FRAME,
    HANDED_OFF, HELLO_FRAME, HOLD, IDLE, PARK, QUERY, QUERY_TAG, REAP, REBIND,
    REJECTED, RESTART, RESUME_IDLE, SHED, STREAMED, UNCONFIRMED, WAIT,
    SessionMachine, resume_event,
)
from repro.privatemac import BACKENDS
from repro.recover.checkpoint import SessionCheckpoint, checkpoint_from_stream
from repro.recover.endpoint import (
    RESUME_OK_TAG, RESUME_TAG, RETRY_AFTER_TAG, FirstReplyEndpoint,
    RebindableEndpoint,
)
from repro.recover.store import InMemorySessionStore, SessionStore
from repro.serve import (
    ServingConfig, ServingServer, resolve_backend, resolve_reaper_timeout,
)
from repro.serve.batcher import ResumeBatcher
from repro.telemetry import MetricsRegistry


class _GatewaySession:
    """One connection: its thread, endpoints, identity and lifecycle."""

    __slots__ = ("thread", "endpoint", "channel", "started_at", "machine",
                 "session_id", "client_name", "backend", "tenant", "ot")

    def __init__(self, endpoint: SocketEndpoint, ot: OTExtensionSender):
        self.thread: threading.Thread | None = None
        self.endpoint = endpoint
        #: the transport until the query loop wraps it to survive breaks
        self.channel = endpoint
        self.ot = ot  # this connection's OT pool, kept across its queries
        self.started_at = time.monotonic()
        self.machine = SessionMachine()
        self.session_id = ""
        self.client_name = "client"
        self.backend = "gc"
        self.tenant = ""  # admission account ("" = the default tenant)

    def close_hard(self) -> None:  # wakes a parked or blocked thread
        if hasattr(self.channel, "kill"):
            self.channel.kill()
        else:
            self.endpoint.close()


class GCGateway:
    """Accepts N concurrent evaluator connections for one :class:`CloudServer`.

    The reaper closes a connection still negotiating after
    ``handshake_timeout_s``.  Gateways sharing a ``store`` (a
    :class:`repro.recover.JsonlSessionStore` survives restarts) form a
    fleet that resumes each other's sessions."""

    def __init__(
        self, server: CloudServer, serving: ServingServer | None = None,
        host: str = "127.0.0.1", port: int = 0,
        config: ServingConfig | None = None,
        telemetry: MetricsRegistry | None = None,
        handshake_timeout_s: float | None = None, reap_interval_s: float = 0.25,
        store: SessionStore | None = None, gateway_id: str = "",
        backend: str | None = None, scheduler=None,
    ):
        self.server = server
        self.gateway_id = gateway_id or f"gw-{uuid.uuid4().hex[:8]}"
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        self._owns_serving = serving is None
        if serving is None:  # a shared ``scheduler`` bounds tenants fleet-wide
            serving = ServingServer(
                server, config, telemetry=self.telemetry, scheduler=scheduler
            )
        self.serving = serving
        cfg = serving.config
        self.host, self.port = host, port
        self.default_backend = resolve_backend(backend, cfg.backend)
        self.descriptor = descriptor_for(server)
        self.handshake_timeout_s = resolve_reaper_timeout(
            handshake_timeout_s, cfg.reaper_timeout_s
        )
        self.reap_interval_s = reap_interval_s
        self.store = store if store is not None else InMemorySessionStore(
            telemetry=self.telemetry
        )
        self._batcher = ResumeBatcher(
            serving, window_s=cfg.resume_batch_window_s,
            max_batch=cfg.resume_batch_max, telemetry=self.telemetry,
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._reaper_thread: threading.Thread | None = None
        self._sessions: list[_GatewaySession] = []
        #: guards ``_sessions``, ``_live`` and every session's lifecycle
        self._sessions_lock = threading.Lock()
        #: session_id -> live _GatewaySession, for resume rebinds
        self._live: dict[str, _GatewaySession] = {}
        self._stopping = threading.Event()
        self._draining = threading.Event()
        #: the most recent session-terminating error (post-mortem aid)
        self._last_session_error: BaseException | None = None
        # here, not in start(): adopt-only successors never bind a port
        self.serving.restore_operating_point(self.store)

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
        self._listener = socket.create_server((self.host, self.port))
        self._listener.settimeout(0.2)  # so stop() is noticed promptly
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop serving: a session parked on a broken wire ends now (no
        resume can reach us); the others are joined, closed if they hang."""
        self._teardown(crash=False)

    def kill(self, hard: bool = False) -> None:
        """Crash: no drain, flush or lease release (peers steal expired
        leases).  ``hard=True`` closes the raw sockets and joins nothing,
        the nearest a thread fleet gets to SIGKILL; :meth:`stop` after."""
        self.telemetry.counter("gateway.kills").inc()
        if hard:
            self.telemetry.counter("gateway.hard_kills").inc()
        self._teardown(crash=True, hard=hard)

    def _teardown(self, crash: bool, hard: bool = False) -> None:
        """The one teardown of :meth:`stop` and :meth:`kill`."""
        with self._sessions_lock:
            self._stopping.set()  # under the lock: adopt() checks it there
            sessions = list(self._sessions)
            if crash:
                self._sessions, self._live = [], {}
                for s in sessions:
                    s.machine.fire(CRASH, strict=False)
        self._close_listener()
        for s in sessions:
            if hard:
                s.endpoint.close()
            elif crash:
                s.close_hard()  # a crash closes every socket it holds
            elif isinstance(s.channel, RebindableEndpoint):
                s.channel.close_window()
        if hard:
            return
        join_s = 2.0 if crash else self.serving.config.request_timeout_s
        for s in sessions:
            s.thread.join(timeout=join_s)
            if s.thread.is_alive():
                s.close_hard()  # wedge-breaker: wake any blocked recv
                s.thread.join(timeout=5.0)
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=join_s)
            self._reaper_thread = None
        self._batcher.close()
        if self._owns_serving:
            self.serving.stop()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def drain(self, timeout_s: float | None = None) -> bool:
        """The SIGTERM path: stop accepting and fire the lifecycle's
        ``drain`` at every session until none is mid-stream or the
        deadline passes.  True when no stream had to be cut."""
        if timeout_s is None:
            timeout_s = self.serving.config.drain_timeout_s
        deadline = time.monotonic() + timeout_s
        self.telemetry.counter("gateway.drains").inc()
        self._draining.set()
        self._close_listener()
        with self._sessions_lock:
            sessions = list(self._sessions)
        clean = True
        while self._drain_pass(sessions):
            if time.monotonic() >= deadline:
                clean = False
                self._drain_pass(sessions, final=True)
                for s in sessions:
                    s.thread.join(timeout=1.0)
                break
            time.sleep(0.005)
        delay = max(0.0, deadline - time.monotonic())
        closer = threading.Timer(delay, self._drain_pass, (sessions, True))
        closer.daemon = True
        closer.start()
        self.serving.save_operating_point(self.store)
        # a successor adopting a drained session must not wait out our lease
        for sid in self.store.session_ids():
            self.store.release_lease(sid, self.gateway_id)
        if hasattr(self.store, "compact"):
            self.store.compact()
        self.telemetry.counter("gateway.drained").inc()
        return clean

    def _drain_pass(self, sessions, final: bool = False) -> bool:
        """Fire ``drain`` at each session and do what the table says; True
        while one streams.  ``final`` (the deadline) closes all but parked."""
        streaming = False
        for s in sessions:
            action = self._advance(s, DRAIN, strict=False)
            if action == PARK:
                self.store.put(SessionCheckpoint.idle(
                    s.session_id, s.client_name, s.backend, s.tenant
                ))
            if action in (PARK, CLOSE) or (final and action in (WAIT, HOLD)):
                s.close_hard()
            streaming |= action == WAIT
        return streaming

    def install_signal_handlers(self, signals=(signal.SIGTERM,)) -> None:
        """Route SIGTERM to :meth:`drain` then :meth:`stop` (call from
        the main thread; the CLI ``gateway`` command does)."""
        for sig in signals:
            signal.signal(sig, lambda *_: threading.Thread(
                target=lambda: (self.drain(), self.stop()),
                name="gateway-drain", daemon=True,
            ).start())

    def __enter__(self) -> "GCGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while (listener := self._listener) is not None and not self._stopping.is_set():
            try:
                self.adopt(listener.accept()[0])
            except socket.timeout:
                continue
            except (OSError, WireError):
                return  # listener closed, or adopt refused: shutting down

    def adopt(self, sock: socket.socket) -> threading.Thread:
        """Serve an already-connected socket (the socketpair/CI entry point)."""
        endpoint = SocketEndpoint(
            "gateway", sock, telemetry=self.telemetry,
            recv_timeout_s=self.serving.config.recv_timeout_s,
        )
        session = _GatewaySession(endpoint, OTExtensionSender(self.server.group))
        session.thread = threading.Thread(
            target=self._session, args=(session,), name="gateway-session", daemon=True
        )
        # registered and started at once: teardown joins only started
        # threads, and a concurrent adopt never drops it
        with self._sessions_lock:
            accepting = not self._stopping.is_set()
            if accepting:
                self._sessions = [s for s in self._sessions if s.machine.state != DONE]
                self._sessions.append(session)
                session.thread.start()
        if not accepting:  # refused like a dead listener: dialers rotate on
            endpoint.close()
            raise WireError(f"gateway {self.gateway_id} is not accepting")
        self.telemetry.counter("gateway.connections").inc()
        if self._reaper_thread is None or not self._reaper_thread.is_alive():
            self._reaper_thread = threading.Thread(
                target=self._reap_loop, name="gateway-reaper", daemon=True
            )
            self._reaper_thread.start()
        return session.thread

    def _advance(self, s: _GatewaySession, event: str, strict: bool = True):
        """Fire ``event`` at ``s``'s lifecycle; returns the action."""
        with self._sessions_lock:
            return s.machine.fire(event, strict)

    def _reap_loop(self) -> None:
        while not self._stopping.wait(timeout=self.reap_interval_s):
            horizon = time.monotonic() - self.handshake_timeout_s
            with self._sessions_lock:
                self._sessions = [s for s in self._sessions if s.machine.state != DONE]
                sessions = [s for s in self._sessions if s.started_at < horizon]
            for s in sessions:
                if self._advance(s, REAP, strict=False) == CLOSE:
                    self.telemetry.counter("gateway.reaped").inc()
                    self.telemetry.counter("gateway.sessions.reaped").inc()
                    s.close_hard()  # wakes the blocked recv, typed

    def _session(self, session: _GatewaySession) -> None:
        tm = self.telemetry
        try:
            with tm.span("gateway.session"):
                try:
                    tag, payload = session.endpoint.recv_any((HELLO_TAG, RESUME_TAG))
                except HandshakeError:
                    raise
                except GCProtocolError as exc:
                    raise HandshakeError(
                        f"client failed before completing its hello: {exc}"
                    ) from exc
                (self._resume if tag == RESUME_TAG else self._hello)(session, payload)
                if session.machine.state in (IDLE, UNCONFIRMED):
                    self._query_loop(session)
        except HandshakeError as exc:  # the session never existed
            tm.counter("gateway.handshake_failures").inc()
            tm.counter("gateway.session_errors").inc()
            self._last_session_error = exc
        except SessionDrainedError as exc:  # checkpointed: graceful
            tm.counter("gateway.sessions.drained").inc()
            self._last_session_error = exc
        except (WireError, GCProtocolError, ServingError) as exc:
            if self._draining.is_set() and isinstance(exc, WireError):
                tm.counter("gateway.sessions.drained").inc()  # closed by drain
            else:
                tm.counter("gateway.session_errors").inc()
            self._last_session_error = exc
        finally:
            with self._sessions_lock:
                if self._live.get(session.session_id) is session:
                    del self._live[session.session_id]
                # a rebind handed this connection's socket to a live session
                handed_off = session.machine.state == HANDED_OFF
                session.machine.fire(END)
            if not handed_off:
                session.close_hard()

    def _hello(self, session: _GatewaySession, payload: bytes) -> None:
        def welcome(hello: dict) -> None:  # idle before the client can know
            session.client_name = str(hello.get("name", "client"))
            session.backend = hello["negotiated_backend"]
            session.tenant = hello["tenant"]
            self._advance(session, HELLO_FRAME)

        session.session_id = f"s-{uuid.uuid4().hex[:12]}"
        server_handshake(
            session.endpoint, self.descriptor, hello_payload=payload,
            session_id=session.session_id, backends=BACKENDS,
            default_backend=self.default_backend, before_welcome=welcome,
            backend_params=lambda granted: (  # the client verifies HE's ring
                self.server.he_mac.params.to_wire() if granted == "he" else None
            ),
        )
        self.telemetry.counter("gateway.sessions").inc()
        self.telemetry.counter(f"gateway.sessions.{session.backend}").inc()

    def _query_loop(self, session: _GatewaySession) -> None:
        """Serve QUERY/BYE on a handshaken session until it ends."""
        cfg = self.serving.config
        # survives wire breaks, continuing the transport's counters
        session.channel = channel = RebindableEndpoint(
            session.endpoint, resume_window_s=cfg.resume_window_s,
            telemetry=self.telemetry, recv_timeout_s=cfg.recv_timeout_s,
        )
        with self._sessions_lock:
            self._live[session.session_id] = session
        while not self._stopping.is_set():
            tag, payload = channel.recv_any((QUERY_TAG, BYE_TAG))
            self._advance(session, QUERY if tag == QUERY_TAG else BYE)
            # the client sends only once it has read every earlier frame:
            # nothing is left for any gateway to resume or replay
            self.store.delete(session.session_id)
            if tag == BYE_TAG:
                break
            channel.replay_buffer.ack(channel.send_seq)
            self._serve_query(session, payload)

    def _serve_query(self, session: _GatewaySession, payload: bytes) -> None:
        try:
            row = int(json.loads(payload.decode())["row"])
        except (ValueError, KeyError, TypeError) as exc:
            return self._reply(session, REJECTED, f"malformed query: {exc}")
        if not 0 <= row < self.descriptor.n_rows:
            return self._reply(session, REJECTED, (
                f"model has no row {row} (rows: 0..{self.descriptor.n_rows - 1})"
            ))

        def on_run(stream) -> None:
            # the query's one durable record, before its first frame:
            # the whole run and where each of its rounds ends
            self.store.put(checkpoint_from_stream(
                stream, session.session_id, row,
                client_name=session.client_name, tenant=session.tenant,
            ), owner=self.gateway_id)

        self._stream(session, lambda: self.serving.submit_remote(
            row, session.channel,
            on_round=self._round_hook(session.session_id), on_run=on_run,
            backend=session.backend, tenant=session.tenant, ot=session.ot,
        ), b"{}")

    def _stream(self, session: _GatewaySession, submit, answer: bytes) -> None:
        """One query's stream, fresh or adopted: lease, ``submit``, send
        the answer frame the lifecycle names *before* the start gate
        opens on the same socket, wait, release.  The stored record
        stays for the answer's unacked tail until the client's next frame."""
        tm = self.telemetry
        cfg = self.serving.config
        sid = session.session_id
        if self._draining.is_set():
            return self._reply(session, SHED, "gateway is draining")
        # lease before answering: a peer answering an early failover
        # resume (killed before the first put) sheds, not "unknown"
        if self.store.acquire_lease(sid, self.gateway_id, cfg.lease_ttl_s) is None:
            return self._reply(session, SHED, f"session {sid} is leased to a peer")
        try:
            handle = submit()
        except OverloadedError as exc:  # transient saturation: shed with a hint
            self.store.release_lease(sid, self.gateway_id)
            return self._reply(session, SHED, str(exc))
        except ServingError as exc:  # not running / hard failure
            self.store.release_lease(sid, self.gateway_id)
            tm.counter("gateway.rejected").inc()
            return self._reply(session, REJECTED, str(exc))
        tag = self._advance(session, ADMITTED)
        try:
            session.channel.send(tag, answer)
        except WireError:
            # the client never hears of this stream: withdraw it
            handle.cancel()
            self.store.release_lease(sid, self.gateway_id)
            raise
        if tag == RESUME_OK_TAG:  # counted before any streamed frame
            tm.counter("gateway.resumes.restart").inc()
        handle.start_gate.set()
        try:
            handle.wait(timeout=cfg.request_timeout_s)
        except SessionDrainedError as exc:
            # tell the client; a resume then goes through the store
            with self._sessions_lock:
                tag = session.machine.fire(DRAINED)
                if self._live.get(sid) is session:
                    del self._live[sid]
            notice = {"session_id": sid, "next_round": exc.next_round}
            try:
                session.channel.send(tag, json.dumps(notice, sort_keys=True).encode())
            except (WireError, GCProtocolError):
                pass  # the checkpoint still exists; the client can resume blind
            raise
        except LeaseError:
            tm.counter("gateway.resumes.lease_lost").inc()
            raise
        self._advance(session, STREAMED)
        self.store.release_lease(sid, self.gateway_id)
        tm.counter("gateway.queries").inc()

    def _round_hook(self, sid: str):
        """Every stream's ``on_round``: draining stops it at the boundary."""

        def on_round(next_round: int) -> None:
            if self._draining.is_set():
                raise SessionDrainedError(
                    f"gateway draining: session {sid} checkpointed at "
                    f"round {next_round}", session_id=sid, next_round=next_round,
                )

        return on_round

    def _reply(self, session: _GatewaySession, event: str, reason: str) -> None:
        """Refuse a query or resume with the frame ``event`` names; a
        refused resume ends its connection, typed.  A shed's hint names
        the tenant, so noisy neighbours show."""
        tag = self._advance(session, event)
        body = reason.encode()
        if tag == RETRY_AFTER_TAG:
            self.telemetry.counter("gateway.shed").inc()
            hint = {"delay_s": self.serving.retry_after_s, "reason": reason}
            if session.tenant:
                self.telemetry.counter(f"gateway.shed.tenant.{session.tenant}").inc()
                hint["tenant"] = session.tenant
            body = json.dumps(hint, sort_keys=True).encode()
        session.channel.send(tag, body)
        if session.machine.state == DONE:
            raise ResumeError(f"session {session.session_id}: {reason}")

    def _resume(self, session: _GatewaySession, payload: bytes) -> None:
        """Answer a ``net.resume`` on a fresh connection: rebind a
        session live here, adopt a parked idle one, or restart a stored
        stream at the round the client proved it holds."""
        self.telemetry.counter("gateway.resume_requests").inc()
        sid, client_acked, ident = read_resume(session.endpoint, payload, self.descriptor)
        session.session_id = sid
        answer = {"session_id": sid, "gateway_id": self.gateway_id}
        with self._sessions_lock:
            live = self._live.get(sid)
        if live is not None and live.thread.is_alive():
            # splice this socket under the live session; the OK goes
            # before any replayed frame, on this transport's counters
            if not live.channel.replay_buffer.can_replay_from(client_acked):
                return self._reply(session, REJECTED, (
                    f"cannot resume session {sid}: replay horizon passed "
                    f"frame {client_acked}"
                ))
            self._advance(session, REBIND)
            answer.update(mode="rebind", last_acked_seq=live.channel.recv_seq)
            session.endpoint.send(
                RESUME_OK_TAG, json.dumps(answer, sort_keys=True).encode()
            )
            live.channel.rebind(session.endpoint, client_acked)
            live.endpoint = session.endpoint  # teardown follows the socket
            self.telemetry.counter("gateway.resumes.rebind").inc()
            return
        stored = self.store.get(sid)
        holder = self.store.lease_holder(sid) if stored is None else None
        leased = stored is None and self.store.get_lease(sid) is not None
        event = resume_event(stored, holder, leased)
        if event == SHED:
            # the owner leased the query but its first put has not
            # landed yet: the client retries once there is material
            return self._reply(session, SHED, f"session {sid} is admitting on {holder}")
        if event == REJECTED:
            return self._reply(session, REJECTED, f"unknown session {sid}: nothing to resume")
        if self._draining.is_set():
            return self._reply(session, SHED, "gateway is draining")
        if stored is not None:  # else the client names itself
            ident = {"name": stored.client_name, "backend": stored.backend,
                     "tenant": stored.tenant}
        session.client_name = str(ident.get("name") or session.client_name)
        session.backend = str(ident.get("backend") or self.default_backend)
        session.tenant = str(ident.get("tenant") or "")
        answer["last_acked_seq"] = 0
        if event == RESUME_IDLE:
            # no query answered: the client sends it again here, and
            # that first frame deletes the idle record
            answer["mode"] = "idle"
            tag = self._advance(session, RESUME_IDLE)
            session.channel.send(tag, json.dumps(answer, sort_keys=True).encode())
            self.telemetry.counter("gateway.resumes.idle").inc()
            return
        # restart a copy rewound to the round the client's count proves;
        # its new frame map waits for the client's first frame here
        # (``frame``): until then a retry sends the old count
        checkpoint = SessionCheckpoint.from_dict(stored.to_dict())
        checkpoint.rewind_to(checkpoint.acked_round(client_acked))
        self._advance(session, RESTART)
        start_seq, open_frames = session.endpoint.send_seq + 1, session.ot.open_frames

        def first_frame() -> None:
            if self._advance(session, FRAME, strict=False) == "remap":
                checkpoint.begin_stream(start_seq, open_frames)
                self.store.put(checkpoint, owner=self.gateway_id)

        def submit():
            handle = self._batcher.submit(
                checkpoint, FirstReplyEndpoint(session.endpoint, first_frame),
                self.server.group, on_round=self._round_hook(sid), ot=session.ot,
            )
            try:
                self.store.put(checkpoint, owner=self.gateway_id)
            except LeaseError as exc:
                handle.cancel(exc)
                raise OverloadedError(f"lost the adoption race: {exc}") from exc
            return handle

        answer.update(mode="restart", next_round=checkpoint.next_round)
        self._stream(session, submit, json.dumps(answer, sort_keys=True).encode())
