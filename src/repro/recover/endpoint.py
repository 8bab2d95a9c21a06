"""Resumable endpoints: reconnect, rebind, and idempotent frame replay.

Both classes subclass :class:`~repro.gc.channel.EndpointBase` and own
the *session* sequence counters, delegating raw frame I/O to a
swappable transport (normally a :class:`repro.net.SocketEndpoint`).
That split is what makes resume transparent to protocol code: when the
wire breaks, the transport is replaced underneath a live endpoint whose
counters — and therefore whose CRC trailers — continue unbroken.

Client side (:class:`ResumableClientEndpoint`): a raw send/recv failure
triggers reconnect-with-backoff, a ``net.resume`` control exchange on
the *fresh* transport's own counters, then replay of every session
frame the gateway has not acknowledged.  Server side
(:class:`RebindableEndpoint`): a raw failure parks the session thread
on a condition until the gateway rebinds a new transport (or the
resume window closes), replaying the server's unacked frames first.

Replay is idempotent by construction: the replay buffer stores exact
wire bytes (body + sequence-mixed CRC trailer), the resume exchange
carries each side's verified-receive counter, and only frames at or
above the peer's counter are retransmitted — a frame the peer already
verified is never offered to it again, and a duplicated frame would
fail the peer's trailer check anyway.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    ConfigurationError,
    ResumeError,
    SessionDrainedError,
    SessionParkedError,
    WireError,
)
from repro.gc.channel import EndpointBase, TrafficStats

#: Session-resume control tags (shared with :mod:`repro.net.handshake`;
#: they live here so the recover package stays import-cycle-free).
RESUME_TAG = "net.resume"
RESUME_OK_TAG = "net.resume_ok"
RETRY_AFTER_TAG = "net.retry_after"
DRAIN_TAG = "net.drain"

#: Resume modes a gateway may answer with: ``rebind`` continues the
#: interrupted frame stream in place (the session thread is still
#: live); ``restart`` re-enters the protocol at a round boundary from
#: a stored checkpoint (the original thread is gone — drain/restart);
#: ``idle`` adopts a session that has no answer to resume.
RESUME_MODES = ("rebind", "restart", "idle")


class _RetryLater(Exception):
    """Internal: the gateway answered a resume with ``net.retry_after``."""

    def __init__(self, delay_s: float):
        super().__init__(f"gateway asked to retry after {delay_s}s")
        self.delay_s = delay_s


@dataclass
class BackoffPolicy:
    """Capped exponential backoff with jitter, honoring server hints.

    ``delay(attempt)`` grows ``base_s * multiplier**attempt`` up to
    ``cap_s``, then subtracts up to ``jitter`` (fraction) of itself so
    a thundering herd of shed clients decorrelates.  A ``RETRY_AFTER``
    hint from the gateway acts as a floor: the client never comes back
    earlier than the server asked.
    """

    base_s: float = 0.05
    cap_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    max_attempts: int = 6
    seed: int | None = None
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.cap_s < self.base_s:
            raise ConfigurationError("backoff needs 0 < base_s <= cap_s")
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError("jitter must be a fraction in [0, 1]")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int, hint_s: float | None = None) -> float:
        raw = min(self.cap_s, self.base_s * self.multiplier ** max(0, attempt))
        jittered = raw * (1.0 - self.jitter * self._rng.random())
        if hint_s is not None:
            return max(float(hint_s), jittered)
        return jittered

    def sleep(self, attempt: int, hint_s: float | None = None,
              sleeper=time.sleep) -> float:
        d = self.delay(attempt, hint_s)
        sleeper(d)
        return d


#: Sent frames a resumable endpoint keeps for replay after a wire break
#: (the oldest are dropped first).
REPLAY_BUFFER_FRAMES = 4096


class ResumableClientEndpoint(EndpointBase):
    """The client's session endpoint: survives wire breaks by resuming.

    ``transport`` is the connected endpoint the handshake already ran
    on; the session counters are inherited from it so the wire stream
    is byte-identical to a non-resumable client's until a resume is
    actually attempted.  ``dial`` returns
    a fresh connected transport endpoint; it is invoked under the
    backoff policy after every wire failure.
    """

    def __init__(
        self,
        transport,
        dial,
        session_id: str,
        policy: BackoffPolicy | None = None,
        telemetry=None,
        recv_timeout_s: float | None = None,
        replay_capacity: int = REPLAY_BUFFER_FRAMES,
        sleeper=time.sleep,
        identity: dict | None = None,
    ):
        super().__init__(
            transport.name, TrafficStats(), telemetry, recv_timeout_s
        )
        self._transport = transport
        self._dial = dial
        self.session_id = session_id
        #: the hello's ``name``/``backend``/``tenant``, sent with every
        #: resume: a peer adopting a session whose gateway died before
        #: storing anything learns who it serves from them
        self.identity = dict(identity or {})
        self.policy = policy or BackoffPolicy()
        self._sleeper = sleeper
        self.resumes = 0
        self.frames_replayed = 0
        #: set when the gateway answered a resume with mode=restart:
        #: the round the checkpointed session will re-stream from (-1
        #: for mode=idle: no answer to resume)
        self.restart_round: int | None = None
        #: the ``gateway_id`` from the most recent ``net.resume_ok`` —
        #: in a fleet it may differ from the gateway that issued the
        #: session (the chaos oracle records it in its replay logs)
        self.last_gateway_id: str = ""
        self._resume_disabled = False
        self.enable_replay(replay_capacity)
        # the handshake consumed transport frames; continue seamlessly
        self.restore_sequences(transport.send_seq, transport.recv_seq)

    # -- raw hooks ------------------------------------------------------
    def _send_message(self, tag: str, payload: bytes) -> None:
        try:
            self._transport._send_message(tag, payload)
        except WireError:
            if self._resume_disabled:
                raise
            # the failed frame is already in the replay buffer (send()
            # records before transmitting); _resume replays it, so a
            # successful resume means this send is done
            self._resume()
            self._raise_if_restarted()

    def _recv_message(self, timeout: float) -> tuple[str, bytes]:
        while True:
            try:
                return self._transport._recv_message(timeout)
            except WireError:
                if self._resume_disabled:
                    raise
                self._resume()
                self._raise_if_restarted()

    def disable_resume(self) -> None:
        """Let wire errors through untouched from now on — the teardown
        path must not spend a backoff budget on a courtesy BYE."""
        self._resume_disabled = True

    def _intercept(self, tag: str, body: bytes) -> None:
        """An unexpected-but-verified frame mid-session: a ``net.drain``
        notice means the gateway checkpointed us at a round boundary."""
        if tag != DRAIN_TAG:
            return
        try:
            notice = json.loads(body.decode())
            next_round = int(notice.get("next_round", 0))
        except (ValueError, TypeError):
            next_round = 0
        raise SessionDrainedError(
            f"{self.name}: gateway drained session {self.session_id} "
            f"at round {next_round}",
            session_id=self.session_id,
            next_round=next_round,
            resumed=False,
        )

    def _raise_if_restarted(self) -> None:
        """A restart-mode resume cannot transparently satisfy the
        blocked send/recv — the stream re-begins at a round boundary —
        so surface it as a typed, already-resumed drain signal."""
        if self.restart_round is None:
            return
        next_round = self.restart_round
        self.restart_round = None
        error = SessionParkedError if next_round < 0 else SessionDrainedError
        raise error(
            f"{self.name}: session {self.session_id} resumed from a "
            f"checkpoint at round {next_round}",
            session_id=self.session_id,
            next_round=next_round,
            resumed=True,
        )

    # -- resume ---------------------------------------------------------
    def _resume(self) -> None:
        """Reconnect, renegotiate, replay.  Raises :class:`ResumeError`
        when the gateway refuses or every reconnect attempt fails."""
        try:
            self._transport.close()
        except Exception:
            pass
        last_error: Exception | None = None
        hint_s: float | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self.policy.sleep(attempt - 1, hint_s=hint_s, sleeper=self._sleeper)
                hint_s = None
            try:
                fresh = self._dial()
            except (WireError, OSError) as exc:
                last_error = exc
                continue
            try:
                self._negotiate(fresh)
            except _RetryLater as exc:
                # the gateway shed the resume (draining / queue full):
                # honor its hint as the floor of the next backoff sleep,
                # and rotate a failover dialer to the next gateway — a
                # draining peer will not get healthier while we wait
                last_error = exc
                hint_s = exc.delay_s
                fresh.close()
                penalize = getattr(self._dial, "penalize", None)
                if penalize is not None:
                    penalize()
                continue
            except ResumeError:
                fresh.close()
                raise
            except WireError as exc:
                last_error = exc
                fresh.close()
                continue
            self.resumes += 1
            if self.telemetry is not None:
                self.telemetry.counter("recover.client.resumes").inc()
            return
        raise ResumeError(
            f"{self.name}: session {self.session_id} could not be resumed "
            f"after {self.policy.max_attempts} attempts "
            f"(last error: {last_error})"
        )

    def force_resume(self) -> int:
        """Resume after an explicit drain notice.  Returns the round the
        gateway will re-stream from; a checkpoint restart is the only
        coherent answer (the drained session thread is gone, so a rebind
        would mean the gateway and client disagree about liveness)."""
        self._resume()
        if self.restart_round is None:
            raise ResumeError(
                f"{self.name}: expected a checkpoint restart after the "
                f"drain notice for {self.session_id}, got a rebind"
            )
        next_round = self.restart_round
        self.restart_round = None
        return next_round

    def _negotiate(self, fresh) -> None:
        """Run the resume control exchange on ``fresh``'s own counters,
        then adopt it and replay whatever the gateway has not seen."""
        # imported here: repro.net imports this package at load time
        from repro.net.handshake import PROTOCOL_VERSION

        request = {
            **self.identity,
            "session_id": self.session_id,
            "last_acked_seq": self.recv_seq,
            "protocol_version": PROTOCOL_VERSION,
        }
        fresh.send(RESUME_TAG, json.dumps(request, sort_keys=True).encode())
        tag, payload = fresh.recv_any(
            (RESUME_OK_TAG, "net.reject", RETRY_AFTER_TAG)
        )
        if tag == "net.reject":
            raise ResumeError(
                f"{self.name}: gateway refused to resume session "
                f"{self.session_id}: {payload.decode(errors='replace')}"
            )
        if tag == RETRY_AFTER_TAG:
            try:
                delay_s = float(json.loads(payload.decode()).get("delay_s", 0.0))
            except (ValueError, TypeError):
                delay_s = 0.0
            raise _RetryLater(delay_s)
        try:
            answer = json.loads(payload.decode())
            mode = answer.get("mode", "rebind")
            peer_acked = int(answer["last_acked_seq"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ResumeError(
                f"{self.name}: malformed resume_ok: {exc}"
            ) from exc
        if mode not in RESUME_MODES:
            raise ResumeError(f"{self.name}: unknown resume mode '{mode}'")
        self.last_gateway_id = str(answer.get("gateway_id", ""))
        if mode != "rebind":
            # the original session thread is gone; the gateway will
            # re-stream from a round boundary (or, idle, take the next
            # query) on this very connection, continuing the control
            # exchange's counters
            self._transport = fresh
            self.restart_round = (
                int(answer.get("next_round", 0)) if mode == "restart" else -1
            )
            self.restore_sequences(fresh.send_seq, fresh.recv_seq)
            self._replay = type(self._replay)(self._replay.capacity)
            return
        buffer = self._replay
        if not buffer.can_replay_from(peer_acked):
            raise ResumeError(
                f"{self.name}: gateway acked frame {peer_acked} but the "
                f"replay horizon has advanced past it "
                f"(oldest retained: {buffer.oldest_seq})"
            )
        self._transport = fresh
        replayed = buffer.frames_from(peer_acked)
        for _, tag, wire in replayed:
            fresh._send_message(tag, wire)
        buffer.ack(peer_acked)
        self.frames_replayed += len(replayed)
        if replayed and self.telemetry is not None:
            self.telemetry.counter("recover.client.frames_replayed").inc(
                len(replayed)
            )

    # -- passthrough ----------------------------------------------------
    @property
    def pending(self) -> int:
        return getattr(self._transport, "pending", 0)

    @property
    def transport(self):
        return self._transport

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "ResumableClientEndpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FirstReplyEndpoint:
    """A view of ``endpoint`` whose first received frame runs ``hook``
    once, before the reader sees it: the gateway's stream adopted on
    resume learns when the client has replied on its new connection."""

    def __init__(self, endpoint, hook):
        self._endpoint = endpoint
        self._hook = hook

    def __getattr__(self, name):
        return getattr(self._endpoint, name)

    def recv(self, expected_tag: str, timeout: float | None = None) -> bytes:
        return self._replied(self._endpoint.recv(expected_tag, timeout))

    def recv_any(self, tags: tuple[str, ...], timeout: float | None = None):
        return self._replied(self._endpoint.recv_any(tags, timeout))

    def _replied(self, frame):
        hook, self._hook = self._hook, None
        if hook is not None:
            hook()
        return frame


class RebindableEndpoint(EndpointBase):
    """The gateway's session endpoint: parks on a broken wire until the
    intake loop rebinds a fresh transport to the live session.

    The session thread never observes the disconnect (unless the
    resume window closes first): a failed raw send/receive blocks on a
    condition, :meth:`rebind` — called from the gateway's accept path
    after validating the client's ``net.resume`` — replays unacked
    frames on the new transport and wakes the thread.
    """

    def __init__(
        self,
        transport,
        resume_window_s: float = 30.0,
        telemetry=None,
        recv_timeout_s: float | None = None,
        replay_capacity: int = REPLAY_BUFFER_FRAMES,
    ):
        super().__init__(
            transport.name, TrafficStats(), telemetry, recv_timeout_s
        )
        if resume_window_s <= 0:
            raise ConfigurationError("resume window must be positive")
        self._transport = transport
        self.resume_window_s = resume_window_s
        self._cond = threading.Condition()
        self._generation = 0
        self._dead = False
        #: set once no rebind can arrive any more (the gateway stops)
        self._window_closed = False
        self.rebinds = 0
        self.frames_replayed = 0
        self.enable_replay(replay_capacity)
        self.restore_sequences(transport.send_seq, transport.recv_seq)

    # -- raw hooks ------------------------------------------------------
    def _send_message(self, tag: str, payload: bytes) -> None:
        transport, generation = self._current()
        try:
            transport._send_message(tag, payload)
        except WireError as exc:
            # the frame is in the replay buffer; a successful rebind
            # replays (or acks away) everything the peer is missing,
            # so waiting it out completes this send
            self._await_rebind(generation, exc)

    def _recv_message(self, timeout: float) -> tuple[str, bytes]:
        while True:
            transport, generation = self._current()
            try:
                return transport._recv_message(timeout)
            except WireError as exc:
                self._await_rebind(generation, exc)

    def _current(self):
        with self._cond:
            return self._transport, self._generation

    def _await_rebind(self, seen_generation: int, cause: WireError) -> None:
        with self._cond:
            if self._generation > seen_generation:
                return  # a rebind already happened; retry on the new wire
            self._cond.wait_for(
                lambda: self._generation > seen_generation
                or self._dead
                or self._window_closed,
                timeout=self.resume_window_s,
            )
            if self._dead or self._generation == seen_generation:
                raise WireError(
                    f"{self.name}: wire broke and no resume arrived within "
                    f"{self.resume_window_s}s ({cause})"
                ) from cause

    # -- gateway-side API -----------------------------------------------
    def rebind(self, transport, peer_acked: int) -> int:
        """Adopt ``transport`` for the live session, replaying every
        frame the peer has not verified.  Returns the replay count.

        Raises :class:`ResumeError` (leaving the old wire in place)
        when ``peer_acked`` is behind the replay horizon.
        """
        with self._cond:
            buffer = self._replay
            if not buffer.can_replay_from(peer_acked):
                raise ResumeError(
                    f"{self.name}: peer acked frame {peer_acked} but the "
                    f"replay horizon has advanced past it "
                    f"(oldest retained: {buffer.oldest_seq})"
                )
            old = self._transport
            replayed = buffer.frames_from(peer_acked)
            for _, tag, wire in replayed:
                transport._send_message(tag, wire)
            buffer.ack(peer_acked)
            self._transport = transport
            self._generation += 1
            self.rebinds += 1
            self.frames_replayed += len(replayed)
            self._cond.notify_all()
        try:
            old.close()
        except Exception:
            pass
        if self.telemetry is not None:
            self.telemetry.counter("recover.gateway.rebinds").inc()
            if replayed:
                self.telemetry.counter(
                    "recover.gateway.frames_replayed"
                ).inc(len(replayed))
        return len(replayed)

    def close_window(self) -> None:
        """End the resume window now: a parked thread, and any later
        break, fails at once with the typed wire error the window's
        expiry gives.  Unlike :meth:`kill` the transport stays open, so
        a session still streaming on an intact wire runs to its end."""
        with self._cond:
            self._window_closed = True
            self._cond.notify_all()

    def kill(self) -> None:
        """Give up on the session: wake any parked thread with a typed
        wire error and close the current transport."""
        with self._cond:
            self._dead = True
            self._cond.notify_all()
        try:
            self._transport.close()
        except Exception:
            pass

    @property
    def pending(self) -> int:
        return getattr(self._transport, "pending", 0)

    @property
    def transport(self):
        return self._transport

    def close(self) -> None:
        self._transport.close()
