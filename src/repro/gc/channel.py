"""In-memory two-party channel with byte-exact traffic accounting.

The paper's system (Figure 1) moves garbled tables from the FPGA over
PCIe to the host, and from the host over the network to the client.  In
this reproduction both parties usually live in one process (each side
typically on its own thread), so the "network" is a pair of thread-safe
FIFO queues; what we preserve is *what* is sent and *how many bytes* it
costs, which is all the throughput analysis needs.  The real-socket
transport (:mod:`repro.net`) shares :class:`EndpointBase`, so protocol
code is written once against the endpoint contract and runs unchanged
over the wire.

``recv`` blocks until the peer's message arrives, so protocol code can
be written in the natural sequential style on each side.  When a party
run by :func:`run_two_party` raises, the in-memory endpoints of the
dialogue stop waiting: the other party's pending (or next) ``recv``
fails at once with :class:`~repro.errors.ChannelClosedError` instead
of waiting out the receive timeout.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.errors import (
    ChannelClosedError,
    ConfigurationError,
    GCProtocolError,
    IntegrityError,
)

#: Fallback safety net so a protocol bug surfaces as an error, not a
#: hang.  Resolution order for an endpoint's receive timeout:
#: explicit ``recv(..., timeout=)`` argument > per-endpoint
#: ``recv_timeout_s`` (e.g. from ``ServingConfig``) > the
#: ``REPRO_RECV_TIMEOUT_S`` environment variable > this default.
DEFAULT_RECV_TIMEOUT_S = 60.0

#: Deprecated module-global knob, kept so existing operator scripts that
#: mutate it keep working; prefer ``REPRO_RECV_TIMEOUT_S`` or
#: ``ServingConfig.recv_timeout_s``.
RECV_TIMEOUT_S = DEFAULT_RECV_TIMEOUT_S

RECV_TIMEOUT_ENV = "REPRO_RECV_TIMEOUT_S"

#: Every message carries a CRC32 trailer over (sequence, tag, payload)
#: so that corruption, truncation, or *replay* anywhere between the two
#: endpoint hooks — a flipped bit on the wire, a frame cut short, a
#: duplicated frame consumed as the next protocol step — surfaces as a
#: typed :class:`~repro.errors.IntegrityError` on receive instead of
#: silently desynchronising the evaluator's labels.  Honest-but-curious
#: GC does not authenticate tables, so without this a single corrupted
#: or duplicated frame mid-MAC yields a *wrong answer*, not an
#: exception (a duplicated OT message, for example, shifts every later
#: round's key schedule by one while every tag still matches).
INTEGRITY_TRAILER_BYTES = 4


def message_checksum(tag: str, body: bytes, seq: int = 0) -> bytes:
    """The 4-byte big-endian CRC32 trailer for one tagged message.

    ``seq`` is the sender's message index on this direction of the
    channel; mixing it into the checksum is what makes duplicated or
    reordered frames fail verification even though their bytes are a
    faithful copy of a legitimate message.
    """
    state = zlib.crc32(seq.to_bytes(8, "big"))
    state = zlib.crc32(tag.encode(), state)
    return zlib.crc32(body, state).to_bytes(INTEGRITY_TRAILER_BYTES, "big")


def resolve_recv_timeout(
    explicit: float | None = None, configured: float | None = None
) -> float:
    """Resolve the receive-timeout from the documented precedence chain."""
    if explicit is not None:
        return explicit
    if configured is not None:
        return configured
    env = os.environ.get(RECV_TIMEOUT_ENV)
    if env is not None and env != "":
        try:
            value = float(env)
        except ValueError:
            raise ConfigurationError(
                f"{RECV_TIMEOUT_ENV} must be a number of seconds, got {env!r}"
            ) from None
        if value <= 0:
            raise ConfigurationError(
                f"{RECV_TIMEOUT_ENV} must be positive, got {value}"
            )
        return value
    return RECV_TIMEOUT_S


@dataclass
class TrafficStats:
    """Byte/message counters for one direction of a channel."""

    messages: int = 0
    payload_bytes: int = 0
    by_tag: dict[str, int] = field(default_factory=dict)

    def record(self, tag: str, size: int) -> None:
        self.messages += 1
        self.payload_bytes += size
        self.by_tag[tag] = self.by_tag.get(tag, 0) + size


class _Queue:
    """A blocking FIFO of (tag, payload) messages.

    Once closed (a party of its dialogue failed), the messages already
    queued are still delivered; a receive that would then wait raises
    :class:`~repro.errors.ChannelClosedError` at once.
    """

    def __init__(self) -> None:
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def put(self, item: tuple[str, bytes]) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def get(self, timeout: float) -> tuple[str, bytes]:
        with self._cond:
            if not self._cond.wait_for(
                lambda: bool(self._items) or self._closed, timeout=timeout
            ):
                raise GCProtocolError("channel receive timed out (protocol deadlock?)")
            if not self._items:
                raise ChannelClosedError(
                    "the other party failed: no more messages will arrive"
                )
            return self._items.popleft()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class ReplayBuffer:
    """A bounded record of sent wire frames, keyed by send sequence.

    The resume protocol (:mod:`repro.recover`) retransmits every frame
    the peer has not acknowledged after a reconnect.  Entries store the
    exact wire payload (body + integrity trailer), so a replayed frame
    is byte-identical to the original — the peer's sequence-mixed CRC
    check passes without special cases.

    The buffer is bounded (``capacity`` frames); when it overflows the
    oldest entry is dropped and the *replay horizon* advances.  A
    resume that needs a dropped frame cannot be honoured — callers
    detect that via :meth:`can_replay_from` and fail typed instead of
    replaying a gap.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError("replay buffer capacity must be positive")
        self.capacity = capacity
        self._frames: deque = deque()  # (seq, tag, wire_payload)

    def record(self, seq: int, tag: str, wire_payload: bytes) -> None:
        self._frames.append((seq, tag, wire_payload))
        while len(self._frames) > self.capacity:
            self._frames.popleft()

    def ack(self, acked_seq: int) -> None:
        """Drop frames the peer confirmed receiving (seq < acked_seq)."""
        while self._frames and self._frames[0][0] < acked_seq:
            self._frames.popleft()

    def can_replay_from(self, seq: int) -> bool:
        """True iff no frame with index >= ``seq`` has been dropped."""
        if not self._frames:
            return True
        return self._frames[0][0] <= seq

    def frames_from(self, seq: int) -> list:
        """Every recorded frame with index >= ``seq``, in send order."""
        return [f for f in self._frames if f[0] >= seq]

    @property
    def oldest_seq(self) -> int | None:
        return self._frames[0][0] if self._frames else None

    def __len__(self) -> int:
        return len(self._frames)


class EndpointBase:
    """The endpoint contract shared by the in-memory channel and the
    socket transport (:class:`repro.net.SocketEndpoint`).

    Subclasses implement ``_send_message(tag, payload)`` and
    ``_recv_message(timeout) -> (tag, payload)``; everything the
    protocol layer relies on — traffic accounting, telemetry counters
    (aggregate ``channel.messages``/``channel.bytes`` plus per-tag
    ``channel.bytes.<tag>`` so reports can split tables vs OT vs
    labels), tag checking, and the u128-list helpers — lives here so
    both transports behave identically.

    Resumable endpoints (:mod:`repro.recover`) additionally call
    :meth:`enable_replay` so every sent frame lands in a bounded
    :class:`ReplayBuffer`, and :meth:`restore_sequences` when a
    rebuilt endpoint must continue an interrupted frame stream.
    """

    def __init__(
        self,
        name: str,
        stats: TrafficStats | None = None,
        telemetry=None,
        recv_timeout_s: float | None = None,
    ):
        self.name = name
        self.sent = stats if stats is not None else TrafficStats()
        self.telemetry = telemetry
        self.recv_timeout_s = recv_timeout_s
        #: per-direction message indexes, mixed into the integrity
        #: trailer (see :func:`message_checksum`)
        self._send_seq = 0
        self._recv_seq = 0
        self._replay: ReplayBuffer | None = None

    # -- transport hooks ------------------------------------------------
    def _send_message(self, tag: str, payload: bytes) -> None:
        raise NotImplementedError

    def _recv_message(self, timeout: float) -> tuple[str, bytes]:
        raise NotImplementedError

    # -- shared behaviour ----------------------------------------------
    def _resolve_timeout(self, timeout: float | None) -> float:
        return resolve_recv_timeout(timeout, self.recv_timeout_s)

    # -- resume support -------------------------------------------------
    def enable_replay(self, capacity: int = 4096) -> None:
        """Record every sent frame into a bounded :class:`ReplayBuffer`."""
        self._replay = ReplayBuffer(capacity)

    @property
    def replay_buffer(self) -> ReplayBuffer | None:
        return self._replay

    @property
    def send_seq(self) -> int:
        """Frames sent on this direction (the peer's expected recv index)."""
        return self._send_seq

    @property
    def recv_seq(self) -> int:
        """Frames received and verified — the ack value a resume reports."""
        return self._recv_seq

    def restore_sequences(self, send_seq: int, recv_seq: int) -> None:
        """Continue an interrupted frame stream at the given indexes.

        Used when a resumed session rebuilds its endpoint: the trailer
        checks on both sides only pass if the sequence counters pick up
        exactly where the broken connection left off.
        """
        if send_seq < 0 or recv_seq < 0:
            raise ConfigurationError("sequence counters cannot be negative")
        self._send_seq = send_seq
        self._recv_seq = recv_seq

    def send(self, tag: str, payload) -> None:
        """Send a tagged binary message to the peer.

        ``payload`` is ``bytes``/``bytearray`` or any C-contiguous
        buffer (``memoryview``, numpy byte views): the vectorised
        garbler's table arrays are written straight into the wire frame
        without an intermediate ``bytes`` materialisation.  Accounting
        sees the caller's payload size; the integrity trailer is
        transport overhead appended below it.
        """
        if isinstance(payload, (bytes, bytearray)):
            body = payload
        else:
            try:
                # cast raises on non-contiguous views — the explicit
                # contract; callers copy deliberately, never silently
                body = memoryview(payload).cast("B")
            except TypeError:
                raise GCProtocolError(
                    f"channel payloads must be bytes-like, got {type(payload)!r}"
                ) from None
        n = len(body)
        self.sent.record(tag, n)
        if self.telemetry is not None:
            self.telemetry.counter("channel.messages").inc()
            self.telemetry.counter("channel.bytes").inc(n)
            self.telemetry.counter(f"channel.bytes.{tag}").inc(n)
        seq = self._send_seq
        self._send_seq += 1
        # one frame buffer: payload lands next to its trailer, no joins
        wire = bytearray(n + INTEGRITY_TRAILER_BYTES)
        wire[:n] = body
        wire[n:] = message_checksum(tag, body, seq)
        if self._replay is not None:
            # record before transmitting: a send that dies mid-frame is
            # replayed whole on resume (the peer never verified it)
            self._replay.record(seq, tag, wire)
        self._send_message(tag, wire)

    def _checked_body(self, tag: str, data: bytes) -> bytes:
        """Strip and verify the integrity trailer of a received message.

        Verification uses *this* endpoint's expected receive index, so a
        duplicated or reordered frame — byte-identical to a legitimate
        one — fails the check exactly like corruption does.
        """
        if len(data) < INTEGRITY_TRAILER_BYTES:
            raise IntegrityError(
                f"{self.name}: message '{tag}' too short to carry its "
                f"integrity trailer ({len(data)} bytes) — truncated in transit?"
            )
        body = data[:-INTEGRITY_TRAILER_BYTES]
        if data[-INTEGRITY_TRAILER_BYTES:] != message_checksum(
            tag, body, self._recv_seq
        ):
            raise IntegrityError(
                f"{self.name}: message '{tag}' (index {self._recv_seq}) failed "
                f"its integrity check ({len(body)} bytes) — corrupted, "
                "truncated, duplicated, or out of order in transit"
            )
        self._recv_seq += 1
        return body

    def recv(self, expected_tag: str, timeout: float | None = None) -> bytes:
        """Receive the next message; the tag must match the protocol step.

        ``timeout`` defaults through :func:`resolve_recv_timeout` *at
        call time*, so operators (and tests) can tighten the safety net
        via ``REPRO_RECV_TIMEOUT_S`` or ``ServingConfig`` without
        threading a parameter through the protocol.
        """
        tag, data = self._recv_message(self._resolve_timeout(timeout))
        body = self._checked_body(tag, data)
        if tag != expected_tag:
            self._intercept(tag, body)
            raise GCProtocolError(
                f"{self.name}: expected message '{expected_tag}', got '{tag}'"
            )
        return body

    def recv_any(
        self, tags: tuple[str, ...], timeout: float | None = None
    ) -> tuple[str, bytes]:
        """Receive the next message, allowing any of ``tags`` (control loops)."""
        tag, data = self._recv_message(self._resolve_timeout(timeout))
        body = self._checked_body(tag, data)
        if tag not in tags:
            self._intercept(tag, body)
            raise GCProtocolError(
                f"{self.name}: expected one of {tags}, got '{tag}'"
            )
        return tag, body

    def _intercept(self, tag: str, body: bytes) -> None:
        """Hook for out-of-band control frames (e.g. a gateway drain
        notice) that may arrive where protocol frames were expected.
        Subclasses raise a typed error; the default accepts everything.
        """

    def send_u128_list(self, tag: str, values: list[int]) -> None:
        self.send(tag, b"".join(v.to_bytes(16, "big") for v in values))

    def recv_u128_list(self, tag: str) -> list[int]:
        payload = self.recv(tag)
        if len(payload) % 16:
            raise GCProtocolError(f"'{tag}' payload is not a list of 16-byte labels")
        return [
            int.from_bytes(payload[i : i + 16], "big") for i in range(0, len(payload), 16)
        ]


class Endpoint(EndpointBase):
    """One side of an in-memory duplex channel.

    ``telemetry`` (a :class:`repro.telemetry.MetricsRegistry`) is
    optional; when attached, every send also lands in the shared
    ``channel.messages`` / ``channel.bytes`` / ``channel.bytes.<tag>``
    counters so the serving layer sees aggregate wire traffic across
    all concurrent sessions.
    """

    def __init__(
        self,
        name: str,
        outbox: _Queue,
        inbox: _Queue,
        stats: TrafficStats,
        telemetry=None,
        recv_timeout_s: float | None = None,
    ):
        super().__init__(name, stats, telemetry, recv_timeout_s)
        self._outbox = outbox
        self._inbox = inbox

    def _send_message(self, tag: str, payload: bytes) -> None:
        _joined(self)
        self._outbox.put((tag, payload))

    def _recv_message(self, timeout: float) -> tuple[str, bytes]:
        _joined(self)
        return self._inbox.get(timeout)

    @property
    def pending(self) -> int:
        return len(self._inbox)


def local_channel(
    left: str = "garbler",
    right: str = "evaluator",
    telemetry=None,
    recv_timeout_s: float | None = None,
) -> tuple[Endpoint, Endpoint]:
    """Create a connected pair of endpoints (optionally instrumented)."""
    a_to_b = _Queue()
    b_to_a = _Queue()
    left_end = Endpoint(
        left, a_to_b, b_to_a, TrafficStats(), telemetry=telemetry,
        recv_timeout_s=recv_timeout_s,
    )
    right_end = Endpoint(
        right, b_to_a, a_to_b, TrafficStats(), telemetry=telemetry,
        recv_timeout_s=recv_timeout_s,
    )
    return left_end, right_end


class _Dialogue:
    """The in-memory endpoints two parties of one :func:`run_two_party`
    use.  Once either party fails, every receive on them — pending or
    later — stops waiting for messages that will never come."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: set[Endpoint] = set()
        self._failed = False

    def join(self, endpoint: Endpoint) -> None:
        with self._lock:
            if endpoint in self._endpoints:
                return
            self._endpoints.add(endpoint)
            failed = self._failed
        if failed:
            endpoint._inbox.close()

    def fail(self) -> None:
        with self._lock:
            self._failed = True
            endpoints = list(self._endpoints)
        for endpoint in endpoints:
            endpoint._inbox.close()


#: per thread: the dialogue of the party running on it
_party = threading.local()


def _joined(endpoint: Endpoint) -> None:
    dialogue = getattr(_party, "dialogue", None)
    if dialogue is not None:
        dialogue.join(endpoint)


def _as_party(dialogue: _Dialogue, fn):
    """Run ``fn`` as one party of ``dialogue``; if it raises, the
    dialogue's endpoints stop waiting on it."""
    outer = getattr(_party, "dialogue", None)
    _party.dialogue = dialogue
    try:
        return fn()
    except BaseException:
        dialogue.fail()
        raise
    finally:
        _party.dialogue = outer


def run_two_party(left_fn, right_fn, cleanup=None, join_timeout_s: float | None = None):
    """Run the two protocol sides concurrently and return their results.

    ``left_fn``/``right_fn`` take no arguments (bind their endpoint with a
    closure).  Exceptions on either side are re-raised in the caller,
    and once a side raises, the other side's pending or next receive on
    an in-memory endpoint fails at once.  When *both* sides fail (the
    usual shape of a post-mortem: one side dies, the other stops
    waiting on it), the left error is re-raised ``from`` the right one
    with both messages combined, so a single traceback shows both
    failures.

    ``cleanup`` (no arguments) runs after both parties have finished —
    the place to close socket endpoints.  A cleanup that raises can
    never *mask* a primary protocol failure: the primary error is
    re-raised with the teardown failure appended to its message and
    chained as its cause.  A cleanup failure with no primary error is
    raised on its own.

    ``join_timeout_s`` bounds the wait for the right-hand thread
    (defaults through :func:`resolve_recv_timeout`).
    """
    results: dict[str, object] = {}
    errors: list[BaseException] = []
    dialogue = _Dialogue()

    def wrap(name, fn):
        def runner():
            try:
                results[name] = _as_party(dialogue, fn)
            except BaseException as exc:
                errors.append(exc)

        return runner

    join_timeout = (
        join_timeout_s if join_timeout_s is not None else resolve_recv_timeout()
    )
    thread = threading.Thread(target=wrap("right", right_fn), daemon=True)
    thread.start()
    primary: BaseException | None = None
    cause: BaseException | None = None
    try:
        results["left"] = _as_party(dialogue, left_fn)
    except BaseException as left_exc:
        thread.join(timeout=join_timeout)
        if errors:
            primary, cause = _combined(left_exc, errors[0]), errors[0]
        else:
            primary = left_exc
    else:
        thread.join(timeout=join_timeout)
        if thread.is_alive():
            primary = GCProtocolError("right-hand party did not terminate")
        elif errors:
            primary = errors[0]

    teardown_error: BaseException | None = None
    if cleanup is not None:
        try:
            cleanup()
        except BaseException as exc:
            teardown_error = exc

    if primary is not None:
        if teardown_error is not None:
            # the primary failure wins; the teardown failure rides along
            raise _annotated(
                primary, f"teardown also failed: {type(teardown_error).__name__}: "
                f"{teardown_error}"
            ) from teardown_error
        if cause is not None:
            raise primary from cause
        raise primary
    if teardown_error is not None:
        raise teardown_error
    return results["left"], results["right"]


def _annotated(exc: BaseException, note: str) -> BaseException:
    """A copy of ``exc`` (same type when possible) with ``note`` appended."""
    message = f"{exc} ({note})"
    try:
        rebuilt = type(exc)(message)
    except Exception:
        # exotic constructor signature: fall back to a generic wrapper
        rebuilt = GCProtocolError(message)
    return rebuilt


def _combined(left_exc: BaseException, right_exc: BaseException) -> BaseException:
    """The left-side error, its message extended with the right side's."""
    return _annotated(
        left_exc,
        f"the other party also failed: {type(right_exc).__name__}: {right_exc}",
    )
