"""Exception hierarchy for the MAXelerator reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CryptoError(ReproError):
    """Invalid cryptographic parameter or state."""


class CircuitError(ReproError):
    """Malformed netlist or illegal circuit construction."""


class GCProtocolError(ReproError):
    """Garbled-circuit protocol violation (wrong labels, bad tables...)."""


class ScheduleError(ReproError):
    """Illegal accelerator schedule (dependency or port conflict)."""


class SimulationError(ReproError):
    """Cycle-accurate simulation reached an inconsistent state."""


class ConfigurationError(ReproError):
    """Unsupported parameter combination (bit-width, core count...)."""


class ServingError(ReproError):
    """Serving-layer failure (backpressure rejection, request timeout...)."""


class OverloadedError(ServingError):
    """The serving queue (or another admission-controlled resource) is
    saturated *right now*.  Distinguished from other serving failures so
    the gateway can answer with a ``net.retry_after`` load-shed hint —
    the condition is transient and a backoff-then-retry is expected to
    succeed — while misconfiguration and hard failures stay terminal.
    """


class WireError(GCProtocolError):
    """Wire-transport failure (truncated/oversized/out-of-order frame,
    bad magic, peer disconnect, receive timeout).

    Subclasses :class:`GCProtocolError` so protocol code that treats a
    broken channel as a protocol failure keeps working unchanged when
    the channel is a real socket.
    """


class ChannelClosedError(GCProtocolError):
    """The other party of an in-memory dialogue failed while this side
    was waiting for its next message
    (:func:`repro.gc.channel.run_two_party`).  Raised at once instead
    of after the receive timeout.
    """


class IntegrityError(GCProtocolError):
    """A message failed its end-to-end integrity check (flipped or lost
    bytes between the sender's endpoint and the receiver's).

    Raised by :meth:`repro.gc.channel.EndpointBase.recv` when the CRC32
    trailer does not match, so a corrupted frame mid-MAC fails loudly
    instead of silently desynchronising the accumulator labels.
    """


class HandshakeError(WireError):
    """Session negotiation failed (version/bit-width/fingerprint
    mismatch, or the peer vanished mid-negotiation)."""


class ResumeError(WireError):
    """A session resume attempt failed: the gateway no longer knows the
    session (expired checkpoint, restarted store), the replay horizon
    was exceeded, or the resume negotiation itself broke.

    Subclasses :class:`WireError` so callers that treat a broken wire
    as a failed session need no new handling — a failed resume is a
    failed session, surfaced typed.
    """


class LeaseError(ResumeError):
    """A fleet-coordination lease violation: a gateway tried to advance
    or adopt a session whose lease it does not hold (another gateway
    stole it after expiry, or a compare-and-swap advance lost a race).

    Subclasses :class:`ResumeError`: from the session's point of view a
    lost lease is a failed resume on *this* gateway — the session
    itself lives on wherever the lease went.
    """


class SessionDrainedError(ServingError):
    """The gateway checkpointed this session and closed it (graceful
    drain).  The session is *resumable*: reconnect with the carried
    ``session_id`` and the server replays only the remaining rounds.

    ``session_id``/``next_round`` are optional so the generic
    re-raise machinery (which rebuilds exceptions from their message
    alone) keeps working.
    """

    def __init__(self, message: str, session_id: str | None = None,
                 next_round: int = 0, resumed: bool = False):
        super().__init__(message)
        self.session_id = session_id
        self.next_round = next_round
        #: True when a resume negotiation already happened and the
        #: server is streaming from ``next_round`` — the caller should
        #: re-enter evaluation directly instead of reconnecting.
        self.resumed = resumed
