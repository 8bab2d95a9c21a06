"""One gateway session's lifecycle, written once as a transition table.

:class:`~repro.net.gateway.GCGateway` runs a thread per connection and
does the sockets, the serving queue and the session store; which of
those a session may do next is decided here.  :data:`TRANSITIONS` maps
``(state, event)`` to ``(next state, action)``, and
:class:`SessionMachine` applies it: an event the table does not list
for the current state raises :class:`SessionStateError`.  The machine
holds no socket, thread or store, so the whole lifecycle can be
model-checked on its own (``tests/net/test_lifecycle.py``), and
:func:`render_diagram` prints the table that ``docs/PROTOCOL.md``
shows.

An action is the frame the gateway answers with (``net.ack``,
``net.retry_after``, ...) or what it does to the session store:
``admit`` and ``confirm`` delete the last answer's record (any client
frame proves it read that answer) and ``admit`` takes the lease;
``restart`` adopts a stored stream rewound to the client's round,
whose lease-fenced ``put`` precedes ``net.resume_ok``; ``remap`` puts
the adopted stream's new frame map; ``release`` gives up the lease;
``park`` stores the session's idle record.  ``close`` writes nothing.
"""

from __future__ import annotations

from repro.errors import ServingError
from repro.net.handshake import REJECT_TAG, WELCOME_TAG
from repro.recover.endpoint import DRAIN_TAG, RESUME_OK_TAG, RETRY_AFTER_TAG

QUERY_TAG = "net.query"
ACK_TAG = "net.ack"
ERROR_TAG = "net.error"
BYE_TAG = "net.bye"

# -- states --------------------------------------------------------------
HELLO = "hello"              #: connected; no net.hello / net.resume handled
IDLE = "idle"                #: handshaken; waiting for net.query / net.bye
STREAMING = "streaming"      #: a query holds the lease and streams
ADOPTED = "adopted"          #: a stored stream restarts on this connection;
                             #: the client has sent nothing on it yet
UNCONFIRMED = "unconfirmed"  #: answer sent in full; no client frame since
PARKED = "parked"            #: drained: checkpointed, or idle record stored
HANDED_OFF = "handed_off"    #: socket spliced into a live session (rebind)
DONE = "done"                #: the session thread has ended

STATES = (HELLO, IDLE, STREAMING, ADOPTED, UNCONFIRMED, PARKED,
          HANDED_OFF, DONE)

# -- events --------------------------------------------------------------
HELLO_FRAME = "hello"        #: net.hello accepted
REBIND = "rebind"            #: net.resume for a session live on this gateway
RESTART = "restart"          #: net.resume for a stored stream
RESUME_IDLE = "resume_idle"  #: net.resume with no answer to resume (idle
                             #: record, or an expired lease and no record)
QUERY = "query"              #: net.query
BYE = "bye"                  #: net.bye
ADMITTED = "admitted"        #: the serving layer took the stream
SHED = "shed"                #: overloaded, draining, or leased to a peer
REJECTED = "rejected"        #: refused for good (bad row, unknown session)
FRAME = "frame"              #: the client's first frame on an adopted stream
STREAMED = "streamed"        #: every frame of the answer is on the wire
DRAINED = "drained"          #: a drain stopped the stream at a round boundary
DRAIN = "drain"              #: the gateway drains
REAP = "reap"                #: the handshake timed out
CRASH = "crash"              #: the gateway is killed
END = "end"                  #: the session thread returned

# -- the actions the gateway dispatches on ---------------------------------
CLOSE = "close"
PARK = "park"
WAIT = "wait"      #: drain waits for the stream's next round boundary
HOLD = "hold"      #: drain leaves the answer open until its deadline

TRANSITIONS: dict[tuple[str, str], tuple[str, str]] = {
    (HELLO, HELLO_FRAME): (IDLE, WELCOME_TAG),
    (HELLO, REBIND): (HANDED_OFF, "splice"),
    (HELLO, RESTART): (ADOPTED, "restart"),
    (HELLO, RESUME_IDLE): (IDLE, RESUME_OK_TAG),
    (HELLO, SHED): (DONE, RETRY_AFTER_TAG),
    (HELLO, REJECTED): (DONE, REJECT_TAG),
    (HELLO, REAP): (DONE, CLOSE),
    (HELLO, DRAIN): (DONE, CLOSE),
    (IDLE, QUERY): (STREAMING, "admit"),
    (IDLE, BYE): (DONE, "confirm"),
    (IDLE, DRAIN): (PARKED, PARK),
    (STREAMING, ADMITTED): (STREAMING, ACK_TAG),
    (STREAMING, SHED): (IDLE, RETRY_AFTER_TAG),
    (STREAMING, REJECTED): (IDLE, ERROR_TAG),
    (STREAMING, STREAMED): (UNCONFIRMED, "release"),
    (STREAMING, DRAINED): (PARKED, DRAIN_TAG),
    (STREAMING, DRAIN): (STREAMING, WAIT),
    (ADOPTED, ADMITTED): (ADOPTED, RESUME_OK_TAG),
    (ADOPTED, SHED): (DONE, RETRY_AFTER_TAG),
    (ADOPTED, REJECTED): (DONE, REJECT_TAG),
    (ADOPTED, FRAME): (STREAMING, "remap"),
    (ADOPTED, STREAMED): (UNCONFIRMED, "release"),
    (ADOPTED, DRAINED): (PARKED, DRAIN_TAG),
    (ADOPTED, DRAIN): (ADOPTED, WAIT),
    (UNCONFIRMED, QUERY): (STREAMING, "admit"),
    (UNCONFIRMED, BYE): (DONE, "confirm"),
    (UNCONFIRMED, DRAIN): (UNCONFIRMED, HOLD),
    **{(s, CRASH): (DONE, CLOSE) for s in STATES if s != DONE},
    **{(s, END): (DONE, "end") for s in STATES},
}


class SessionStateError(ServingError):
    """An event arrived that the session's state does not allow."""


class SessionMachine:
    """One session's state, advanced only through :data:`TRANSITIONS`.

    Not thread-safe on its own: the gateway fires every event of a
    session under one lock.
    """

    __slots__ = ("state",)

    def __init__(self, state: str = HELLO):
        self.state = state

    def fire(self, event: str, strict: bool = True) -> str | None:
        """Apply ``event``; returns the transition's action.

        An event the table does not list raises
        :class:`SessionStateError`, or with ``strict=False`` returns
        ``None`` and leaves the state as it is.
        """
        step = TRANSITIONS.get((self.state, event))
        if step is None:
            if not strict:
                return None
            raise SessionStateError(
                f"session in state {self.state!r} cannot take {event!r}"
            )
        self.state, action = step
        return action


def resume_event(stored, lease_holder: str | None, leased: bool) -> str:
    """What a ``net.resume`` for a session not live here gets, from
    the store alone: its stored stream (``stored``) restarts and its
    idle record is adopted.  With nothing stored, a live lease sheds
    (its owner is mid-admission); an expired one (``leased``: the owner
    died before its first put, so nothing was answered) is adopted as
    idle too; and no trace at all is an unknown session."""
    if stored is not None:
        return RESUME_IDLE if stored.is_idle else RESTART
    if lease_holder is not None:
        return SHED
    return RESUME_IDLE if leased else REJECTED


def render_diagram() -> str:
    """The transition table as a Mermaid state diagram."""
    lines = ["stateDiagram-v2", f"    [*] --> {HELLO}"]
    for (state, event), (nxt, action) in TRANSITIONS.items():
        if event in (CRASH, END):
            continue
        lines.append(f"    {state} --> {nxt}: {event} / {action}")
    lines.append(f"    {DONE} --> [*]")
    lines.append(
        f"    %% every state but {DONE}: {CRASH} / {CLOSE} --> {DONE};"
        f" every state: {END} --> {DONE}"
    )
    return "\n".join(lines) + "\n"
