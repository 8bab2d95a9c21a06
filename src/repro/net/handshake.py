"""Session negotiation: version, bit-width, circuit fingerprint.

Before any garbled table crosses the wire, gateway and client agree on
what they are about to run.  The client opens with ``net.hello``
(protocol version + client name); the gateway answers ``net.welcome``
with the full session descriptor — fixed-point format, accumulator
width, rounds per query, model row count, OT group, and a SHA-256
fingerprint of the round circuit — or ``net.reject`` with a reason.

The fingerprint is the load-bearing part: both sides build the MAC
round circuit locally from the negotiated widths, and the client
*verifies* that its construction hashes to the gateway's fingerprint.
A version-skewed client therefore fails fast with a typed
:class:`~repro.errors.HandshakeError` instead of evaluating garbage
labels against a circuit it mis-built.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.circuits.netlist import Netlist
from repro.circuits.sequential import SequentialCircuit
from repro.crypto.ot import DHGroup
from repro.errors import GCProtocolError, HandshakeError, WireError

#: The one wire version, bumped on any wire-visible change to framing
#: or the session protocol.  v4 frames carry a CRC32 integrity trailer
#: (:mod:`repro.gc.channel`); every session is resumable
#: (``net.resume``/``net.resume_ok``, ``net.retry_after`` sheds,
#: ``net.drain`` notices — :mod:`repro.recover`); and the hello may
#: name a private-MAC backend (``gc``/``he``,
#: :data:`repro.privatemac.BACKENDS`), which the welcome echoes with,
#: for ``he``, the derived BFV ``backend_params``.  A hello at any
#: other version gets a typed ``net.reject``.
PROTOCOL_VERSION = 4

HELLO_TAG = "net.hello"
WELCOME_TAG = "net.welcome"
REJECT_TAG = "net.reject"


def netlist_fingerprint(circuit: SequentialCircuit) -> str:
    """SHA-256 over the round circuit's complete structure.

    Covers every field an evaluator's correctness depends on: gate
    ops/wiring (including AND-class alpha/beta/gamma), the party input
    partition, constants, outputs, state feedback, and the initial
    state.  Two independently built circuits share a fingerprint iff
    they garble/evaluate identically.
    """
    net: Netlist = circuit.netlist
    parts: list[object] = [
        "v1",
        net.n_wires,
        tuple(net.garbler_inputs),
        tuple(net.evaluator_inputs),
        tuple(net.state_inputs),
        tuple(net.outputs),
        tuple(sorted(net.constants.items())),
        tuple(circuit.state_feedback),
        tuple(circuit.initial_state),
    ]
    for gate in net.gates:
        parts.append((gate.index, gate.gtype.name, tuple(gate.inputs), gate.output))
    blob = repr(parts).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SessionDescriptor:
    """Everything a remote evaluator needs to mirror the server's session."""

    protocol_version: int
    total_bits: int
    frac_bits: int
    acc_width: int
    rounds: int
    n_rows: int
    fingerprint: str
    group_p: int
    group_g: int

    def to_payload(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True).encode()

    @classmethod
    def from_payload(cls, payload: bytes) -> "SessionDescriptor":
        try:
            raw = json.loads(payload.decode())
            return cls(**{f: raw[f] for f in cls.__dataclass_fields__})
        except (ValueError, KeyError, TypeError) as exc:
            raise HandshakeError(f"malformed session descriptor: {exc}") from exc

    @property
    def group(self) -> DHGroup:
        return DHGroup(self.group_p, self.group_g)


def descriptor_for(server) -> SessionDescriptor:
    """Build the handshake descriptor for a :class:`repro.host.CloudServer`."""
    accel = server.accelerator
    return SessionDescriptor(
        protocol_version=PROTOCOL_VERSION,
        total_bits=server.fmt.total_bits,
        frac_bits=server.fmt.frac_bits,
        acc_width=accel.acc_width,
        rounds=server.rounds_per_request,
        n_rows=int(server.model.shape[0]),
        fingerprint=netlist_fingerprint(accel.circuit.circuit),
        group_p=server.group.p,
        group_g=server.group.g,
    )


def server_handshake(
    endpoint,
    descriptor: SessionDescriptor,
    hello_payload: bytes | None = None,
    session_id: str | None = None,
    backends: tuple[str, ...] = ("gc",),
    default_backend: str = "gc",
    backend_params=None,
) -> dict:
    """Gateway side: validate the client's hello, answer welcome/reject.

    Returns the parsed hello, with ``negotiated_backend`` added.  The
    welcome is the descriptor plus, with ``session_id`` set, the
    session the client can later resume.  A hello at any version but
    the descriptor's is rejected; the rejection is *sent to the client*
    before the typed error is raised locally, so both sides see the
    same diagnosis.

    Backend negotiation: a hello naming a backend gets exactly that
    backend or a typed rejection (never a silent substitute — the
    client's cost model depends on it); a hello without one gets
    ``default_backend``.  ``backend_params`` is an optional callable
    mapping a granted backend to a parameter dict merged into the
    welcome as ``backend_params`` (the HE ring parameters, which the
    client re-derives and verifies).

    ``hello_payload`` lets a caller that already read the first frame
    (the gateway's hello-or-resume intake) hand it in instead of
    receiving again.

    Any wire or protocol failure while negotiating — the client closing
    the socket before (or mid-) hello, garbage instead of a frame, a
    vanished peer when the welcome goes out — is re-raised as
    :class:`HandshakeError`, so callers can tell "the session never
    existed" apart from "an established session broke".
    """
    if hello_payload is None:
        try:
            hello_payload = endpoint.recv(HELLO_TAG)
        except HandshakeError:
            raise
        except GCProtocolError as exc:
            raise HandshakeError(
                f"client failed before completing its hello: {exc}"
            ) from exc
    try:
        hello = json.loads(hello_payload.decode())
        version = int(hello["protocol_version"])
    except (ValueError, KeyError, TypeError) as exc:
        _reject(endpoint, f"malformed hello: {exc}")
        raise HandshakeError(f"malformed client hello: {exc}") from exc
    if version != descriptor.protocol_version:
        reason = (
            f"protocol version mismatch: client speaks v{version}, "
            f"gateway serves v{descriptor.protocol_version}"
        )
        _reject(endpoint, reason)
        raise HandshakeError(reason)
    granted = str(hello.get("backend") or "") or default_backend
    if granted not in backends:
        reason = (
            f"unsupported backend {granted!r} "
            f"(gateway serves {tuple(backends)})"
        )
        _reject(endpoint, reason)
        raise HandshakeError(reason)
    welcome = asdict(descriptor)
    if session_id is not None:
        welcome["session_id"] = session_id
    welcome["backend"] = granted
    if backend_params is not None:
        params = backend_params(granted)
        if params is not None:
            welcome["backend_params"] = params
    try:
        endpoint.send(WELCOME_TAG, json.dumps(welcome, sort_keys=True).encode())
    except WireError as exc:
        raise HandshakeError(
            f"client vanished before the welcome could be sent: {exc}"
        ) from exc
    hello["negotiated_backend"] = granted
    # tenant id is advisory metadata (admission accounting, not auth):
    # normalize whatever the client sent to a string, "" meaning the
    # default tenant
    hello["tenant"] = str(hello.get("tenant") or "")
    return hello


def client_session_handshake(
    endpoint, client_name: str = "client", backend: str | None = None,
    tenant: str = "",
) -> tuple[SessionDescriptor, dict]:
    """Client side: send hello, receive the descriptor *and* the raw
    welcome (which carries the resumable ``session_id`` and the granted
    ``backend``).

    A welcome at any version but :data:`PROTOCOL_VERSION` fails typed.
    A gateway that vanishes mid-negotiation surfaces as
    :class:`HandshakeError` (not a bare wire error), mirroring
    :func:`server_handshake`.

    ``backend=None`` accepts whatever the gateway grants by default; a
    named backend is a hard requirement — any other grant fails typed.
    The returned welcome always carries ``negotiated_backend``.

    ``tenant`` names the admission account this session's queries are
    charged to under the gateway's ring scheduler; blank traffic pools
    into the gateway's default tenant.  The key is omitted entirely
    when blank, so pre-PR-8 gateways see a byte-identical hello.
    """
    hello = {"protocol_version": PROTOCOL_VERSION, "name": client_name}
    if backend is not None:
        hello["backend"] = backend
    if tenant:
        hello["tenant"] = tenant
    try:
        endpoint.send(HELLO_TAG, json.dumps(hello, sort_keys=True).encode())
        tag, payload = endpoint.recv_any((WELCOME_TAG, REJECT_TAG))
    except HandshakeError:
        raise
    except GCProtocolError as exc:
        raise HandshakeError(
            f"gateway vanished during the handshake: {exc}"
        ) from exc
    if tag == REJECT_TAG:
        reason = payload.decode(errors="replace")
        raise HandshakeError(f"gateway rejected the session: {reason}")
    descriptor = SessionDescriptor.from_payload(payload)
    if descriptor.protocol_version != PROTOCOL_VERSION:
        raise HandshakeError(
            f"gateway speaks protocol v{descriptor.protocol_version}, this "
            f"client speaks v{PROTOCOL_VERSION}"
        )
    welcome = json.loads(payload.decode())
    granted = welcome.get("backend")
    if granted is None:
        raise HandshakeError("gateway welcome grants no backend")
    if backend is not None and granted != backend:
        raise HandshakeError(
            f"gateway granted backend {granted!r}, this client requires {backend!r}"
        )
    welcome["negotiated_backend"] = granted
    return descriptor, welcome


def client_handshake(endpoint, client_name: str = "client") -> SessionDescriptor:
    """Client side: send hello, receive the session descriptor (or reject)."""
    descriptor, _ = client_session_handshake(endpoint, client_name)
    return descriptor


def _reject(endpoint, reason: str) -> None:
    try:
        endpoint.send(REJECT_TAG, reason.encode())
    except WireError:
        pass  # the peer is already gone; the local typed error suffices
