"""``repro.net`` — the wire: frames, socket endpoints, handshake, gateway.

Turns the in-process reproduction into the paper's actual deployment
shape (Figure 1): garbled tables and OT messages leave the host over a
real socket to a remote evaluator.  Layers, bottom up:

* :mod:`repro.net.frames` — length-prefixed binary framing with typed
  :class:`~repro.errors.WireError` on truncation/oversize/bad magic;
* :mod:`repro.net.endpoint` — :class:`SocketEndpoint`, drop-in for the
  in-memory :class:`repro.gc.channel.Endpoint`, plus the port-free
  ``socketpair`` loopback transport for CI;
* :mod:`repro.net.handshake` — session negotiation (protocol version,
  bit-widths, circuit fingerprint, OT group);
* :mod:`repro.net.gateway` — :class:`GCGateway`, the TCP server that
  routes each remote session through the ``repro.serve`` pool;
* :mod:`repro.net.client` — :class:`RemoteAnalyticsClient`, the
  wire-side twin of :class:`repro.host.AnalyticsClient`.
"""

from repro.net.client import RemoteAnalyticsClient
from repro.net.endpoint import SocketEndpoint, socketpair_endpoints
from repro.net.frames import (
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    FrameReader,
    buffer_reader,
    decode_frame_body,
    encode_frame,
)
from repro.net.gateway import GCGateway
from repro.net.handshake import (
    PROTOCOL_VERSION,
    SessionDescriptor,
    client_handshake,
    client_session_handshake,
    descriptor_for,
    netlist_fingerprint,
    server_handshake,
)

__all__ = [
    "GCGateway",
    "HEADER_BYTES",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FrameReader",
    "RemoteAnalyticsClient",
    "SessionDescriptor",
    "SocketEndpoint",
    "buffer_reader",
    "client_handshake",
    "client_session_handshake",
    "decode_frame_body",
    "descriptor_for",
    "encode_frame",
    "netlist_fingerprint",
    "server_handshake",
    "socketpair_endpoints",
]
