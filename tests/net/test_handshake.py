"""Session negotiation: version/fingerprint checks fail fast and typed."""

import json
import threading

import numpy as np
import pytest

from repro.accel.tree_mac import build_scheduled_mac
from repro.errors import HandshakeError
from repro.fixedpoint import Q8_4
from repro.host import CloudServer
from repro.net import socketpair_endpoints
from repro.net.handshake import (
    HELLO_TAG,
    PROTOCOL_VERSION,
    REJECT_TAG,
    SessionDescriptor,
    client_handshake,
    descriptor_for,
    netlist_fingerprint,
    server_handshake,
)

MODEL = np.array([[0.5, -1.0], [1.5, 0.25]])


@pytest.fixture(scope="module")
def descriptor():
    server = CloudServer(MODEL, Q8_4, pool_size=0, seed=3, auto_refill=False)
    return descriptor_for(server)


class TestFingerprint:
    def test_same_build_same_fingerprint(self):
        a = build_scheduled_mac(8).circuit
        b = build_scheduled_mac(8).circuit
        assert netlist_fingerprint(a) == netlist_fingerprint(b)

    def test_different_widths_differ(self):
        assert netlist_fingerprint(build_scheduled_mac(8).circuit) != netlist_fingerprint(
            build_scheduled_mac(16).circuit
        )

    def test_descriptor_matches_client_side_rebuild(self, descriptor):
        rebuilt = build_scheduled_mac(
            descriptor.total_bits, descriptor.acc_width
        ).circuit
        assert netlist_fingerprint(rebuilt) == descriptor.fingerprint


class TestDescriptorCodec:
    def test_payload_round_trip(self, descriptor):
        assert SessionDescriptor.from_payload(descriptor.to_payload()) == descriptor

    def test_malformed_payload_typed(self):
        with pytest.raises(HandshakeError, match="malformed"):
            SessionDescriptor.from_payload(b"not json")
        with pytest.raises(HandshakeError, match="malformed"):
            SessionDescriptor.from_payload(b'{"protocol_version": 1}')

    def test_descriptor_carries_group(self, descriptor):
        group = descriptor.group
        assert (group.p, group.g) == (descriptor.group_p, descriptor.group_g)


def _run_handshake(descriptor, client_side):
    """Run server_handshake against ``client_side(endpoint)`` on a thread."""
    g_end, c_end = socketpair_endpoints("gateway", "client", recv_timeout_s=5.0)
    box = {}

    def server_side():
        try:
            box["hello"] = server_handshake(g_end, descriptor)
        except BaseException as exc:
            box["server_error"] = exc

    t = threading.Thread(target=server_side)
    t.start()
    try:
        box["client"] = client_side(c_end)
    except BaseException as exc:
        box["client_error"] = exc
    t.join(timeout=10.0)
    return box


class TestNegotiation:
    def test_happy_path(self, descriptor):
        box = _run_handshake(
            descriptor, lambda ep: client_handshake(ep, client_name="t1")
        )
        assert box["client"] == descriptor
        assert box["hello"]["name"] == "t1"

    def test_version_mismatch_rejects_both_sides(self, descriptor):
        def skewed_client(ep):
            hello = {"protocol_version": PROTOCOL_VERSION + 7, "name": "old"}
            ep.send(HELLO_TAG, json.dumps(hello).encode())
            tag, payload = ep.recv_any((REJECT_TAG, "net.welcome"))
            return tag, payload.decode()

        box = _run_handshake(descriptor, skewed_client)
        tag, reason = box["client"]
        assert tag == REJECT_TAG
        assert "version mismatch" in reason
        assert isinstance(box["server_error"], HandshakeError)

    def test_v5_hello_rejected_typed(self, descriptor):
        """v6 dropped the GC preamble's OT-schedule frame and the
        query's schedule field, and v7 added the ``idle`` resume mode,
        so a v5 peer is refused up front."""
        assert PROTOCOL_VERSION == 7

        def v5_client(ep):
            ep.send(HELLO_TAG, json.dumps({"protocol_version": 5}).encode())
            tag, payload = ep.recv_any((REJECT_TAG, "net.welcome"))
            return tag, payload.decode()

        box = _run_handshake(descriptor, v5_client)
        assert box["client"] == (
            REJECT_TAG,
            "protocol version mismatch: client speaks v5, gateway serves v7",
        )
        assert isinstance(box["server_error"], HandshakeError)

    def test_malformed_hello_rejected(self, descriptor):
        def garbage_client(ep):
            ep.send(HELLO_TAG, b"\x00\x01 not json")
            return ep.recv_any((REJECT_TAG,))

        box = _run_handshake(descriptor, garbage_client)
        assert isinstance(box["server_error"], HandshakeError)
        assert box["client"][0] == REJECT_TAG

    def test_client_raises_on_reject(self, descriptor):
        def rejecting_server(ep):
            ep.recv(HELLO_TAG)
            ep.send(REJECT_TAG, b"maintenance window")

        g_end, c_end = socketpair_endpoints("gateway", "client", recv_timeout_s=5.0)
        t = threading.Thread(target=rejecting_server, args=(g_end,))
        t.start()
        with pytest.raises(HandshakeError, match="maintenance window"):
            client_handshake(c_end)
        t.join(timeout=10.0)
