"""Session OT through the sequential-GC dialogue.

A query's label transfers run on its connection's IKNP pool: the
client sends every remaining round's corrections in one flight, the
garbler answers each round's ``ot.e`` with that round's frames.  These
tests pin resumed queries (a drain after k rounds, resumed by a
successor with no pool or on the same live pool) to the bit-exact
answer on fresh pool indices, and count a warm query's client flights
over a real socket.
"""

import socket

import numpy as np
import pytest

from repro.bits import from_bits, to_bits
from repro.crypto.ot import OTExtensionReceiver, OTExtensionSender
from repro.errors import SessionDrainedError
from repro.fixedpoint import Q8_4
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import OT_MODES, SequentialEvaluator
from repro.host import CloudServer
from repro.net import GCGateway, RemoteAnalyticsClient
from repro.recover import (
    EvaluatorProgress,
    checkpoint_from_stream,
    serve_from_checkpoint,
)
from repro.serve import ServingConfig

MODEL = np.array([[0.5, -1.0, 0.25, 1.0], [1.5, 0.25, -0.75, -0.5]])
X = np.array([0.75, -0.5, 1.25, -1.0])
ROW = 1


def x_bits():
    return [to_bits(int(v), Q8_4.total_bits) for v in Q8_4.encode_array(X)]


def corrections_log(channel):
    """Record the (start, count) of every ``ot.d`` the channel sends."""
    log = []
    send = channel.send

    def record(tag, payload):
        if tag == "ot.d":
            log.append((int.from_bytes(payload[:8], "big"),
                        int.from_bytes(payload[8:12], "big")))
        send(tag, payload)

    channel.send = record
    return log


def drained_then_resumed(ot_mode, k, successor):
    """Serve ROW, drain it after ``k`` rounds, resume from the
    checkpoint; returns (answer, first ot.d log, resumed ot.d log,
    the receiver's pool ids before and after)."""
    server = CloudServer(MODEL, Q8_4, pool_size=0, seed=3, auto_refill=False)
    circuit = server.accelerator.circuit.circuit
    sender = OTExtensionSender(server.group)
    receiver = OTExtensionReceiver(server.group)
    progress = EvaluatorProgress()
    held = {}

    def on_run(stream):
        held["cp"] = checkpoint_from_stream(stream, "s-ot", ROW)
        stream.checkpoint = held["cp"]

    def on_round(next_round):
        if next_round == k:
            raise SessionDrainedError("drain", next_round=k)

    g, e = local_channel(recv_timeout_s=10.0)
    first = corrections_log(e)
    evaluator = SequentialEvaluator(circuit, e, server.group, ot=receiver)
    with pytest.raises(SessionDrainedError):
        run_two_party(
            lambda: server.serve_row(g, ROW, on_round=on_round, on_run=on_run,
                                     ot_mode=ot_mode, ot=sender),
            lambda: evaluator.run(x_bits(), progress=progress),
        )
    assert progress.completed_rounds == k == held["cp"].next_round
    pool_before = receiver.pool_id

    g, e = local_channel(recv_timeout_s=10.0)
    resumed = corrections_log(e)
    evaluator = SequentialEvaluator(circuit, e, server.group, ot=receiver)
    resumer = OTExtensionSender(server.group) if successor else sender
    _, report = run_two_party(
        lambda: serve_from_checkpoint(g, held["cp"], server.group, ot=resumer),
        lambda: evaluator.run(x_bits(), start_round=k,
                              state_labels=progress.state_labels,
                              progress=progress),
    )
    answer = Q8_4.decode_product(from_bits(report.output_bits, signed=True))
    assert server.stats.runs_garbled == 1  # the resume re-garbled nothing
    return answer, first, resumed, pool_before, receiver.pool_id


@pytest.mark.parametrize("successor", [True, False], ids=["successor", "same-pool"])
@pytest.mark.parametrize("ot_mode", OT_MODES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_resumed_query_is_bit_exact_on_fresh_indices(ot_mode, k, successor):
    answer, first, resumed, pool_before, pool_after = drained_then_resumed(
        ot_mode, k, successor
    )
    assert answer == pytest.approx(float(MODEL[ROW] @ X), abs=1e-12)
    # one correction flight per stream, for every round it streams
    assert [n for _, n in first] == [8 * 4]
    assert [n for _, n in resumed] == [8 * (4 - k)]
    if successor:
        # a gateway without this client's pool: the client set up anew
        assert pool_after != pool_before
    else:
        # the same live pool: the resumed query starts past every
        # index the drained one consumed
        assert pool_after == pool_before
        assert resumed[0][0] >= first[0][0] + first[0][1]


class _FlightCounter:
    """A socket proxy counting flights: runs of sends between receives."""

    def __init__(self, sock):
        self._sock = sock
        self.flights = 0
        self._sending = False

    def _sent(self):
        if not self._sending:
            self._sending = True
            self.flights += 1

    def sendmsg(self, buffers, *args):
        self._sent()
        return self._sock.sendmsg(buffers, *args)

    def sendall(self, data, *args):
        self._sent()
        return self._sock.sendall(data, *args)

    def recv(self, n, *args):
        self._sending = False
        return self._sock.recv(n, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_warm_four_round_query_makes_two_client_flights():
    server = CloudServer(MODEL, Q8_4, pool_size=2, seed=7, auto_refill=False)
    gateway = GCGateway(server, config=ServingConfig(
        workers=1, queue_depth=4, refill=True, recv_timeout_s=20.0
    ))
    gateway.serving.start()
    try:
        ours, theirs = socket.socketpair()
        gateway.adopt(theirs)
        counted = _FlightCounter(ours)
        with RemoteAnalyticsClient(sock=counted, recv_timeout_s=20.0) as client:
            want = float(MODEL[ROW] @ X)
            flights = []
            for _ in range(3):
                before = counted.flights
                assert client.query_row(ROW, X) == pytest.approx(want, abs=1e-12)
                flights.append(counted.flights - before)
            pool = client._ot.pool_id
        # the first query also runs the base OTs: QUERY, ot.setup with
        # the base-OT key, then the base-OT answer with the top-up and
        # corrections; a warm query is QUERY, then the corrections
        assert flights == [3, 2, 2]
        assert pool is not None
    finally:
        gateway.stop()
