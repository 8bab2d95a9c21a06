"""Session OT through the sequential-GC dialogue.

A query's label transfers run on its connection's IKNP pool: the
client sends every remaining round's corrections in one flight, the
garbler answers each round's ``ot.e`` with that round's frames.  These
tests pin resumed queries (a drain after k rounds, resumed by a
successor with no pool or on the same live pool) to the bit-exact
answer on fresh pool indices, and count a warm query's client flights
over a real socket.  A run longer than one pool chunk tops the pool up
once, still in one correction flight, and the same dialogue carries a
run of the paper's FSM model.
"""

import socket

import numpy as np
import pytest

from repro.accel.maxelerator import MAXelerator
from repro.bits import from_bits, to_bits
from repro.circuits.mac import accumulator_width, build_sequential_mac
from repro.crypto.ot import (
    POOL_CHUNK,
    TOY_GROUP,
    OTExtensionReceiver,
    OTExtensionSender,
)
from repro.errors import SessionDrainedError
from repro.fixedpoint import Q8_4
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import (
    SequentialEvaluator,
    SequentialGarbler,
    run_sequential,
)
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


def drained_then_resumed(k, successor):
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

    def on_round(next_round):
        if next_round == k:
            raise SessionDrainedError("drain", next_round=k)

    g, e = local_channel(recv_timeout_s=10.0)
    first = corrections_log(e)
    evaluator = SequentialEvaluator(circuit, e, server.group, ot=receiver)
    with pytest.raises(SessionDrainedError):
        run_two_party(
            lambda: server.serve_row(g, ROW, on_round=on_round, on_run=on_run,
                                     ot=sender),
            lambda: evaluator.run(x_bits(), progress=progress),
        )
    # the resume rule: the client's verified count, read against the
    # frame map the checkpoint carried from the start, is its round
    assert progress.completed_rounds == k == held["cp"].acked_round(e.recv_seq)
    held["cp"].rewind_to(k)
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
@pytest.mark.parametrize("k", [1, 2, 3])
def test_resumed_query_is_bit_exact_on_fresh_indices(k, successor):
    answer, first, resumed, pool_before, pool_after = drained_then_resumed(
        k, successor
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


A_VEC = [3, -5, 7, 100]
X_VEC = [2, 2, -3, 50]
EXPECT = sum(a * x for a, x in zip(A_VEC, X_VEC))


def mac_rounds(vec):
    return [to_bits(v, 8) for v in vec]


@pytest.fixture(scope="module")
def seq8():
    return build_sequential_mac(8, accumulator_width(8, 8))


def test_sequential_run_computes_the_dot_product(seq8):
    _, report = run_sequential(
        seq8, mac_rounds(A_VEC), mac_rounds(X_VEC), group=TOY_GROUP
    )
    assert from_bits(report.output_bits, signed=True) == EXPECT


def test_fsm_run_streams_the_dot_product():
    acc = MAXelerator(8, seed=17)
    g_chan, e_chan = local_channel()
    garbler = SequentialGarbler(acc.circuit.circuit, g_chan, TOY_GROUP)
    client = SequentialEvaluator(acc.circuit.circuit, e_chan, TOY_GROUP)
    fsm_run = acc.garble(len(A_VEC))
    _, report = run_two_party(
        lambda: garbler.run(mac_rounds(A_VEC), garbled=fsm_run),
        lambda: client.run(mac_rounds(X_VEC)),
    )
    assert from_bits(report.output_bits, signed=True) == EXPECT


def test_long_run_tops_the_pool_up_past_one_chunk(seq8):
    # 40 rounds x 8 bits = 320 transfers: more than one POOL_CHUNK, so
    # the client's single top-up spans two chunks
    n = 40
    assert 8 * n > POOL_CHUNK
    g_chan, e_chan = local_channel()
    sent = []
    send = e_chan.send
    e_chan.send = lambda tag, body: (sent.append((tag, bytes(body))), send(tag, body))
    garbler = SequentialGarbler(seq8, g_chan, TOY_GROUP)
    evaluator = SequentialEvaluator(seq8, e_chan, TOY_GROUP)
    _, report = run_two_party(
        lambda: garbler.run(mac_rounds([1] * n)),
        lambda: evaluator.run(mac_rounds([1] * n)),
    )
    assert from_bits(report.output_bits, signed=True) == n
    tags = [tag for tag, _ in sent]
    # one setup (128 base OTs), one top-up, one correction flight
    assert tags == ["ot.setup", "ot.base.A", "ot.base.enc", "ot.ext.u", "ot.d"]
    top_up, corrections = sent[-2][1], sent[-1][1]
    assert int.from_bytes(corrections[8:12], "big") == 8 * n
    # the top-up's u matrix: 128 bit-rows per OT column, whole chunks
    assert (len(top_up) - 8) * 8 // 128 == 2 * POOL_CHUNK


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
