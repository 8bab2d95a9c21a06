"""The frame schedule is static: a stream's round boundaries are known
before its first frame.

:meth:`SequentialStreamer.boundaries` is what a query's one checkpoint
``put`` records, and what a successor gateway reads the client's
``last_acked_seq`` against.  It must equal, boundary for boundary, the
send counter the live stream reaches as each round goes on the wire —
on a cold connection (round 0 also answers the base-OT setup), a warm
one, a stream adopted at round k on a fresh pool, and HE's one
``he.result`` frame.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import to_bits
from repro.crypto.ot import OTExtensionReceiver, OTExtensionSender
from repro.fixedpoint import FixedPointFormat, Q8_4
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import SequentialEvaluator, SequentialStreamer
from repro.he import HE_QUERY_TAG, HE_RESULT_TAG, HEMacClient
from repro.host import CloudServer
from repro.recover import (
    CheckpointStreamer,
    EvaluatorProgress,
    SessionCheckpoint,
    checkpoint_from_stream,
)


class _Recording(EvaluatorProgress):
    """Keeps the carried labels at every boundary, for re-entry at k."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "carried", {})

    def __setattr__(self, key, value):
        super().__setattr__(key, value)
        if key == "state_labels" and self.completed_rounds > 0:
            self.carried[self.completed_rounds] = list(value)


class _Reached:
    """The live side: the stream's start counter and each boundary."""

    def __init__(self, channel, start_round=0):
        self.channel = channel
        self.bounds = [[start_round, 0]]

    def on_round(self, next_round):
        self.bounds.append([next_round, self.channel.send_seq])


def _server(total_bits, rounds, seed):
    fmt = FixedPointFormat(total_bits, total_bits // 2)
    rng = np.random.default_rng(seed)
    lo, hi = -fmt.scale, fmt.scale
    model = rng.integers(lo, hi, size=(1, rounds)) / fmt.scale
    x = rng.integers(lo, hi, size=rounds) / fmt.scale
    server = CloudServer(model, fmt, pool_size=0, seed=seed, auto_refill=False)
    x_bits = [to_bits(int(v), fmt.total_bits) for v in fmt.encode_array(x)]
    return server, x_bits


def _fresh_query(server, x_bits, ot_s, ot_r, progress=None):
    """Serve row 0 once; returns (predicted, reached, checkpoint)."""
    g, e = local_channel(recv_timeout_s=10.0)
    reached = _Reached(g)
    seen = {}

    def on_run(stream):
        seen["predicted"] = SequentialStreamer.boundaries(
            g.send_seq, stream.materials, ot_s.open_frames
        )
        seen["cp"] = checkpoint_from_stream(stream, "s-sched", 0)

    circuit = server.accelerator.circuit.circuit
    run_two_party(
        lambda: server.serve_row(
            g, 0, on_round=reached.on_round, on_run=on_run, ot=ot_s
        ),
        lambda: SequentialEvaluator(circuit, e, server.group, ot=ot_r).run(
            x_bits, progress=progress
        ),
    )
    return seen["predicted"], reached.bounds, seen["cp"]


@settings(max_examples=12, deadline=None)
@given(
    total_bits=st.sampled_from((4, 8)),
    rounds=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_boundaries_equal_the_live_stream(total_bits, rounds, seed, data):
    server, x_bits = _server(total_bits, rounds, seed)
    ot_s, ot_r = OTExtensionSender(server.group), OTExtensionReceiver(server.group)

    # cold: the first query of a connection also answers the base OTs
    recording = _Recording()
    predicted, reached, cp = _fresh_query(server, x_bits, ot_s, ot_r, recording)
    assert predicted == reached
    assert cp.stream_boundaries == reached
    cold_round0 = reached[1][1] - reached[0][1]

    # warm: the pool is held, so round 0 is one frame shorter
    predicted, reached, _ = _fresh_query(server, x_bits, ot_s, ot_r)
    assert predicted == reached
    assert reached[1][1] - reached[0][1] == cold_round0 - 1

    # adopted at round k: a fresh sender (no pool) on a new connection,
    # re-serving the stored rounds k.. to a client that held an old pool
    k = data.draw(st.integers(0, rounds), label="restart_round")
    adopted = SessionCheckpoint.from_dict(cp.to_dict())
    adopted.rewind_to(k)
    g, e = local_channel(recv_timeout_s=10.0)
    adopter = OTExtensionSender(server.group)
    adopted.begin_stream(g.send_seq, adopter.open_frames)
    live = _Reached(g, start_round=k)
    progress = EvaluatorProgress(
        completed_rounds=k, output_labels=list(recording.output_labels)
    )
    circuit = server.accelerator.circuit.circuit
    run_two_party(
        lambda: CheckpointStreamer(
            g, adopted, server.group, on_round=live.on_round, ot=adopter
        ).run(),
        lambda: SequentialEvaluator(circuit, e, server.group, ot=ot_r).run(
            x_bits, start_round=k, state_labels=recording.carried.get(k),
            progress=progress,
        ),
    )
    assert adopted.stream_boundaries == live.bounds
    assert progress.completed_rounds == rounds


def test_he_stream_is_one_result_frame():
    server = CloudServer(
        np.array([[0.5, -1.0, 0.25]]), Q8_4, pool_size=0, seed=3,
        auto_refill=False,
    )
    he_client = HEMacClient(server.he_mac.params, Q8_4, seed=0)
    g, e = local_channel(recv_timeout_s=10.0)
    reached = _Reached(g)
    seen = {}

    def on_run(stream):
        seen["cp"] = checkpoint_from_stream(stream, "s-he", 0)

    def client():
        e.send(HE_QUERY_TAG, he_client.encrypt_query(np.array([1.0, 0.5, -0.25])))
        e.recv(HE_RESULT_TAG)

    run_two_party(
        lambda: server.serve_row_he(g, 0, on_round=reached.on_round, on_run=on_run),
        client,
    )
    assert seen["cp"].stream_boundaries == reached.bounds == [[0, 0], [1, 1]]
