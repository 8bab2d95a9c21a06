"""One garbler-side dialogue: whoever streams a garbled run, the
evaluator sees the same frames.

A fresh :meth:`CloudServer.serve_row`, :func:`serve_from_checkpoint`
from round 0 and :class:`MaxSequentialGarbler` all stream through
:class:`~repro.gc.sequential_gc.SequentialStreamer`.  Fed one pooled
run, they must send the same tag sequence with byte-identical
payloads on every non-OT frame (OT frames carry fresh randomness), and
each transcript must decode to the plaintext dot product.
"""

import numpy as np
import pytest

from repro.accel.maxelerator import MaxSequentialGarbler
from repro.bits import from_bits, to_bits
from repro.fixedpoint import Q8_4
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import OT_MODES, SequentialEvaluator
from repro.host import CloudServer
from repro.recover import checkpoint_from_stream, serve_from_checkpoint

MODEL = np.array([[0.5, -1.0, 0.25], [1.5, 0.25, -0.75]])
X = np.array([0.75, -0.5, 1.25])
ROW = 1


def bits_of(values):
    return [to_bits(int(v), Q8_4.total_bits) for v in Q8_4.encode_array(values)]


def transcript(server, garble):
    """Run ``garble(channel)`` against the unmodified evaluator; returns
    every frame the garbler sent and the decoded product."""
    g, e = local_channel(recv_timeout_s=10.0)
    sent = []
    send = g.send

    def record(tag, payload):
        sent.append((tag, bytes(payload)))
        send(tag, payload)

    g.send = record
    evaluator = SequentialEvaluator(
        server.accelerator.circuit.circuit, e, server.group
    )
    _, report = run_two_party(lambda: garble(g), lambda: evaluator.run(bits_of(X)))
    return sent, Q8_4.decode_product(from_bits(report.output_bits, signed=True))


def non_ot(sent):
    return [(tag, payload) for tag, payload in sent if not tag.startswith("ot.")]


@pytest.mark.parametrize("ot_mode", OT_MODES)
def test_fresh_resumed_and_fsm_garblers_send_one_transcript(ot_mode):
    server = CloudServer(
        MODEL, Q8_4, pool_size=0, seed=5, auto_refill=False,
        garble_mode="sequential",
    )
    pooled = {}

    def fsm(channel):
        garbler = MaxSequentialGarbler(server.accelerator, channel, server.group)
        garbler.run(bits_of(MODEL[ROW]), ot_mode=ot_mode)
        pooled["run"] = garbler.last_run

    def fresh(channel):
        def on_run(stream):
            pooled["cp"] = checkpoint_from_stream(stream, "s-transcript", ROW)

        server.serve_row(channel, ROW, on_run=on_run, ot_mode=ot_mode)

    fsm_sent, fsm_value = transcript(server, fsm)
    server._pool.append(pooled["run"])  # the same run, served from the pool
    fresh_sent, fresh_value = transcript(server, fresh)
    resumed_sent, resumed_value = transcript(
        server, lambda channel: serve_from_checkpoint(channel, pooled["cp"], server.group)
    )

    expected = float(MODEL[ROW] @ X)
    assert fsm_value == fresh_value == resumed_value == pytest.approx(expected, abs=1e-12)
    tags = [tag for tag, _ in fresh_sent]
    assert tags[:2] == ["seq.rounds", "seq.ot_mode"]
    assert tags[-1] == "seq.output_map"
    assert any(tag.startswith("ot.") for tag in tags)
    assert [tag for tag, _ in fsm_sent] == tags
    assert [tag for tag, _ in resumed_sent] == tags
    assert non_ot(fsm_sent) == non_ot(fresh_sent) == non_ot(resumed_sent)
    # one garbling fed all three streams
    assert server.stats.pool_hits == 1
    assert server.stats.runs_garbled == 0
