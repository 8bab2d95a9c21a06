"""OT scheduling modes (Section 3): per-round vs upfront extension."""

import pytest

from repro.accel.maxelerator import MAXelerator
from repro.bits import from_bits, to_bits
from repro.circuits.mac import accumulator_width, build_sequential_mac
from repro.crypto.ot import TOY_GROUP
from repro.errors import GCProtocolError
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import (
    SequentialEvaluator,
    SequentialGarbler,
    run_sequential,
)


@pytest.fixture(scope="module")
def seq8():
    return build_sequential_mac(8, accumulator_width(8, 8))


A_VEC = [3, -5, 7, 100]
X_VEC = [2, 2, -3, 50]
EXPECT = sum(a * x for a, x in zip(A_VEC, X_VEC))


def rounds(vec):
    return [to_bits(v, 8) for v in vec]


class TestSoftwareOtModes:
    @pytest.mark.parametrize("mode", ["per_round", "upfront"])
    def test_both_modes_compute_the_dot_product(self, seq8, mode):
        _, e_rep = run_sequential(
            seq8, rounds(A_VEC), rounds(X_VEC), group=TOY_GROUP, ot_mode=mode
        )
        assert from_bits(e_rep.output_bits, signed=True) == EXPECT

    def test_upfront_mode_needs_more_client_memory(self, seq8):
        _, per_round = run_sequential(
            seq8, rounds(A_VEC), rounds(X_VEC), group=TOY_GROUP, ot_mode="per_round"
        )
        _, upfront = run_sequential(
            seq8, rounds(A_VEC), rounds(X_VEC), group=TOY_GROUP, ot_mode="upfront"
        )
        # the paper's trade-off: all labels at once = rounds x the memory
        assert upfront.peak_input_label_bytes == 4 * per_round.peak_input_label_bytes

    def test_upfront_uses_ot_extension_for_many_rounds(self, seq8):
        # every sequential run transfers its labels through the session's
        # IKNP pool, whatever its size: here 20 rounds x 8 bits = 160
        # transfers, more than one top-up chunk's worth of the base OTs
        g_chan, e_chan = local_channel()
        sent = []
        send = e_chan.send
        e_chan.send = lambda tag, body: (sent.append((tag, bytes(body))), send(tag, body))
        garbler = SequentialGarbler(seq8, g_chan, TOY_GROUP)
        evaluator = SequentialEvaluator(seq8, e_chan, TOY_GROUP)
        n = 20
        a = rounds([1] * n)
        x = rounds([1] * n)
        _, report = run_two_party(
            lambda: garbler.run(a, ot_mode="upfront"),
            lambda: evaluator.run(x),
        )
        assert from_bits(report.output_bits, signed=True) == n
        tags = [tag for tag, _ in sent]
        # one setup (128 base OTs), one top-up, one correction flight
        assert tags == ["ot.setup", "ot.base.A", "ot.base.enc", "ot.ext.u", "ot.d"]
        corrections = sent[-1][1]
        assert int.from_bytes(corrections[8:12], "big") == 8 * n

    def test_bad_mode_rejected(self, seq8):
        g_chan, _ = local_channel()
        garbler = SequentialGarbler(seq8, g_chan, TOY_GROUP)
        with pytest.raises(GCProtocolError):
            garbler.run(rounds(A_VEC), ot_mode="sometimes")


class TestAcceleratorOtModes:
    @pytest.mark.parametrize("mode", ["per_round", "upfront"])
    def test_accelerator_supports_both_modes(self, mode):
        acc = MAXelerator(8, seed=17)
        g_chan, e_chan = local_channel()
        garbler = SequentialGarbler(acc.circuit.circuit, g_chan, TOY_GROUP)
        client = SequentialEvaluator(acc.circuit.circuit, e_chan, TOY_GROUP)
        fsm_run = acc.garble(len(A_VEC))
        _, e_rep = run_two_party(
            lambda: garbler.run(rounds(A_VEC), ot_mode=mode, garbled=fsm_run),
            lambda: client.run(rounds(X_VEC)),
        )
        assert from_bits(e_rep.output_bits, signed=True) == EXPECT

    def test_accelerator_rejects_bad_mode(self):
        acc = MAXelerator(8, seed=18)
        g_chan, _ = local_channel()
        garbler = SequentialGarbler(acc.circuit.circuit, g_chan, TOY_GROUP)
        with pytest.raises(GCProtocolError):
            garbler.run(
                rounds(A_VEC), ot_mode="never", garbled=acc.garble(len(A_VEC))
            )
