"""The stage-plan evaluator is bit-identical to the scalar evaluator.

``VectorEvaluator`` (the client's serving path) runs each AND stage as
one batched hash over a ``(wires, 2)`` label array and reads the tables
straight from the payload bytes; the gate-at-a-time
:class:`~repro.gc.evaluate.Evaluator` stays as its oracle.  Every
property drives both from the same garbling and demands equal output
labels, decode bits and hash-call counts — on the random circuits of
``test_vector_bit_identity``, under tweak offsets and presets, across
chained MAC rounds, and when a sequential session resumes mid-stream.
A whole run evaluated in one pass on its run plan must match both the
per-round stage evaluator and the scalar one, and a drain mid-stream
must leave the progress at the last fully received round.  Malformed
payloads must fail typed, never evaluate.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.tree_mac import build_scheduled_mac
from repro.bits import from_bits, to_bits
from repro.crypto.labels import LabelFactory, color
from repro.crypto.ot import TOY_GROUP
from repro.errors import GCProtocolError, SessionDrainedError
from repro.fixedpoint import Q8_4
from repro.gc.channel import local_channel, run_two_party
from repro.gc.evaluate import Evaluator
from repro.gc.sequential_gc import (
    SequentialEvaluator,
    SequentialStreamer,
    materials_for_run,
)
from repro.gc.tables import TABLE_BYTES, serialize_tables
from repro.gc.vector_garble import VectorEvaluator, evaluate_run, garble_mac_runs
from repro.host import CloudServer
from repro.recover import EvaluatorProgress, checkpoint_from_stream, serve_from_checkpoint

from tests.gc.test_random_circuits import netlist_with_inputs
from tests.gc.test_vector_bit_identity import (
    preset_cases,
    scalar_garble,
    sequential_mac,
)


def active_labels(net, gc, g_bits, e_bits):
    labels = {}
    for w, bit in zip(net.garbler_inputs, g_bits):
        labels[w] = gc.wire_pairs[w].select(bit)
    for w, bit in zip(net.evaluator_inputs, e_bits):
        labels[w] = gc.wire_pairs[w].select(bit)
    for w, bit in net.constants.items():
        labels[w] = gc.wire_pairs[w].select(bit)
    return labels


def both_evaluations(net, gc, labels, tweak_offset=0):
    scalar = Evaluator(net).evaluate(
        gc.tables, labels, gc.output_permute_bits, tweak_offset=tweak_offset
    )
    ev = VectorEvaluator(net)
    staged = ev.evaluate(
        labels, ev.decode_tables(serialize_tables(gc.tables)), tweak_offset
    )
    return scalar, staged


def decode(labels, permute_bits):
    return [color(label) ^ p for label, p in zip(labels, permute_bits)]


def round_labels(net, meta, state, g_bits, e_bits):
    """Active labels of one MAC round from its garbled label pairs."""
    labels = dict(zip(net.state_inputs, state))
    labels.update(
        {w: p.select(b) for w, p, b in zip(net.garbler_inputs, meta.garbler_pairs, g_bits)}
    )
    labels.update(
        {w: p.select(b) for w, p, b in zip(net.evaluator_inputs, meta.evaluator_pairs, e_bits)}
    )
    labels.update({w: p.select(net.constants[w]) for w, p in meta.const_pairs.items()})
    return labels


class TestRandomCircuits:
    @given(netlist_with_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stage_plan_equals_scalar_evaluator(self, case, seed):
        net, g_bits, e_bits = case
        gc = scalar_garble(net, seed)
        labels = active_labels(net, gc, g_bits, e_bits)
        scalar, staged = both_evaluations(net, gc, labels)
        assert staged.output_labels == scalar.output_labels
        assert staged.hash_calls == scalar.hash_calls
        assert decode(staged.output_labels, gc.output_permute_bits) == (
            net.evaluate_plain(g_bits, e_bits)
        )

    @given(preset_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_under_presets_and_tweak_offsets(self, case, data):
        net, seed, tweak_offset, n_preset = case

        def preset(factory):
            return {w: factory.fresh_pair() for w in net.garbler_inputs[:n_preset]}

        gc = scalar_garble(net, seed, tweak_offset, preset)
        g_bits = [data.draw(st.integers(0, 1)) for _ in net.garbler_inputs]
        e_bits = [data.draw(st.integers(0, 1)) for _ in net.evaluator_inputs]
        labels = active_labels(net, gc, g_bits, e_bits)
        scalar, staged = both_evaluations(net, gc, labels, tweak_offset)
        assert staged.output_labels == scalar.output_labels


class TestChainedMacRounds:
    @given(
        st.sampled_from([4, 8]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=12, deadline=None)
    def test_rounds_carry_identical_state(self, bitwidth, n_rounds, seed, data):
        """Round after round of a vectorised MAC run, both evaluators
        carry the same accumulator labels and end on the same output."""
        scheduled = build_scheduled_mac(bitwidth)
        circuit = scheduled.circuit
        net = circuit.netlist
        [run] = garble_mac_runs(
            scheduled, n_rounds, [LabelFactory(source=random.Random(seed))]
        )
        scalar_ev, staged_ev = Evaluator(net), VectorEvaluator(net)
        initial = circuit.initial_state
        state = [p.select(b) for p, b in zip(run.rounds[0].state_pairs, initial)]
        for r in range(n_rounds):
            g_bits = [data.draw(st.integers(0, 1)) for _ in net.garbler_inputs]
            e_bits = [data.draw(st.integers(0, 1)) for _ in net.evaluator_inputs]
            labels = round_labels(net, run.rounds[r], state, g_bits, e_bits)
            offset = r * len(net.gates)
            scalar = scalar_ev.evaluate(run.tables_for_round(r), labels, tweak_offset=offset)
            staged = staged_ev.evaluate(
                labels, staged_ev.decode_tables(run.tables_payload(r)), offset
            )
            assert staged.output_labels == scalar.output_labels
            state = staged.labels_for_state(circuit.state_feedback)
        assert decode(staged.output_labels, run.output_permute_bits) == decode(
            scalar.output_labels, run.output_permute_bits
        )


class _Recording(EvaluatorProgress):
    """Keeps the carried labels and output labels of every boundary."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "carried", {})

    def __setattr__(self, key, value):
        super().__setattr__(key, value)
        if key == "state_labels" and self.completed_rounds > 0:
            self.carried[self.completed_rounds] = list(value)


class TestResume:
    @given(st.integers(0, 2**16), st.integers(1, 3), st.sampled_from(["per_round", "upfront"]))
    @settings(max_examples=6, deadline=None)
    def test_resume_from_start_round_matches_scalar_oracle(self, seed, start, ot_mode):
        """A session re-entered at ``start_round > 0`` from a checkpoint
        ends on the same output labels as the scalar evaluator run over
        the whole garbled run."""
        rng = np.random.default_rng(seed)
        model = np.round(rng.uniform(-1.5, 1.5, size=(1, 4)) * 16) / 16
        x = np.round(rng.uniform(-1.5, 1.5, size=4) * 16) / 16
        server = CloudServer(model, Q8_4, pool_size=0, seed=seed, auto_refill=False)
        circuit = server.accelerator.circuit.circuit
        net = circuit.netlist
        x_bits = [to_bits(int(v), Q8_4.total_bits) for v in Q8_4.encode_array(x)]
        captured = {}
        take_run = server._take_run

        def capture_run():
            captured["run"] = take_run()
            return captured["run"]

        server._take_run = capture_run

        def on_run(stream):
            captured["cp"] = checkpoint_from_stream(stream, f"s{seed}", 0)

        g, e = local_channel(recv_timeout_s=10.0)
        recording = _Recording()
        evaluator = SequentialEvaluator(circuit, e, server.group)
        _, full = run_two_party(
            lambda: server.serve_row(g, 0, on_run=on_run, ot_mode=ot_mode),
            lambda: evaluator.run(x_bits, progress=recording),
        )

        # the scalar oracle over the same garbled run
        run = captured["run"]
        row_bits = [to_bits(int(v), Q8_4.total_bits) for v in Q8_4.encode_array(model[0])]
        oracle = Evaluator(net)
        state = [
            p.select(b)
            for p, b in zip(run.rounds[0].state_pairs, circuit.initial_state)
        ]
        for r in range(4):
            labels = round_labels(net, run.rounds[r], state, row_bits[r], x_bits[r])
            result = oracle.evaluate(
                run.tables_for_round(r), labels, tweak_offset=r * len(net.gates)
            )
            state = result.labels_for_state(circuit.state_feedback)
            if r + 1 < 4:
                assert recording.carried[r + 1] == state
        assert recording.output_labels == result.output_labels

        cp = captured["cp"]
        cp.advance(start)
        g2, e2 = local_channel(recv_timeout_s=10.0)
        progress = EvaluatorProgress()
        _, resumed = run_two_party(
            lambda: serve_from_checkpoint(g2, cp, server.group),
            lambda: SequentialEvaluator(circuit, e2, server.group).run(
                x_bits,
                start_round=start,
                state_labels=recording.carried[start],
                progress=progress,
            ),
        )
        assert progress.output_labels == result.output_labels
        assert resumed.output_bits == full.output_bits


class TestMalformedPayloads:
    @given(st.integers(0, 4 * TABLE_BYTES * 162).filter(lambda n: n != TABLE_BYTES * 162))
    @settings(max_examples=40, deadline=None)
    def test_wrong_length_is_a_typed_error(self, n_bytes):
        net = build_scheduled_mac(8, 19).netlist
        ev = VectorEvaluator(net)
        assert ev.plan.n_and == 162
        with pytest.raises(GCProtocolError, match="table bytes"):
            ev.decode_tables(bytes(n_bytes))

    @pytest.mark.parametrize("delta", [-TABLE_BYTES, -1, 1, TABLE_BYTES])
    def test_sequential_evaluator_rejects_truncated_and_oversized(self, delta):
        """The client fails typed on the table frame itself — before
        waiting for any label frame of that round."""
        circuit = build_scheduled_mac(4).circuit
        g_chan, e_chan = local_channel(recv_timeout_s=5.0)
        evaluator = SequentialEvaluator(circuit, e_chan)
        n_and = evaluator.evaluator.plan.n_and
        g_chan.send("seq.rounds", (1).to_bytes(4, "big"))
        g_chan.send("seq.ot_mode", b"per_round")
        g_chan.send("seq.tables", bytes(TABLE_BYTES * n_and + delta))
        n_in = len(circuit.netlist.evaluator_inputs)
        with pytest.raises(GCProtocolError, match="table bytes"):
            evaluator.run([[0] * n_in])

    def test_missing_input_label_is_a_typed_error(self):
        net = build_scheduled_mac(4).netlist
        ev = VectorEvaluator(net)
        tables = ev.decode_tables(bytes(TABLE_BYTES * ev.plan.n_and))
        labels = {w: 0 for w in net.input_wires + list(net.constants)}
        del labels[net.evaluator_inputs[0]]
        with pytest.raises(GCProtocolError, match="missing labels"):
            ev.evaluate(labels, tables)


def random_bits(data, n_rounds, width):
    return [
        [data.draw(st.integers(0, 1)) for _ in range(width)] for _ in range(n_rounds)
    ]


def initial_state(seq, run):
    """Active labels of the run's initial accumulator state."""
    return [p.select(b) for p, b in zip(run.rounds[0].state_pairs, seq.initial_state)]


def scalar_outputs(seq, run, g_bits, e_bits):
    """Every round's output labels from the scalar evaluator."""
    net = seq.netlist
    ev = Evaluator(net)
    state = initial_state(seq, run)
    outputs = []
    for r in range(len(g_bits)):
        labels = round_labels(net, run.rounds[r], state, g_bits[r], e_bits[r])
        result = ev.evaluate(
            run.tables_for_round(r), labels, tweak_offset=r * len(net.gates)
        )
        outputs.append(result.output_labels)
        state = result.labels_for_state(seq.state_feedback)
    return outputs


class TestRunPlanEvaluator:
    @given(
        st.sampled_from(["tree", "serial"]),
        st.integers(1, 32),
        st.sampled_from([1, 3]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_one_pass_matches_per_round_and_scalar(
        self, kind, n_rounds, n_sessions, seed, data
    ):
        """Every round's output labels of one run-plan pass equal the
        per-round stage evaluator's and the scalar evaluator's, from
        round 0 and from any resumed ``start_round``."""
        circuit = sequential_mac(kind)
        seq, net = circuit.circuit, circuit.netlist
        runs = garble_mac_runs(
            circuit,
            n_rounds,
            [LabelFactory(source=random.Random(seed + i)) for i in range(n_sessions)],
        )
        run = runs[data.draw(st.integers(0, n_sessions - 1))]
        g_bits = random_bits(data, n_rounds, len(net.garbler_inputs))
        e_bits = random_bits(data, n_rounds, len(net.evaluator_inputs))
        expected = scalar_outputs(seq, run, g_bits, e_bits)

        staged_ev = VectorEvaluator(net)
        state = initial_state(seq, run)
        for r in range(n_rounds):
            labels = round_labels(net, run.rounds[r], state, g_bits[r], e_bits[r])
            staged = staged_ev.evaluate(
                labels,
                staged_ev.decode_tables(run.tables_payload(r)),
                r * len(net.gates),
            )
            assert staged.output_labels == expected[r]
            state = staged.labels_for_state(seq.state_feedback)

        start = data.draw(st.integers(0, n_rounds - 1))
        carried = (
            initial_state(seq, run)
            if start == 0
            else [expected[start - 1][i] for i in seq.state_feedback]
        )
        rest = range(start, n_rounds)
        inputs = [
            round_labels(net, run.rounds[r], [], g_bits[r], e_bits[r]) for r in rest
        ]
        tables = [staged_ev.decode_tables(run.tables_payload(r)) for r in rest]
        assert evaluate_run(seq, start, carried, inputs, tables) == expected[start:]


class TestDrainMidStream:
    """A drain after ``k`` fully received (but not yet evaluated) rounds
    leaves the progress at round ``k``; the resume is bit-exact."""

    @given(
        st.sampled_from(["tree", "serial"]),
        st.integers(1, 10),
        st.sampled_from(["per_round", "upfront"]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_drain_then_resume_is_bit_exact(self, kind, n_rounds, ot_mode, seed, data):
        circuit = sequential_mac(kind)
        seq, net = circuit.circuit, circuit.netlist
        drain_at = data.draw(st.integers(1, n_rounds))
        [run] = garble_mac_runs(
            circuit, n_rounds, [LabelFactory(source=random.Random(seed))]
        )
        weights = [data.draw(st.integers(-8, 7)) for _ in range(n_rounds)]
        xs = [data.draw(st.integers(-8, 7)) for _ in range(n_rounds)]
        g_bits = [to_bits(w, 4) for w in weights]
        x_bits = [to_bits(x, 4) for x in xs]
        expected = scalar_outputs(seq, run, g_bits, x_bits)
        materials = materials_for_run(run, g_bits)

        g, e = local_channel(recv_timeout_s=10.0)

        def drain_notice(tag, body):
            if tag == "test.drain":
                raise SessionDrainedError("drained", next_round=drain_at)

        e._intercept = drain_notice

        def on_round(next_round):
            if next_round == drain_at:
                g.send("test.drain", b"")
                raise SessionDrainedError("drained", next_round=drain_at)

        progress = EvaluatorProgress()
        stream = SequentialStreamer(
            g, materials, run.output_permute_bits, ot_mode, TOY_GROUP, on_round=on_round
        )
        with pytest.raises(SessionDrainedError):
            run_two_party(
                stream.run,
                lambda: SequentialEvaluator(seq, e, TOY_GROUP).run(
                    x_bits, progress=progress
                ),
            )
        assert progress.completed_rounds == drain_at
        assert progress.state_labels == [
            expected[drain_at - 1][i] for i in seq.state_feedback
        ]
        assert progress.output_labels == expected[drain_at - 1]

        g2, e2 = local_channel(recv_timeout_s=10.0)
        resumed = SequentialStreamer(
            g2,
            materials[drain_at:],
            run.output_permute_bits,
            ot_mode,
            TOY_GROUP,
            start_round=drain_at,
        )
        _, report = run_two_party(
            resumed.run,
            lambda: SequentialEvaluator(seq, e2, TOY_GROUP).run(
                x_bits,
                start_round=drain_at,
                state_labels=list(progress.state_labels),
                progress=progress,
            ),
        )
        assert progress.completed_rounds == n_rounds
        assert progress.output_labels == expected[-1]
        assert from_bits(report.output_bits, signed=True) == sum(
            w * x for w, x in zip(weights, xs)
        )
