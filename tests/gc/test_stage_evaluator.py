"""The run-plan evaluator is bit-identical to the scalar evaluator.

``evaluate_run`` (the client's serving path, inside
:class:`~repro.gc.sequential_gc.SequentialEvaluator`) runs each AND
stage of a whole run as one batched hash over one label array and
reads the tables straight from the payload bytes; the gate-at-a-time
:class:`~repro.gc.evaluate.Evaluator` stays as its oracle.  Every
property drives both from the same garbling and demands equal output
labels and decode bits — on the random circuits of
``test_vector_bit_identity`` (stateless, and with random state
feedback from any start round), across chained MAC rounds, and when a
sequential session resumes mid-stream.  A drain mid-stream must leave
the progress at the last fully received round.  Malformed payloads
must fail typed, never evaluate.
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
from repro.fixedpoint import FixedPointFormat
from repro.gc.channel import local_channel, run_two_party
from repro.gc.evaluate import Evaluator
from repro.gc.sequential_gc import (
    SequentialEvaluator,
    SequentialStreamer,
    materials_for_run,
)
from repro.gc.stage_plan import stage_plan_for
from repro.gc.tables import TABLE_BYTES, serialize_tables
from repro.gc.vector_garble import decode_tables, evaluate_run, garble_mac_runs
from repro.host import CloudServer
from repro.recover import (
    EvaluatorProgress,
    SessionCheckpoint,
    checkpoint_from_stream,
    serve_from_checkpoint,
)

from tests.gc.test_random_circuits import netlist_with_inputs
from tests.gc.test_vector_bit_identity import (
    one_round,
    random_sequential_circuits,
    scalar_chain,
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


def decoded(net, tables) -> np.ndarray:
    """A round's tables as ``evaluate_run`` reads them off the wire."""
    return decode_tables(serialize_tables(tables), stage_plan_for(net).n_and)


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
        scalar = Evaluator(net).evaluate(gc.tables, labels, gc.output_permute_bits)
        [staged] = evaluate_run(one_round(net), 0, [], [labels], [decoded(net, gc.tables)])
        assert staged == scalar.output_labels
        assert decode(staged, gc.output_permute_bits) == (
            net.evaluate_plain(g_bits, e_bits)
        )

    @given(random_sequential_circuits(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_under_presets_and_tweak_offsets(self, case, data):
        """Tables of the scalar chain (preset state pairs, per-round
        tweaks), evaluated in one pass from any start round, give the
        scalar evaluator's labels round for round."""
        circuit, n_rounds, seed = case
        net = circuit.netlist
        chain = scalar_chain(circuit, n_rounds, seed)
        inputs, expected = [], []
        state = [
            chain[0].wire_pairs[w].select(b)
            for w, b in zip(net.state_inputs, circuit.initial_state)
        ]
        carried = [state]
        for r, gc in enumerate(chain):
            g_bits = [data.draw(st.integers(0, 1)) for _ in net.garbler_inputs]
            e_bits = [data.draw(st.integers(0, 1)) for _ in net.evaluator_inputs]
            labels = active_labels(net, gc, g_bits, e_bits)
            inputs.append(labels)
            result = Evaluator(net).evaluate(
                gc.tables, {**labels, **dict(zip(net.state_inputs, state))},
                tweak_offset=r * len(net.gates),
            )
            expected.append(result.output_labels)
            state = result.labels_for_state(circuit.state_feedback)
            carried.append(state)
        start = data.draw(st.integers(0, n_rounds - 1))
        tables = [decoded(net, gc.tables) for gc in chain[start:]]
        staged = evaluate_run(circuit, start, carried[start], inputs[start:], tables)
        assert staged == expected[start:]


class TestChainedMacRounds:
    @given(
        st.sampled_from([4, 8]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=12, deadline=None)
    def test_rounds_carry_identical_state(self, bitwidth, n_rounds, seed, data):
        """Round after round of a run-plan MAC run, the one-pass and the
        scalar evaluator carry the same accumulator labels and end on
        the same output."""
        circuit = build_scheduled_mac(bitwidth).circuit
        net = circuit.netlist
        [run] = garble_mac_runs(
            circuit, n_rounds, [LabelFactory(source=random.Random(seed))]
        )
        g_bits = random_bits(data, n_rounds, len(net.garbler_inputs))
        e_bits = random_bits(data, n_rounds, len(net.evaluator_inputs))
        expected = scalar_outputs(circuit, run, g_bits, e_bits)
        inputs = [
            round_labels(net, run.rounds[r], [], g_bits[r], e_bits[r])
            for r in range(n_rounds)
        ]
        tables = [decode_tables(run.tables_payload(r), stage_plan_for(net).n_and)
                  for r in range(n_rounds)]
        staged = evaluate_run(circuit, 0, initial_state(circuit, run), inputs, tables)
        assert staged == expected
        assert decode(staged[-1], run.output_permute_bits) == decode(
            expected[-1], run.output_permute_bits
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


def resume_scenario(seed):
    """One seeded (format, model, query): 4- or 8-bit, 2 to 5 rounds."""
    rng = random.Random(seed)
    total_bits = rng.choice((4, 8))
    fmt = FixedPointFormat(total_bits, total_bits // 2)
    rounds = rng.randint(2, 5)
    scale = 2 ** fmt.frac_bits
    # small magnitudes keep the accumulator honest at every width
    draw = lambda: rng.randint(-3 * scale // 2, 3 * scale // 2) / scale
    model = np.array([[draw() for _ in range(rounds)] for _ in range(2)])
    x = np.array([draw() for _ in range(rounds)])
    return fmt, model, x


class TestResume:
    @given(st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_resume_from_start_round_matches_scalar_oracle(self, seed):
        """A session re-entered from a checkpoint at every round
        boundary ``0 <= start < M`` ends on the scalar evaluator's
        output labels over the whole garbled run and decodes the
        uninterrupted run's bits, with one garbling for the sweep."""
        fmt, model, x = resume_scenario(seed)
        rounds = model.shape[1]
        server = CloudServer(model, fmt, pool_size=0, seed=seed, auto_refill=False)
        circuit = server.accelerator.circuit.circuit
        net = circuit.netlist
        x_bits = [to_bits(int(v), fmt.total_bits) for v in fmt.encode_array(x)]
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
            lambda: server.serve_row(g, 0, on_run=on_run),
            lambda: evaluator.run(x_bits, progress=recording),
        )
        assert fmt.decode_product(
            from_bits(full.output_bits, signed=True)
        ) == pytest.approx(float(model[0] @ x), abs=1e-9)

        # the scalar oracle over the same garbled run
        run = captured["run"]
        row_bits = [to_bits(int(v), fmt.total_bits) for v in fmt.encode_array(model[0])]
        oracle = Evaluator(net)
        state = [
            p.select(b)
            for p, b in zip(run.rounds[0].state_pairs, circuit.initial_state)
        ]
        for r in range(rounds):
            labels = round_labels(net, run.rounds[r], state, row_bits[r], x_bits[r])
            result = oracle.evaluate(
                run.tables_for_round(r), labels, tweak_offset=r * len(net.gates)
            )
            state = result.labels_for_state(circuit.state_feedback)
            if r + 1 < rounds:
                assert recording.carried[r + 1] == state
        assert recording.output_labels == result.output_labels

        reference = captured["cp"]
        for start in range(rounds):
            cp = SessionCheckpoint.from_dict(reference.to_dict())
            cp.rewind_to(start)
            g2, e2 = local_channel(recv_timeout_s=10.0)
            progress = EvaluatorProgress()
            streamed, resumed = run_two_party(
                lambda: serve_from_checkpoint(g2, cp, server.group),
                lambda: SequentialEvaluator(circuit, e2, server.group).run(
                    x_bits,
                    start_round=start,
                    state_labels=recording.carried.get(start),
                    progress=progress,
                ),
            )
            assert streamed == rounds - start
            assert progress.completed_rounds == rounds
            assert progress.output_labels == result.output_labels
            assert resumed.output_bits == full.output_bits, (
                f"seed {seed}: resume at round {start} diverged"
            )
        # the whole sweep re-served stored material
        assert server.stats.runs_garbled == 1


class TestMalformedPayloads:
    @given(st.integers(0, 4 * TABLE_BYTES * 162).filter(lambda n: n != TABLE_BYTES * 162))
    @settings(max_examples=40, deadline=None)
    def test_wrong_length_is_a_typed_error(self, n_bytes):
        plan = stage_plan_for(build_scheduled_mac(8, 19).netlist)
        assert plan.n_and == 162
        with pytest.raises(GCProtocolError, match="table bytes"):
            decode_tables(bytes(n_bytes), plan.n_and)

    @pytest.mark.parametrize("delta", [-TABLE_BYTES, -1, 1, TABLE_BYTES])
    def test_sequential_evaluator_rejects_truncated_and_oversized(self, delta):
        """The client fails typed on the table frame itself — before
        waiting for any label frame of that round."""
        circuit = build_scheduled_mac(4).circuit
        g_chan, e_chan = local_channel(recv_timeout_s=5.0)
        evaluator = SequentialEvaluator(circuit, e_chan)
        n_and = evaluator.plan.n_and
        g_chan.send("seq.rounds", (1).to_bytes(4, "big"))
        g_chan.send("seq.tables", bytes(TABLE_BYTES * n_and + delta))
        n_in = len(circuit.netlist.evaluator_inputs)
        with pytest.raises(GCProtocolError, match="table bytes"):
            evaluator.run([[0] * n_in])

    def test_missing_input_label_is_a_typed_error(self):
        circuit = build_scheduled_mac(4).circuit
        net = circuit.netlist
        n_and = stage_plan_for(net).n_and
        tables = decode_tables(bytes(TABLE_BYTES * n_and), n_and)
        labels = {w: 0 for w in net.garbler_inputs + net.evaluator_inputs}
        labels.update({w: 0 for w in net.constants})
        del labels[net.evaluator_inputs[0]]
        state = [0] * len(net.state_inputs)
        with pytest.raises(GCProtocolError, match="missing labels"):
            evaluate_run(circuit, 0, state, [labels], [tables])


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
        scalar evaluator's round after round, from round 0 and from any
        resumed ``start_round``."""
        seq = sequential_mac(kind)
        net = seq.netlist
        runs = garble_mac_runs(
            seq,
            n_rounds,
            [LabelFactory(source=random.Random(seed + i)) for i in range(n_sessions)],
        )
        run = runs[data.draw(st.integers(0, n_sessions - 1))]
        g_bits = random_bits(data, n_rounds, len(net.garbler_inputs))
        e_bits = random_bits(data, n_rounds, len(net.evaluator_inputs))
        expected = scalar_outputs(seq, run, g_bits, e_bits)
        n_and = stage_plan_for(net).n_and
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
        tables = [decode_tables(run.tables_payload(r), n_and) for r in rest]
        assert evaluate_run(seq, start, carried, inputs, tables) == expected[start:]


class TestDrainMidStream:
    """A drain after ``k`` fully received (but not yet evaluated) rounds
    leaves the progress at round ``k``; the resume is bit-exact."""

    @given(
        st.sampled_from(["tree", "serial"]),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_drain_then_resume_is_bit_exact(self, kind, n_rounds, seed, data):
        seq = sequential_mac(kind)
        net = seq.netlist
        drain_at = data.draw(st.integers(1, n_rounds))
        [run] = garble_mac_runs(
            seq, n_rounds, [LabelFactory(source=random.Random(seed))]
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
            g, materials, run.output_permute_bits, TOY_GROUP, on_round=on_round
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
