"""Stage-batched garbling and evaluation end to end: bit-identical and correct.

The run plan garbles (``garble_mac_runs``) and evaluates
(``evaluate_run``) with one AES batch per stage; the scalar
:class:`~repro.gc.garble.Garbler` / :class:`~repro.gc.evaluate.Evaluator`
are the reference.  Here the two meet on fixed arithmetic circuits
(several sessions and rounds at once, across run-plan windows), on the
evaluator side (output labels, hash calls, table order) and on random
sequential circuits, where every round must decode to the plaintext.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import from_bits, to_bits
from repro.circuits.mac import build_mac_netlist, build_sequential_mac
from repro.circuits.multipliers import build_multiplier_netlist
from repro.crypto.labels import LabelFactory, color
from repro.crypto.ot import TOY_GROUP
from repro.errors import GCProtocolError
from repro.gc import stage_plan
from repro.gc.channel import local_channel, run_two_party
from repro.gc.evaluate import Evaluator
from repro.gc.sequential_gc import SequentialEvaluator, SequentialGarbler
from repro.gc.tables import serialize_tables
from repro.gc.vector_garble import decode_tables, evaluate_run

from tests.gc.test_random_circuits import netlist_with_inputs
from tests.gc.test_vector_bit_identity import (
    FIXED,
    assert_run_matches_chain,
    one_round,
    random_sequential_circuits,
    run_plan_garble,
    scalar_chain,
)


def active_inputs(net, meta, g_bits, e_bits):
    """Active labels of one round's garbler, evaluator and constant
    wires (state excluded) from its garbled label pairs."""
    labels = {w: p.select(b) for w, p, b in zip(net.garbler_inputs, meta.garbler_pairs, g_bits)}
    labels.update(
        {w: p.select(b) for w, p, b in zip(net.evaluator_inputs, meta.evaluator_pairs, e_bits)}
    )
    labels.update({w: p.select(net.constants[w]) for w, p in meta.const_pairs.items()})
    return labels


def staged_run(circuit, run, g_bits, e_bits, start=0, state=None):
    """Every round's output labels from one ``evaluate_run`` pass."""
    net = circuit.netlist
    if state is None:
        state = [
            p.select(b)
            for p, b in zip(run.rounds[start].state_pairs, circuit.initial_state)
        ]
    rounds = range(start, len(g_bits))
    inputs = [active_inputs(net, run.rounds[r], g_bits[r], e_bits[r]) for r in rounds]
    n_and = stage_plan.stage_plan_for(net).n_and
    tables = [decode_tables(run.tables_payload(r), n_and) for r in rounds]
    return evaluate_run(circuit, start, state, inputs, tables)


def decode(labels, permute_bits):
    return [color(label) ^ p for label, p in zip(labels, permute_bits)]


class TestBitIdentical:
    @pytest.mark.parametrize("builder", FIXED, ids=["mac", "serial-mul", "divider"])
    def test_tables_and_pairs_match_scalar_path(self, builder):
        """Three sessions x two rounds of a fixed circuit in one pass:
        each session's every round equals its scalar chain."""
        circuit = one_round(builder())
        seeds = [1, 2, 3]
        for run, seed in zip(run_plan_garble(circuit, 2, seeds), seeds):
            assert_run_matches_chain(run, scalar_chain(circuit, 2, seed))

    def test_tweak_offset_respected(self, monkeypatch):
        """Past a window boundary the rounds keep their run-wide tweaks
        (``r * len(gates)``), exactly like the scalar chain."""
        monkeypatch.setattr(stage_plan, "RUN_WINDOW", 2)
        circuit = one_round(build_mac_netlist(8))
        [run] = run_plan_garble(circuit, 5, [1])
        assert [w.first_round for w in run.windows] == [0, 2, 4]
        assert_run_matches_chain(run, scalar_chain(circuit, 5, 1))

    def test_hash_call_count_identical(self):
        """4 hashes per AND gate to garble, 2 to evaluate, as scalar."""
        net = build_multiplier_netlist(8, kind="tree", signed=True)
        circuit = one_round(net)
        [run] = run_plan_garble(circuit, 1, [4])
        [gc] = scalar_chain(circuit, 1, 4)
        assert run.hash_calls == gc.hash_calls == 4 * len(gc.tables)
        g_chan, e_chan = local_channel()
        _, report = run_two_party(
            lambda: SequentialGarbler(circuit, g_chan, TOY_GROUP).run(
                [to_bits(3, 8)], garbled=run
            ),
            lambda: SequentialEvaluator(circuit, e_chan, TOY_GROUP).run([to_bits(5, 8)]),
        )
        labels = active_inputs(net, run.rounds[0], to_bits(3, 8), to_bits(5, 8))
        scalar = Evaluator(net).evaluate(run.tables_for_round(0), labels)
        assert report.hash_calls == scalar.hash_calls == 2 * len(gc.tables)


class TestBatchedEvaluation:
    def test_batched_tables_evaluate_correctly(self):
        net = build_multiplier_netlist(8, kind="tree", signed=True)
        [run] = run_plan_garble(one_round(net), 1, [9])
        labels = active_inputs(net, run.rounds[0], to_bits(-45, 8), to_bits(77, 8))
        result = Evaluator(net).evaluate(
            run.tables_for_round(0), labels, run.output_permute_bits
        )
        assert from_bits(result.output_bits, signed=True) == -45 * 77


class TestBatchedEvaluatorPath:
    """The run-plan evaluator (one hash batch per AND stage) against the
    scalar evaluator on the same tables."""

    NET = staticmethod(lambda: build_multiplier_netlist(8, kind="tree", signed=True))

    def test_batched_eval_equals_scalar_eval(self):
        net = self.NET()
        circuit = one_round(net)
        [run] = run_plan_garble(circuit, 1, [11])
        g_bits, e_bits = [to_bits(-3, 8)], [to_bits(99, 8)]
        [staged] = staged_run(circuit, run, g_bits, e_bits)
        labels = active_inputs(net, run.rounds[0], g_bits[0], e_bits[0])
        scalar = Evaluator(net).evaluate(
            run.tables_for_round(0), labels, run.output_permute_bits
        )
        assert staged == scalar.output_labels
        assert decode(staged, run.output_permute_bits) == scalar.output_bits

    def test_full_batch_pipeline(self):
        circuit = one_round(self.NET())
        [run] = run_plan_garble(circuit, 1, [12])
        [staged] = staged_run(circuit, run, [to_bits(-101, 8)], [to_bits(42, 8)])
        bits = decode(staged, run.output_permute_bits)
        assert from_bits(bits, signed=True) == -101 * 42

    def test_batched_eval_checks_table_order(self):
        """Tables are positional in the payload: a reordered stream
        evaluates to garbage on the run-plan path, and the scalar
        oracle still rejects it by gate index."""
        net = self.NET()
        circuit = one_round(net)
        [run] = run_plan_garble(circuit, 1, [13])
        labels = active_inputs(net, run.rounds[0], to_bits(1, 8), to_bits(1, 8))
        shuffled = list(reversed(run.tables_for_round(0)))
        with pytest.raises(GCProtocolError):
            Evaluator(net).evaluate(shuffled, labels)
        tables = decode_tables(serialize_tables(shuffled), len(shuffled))
        [garbage] = evaluate_run(circuit, 0, [], [labels], [tables])
        [good] = staged_run(circuit, run, [to_bits(1, 8)], [to_bits(1, 8)])
        assert garbage != good


class TestOnRandomCircuits:
    @given(netlist_with_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_batch_equals_scalar(self, case, seed):
        """Garbled and evaluated on the run plan only, a random netlist
        decodes to its plaintext output."""
        net, g_bits, e_bits = case
        circuit = one_round(net)
        [run] = run_plan_garble(circuit, 1, [seed])
        [staged] = staged_run(circuit, run, [g_bits], [e_bits])
        assert decode(staged, run.output_permute_bits) == net.evaluate_plain(
            g_bits, e_bits
        )


def random_round_bits(data, circuit, n_rounds):
    net = circuit.netlist
    g = [[data.draw(st.integers(0, 1)) for _ in net.garbler_inputs] for _ in range(n_rounds)]
    e = [[data.draw(st.integers(0, 1)) for _ in net.evaluator_inputs] for _ in range(n_rounds)]
    return g, e


class TestPresetAndTweakProperty:
    @given(random_sequential_circuits(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_scalar_under_presets_and_tweaks(self, case, data):
        """Random state feedback over M rounds: one ``evaluate_run`` pass
        carries the same state labels and ends on the same outputs as
        the scalar evaluator round after round."""
        circuit, n_rounds, seed = case
        net = circuit.netlist
        [run] = run_plan_garble(circuit, n_rounds, [seed])
        g_bits, e_bits = random_round_bits(data, circuit, n_rounds)
        staged = staged_run(circuit, run, g_bits, e_bits)
        state = [
            p.select(b) for p, b in zip(run.rounds[0].state_pairs, circuit.initial_state)
        ]
        oracle = Evaluator(net)
        for r in range(n_rounds):
            labels = active_inputs(net, run.rounds[r], g_bits[r], e_bits[r])
            labels.update(zip(net.state_inputs, state))
            result = oracle.evaluate(
                run.tables_for_round(r), labels, tweak_offset=r * len(net.gates)
            )
            assert staged[r] == result.output_labels
            state = result.labels_for_state(circuit.state_feedback)

    @given(random_sequential_circuits(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_batched_presets_still_evaluate_to_plaintext(self, case, data):
        circuit, n_rounds, seed = case
        [run] = run_plan_garble(circuit, n_rounds, [seed])
        g_bits, e_bits = random_round_bits(data, circuit, n_rounds)
        staged = staged_run(circuit, run, g_bits, e_bits)
        plain = circuit.run_plain(g_bits, e_bits)
        # only the last round's output map is sent; earlier rounds decode
        # through their own output pairs
        for r, labels in enumerate(staged):
            pairs = run.rounds[r].output_pairs
            assert [p.decode(l) for p, l in zip(pairs, labels)] == plain[r]


class TestChainedRounds:
    """The garbler's entry point over the wire: with no run supplied it
    garbles one on the run plan, and the tables it streams round after
    round are the scalar chain's bytes."""

    def test_chained_rounds_bit_identical(self):
        circuit = build_sequential_mac(4)
        g_chan, e_chan = local_channel()
        streamed = []
        send = g_chan.send

        def spy(tag, payload):
            if tag == "seq.tables":
                streamed.append(bytes(payload))
            send(tag, payload)

        g_chan.send = spy
        factory = LabelFactory(source=random.Random(13))
        garbler = SequentialGarbler(circuit, g_chan, TOY_GROUP, factory=factory)
        a, x = [3, -2, 5], [1, 4, -3]
        _, report = run_two_party(
            lambda: garbler.run([to_bits(v, 4) for v in a]),
            lambda: SequentialEvaluator(circuit, e_chan, TOY_GROUP).run(
                [to_bits(v, 4) for v in x]
            ),
        )
        chain = scalar_chain(circuit, 3, 13)
        assert streamed == [serialize_tables(gc.tables) for gc in chain]
        assert from_bits(report.output_bits, signed=True) == int(np.dot(a, x))
