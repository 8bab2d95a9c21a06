"""Batched (level-order) garbling: bit-identical, faster, correct."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import from_bits, to_bits
from repro.circuits.division import build_divider_netlist
from repro.circuits.mac import build_mac_netlist
from repro.circuits.multipliers import build_multiplier_netlist
from repro.crypto.labels import LabelFactory, color
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler
from repro.gc.tables import serialize_tables
from repro.gc.vector_garble import VectorEvaluator

from tests.gc.test_random_circuits import netlist_with_inputs, random_netlists


def twin_garble(net, seed=1, tweak_offset=0):
    """Garble the same netlist with both paths under identical labels."""
    scalar = Garbler(net, factory=LabelFactory(source=random.Random(seed))).garble(
        tweak_offset=tweak_offset
    )
    batched = Garbler(net, factory=LabelFactory(source=random.Random(seed))).garble(
        tweak_offset=tweak_offset, batch=True
    )
    return scalar, batched


class TestBitIdentical:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_mac_netlist(8),
            lambda: build_multiplier_netlist(8, kind="serial", signed=True),
            lambda: build_divider_netlist(8),
        ],
        ids=["mac", "serial-mul", "divider"],
    )
    def test_tables_and_pairs_match_scalar_path(self, builder):
        net = builder()
        scalar, batched = twin_garble(net)
        assert scalar.tables == batched.tables
        assert scalar.wire_pairs == batched.wire_pairs

    def test_tweak_offset_respected(self):
        net = build_mac_netlist(8)
        scalar, batched = twin_garble(net, tweak_offset=1000)
        assert scalar.tables == batched.tables

    def test_hash_call_count_identical(self):
        net = build_mac_netlist(8)
        scalar, batched = twin_garble(net)
        assert scalar.hash_calls == batched.hash_calls


class TestBatchedEvaluation:
    def test_batched_tables_evaluate_correctly(self):
        net = build_multiplier_netlist(8, kind="tree", signed=True)
        gc = Garbler(net).garble(batch=True)
        labels = {}
        for w, bit in zip(net.garbler_inputs, to_bits(-45, 8)):
            labels[w] = gc.wire_pairs[w].select(bit)
        for w, bit in zip(net.evaluator_inputs, to_bits(77, 8)):
            labels[w] = gc.wire_pairs[w].select(bit)
        for w, bit in net.constants.items():
            labels[w] = gc.wire_pairs[w].select(bit)
        result = Evaluator(net).evaluate(gc.tables, labels, gc.output_permute_bits)
        assert from_bits(result.output_bits, signed=True) == -45 * 77


class TestBatchedEvaluatorPath:
    """The stage-plan evaluator (one hash batch per AND stage) on
    tables from either garbling path."""

    def _labels(self, net, gc, a, x):
        labels = {}
        for w, bit in zip(net.garbler_inputs, to_bits(a, 8)):
            labels[w] = gc.wire_pairs[w].select(bit)
        for w, bit in zip(net.evaluator_inputs, to_bits(x, 8)):
            labels[w] = gc.wire_pairs[w].select(bit)
        for w, bit in net.constants.items():
            labels[w] = gc.wire_pairs[w].select(bit)
        return labels

    def _staged(self, net, gc, labels):
        ev = VectorEvaluator(net)
        result = ev.evaluate(labels, ev.decode_tables(serialize_tables(gc.tables)))
        bits = [color(l) ^ p for l, p in zip(result.output_labels, gc.output_permute_bits)]
        return result, bits

    def test_batched_eval_equals_scalar_eval(self):
        net = build_multiplier_netlist(8, kind="tree", signed=True)
        gc = Garbler(net).garble()
        labels = self._labels(net, gc, -3, 99)
        scalar = Evaluator(net).evaluate(gc.tables, labels, gc.output_permute_bits)
        staged, bits = self._staged(net, gc, labels)
        assert scalar.output_labels == staged.output_labels
        assert scalar.output_bits == bits
        assert scalar.hash_calls == staged.hash_calls

    def test_full_batch_pipeline(self):
        net = build_multiplier_netlist(8, kind="tree", signed=True)
        gc = Garbler(net).garble(batch=True)
        labels = self._labels(net, gc, -101, 42)
        _, bits = self._staged(net, gc, labels)
        assert from_bits(bits, signed=True) == -101 * 42

    def test_batched_eval_checks_table_order(self):
        """Tables are positional in the payload: a reordered stream
        evaluates to garbage on the stage-plan path, and the scalar
        oracle still rejects it by gate index."""
        from repro.errors import GCProtocolError

        net = build_multiplier_netlist(8, kind="tree", signed=True)
        gc = Garbler(net).garble()
        labels = self._labels(net, gc, 1, 1)
        shuffled = list(reversed(gc.tables))
        with pytest.raises(GCProtocolError):
            Evaluator(net).evaluate(shuffled, labels)
        ev = VectorEvaluator(net)
        garbage = ev.evaluate(labels, ev.decode_tables(serialize_tables(shuffled)))
        assert garbage.output_labels != self._staged(net, gc, labels)[0].output_labels


class TestOnRandomCircuits:
    @given(netlist_with_inputs())
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_batch_equals_scalar(self, case):
        net, _g, _e = case
        scalar, batched = twin_garble(net, seed=7)
        assert scalar.tables == batched.tables
        assert scalar.wire_pairs == batched.wire_pairs


@st.composite
def preset_cases(draw):
    """A random netlist plus a preset/tweak configuration.

    Preset pairs model the sequential-GC state carry-over: some input
    wires arrive with label pairs pinned by the previous round, and the
    round's gates are tweaked by a global offset.  Both garbling paths
    must agree bit-for-bit under every such configuration.
    """
    net = draw(random_netlists())
    seed = draw(st.integers(0, 2**32 - 1))
    tweak_offset = draw(st.sampled_from([0, 1, 137, len(net.gates), 10_000]))
    n_preset = draw(st.integers(0, len(net.garbler_inputs)))
    return net, seed, tweak_offset, n_preset


def garble_with_presets(net, seed, tweak_offset, n_preset, batch):
    """Garble with the first ``n_preset`` garbler inputs preset.

    The factory is seeded, so scalar and batched invocations draw
    identical presets and identical fresh pairs for the rest.
    """
    factory = LabelFactory(source=random.Random(seed))
    preset = {w: factory.fresh_pair() for w in net.garbler_inputs[:n_preset]}
    return Garbler(net, factory=factory).garble(
        preset_pairs=preset, tweak_offset=tweak_offset, batch=batch
    )


class TestPresetAndTweakProperty:
    @given(preset_cases())
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_scalar_under_presets_and_tweaks(self, case):
        net, seed, tweak_offset, n_preset = case
        scalar = garble_with_presets(net, seed, tweak_offset, n_preset, batch=False)
        batched = garble_with_presets(net, seed, tweak_offset, n_preset, batch=True)
        assert scalar.tables == batched.tables
        assert scalar.wire_pairs == batched.wire_pairs
        assert scalar.hash_calls == batched.hash_calls

    @given(netlist_with_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batched_presets_still_evaluate_to_plaintext(self, case, seed):
        net, g_bits, e_bits = case
        n_preset = len(net.garbler_inputs)
        gc = garble_with_presets(net, seed, 42, n_preset, batch=True)
        labels = {}
        for w, bit in zip(net.garbler_inputs, g_bits):
            labels[w] = gc.wire_pairs[w].select(bit)
        for w, bit in zip(net.evaluator_inputs, e_bits):
            labels[w] = gc.wire_pairs[w].select(bit)
        result = Evaluator(net).evaluate(
            gc.tables, labels, gc.output_permute_bits, tweak_offset=42
        )
        assert result.output_bits == net.evaluate_plain(g_bits, e_bits)


class TestChainedRounds:
    """Differential test across a *sequence* of garblings (the MAC's
    state carry-over): each round presets the previous round's output
    pairs at the feedback positions, exactly as sequential GC does."""

    def _chain(self, circuit, n_rounds, seed, batch):
        net = circuit.netlist
        factory = LabelFactory(source=random.Random(seed))
        garbler = Garbler(net, factory=factory)
        gcs = []
        state_pairs = None
        for r in range(n_rounds):
            preset = None
            if state_pairs is not None:
                preset = dict(zip(net.state_inputs, state_pairs))
            gc = garbler.garble(
                preset_pairs=preset,
                tweak_offset=r * len(net.gates),
                batch=batch,
            )
            state_pairs = [gc.output_pairs[i] for i in circuit.state_feedback]
            gcs.append(gc)
        return gcs

    def test_chained_rounds_bit_identical(self):
        from repro.accel.tree_mac import build_scheduled_mac

        circuit = build_scheduled_mac(4).circuit
        scalar_chain = self._chain(circuit, 3, seed=13, batch=False)
        batched_chain = self._chain(circuit, 3, seed=13, batch=True)
        for scalar, batched in zip(scalar_chain, batched_chain):
            assert scalar.tables == batched.tables
            assert scalar.wire_pairs == batched.wire_pairs
