"""Vector garbling is bit-identical to the sequential reference.

The differential suite for ``repro.gc.vector_garble``: the sequential
:class:`~repro.gc.garble.Garbler` stays in the tree as the oracle, and
every property here drives both paths from identically-seeded label
factories and demands byte-for-byte agreement — tables, wire pairs,
decode (permute) bits, serialised payloads — across random circuits,
preset/tweak configurations, multi-session batches and chained MAC
rounds — and for a whole MAC run garbled in one pass on its run plan,
against both the per-round vector chain and the scalar chain.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import from_bits, to_bits
from repro.circuits.division import build_divider_netlist
from repro.circuits.mac import build_mac_netlist, build_sequential_mac
from repro.circuits.multipliers import build_multiplier_netlist
from repro.crypto.labels import LabelFactory
from repro.crypto.prf import make_tweak
from repro.errors import GCProtocolError
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler
from repro.gc import stage_plan
from repro.gc.tables import serialize_tables
from repro.gc.vector_garble import VectorGarbler, garble_mac_runs
from repro.telemetry import MetricsRegistry

from tests.gc.test_random_circuits import netlist_with_inputs, random_netlists


def scalar_garble(net, seed, tweak_offset=0, preset=None):
    factory = LabelFactory(source=random.Random(seed))
    if preset is not None:
        preset = preset(factory)
    return Garbler(net, factory=factory).garble(
        preset_pairs=preset, tweak_offset=tweak_offset
    )


def vector_garble(net, seeds, tweak_offset=0, preset=None):
    factories = [LabelFactory(source=random.Random(s)) for s in seeds]
    presets = None
    if preset is not None:
        presets = [preset(f) for f in factories]
    return VectorGarbler(net).garble(
        factories, preset_pairs=presets, tweak_offset=tweak_offset
    )


def assert_identical(scalar, vectorized):
    """Full bit-identity between a GarbledCircuit and a session's view."""
    assert scalar.tables == vectorized.tables
    assert scalar.wire_pairs == vectorized.wire_pairs
    assert scalar.offset == vectorized.offset
    assert scalar.hash_calls == vectorized.hash_calls
    assert scalar.output_permute_bits == vectorized.output_permute_bits


class TestFixedCircuits:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_mac_netlist(8),
            lambda: build_multiplier_netlist(8, kind="serial", signed=True),
            lambda: build_divider_netlist(8),
        ],
        ids=["mac", "serial-mul", "divider"],
    )
    def test_single_session_matches_sequential(self, builder):
        net = builder()
        scalar = scalar_garble(net, seed=1)
        batch = vector_garble(net, seeds=[1])
        assert_identical(scalar, batch.to_garbled_circuit(0))

    def test_payload_bytes_match_serialized_tables(self):
        net = build_mac_netlist(8)
        scalar = scalar_garble(net, seed=3)
        batch = vector_garble(net, seeds=[3])
        assert bytes(batch.tables_payload(0)) == serialize_tables(scalar.tables)

    def test_tweak_offset_respected(self):
        net = build_mac_netlist(8)
        scalar = scalar_garble(net, seed=1, tweak_offset=1000)
        batch = vector_garble(net, seeds=[1], tweak_offset=1000)
        assert_identical(scalar, batch.to_garbled_circuit(0))

    def test_needs_at_least_one_session(self):
        with pytest.raises(GCProtocolError):
            vector_garble(build_mac_netlist(4), seeds=[])

    def test_foreign_preset_offset_rejected(self):
        net = build_mac_netlist(4)
        foreign = LabelFactory(source=random.Random(999))
        pair = foreign.fresh_pair()
        factory = LabelFactory(source=random.Random(1))
        with pytest.raises(GCProtocolError):
            VectorGarbler(net).garble(
                [factory], preset_pairs=[{net.garbler_inputs[0]: pair}]
            )


class TestOnRandomCircuits:
    @given(netlist_with_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_vector_equals_sequential(self, case, seed):
        net, _g, _e = case
        scalar = scalar_garble(net, seed)
        batch = vector_garble(net, seeds=[seed])
        assert_identical(scalar, batch.to_garbled_circuit(0))
        assert bytes(batch.tables_payload(0)) == serialize_tables(scalar.tables)

    @given(netlist_with_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_vector_tables_decode_to_plaintext(self, case, seed):
        """Evaluating the *vectorised* tables with the scalar evaluator
        yields the plaintext result under the vectorised decode bits."""
        net, g_bits, e_bits = case
        batch = vector_garble(net, seeds=[seed])
        gc = batch.to_garbled_circuit(0)
        labels = {}
        for w, bit in zip(net.garbler_inputs, g_bits):
            labels[w] = gc.wire_pairs[w].select(bit)
        for w, bit in zip(net.evaluator_inputs, e_bits):
            labels[w] = gc.wire_pairs[w].select(bit)
        for w, bit in net.constants.items():
            labels[w] = gc.wire_pairs[w].select(bit)
        result = Evaluator(net).evaluate(
            gc.tables, labels, gc.output_permute_bits
        )
        assert result.output_bits == net.evaluate_plain(g_bits, e_bits)


@st.composite
def preset_cases(draw):
    """A random netlist plus a preset/tweak configuration (the sequential
    state carry-over shape, as in ``test_batch_garble.preset_cases``)."""
    net = draw(random_netlists())
    seed = draw(st.integers(0, 2**32 - 1))
    tweak_offset = draw(st.sampled_from([0, 1, 137, len(net.gates), 10_000]))
    n_preset = draw(st.integers(0, len(net.garbler_inputs)))
    return net, seed, tweak_offset, n_preset


class TestPresetAndTweakProperty:
    @given(preset_cases())
    @settings(max_examples=60, deadline=None)
    def test_vector_equals_sequential_under_presets(self, case):
        net, seed, tweak_offset, n_preset = case

        def preset(factory):
            return {w: factory.fresh_pair() for w in net.garbler_inputs[:n_preset]}

        scalar = scalar_garble(net, seed, tweak_offset, preset)
        batch = vector_garble(net, seeds=[seed], tweak_offset=tweak_offset,
                              preset=preset)
        assert_identical(scalar, batch.to_garbled_circuit(0))


class TestMultiSession:
    @given(random_netlists(), st.lists(st.integers(0, 2**32 - 1),
                                       min_size=2, max_size=5, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_each_session_matches_its_own_sequential_run(self, net, seeds):
        """One batched garbling of S sessions == S independent sequential
        garblings: the session axis adds throughput, never cross-talk."""
        batch = vector_garble(net, seeds=seeds)
        for s, seed in enumerate(seeds):
            assert_identical(scalar_garble(net, seed), batch.to_garbled_circuit(s))

    def test_one_aes_batch_call_per_stage_regardless_of_sessions(self):
        net = build_mac_netlist(8)
        for n_sessions in (1, 3, 7):
            tm = MetricsRegistry()
            factories = [
                LabelFactory(source=random.Random(s)) for s in range(n_sessions)
            ]
            vg = VectorGarbler(net)
            vg.garble(factories, telemetry=tm)
            assert tm.counter("gc.aes_batch_calls").value == vg.plan.n_stages


class TestChainedMacRounds:
    """``garble_mac_runs`` vs the sequential round chain (state feedback
    presets + per-round tweak offsets), per session and per round."""

    def _sequential_chain(self, circuit, n_rounds, seed):
        net = circuit.netlist
        garbler = Garbler(net, factory=LabelFactory(source=random.Random(seed)))
        gcs, state_pairs = [], None
        for r in range(n_rounds):
            preset = None
            if state_pairs is not None:
                preset = dict(zip(net.state_inputs, state_pairs))
            gc = garbler.garble(
                preset_pairs=preset, tweak_offset=r * len(net.gates)
            )
            state_pairs = [gc.output_pairs[i] for i in circuit.state_feedback]
            gcs.append(gc)
        return gcs

    @pytest.mark.parametrize("bitwidth,n_rounds", [(4, 3), (8, 2)])
    def test_chained_rounds_bit_identical(self, bitwidth, n_rounds):
        from repro.accel.tree_mac import build_scheduled_mac

        scheduled = build_scheduled_mac(bitwidth)
        seeds = [13, 977]
        factories = [LabelFactory(source=random.Random(s)) for s in seeds]
        runs = garble_mac_runs(scheduled, n_rounds, factories)
        for run, seed in zip(runs, seeds):
            chain = self._sequential_chain(scheduled.circuit, n_rounds, seed)
            assert run.output_permute_bits == chain[-1].output_permute_bits
            for r, gc in enumerate(chain):
                assert run.tables_for_round(r) == gc.tables
                assert bytes(run.tables_payload(r)) == serialize_tables(gc.tables)
                labels = run.rounds[r]
                net = scheduled.circuit.netlist
                assert labels.garbler_pairs == [
                    gc.wire_pairs[w] for w in net.garbler_inputs
                ]
                assert labels.evaluator_pairs == [
                    gc.wire_pairs[w] for w in net.evaluator_inputs
                ]
                assert labels.state_pairs == [
                    gc.wire_pairs[w] for w in net.state_inputs
                ]
                assert labels.output_pairs == gc.output_pairs

    def test_rejects_zero_rounds(self):
        from repro.accel.tree_mac import build_scheduled_mac

        with pytest.raises(GCProtocolError):
            garble_mac_runs(build_scheduled_mac(4), 0, [LabelFactory()])


class TestEndToEndMac:
    def test_vectorized_run_evaluates_a_full_mac(self):
        """Drive the evaluator round-by-round over a vectorised run and
        check the accumulated plaintext dot product."""
        from repro.accel.tree_mac import build_scheduled_mac

        scheduled = build_scheduled_mac(8)
        net = scheduled.circuit.netlist
        factory = LabelFactory(source=random.Random(29))
        (run,) = garble_mac_runs(scheduled, 3, [factory])
        weights, xs = [3, -5, 7], [2, 4, -6]
        feedback = scheduled.circuit.state_feedback
        state_labels = None
        result = None
        for r in range(3):
            rl = run.rounds[r]
            labels = {}
            for w, pair, bit in zip(
                net.garbler_inputs, rl.garbler_pairs, to_bits(weights[r], 8)
            ):
                labels[w] = pair.select(bit)
            for w, pair, bit in zip(
                net.evaluator_inputs, rl.evaluator_pairs, to_bits(xs[r], 8)
            ):
                labels[w] = pair.select(bit)
            for w, bit in net.constants.items():
                labels[w] = rl.const_pairs[w].select(bit)
            if state_labels is None:
                state_labels = [pair.select(0) for pair in rl.state_pairs]
            for w, lab in zip(net.state_inputs, state_labels):
                labels[w] = lab
            result = Evaluator(net).evaluate(
                run.tables_for_round(r),
                labels,
                output_permute_bits=[p.permute_bit for p in rl.output_pairs],
                tweak_offset=r * len(net.gates),
            )
            state_labels = result.labels_for_state(feedback)
        acc_bits = [result.output_bits[i] for i in feedback]
        expected = sum(w * x for w, x in zip(weights, xs))
        assert from_bits(acc_bits, signed=True) == expected


def sequential_mac(kind: str, bitwidth: int = 4):
    """A ``build_sequential_mac`` circuit in the shape ``garble_mac_runs``
    takes (``.circuit`` plus ``.netlist``)."""
    seq = build_sequential_mac(bitwidth, kind=kind)
    return SimpleNamespace(circuit=seq, netlist=seq.netlist)


def scalar_chain(circuit, n_rounds, seed):
    """The scalar ``Garbler`` round chain of one session."""
    return TestChainedMacRounds()._sequential_chain(circuit, n_rounds, seed)


def per_round_vector_chain(circuit, n_rounds, seeds):
    """``VectorGarbler`` round after round, state pairs preset from the
    previous round's feedback outputs: one batch per round."""
    net = circuit.netlist
    feedback = [net.outputs[i] for i in circuit.state_feedback]
    factories = [LabelFactory(source=random.Random(s)) for s in seeds]
    vg = VectorGarbler(net)
    batches, preset = [], None
    for r in range(n_rounds):
        batch = vg.garble(
            factories, preset_pairs=preset, tweak_offset=r * len(net.gates)
        )
        batches.append(batch)
        preset = [
            {w: batch.pair(s, fw) for w, fw in zip(net.state_inputs, feedback)}
            for s in range(len(seeds))
        ]
    return batches


class TestRunPlan:
    """``garble_mac_runs`` garbles every round of every session in one
    pass on the run plan; each round's tables must be the bytes the
    round-by-round garblers produce."""

    @given(
        st.sampled_from(["tree", "serial"]),
        st.integers(1, 32),
        st.sampled_from([1, 3]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_run_plan_tables_match_per_round_and_scalar_chains(
        self, kind, n_rounds, n_sessions, seed
    ):
        circuit = sequential_mac(kind)
        seq = circuit.circuit
        seeds = [seed + i for i in range(n_sessions)]
        runs = garble_mac_runs(
            circuit, n_rounds, [LabelFactory(source=random.Random(s)) for s in seeds]
        )
        batches = per_round_vector_chain(seq, n_rounds, seeds)
        for s, (run, sd) in enumerate(zip(runs, seeds)):
            chain = scalar_chain(seq, n_rounds, sd)
            for r in range(n_rounds):
                payload = bytes(run.tables_payload(r))
                assert payload == bytes(batches[r].tables_payload(s))
                assert payload == serialize_tables(chain[r].tables)
                assert run.rounds[r].state_pairs == [
                    chain[r].wire_pairs[w] for w in seq.netlist.state_inputs
                ]
            assert run.output_permute_bits == chain[-1].output_permute_bits
            assert run.rounds[-1].output_pairs == chain[-1].output_pairs

    def test_windows_chain_like_rounds(self, monkeypatch):
        """A run longer than the window is garbled window by window, each
        window's state inputs carrying the last one's feedback labels."""
        monkeypatch.setattr(stage_plan, "RUN_WINDOW", 5)
        circuit = sequential_mac("tree")
        [run] = garble_mac_runs(circuit, 12, [LabelFactory(source=random.Random(8))])
        assert [w.plan.n_rounds for w in run.windows] == [5, 5, 2]
        chain = scalar_chain(circuit.circuit, 12, 8)
        for r, gc in enumerate(chain):
            assert bytes(run.tables_payload(r)) == serialize_tables(gc.tables)
            assert run.tables_for_round(r) == gc.tables
        assert run.output_permute_bits == chain[-1].output_permute_bits

    def test_scheduled_mac_run_matches_scalar_chain(self):
        from repro.accel.tree_mac import build_scheduled_mac

        scheduled = build_scheduled_mac(8, 19)
        [run] = garble_mac_runs(scheduled, 4, [LabelFactory(source=random.Random(1))])
        chain = scalar_chain(scheduled.circuit, 4, 1)
        for r, gc in enumerate(chain):
            assert bytes(run.tables_payload(r)) == serialize_tables(gc.tables)
        assert run.output_permute_bits == chain[-1].output_permute_bits


class TestTweakWords:
    """Plans build their tweak words once; every offset — the uint64
    fast path (one array add) and the exact 128-bit wrap-around path —
    matches ``make_tweak`` gate by gate."""

    @pytest.mark.parametrize(
        "offset", [0, 1, 510, 10_000, 2**62, 2**63 - 600, 2**64, 2**127, -3]
    )
    def test_tweak_words_match_make_tweak(self, offset):
        plan = stage_plan.stage_plan_for(build_mac_netlist(4))
        for stage, words in zip(plan.stages, plan.tweak_words(offset)):
            for gate, row in zip(stage.gate_idx.tolist(), words):
                for half in (0, 1):
                    expected = make_tweak(gate + offset, half)
                    got = (int(row[half, 0]) << 64) | int(row[half, 1])
                    assert got == expected
