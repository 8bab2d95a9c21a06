"""Run-plan garbling is bit-identical to the scalar reference.

The differential suite for ``repro.gc.vector_garble``: the scalar
:class:`~repro.gc.garble.Garbler` stays in the tree as the oracle, and
every property here drives both from identically-seeded label factories
and demands byte-for-byte agreement — tables, label pairs, decode
(permute) bits, serialised payloads.  :func:`garble_mac_runs` is the one
garbling path, so every shape goes through it: a random netlist is a
stateless one-round (or M-round) sequential circuit, random sequential
circuits carry state pairs from round to round, and chained MAC runs,
a generic processor round and the paper's FSM model all match the
scalar chain.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.maxelerator import MAXelerator
from repro.accel.tree_mac import build_scheduled_mac
from repro.baselines.garbled_processor import build_processor_round
from repro.bits import from_bits, to_bits
from repro.circuits.division import build_divider_netlist
from repro.circuits.mac import build_mac_netlist, build_sequential_mac
from repro.circuits.multipliers import build_multiplier_netlist
from repro.circuits.sequential import SequentialCircuit
from repro.crypto.labels import LabelFactory
from repro.crypto.prf import make_tweak
from repro.errors import GCProtocolError
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler
from repro.gc import stage_plan
from repro.gc.tables import serialize_tables
from repro.gc.vector_garble import garble_mac_runs
from repro.telemetry import MetricsRegistry

from tests.gc.test_random_circuits import netlist_with_inputs, random_netlists


def scalar_garble(net, seed):
    return Garbler(net, factory=LabelFactory(source=random.Random(seed))).garble()


def one_round(net):
    """A stateless netlist as a sequential circuit (rounds share nothing)."""
    return SequentialCircuit(net, state_feedback=[])


def run_plan_garble(circuit, n_rounds, seeds, **kwargs):
    """``garble_mac_runs`` with one seeded label factory per session."""
    factories = [LabelFactory(source=random.Random(s)) for s in seeds]
    return garble_mac_runs(circuit, n_rounds, factories, **kwargs)


def scalar_chain(circuit, n_rounds, seed):
    """The scalar ``Garbler`` round chain of one session: state pairs
    preset from the previous round's feedback outputs, tweaks offset
    by ``r * len(gates)``."""
    net = circuit.netlist
    garbler = Garbler(net, factory=LabelFactory(source=random.Random(seed)))
    gcs, state_pairs = [], None
    for r in range(n_rounds):
        preset = None
        if state_pairs is not None:
            preset = dict(zip(net.state_inputs, state_pairs))
        gc = garbler.garble(preset_pairs=preset, tweak_offset=r * len(net.gates))
        state_pairs = [gc.output_pairs[i] for i in circuit.state_feedback]
        gcs.append(gc)
    return gcs


def assert_round_identical(gc, run, r=0):
    """Full bit-identity between a scalar garbling and round ``r`` of a
    run: tables, payload bytes, offset and every input/output pair."""
    net = run.circuit.netlist
    labels = run.rounds[r]
    assert run.tables_for_round(r) == gc.tables
    assert bytes(run.tables_payload(r)) == serialize_tables(gc.tables)
    assert run.offset == gc.offset
    assert labels.garbler_pairs == [gc.wire_pairs[w] for w in net.garbler_inputs]
    assert labels.evaluator_pairs == [gc.wire_pairs[w] for w in net.evaluator_inputs]
    assert labels.state_pairs == [gc.wire_pairs[w] for w in net.state_inputs]
    assert labels.const_pairs == {w: gc.wire_pairs[w] for w in net.constants}
    assert labels.output_pairs == gc.output_pairs


def assert_run_matches_chain(run, chain):
    for r, gc in enumerate(chain):
        assert_round_identical(gc, run, r)
    assert run.output_permute_bits == chain[-1].output_permute_bits
    assert run.hash_calls == sum(gc.hash_calls for gc in chain)


FIXED = [
    lambda: build_mac_netlist(8),
    lambda: build_multiplier_netlist(8, kind="serial", signed=True),
    lambda: build_divider_netlist(8),
]


class TestFixedCircuits:
    @pytest.mark.parametrize("builder", FIXED, ids=["mac", "serial-mul", "divider"])
    def test_single_session_matches_sequential(self, builder):
        net = builder()
        [run] = run_plan_garble(one_round(net), 1, [1])
        assert_run_matches_chain(run, [scalar_garble(net, seed=1)])

    def test_payload_bytes_match_serialized_tables(self):
        net = build_mac_netlist(8)
        scalar = scalar_garble(net, seed=3)
        [run] = run_plan_garble(one_round(net), 1, [3])
        assert bytes(run.tables_payload(0)) == serialize_tables(scalar.tables)

    def test_tweak_offset_respected(self):
        """Round ``r`` of a stateless run is the scalar garbling at tweak
        offset ``r * len(gates)``."""
        net = build_mac_netlist(8)
        [run] = run_plan_garble(one_round(net), 3, [1])
        assert_run_matches_chain(run, scalar_chain(one_round(net), 3, 1))
        assert run.tables_for_round(2)[0].gate_index >= 2 * len(net.gates)

    def test_needs_at_least_one_session(self):
        with pytest.raises(GCProtocolError):
            run_plan_garble(one_round(build_mac_netlist(4)), 1, [])


class TestOnRandomCircuits:
    @given(netlist_with_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_vector_equals_sequential(self, case, seed):
        net, _g, _e = case
        [run] = run_plan_garble(one_round(net), 1, [seed])
        assert_run_matches_chain(run, [scalar_garble(net, seed)])

    @given(netlist_with_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_vector_tables_decode_to_plaintext(self, case, seed):
        """Evaluating the run plan's tables with the scalar evaluator
        yields the plaintext result under the run's decode bits."""
        net, g_bits, e_bits = case
        [run] = run_plan_garble(one_round(net), 1, [seed])
        meta = run.rounds[0]
        labels = {}
        for w, pair, bit in zip(net.garbler_inputs, meta.garbler_pairs, g_bits):
            labels[w] = pair.select(bit)
        for w, pair, bit in zip(net.evaluator_inputs, meta.evaluator_pairs, e_bits):
            labels[w] = pair.select(bit)
        result = Evaluator(net).evaluate(
            run.tables_for_round(0), labels, run.output_permute_bits
        )
        assert result.output_bits == net.evaluate_plain(g_bits, e_bits)


@st.composite
def random_sequential_circuits(draw):
    """A random netlist whose first garbler inputs become state inputs,
    each fed by a random output of the previous round, plus a run
    length and a seed: the sequential carry-over (preset state pairs,
    per-round tweaks) on arbitrary wiring."""
    net = draw(random_netlists())
    n_state = draw(st.integers(0, len(net.garbler_inputs)))
    net.state_inputs = net.garbler_inputs[:n_state]
    net.garbler_inputs = net.garbler_inputs[n_state:]
    feedback = [
        draw(st.integers(0, len(net.outputs) - 1)) for _ in range(n_state)
    ]
    circuit = SequentialCircuit(net, state_feedback=feedback)
    n_rounds = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return circuit, n_rounds, seed


class TestPresetAndTweakProperty:
    @given(random_sequential_circuits())
    @settings(max_examples=60, deadline=None)
    def test_vector_equals_sequential_under_presets(self, case):
        circuit, n_rounds, seed = case
        [run] = run_plan_garble(circuit, n_rounds, [seed])
        assert_run_matches_chain(run, scalar_chain(circuit, n_rounds, seed))


class TestMultiSession:
    @given(random_sequential_circuits(), st.lists(st.integers(0, 2**32 - 1),
                                                  min_size=2, max_size=5, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_each_session_matches_its_own_sequential_run(self, case, seeds):
        """One run-plan garbling of S sessions == S independent scalar
        chains: the session axis adds throughput, never cross-talk."""
        circuit, n_rounds, _ = case
        runs = run_plan_garble(circuit, n_rounds, seeds)
        for run, seed in zip(runs, seeds):
            assert_run_matches_chain(run, scalar_chain(circuit, n_rounds, seed))

    def test_one_aes_batch_call_per_stage_regardless_of_sessions(self):
        circuit = one_round(build_mac_netlist(8))
        stages = stage_plan.run_plan_for(circuit, 1).n_stages
        for n_sessions in (1, 3, 7):
            tm = MetricsRegistry()
            run_plan_garble(circuit, 1, range(n_sessions), telemetry=tm)
            assert tm.counter("gc.aes_batch_calls").value == stages


class TestChainedMacRounds:
    """``garble_mac_runs`` vs the scalar round chain (state feedback
    presets + per-round tweak offsets), per session and per round."""

    @pytest.mark.parametrize("bitwidth,n_rounds", [(4, 3), (8, 2)])
    def test_chained_rounds_bit_identical(self, bitwidth, n_rounds):
        circuit = build_scheduled_mac(bitwidth).circuit
        seeds = [13, 977]
        runs = run_plan_garble(circuit, n_rounds, seeds)
        for run, seed in zip(runs, seeds):
            assert_run_matches_chain(run, scalar_chain(circuit, n_rounds, seed))

    def test_rejects_zero_rounds(self):
        with pytest.raises(GCProtocolError):
            garble_mac_runs(build_scheduled_mac(4).circuit, 0, [LabelFactory()])


class TestEndToEndMac:
    def test_vectorized_run_evaluates_a_full_mac(self):
        """Drive the scalar evaluator round-by-round over a run-plan run
        and check the accumulated plaintext dot product."""
        circuit = build_scheduled_mac(8).circuit
        net = circuit.netlist
        [run] = run_plan_garble(circuit, 3, [29])
        weights, xs = [3, -5, 7], [2, 4, -6]
        feedback = circuit.state_feedback
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
    """A ``build_sequential_mac`` circuit with the given multiplier."""
    return build_sequential_mac(bitwidth, kind=kind)


class TestRunPlan:
    """``garble_mac_runs`` garbles every round of every session in one
    pass on the run plan; each round's tables must be the bytes the
    round-by-round scalar chain produces."""

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
        seeds = [seed + i for i in range(n_sessions)]
        runs = run_plan_garble(circuit, n_rounds, seeds)
        for run, sd in zip(runs, seeds):
            assert_run_matches_chain(run, scalar_chain(circuit, n_rounds, sd))

    def test_windows_chain_like_rounds(self, monkeypatch):
        """A run longer than the window is garbled window by window, each
        window's state inputs carrying the last one's feedback labels."""
        monkeypatch.setattr(stage_plan, "RUN_WINDOW", 5)
        circuit = sequential_mac("tree")
        [run] = run_plan_garble(circuit, 12, [8])
        assert [w.plan.n_rounds for w in run.windows] == [5, 5, 2]
        assert_run_matches_chain(run, scalar_chain(circuit, 12, 8))

    def test_scheduled_mac_run_matches_scalar_chain(self):
        circuit = build_scheduled_mac(8, 19).circuit
        [run] = run_plan_garble(circuit, 4, [1])
        assert_run_matches_chain(run, scalar_chain(circuit, 4, 1))

    def test_processor_round_matches_scalar_chain(self):
        """A generic sequential circuit, not a MAC: the garbled
        processor's round (register file as state) over six rounds."""
        circuit = build_processor_round(8)
        [run] = run_plan_garble(circuit, 6, [5])
        assert_run_matches_chain(run, scalar_chain(circuit, 6, 5))


class TestFsmModel:
    """The paper's FSM model garbles the same bytes as the run plan."""

    @given(st.sampled_from([4, 8]), st.integers(1, 5), st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_fsm_garble_equals_run_plan_at_the_same_seed(self, bitwidth, n_rounds, seed):
        fsm = MAXelerator(bitwidth, seed=seed).garble(n_rounds)
        [run] = MAXelerator(bitwidth, seed=seed).garble_vectorized(n_rounds)
        assert run.offset == fsm.offset
        for r in range(n_rounds):
            assert bytes(run.tables_payload(r)) == bytes(fsm.tables_payload(r))
            assert run.rounds[r] == fsm.rounds[r]
        assert run.output_permute_bits == fsm.output_permute_bits
        assert run.hash_calls == fsm.hash_calls


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
