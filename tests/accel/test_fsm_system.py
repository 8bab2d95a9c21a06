"""Cycle-accurate FSM execution, end-to-end system, resources, memory."""

import pytest

from repro.accel.engine import GCEngine
from repro.accel.fsm import AcceleratorFSM
from repro.accel.label_generator import LabelGenerator
from repro.accel.maxelerator import MAXelerator, TimingModel
from repro.accel.memory import CoreMemorySimulator
from repro.accel.resources import PAPER_TABLE1, ResourceModel
from repro.accel.tree_mac import build_scheduled_mac
from repro.bits import from_bits, to_bits
from repro.crypto.labels import LabelFactory, color
from repro.crypto.ot import TOY_GROUP
from repro.errors import ConfigurationError, SimulationError
from repro.gc.channel import local_channel, run_two_party
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler
from repro.gc.sequential_gc import SequentialEvaluator, SequentialGarbler


@pytest.fixture(scope="module")
def run8():
    smc = build_scheduled_mac(8)
    return smc, AcceleratorFSM(smc, seed=11).garble_rounds(4)


class TestEngine:
    def test_engine_matches_software_garbler(self):
        # one AND garbled by the engine == the software Garbler's table
        from repro.circuits.builder import NetlistBuilder

        b = NetlistBuilder("and1")
        w1 = b.garbler_input_bus(1)[0]
        w2 = b.evaluator_input_bus(1)[0]
        b.set_outputs([b.AND(w1, w2)])
        net = b.build()
        import random

        factory = LabelFactory(source=random.Random(3))
        gc = Garbler(net, factory=factory).garble()

        factory2 = LabelFactory(source=random.Random(3))
        engine = GCEngine()
        a_pair = factory2.fresh_pair()
        b_pair = factory2.fresh_pair()
        out0, table = engine.garble_and(a_pair.zero, b_pair.zero, factory2.offset, 0)
        assert (table.t_g, table.t_e) == (gc.tables[0].t_g, gc.tables[0].t_e)
        assert out0 == gc.wire_pairs[net.outputs[0]].zero

    def test_engine_stats(self):
        engine = GCEngine()
        engine.garble_and(2, 4, 1 | (1 << 100), 0)
        assert engine.stats.tables_generated == 1
        assert engine.stats.aes_activations == 4


class TestFsmExecution:
    def test_stream_covers_all_gates_all_rounds(self, run8):
        smc, run = run8
        n_nonfree = sum(1 for g in smc.netlist.gates if not g.is_free)
        assert run.total_tables == 4 * n_nonfree

    def test_stream_is_cycle_ordered(self, run8):
        _, run = run8
        keys = [(s.cycle, s.core) for s in run.stream]
        assert keys == sorted(keys)

    def test_cores_did_the_work(self, run8):
        smc, run = run8
        total = sum(c.tables_generated for c in run.cores)
        assert total == run.total_tables
        assert all(c.tables_generated > 0 for c in run.cores)

    def test_label_demand_within_rng_bank_capacity(self, run8):
        # Section 5.2: bank is sized k*(b/2) bits/cycle for the worst case
        _, run = run8
        assert run.label_stats.peak_bits_per_cycle <= run.label_stats.cells

    def test_power_gating_saves_energy(self, run8):
        # on average only ~k bits/cycle are needed -> most cells gated
        _, run = run8
        assert run.label_stats.gated_fraction > 0.5

    def test_state_pairs_chain_rounds(self, run8):
        smc, run = run8
        feedback = smc.circuit.state_feedback
        for r in range(1, 4):
            prev_out = run.rounds[r - 1].output_pairs
            for i, pair in enumerate(run.rounds[r].state_pairs):
                assert pair == prev_out[feedback[i]]


class TestEndToEndEvaluation:
    def test_fsm_stream_evaluates_correctly(self, run8):
        smc, run = run8
        net = smc.netlist
        a_vec = [-57, 120, 3, -99]
        x_vec = [93, -128, -45, 17]
        ev = Evaluator(net)
        n_gates = len(net.gates)
        state_labels = [p.select(0) for p in run.rounds[0].state_pairs]
        for r in range(4):
            labels = {}
            meta = run.rounds[r]
            for w, p, bit in zip(net.garbler_inputs, meta.garbler_pairs, to_bits(a_vec[r], 8)):
                labels[w] = p.select(bit)
            for w, p, bit in zip(net.evaluator_inputs, meta.evaluator_pairs, to_bits(x_vec[r], 8)):
                labels[w] = p.select(bit)
            for w, p in meta.const_pairs.items():
                labels[w] = p.select(net.constants[w])
            for w, l in zip(net.state_inputs, state_labels):
                labels[w] = l
            res = ev.evaluate(run.tables_for_round(r), labels, tweak_offset=r * n_gates)
            state_labels = res.labels_for_state(smc.circuit.state_feedback)
        bits = [
            color(l) ^ p for l, p in zip(res.output_labels, run.output_permute_bits)
        ]
        assert from_bits(bits, signed=True) == sum(a * x for a, x in zip(a_vec, x_vec))

    def test_protocol_with_unmodified_software_client(self):
        # "transparent to the evaluator": the FSM's run streams the
        # sequential-GC wire protocol to the stock SequentialEvaluator
        acc = MAXelerator(8, seed=7)
        g_chan, e_chan = local_channel()
        garbler = SequentialGarbler(acc.circuit.circuit, g_chan, TOY_GROUP)
        client = SequentialEvaluator(acc.circuit.circuit, e_chan, TOY_GROUP)
        a_vec, x_vec = [13, -40, 7], [-3, 2, 110]
        fsm_run = acc.garble(len(a_vec))
        _, e_rep = run_two_party(
            lambda: garbler.run(
                [to_bits(a, 8) for a in a_vec], reveal="both", garbled=fsm_run
            ),
            lambda: client.run([to_bits(x, 8) for x in x_vec], reveal="both"),
        )
        assert from_bits(e_rep.output_bits, signed=True) == sum(
            a * x for a, x in zip(a_vec, x_vec)
        )


class TestTimingModel:
    @pytest.mark.parametrize(
        "b,cycles,time_us,thr,thr_core",
        [
            (8, 24, 0.12, 8.33e6, 1.04e6),
            (16, 48, 0.24, 4.17e6, 2.98e5),
            (32, 96, 0.48, 2.08e6, 8.68e4),
        ],
    )
    def test_table2_maxelerator_column(self, b, cycles, time_us, thr, thr_core):
        t = TimingModel(b)
        assert t.cycles_per_mac == cycles
        assert t.time_per_mac_s * 1e6 == pytest.approx(time_us, rel=0.01)
        assert t.macs_per_second == pytest.approx(thr, rel=0.01)
        assert t.macs_per_second_per_core == pytest.approx(thr_core, rel=0.01)

    def test_matmul_formula(self):
        # Section 4.3: 3*M*N*P*b cycles per matrix product
        t = TimingModel(8)
        assert t.matmul_cycles(2, 3, 4) == 3 * 2 * 3 * 4 * 8

    def test_bad_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            MAXelerator(8, clock_mhz=0)


class TestMemoryModel:
    def test_fast_pcie_not_bottleneck(self, run8):
        smc, run = run8
        sim = CoreMemorySimulator(smc.n_cores, pcie_mb_per_s=60000.0)
        rep = sim.simulate(run.writes_by_cycle())
        assert not rep.pcie_is_bottleneck

    def test_slow_pcie_is_bottleneck(self, run8):
        smc, run = run8
        sim = CoreMemorySimulator(smc.n_cores, pcie_mb_per_s=800.0)
        rep = sim.simulate(run.writes_by_cycle())
        assert rep.pcie_is_bottleneck
        assert rep.transfer_time_s > rep.generation_time_s

    def test_overflow_detected(self, run8):
        smc, run = run8
        sim = CoreMemorySimulator(
            smc.n_cores, pcie_mb_per_s=1.0, block_capacity_tables=1
        )
        with pytest.raises(SimulationError):
            sim.simulate(run.writes_by_cycle())

    def test_empty_run_rejected(self):
        with pytest.raises(SimulationError):
            CoreMemorySimulator(4).simulate({})

    def test_byte_accounting(self, run8):
        smc, run = run8
        rep = CoreMemorySimulator(smc.n_cores, pcie_mb_per_s=60000.0).simulate(
            run.writes_by_cycle()
        )
        assert rep.total_bytes == 32 * run.total_tables


class TestResourceModel:
    def test_fit_quality_lut_ff(self):
        model = ResourceModel()
        for b in PAPER_TABLE1:
            err = model.relative_error(b)
            assert abs(err["LUT"]) < 0.05
            assert abs(err["FF"]) < 0.08

    def test_linear_scaling_claim(self):
        assert ResourceModel().scaling_is_roughly_linear()

    def test_extrapolation_monotone(self):
        model = ResourceModel()
        estimates = [model.estimate(b).lut for b in (8, 16, 32, 64)]
        assert estimates == sorted(estimates)

    def test_bad_width_rejected(self):
        model = ResourceModel()
        with pytest.raises(ConfigurationError):
            model.estimate(7)
        with pytest.raises(ConfigurationError):
            model.relative_error(64)

    def test_report_renders(self):
        text = ResourceModel().model_report()
        assert "LUTRAM" in text and "paper" in text


class TestLabelGenerator:
    def test_bank_size_matches_paper(self):
        gen = LabelGenerator(8)
        assert gen.n_cells == 128 * 4

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            LabelGenerator(3)

    def test_demand_accounting(self):
        gen = LabelGenerator(8, seed=1)
        gen.fresh_pair(0)
        gen.fresh_pair(0)
        gen.fresh_pair(5)
        stats = gen.stats(total_cycles=10)
        assert stats.bits_demanded == 3 * 128
        assert stats.peak_bits_per_cycle == 256
