"""Cross-module integration tests: the whole system end to end."""

import numpy as np
import pytest

from repro import (
    MAXelerator,
    PrivateMatVec,
    Q8_4,
    Q16_8,
    Table2,
    TinyGarbleModel,
    build_scheduled_mac,
    schedule_rounds,
)
from repro.accel.fsm import AcceleratorFSM
from repro.bits import from_bits, to_bits
from repro.crypto.ot import TOY_GROUP
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import SequentialEvaluator, SequentialGarbler


class TestCrossBackendEquality:
    def test_both_backends_agree_bit_exactly(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(-3, 3, size=(2, 3)).round(2)
        x = rng.uniform(-3, 3, size=3).round(2)
        res_hw = PrivateMatVec(a, Q16_8, backend="maxelerator", seed=1).run_with_client(x)
        res_sw = PrivateMatVec(a, Q16_8, backend="tinygarble", seed=1).run_with_client(x)
        np.testing.assert_array_equal(res_hw.result, res_sw.result)

    def test_backends_agree_with_plaintext_quantised(self):
        a = np.array([[0.25, -0.5, 1.75]])
        x = np.array([2.0, 3.0, -1.25])
        pm = PrivateMatVec(a, Q8_4, backend="maxelerator", seed=2)
        assert pm.run_with_client(x).result[0] == pm.expected(x)[0]


class TestSixteenBitSystem:
    def test_full_16bit_dot_product_on_accelerator(self):
        acc = MAXelerator(16, seed=5)
        g_chan, e_chan = local_channel()
        garbler = SequentialGarbler(acc.circuit.circuit, g_chan, TOY_GROUP)
        client = SequentialEvaluator(acc.circuit.circuit, e_chan, TOY_GROUP)
        a_vec = [-30000, 12345, 77]
        x_vec = [2, -3, 999]
        run = acc.garble(len(a_vec))
        _, e_rep = run_two_party(
            lambda: garbler.run([to_bits(a, 16) for a in a_vec], garbled=run),
            lambda: client.run([to_bits(x, 16) for x in x_vec]),
        )
        assert from_bits(e_rep.output_bits, signed=True) == sum(
            a * x for a, x in zip(a_vec, x_vec)
        )
        # timing metadata from the run is consistent with Table 2
        assert run.schedule.steady_state_cycles_per_mac == 48


class TestAccountingConsistency:
    def test_bytes_tables_hashes_line_up(self):
        acc = MAXelerator(8, seed=6)
        run = acc.garble(3)
        n_ands = sum(1 for g in acc.circuit.netlist.gates if not g.is_free)
        assert run.total_tables == 3 * n_ands
        # 4 AES activations per table across all engines
        aes = sum(c.engine.stats.aes_activations for c in run.cores)
        assert aes == 4 * run.total_tables
        # PCIe bytes = 32 per table
        assert acc.transfer_report(run).total_bytes == 32 * run.total_tables

    def test_schedule_and_fsm_agree_on_cycles(self):
        smc = build_scheduled_mac(8)
        schedule = schedule_rounds(smc, 4)
        run = AcceleratorFSM(smc, seed=7).garble_rounds(4, schedule)
        assert run.total_cycles == schedule.total_cycles
        assert {(s.cycle, s.core) for s in run.stream} == {
            (op.cycle, op.core) for op in schedule.ops
        }

    def test_table2_consistent_with_models(self):
        table = Table2.build()
        tg = TinyGarbleModel(8)
        assert table.row("tinygarble", 8).time_per_mac_s == tg.time_per_mac_s
        acc = MAXelerator(8)
        assert table.row("maxelerator", 8).cycles_per_mac == acc.timing.cycles_per_mac


class TestDeterminism:
    def test_seeded_runs_are_reproducible(self):
        a = np.array([[1.0, -1.0]])
        x = np.array([0.5, 0.25])
        r1 = PrivateMatVec(a, Q8_4, seed=42).run_with_client(x)
        r2 = PrivateMatVec(a, Q8_4, seed=42).run_with_client(x)
        np.testing.assert_array_equal(r1.result, r2.result)

    def test_different_seeds_give_fresh_tables_same_result(self):
        acc1 = MAXelerator(8, seed=1)
        acc2 = MAXelerator(8, seed=2)
        run1, run2 = acc1.garble(1), acc2.garble(1)
        assert run1.stream[0].table != run2.stream[0].table
        assert run1.total_tables == run2.total_tables

    def test_repeated_garblings_never_reuse_labels(self):
        # regression: even under a fixed seed, each garble() must use
        # fresh labels (label reuse across garblings breaks GC security)
        acc = MAXelerator(8, seed=42)
        run1, run2 = acc.garble(1), acc.garble(1)
        assert run1.stream[0].table != run2.stream[0].table
        assert run1.offset != run2.offset
