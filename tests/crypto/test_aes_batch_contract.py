"""The batch AES contract: explicit layout handling, counted invocations.

Two invariants guard the vectorised garbling hot path:

1. ``AES128.encrypt_words`` never silently degrades on a non-contiguous
   or mistyped input — it either copies *explicitly* (``allow_copy=True``)
   or raises ``CryptoError`` (``allow_copy=False``, the setting the
   garbling hash uses).
2. One topological stage is ONE AES invocation, regardless of how many
   gates or sessions ride in it — proven from the cipher's own
   ``batch_calls`` counter and the ``gc.aes_batch_calls`` telemetry, on
   the garbler and on the evaluator alike.

The batch kernel itself is pinned to the FIPS-197 vectors and to the
scalar ``encrypt_block`` on random batches of every awkward size, in
both word layouts.
"""

import random

import numpy as np
import pytest

from repro.accel.tree_mac import build_scheduled_mac
from repro.bits import to_bits
from repro.crypto.aes import AES128
from repro.crypto.labels import LabelFactory
from repro.crypto.prf import FIXED_KEY, GarblingHash
from repro.errors import CryptoError
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import (
    SequentialEvaluator,
    SequentialStreamer,
    materials_for_run,
)
from repro.circuits.sequential import SequentialCircuit
from repro.gc.stage_plan import run_plan_for, stage_plan_for
from repro.gc.vector_garble import decode_tables, evaluate_run, garble_mac_runs
from repro.telemetry import MetricsRegistry


def _blocks(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=(n, 4), dtype=np.uint32)


def _as_u64(words32):
    """(n, 4) uint32 column words -> (n, 2) uint64 [hi, lo] halves."""
    w = words32.astype(np.uint64)
    return np.stack([(w[:, 0] << np.uint64(32)) | w[:, 1],
                     (w[:, 2] << np.uint64(32)) | w[:, 3]], axis=1)


def _scalar(aes, words32):
    """The scalar path, block by block, in the uint32 layout."""
    out = np.empty_like(words32)
    for i, row in enumerate(words32):
        block = aes.encrypt_block(b"".join(int(w).to_bytes(4, "big") for w in row))
        out[i] = np.frombuffer(block, dtype=">u4")
    return out


class TestBatchKernel:
    @pytest.mark.parametrize(
        "key,plain,cipher",
        [
            ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
             "3925841d02dc09fbdc118597196a0b32"),
            ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
             "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ],
        ids=["fips-b", "fips-c1"],
    )
    def test_fips197_vectors_in_both_layouts(self, key, plain, cipher):
        aes = AES128(bytes.fromhex(key))
        words = np.frombuffer(bytes.fromhex(plain), dtype=">u4").astype(np.uint32)[None]
        expected = np.frombuffer(bytes.fromhex(cipher), dtype=">u4").astype(np.uint32)[None]
        np.testing.assert_array_equal(aes.encrypt_words(words), expected)
        np.testing.assert_array_equal(aes.encrypt_words(_as_u64(words)), _as_u64(expected))
        assert aes.encrypt_blocks(bytes.fromhex(plain)) == bytes.fromhex(cipher)

    @pytest.mark.parametrize("n", [0, 1, 3, 64, 1025, 4097])
    def test_random_batches_match_the_scalar_path(self, n):
        aes = AES128(FIXED_KEY)
        words = _blocks(n, seed=n)
        expected = _scalar(aes, words)
        out32 = aes.encrypt_words(words, allow_copy=False)
        assert out32.dtype == np.uint32 and out32.shape == (n, 4)
        np.testing.assert_array_equal(out32, expected)
        out64 = aes.encrypt_words(_as_u64(words), allow_copy=False)
        assert out64.dtype == np.uint64 and out64.shape == (n, 2)
        np.testing.assert_array_equal(out64, _as_u64(expected))
        assert aes.batch_calls == 2 and aes.batch_blocks == 2 * n

    @pytest.mark.parametrize("n", [2, 3, 64, 1025])
    @pytest.mark.parametrize("layout", ["u32", "u64"])
    def test_non_contiguous_batches(self, n, layout):
        """A strided view is copied when allowed — and then matches the
        scalar path — or refused without touching the engine."""
        aes = AES128(FIXED_KEY)
        base = _blocks(2 * n, seed=n)
        expected = _scalar(aes, base[::2])
        strided = (base if layout == "u32" else _as_u64(base))[::2]
        assert not strided.flags.c_contiguous
        with pytest.raises(CryptoError, match="C-contiguous"):
            aes.encrypt_words(strided, allow_copy=False)
        assert aes.batch_calls == 0
        out = aes.encrypt_words(strided, allow_copy=True)
        want = expected if layout == "u32" else _as_u64(expected)
        np.testing.assert_array_equal(out, want)


class TestExplicitLayoutContract:
    def test_batch_matches_scalar_path(self):
        aes = AES128(FIXED_KEY)
        words = _blocks(17)
        enc = aes.encrypt_words(words)
        for row, out in zip(words, enc):
            block = b"".join(int(w).to_bytes(4, "big") for w in row)
            assert aes.encrypt_block(block) == b"".join(
                int(w).to_bytes(4, "big") for w in out
            )

    def test_non_contiguous_rejected_without_allow_copy(self):
        aes = AES128(FIXED_KEY)
        strided = _blocks(32)[::2]  # every other row: not C-contiguous
        assert not strided.flags.c_contiguous
        with pytest.raises(CryptoError, match="C-contiguous"):
            aes.encrypt_words(strided, allow_copy=False)
        assert aes.batch_calls == 0  # rejected before touching the engine

    def test_wrong_dtype_rejected_without_allow_copy(self):
        aes = AES128(FIXED_KEY)
        with pytest.raises(CryptoError, match="uint32"):
            aes.encrypt_words(
                _blocks(4).astype(np.uint64), allow_copy=False
            )

    def test_allow_copy_copies_explicitly_and_matches(self):
        aes = AES128(FIXED_KEY)
        base = _blocks(32)
        strided = base[::2]
        copied = aes.encrypt_words(strided, allow_copy=True)
        direct = aes.encrypt_words(np.ascontiguousarray(strided))
        np.testing.assert_array_equal(copied, direct)

    def test_bad_shape_rejected(self):
        aes = AES128(FIXED_KEY)
        with pytest.raises(CryptoError, match="shape"):
            aes.encrypt_words(np.zeros((4, 3), dtype=np.uint32))

    def test_counters_count_invocations_not_blocks(self):
        aes = AES128(FIXED_KEY)
        aes.encrypt_words(_blocks(100))
        aes.encrypt_words(_blocks(7))
        assert aes.batch_calls == 2
        assert aes.batch_blocks == 107
        assert aes.scalar_calls == 0


class TestOneInvocationPerStage:
    def _mac_circuit(self):
        """The (stateless) MAC netlist as a one-round sequential circuit."""
        from repro.circuits.mac import build_mac_netlist

        return SequentialCircuit(build_mac_netlist(8), state_feedback=[])

    @pytest.mark.parametrize("n_sessions", [1, 2, 8])
    def test_cipher_counter_one_call_per_stage(self, n_sessions):
        """Adding sessions must not add AES invocations — only blocks
        per invocation."""
        circuit = self._mac_circuit()
        plan = run_plan_for(circuit, 1)
        hash_fn = GarblingHash()
        factories = [
            LabelFactory(source=random.Random(s)) for s in range(n_sessions)
        ]
        garble_mac_runs(circuit, 1, factories, hash_fn=hash_fn)
        assert hash_fn.aes.batch_calls == plan.n_stages
        assert hash_fn.batch_calls == plan.n_stages
        assert hash_fn.aes.scalar_calls == 0
        # per-element accounting still matches the scalar garbler's
        assert hash_fn.calls == n_sessions * 4 * plan.n_and
        assert hash_fn.aes.batch_blocks == n_sessions * 4 * plan.n_and

    def test_one_call_per_run_stage(self):
        """A whole MAC run is one pass over its run plan: neither rounds
        nor sessions add AES invocations."""
        from repro.accel.tree_mac import build_scheduled_mac

        circuit = build_scheduled_mac(8).circuit
        n_stages = run_plan_for(circuit, 3).n_stages
        for n_sessions in (1, 3):
            tm = MetricsRegistry()
            factories = [
                LabelFactory(source=random.Random(s)) for s in range(n_sessions)
            ]
            garble_mac_runs(circuit, 3, factories, telemetry=tm)
            assert tm.counter("gc.aes_batch_calls").value == n_stages
            assert tm.counter("gc.vector_sessions").value == n_sessions

    @pytest.mark.parametrize("n_rounds", [1, 3])
    def test_evaluator_one_hash_words_call_per_and_stage(self, n_rounds):
        """The client mirrors the garbler: each AND stage of the run is
        one ``hash_words`` call (two blocks per gate), no scalar AES."""
        circuit = build_scheduled_mac(8).circuit
        net = circuit.netlist
        [run] = garble_mac_runs(
            circuit, n_rounds, [LabelFactory(source=random.Random(5))]
        )
        n_and = stage_plan_for(net).n_and
        inputs, tables = [], []
        for r in range(n_rounds):
            meta = run.rounds[r]
            labels = {}
            for wires, pairs in (
                (net.garbler_inputs, meta.garbler_pairs),
                (net.evaluator_inputs, meta.evaluator_pairs),
            ):
                labels.update({w: p.zero for w, p in zip(wires, pairs)})
            labels.update({w: p.zero for w, p in meta.const_pairs.items()})
            inputs.append(labels)
            tables.append(decode_tables(run.tables_payload(r), n_and))
        state = [p.zero for p in run.rounds[0].state_pairs]
        hash_fn = GarblingHash()
        evaluate_run(circuit, 0, state, inputs, tables, hash_fn=hash_fn)
        n_stages = run_plan_for(circuit, n_rounds).n_stages
        assert hash_fn.batch_calls == n_stages
        assert hash_fn.aes.batch_calls == n_stages
        assert hash_fn.aes.batch_blocks == n_rounds * 2 * n_and
        assert hash_fn.aes.scalar_calls == 0

    def test_hash_words_refuses_copies_on_the_hot_path(self):
        """hash_words hands the cipher an already-contiguous buffer; the
        allow_copy=False setting would surface any regression as an
        error instead of a silent slow copy."""
        hash_fn = GarblingHash()
        labels = np.array([[1, 2], [3, 4]], dtype=np.uint64)
        tweaks = np.array([[0, 5], [0, 6]], dtype=np.uint64)
        out = hash_fn.hash_words(labels, tweaks)
        assert out.shape == (2, 2)
        assert hash_fn.batch_calls == 1
        # bit-identical to the scalar hash
        scalar = GarblingHash()
        for row_l, row_t, row_o in zip(labels, tweaks, out):
            l = (int(row_l[0]) << 64) | int(row_l[1])
            t = (int(row_t[0]) << 64) | int(row_t[1])
            o = (int(row_o[0]) << 64) | int(row_o[1])
            assert scalar(l, t) == o

    def test_hash_words_empty_batch_is_free(self):
        hash_fn = GarblingHash()
        out = hash_fn.hash_words(
            np.zeros((0, 2), dtype=np.uint64), np.zeros((0, 2), dtype=np.uint64)
        )
        assert out.shape == (0, 2)
        assert hash_fn.batch_calls == 0
        assert hash_fn.aes.batch_calls == 0


class TestRunPlanCallCount:
    """Regression pin: a query costs about one round's AND depth of AES
    calls on each party, not M times it (the perfbench circuit: Q8.4,
    b = 8 with a 19-bit accumulator)."""

    def _perfbench_circuit(self):
        return build_scheduled_mac(8, 19)

    def test_garbling_and_evaluating_one_run_each_take_one_call_per_run_stage(self):
        scheduled = self._perfbench_circuit()
        n_stages = run_plan_for(scheduled.circuit, 4).n_stages
        assert n_stages <= 25
        g_hash = GarblingHash()
        [run] = garble_mac_runs(
            scheduled.circuit, 4, [LabelFactory(source=random.Random(3))],
            hash_fn=g_hash,
        )
        assert g_hash.batch_calls == g_hash.aes.batch_calls == n_stages

        weights, xs = [3, -5, 7, 1], [2, 4, -6, 9]
        g_chan, e_chan = local_channel(recv_timeout_s=10.0)
        evaluator = SequentialEvaluator(scheduled.circuit, e_chan)
        e_hash = evaluator.hash
        stream = SequentialStreamer(
            g_chan,
            materials_for_run(run, [to_bits(w, 8) for w in weights]),
            run.output_permute_bits,
        )
        _, report = run_two_party(
            stream.run, lambda: evaluator.run([to_bits(x, 8) for x in xs])
        )
        assert e_hash.batch_calls == e_hash.aes.batch_calls == n_stages
        assert e_hash.aes.scalar_calls == 0
        assert report.hash_calls == 4 * 2 * run_plan_for(scheduled.circuit, 1).n_and

    #: one AND level per accumulator carry between rounds: the bound
    #: the pipelined run must stay within
    CARRY_LAG = 1

    @pytest.mark.parametrize("n_rounds,expected", [(4, 20), (16, 20), (64, 20)])
    def test_and_stages_stay_at_one_round_depth(self, n_rounds, expected):
        circuit = self._perfbench_circuit().circuit
        depth = run_plan_for(circuit, 1).n_stages
        n_stages = run_plan_for(circuit, n_rounds).n_stages
        assert n_stages == expected
        assert n_stages <= depth + (n_rounds - 1) * self.CARRY_LAG
