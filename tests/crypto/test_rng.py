"""Ring-oscillator RNG simulation and NIST-style battery tests."""

import hashlib

import numpy as np
import pytest

from repro.crypto.randomness_tests import (
    ALL_TESTS,
    BatteryResult,
    run_battery,
)
from repro.crypto.rng import RingOscillator, RingOscillatorRNG, TRNGSeededDRBG
from repro.errors import ConfigurationError


class TestRingOscillator:
    def test_even_inverter_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            RingOscillator(5.0, rng, inverters=4)

    def test_sample_is_binary(self):
        ring = RingOscillator(5.0, np.random.default_rng(1))
        assert all(ring.sample() in (0, 1) for _ in range(100))

    def test_vectorised_sampling_is_binary_and_sized(self):
        ring = RingOscillator(5.0, np.random.default_rng(2))
        bits = ring.sample_bits(1000)
        assert bits.shape == (1000,)
        assert set(np.unique(bits)) <= {0, 1}


class TestRingOscillatorRNG:
    def test_needs_at_least_one_ring(self):
        with pytest.raises(ConfigurationError):
            RingOscillatorRNG(num_ros=0)

    def test_bit_accounting(self):
        trng = RingOscillatorRNG(seed=3)
        trng.bit()
        trng.bits(10)
        assert trng.bits_produced == 11

    def test_bytes_length(self):
        trng = RingOscillatorRNG(seed=4)
        assert len(trng.bytes(32)) == 32

    def test_output_roughly_balanced(self):
        trng = RingOscillatorRNG(seed=5)
        bits = trng.bits(20000)
        assert 0.45 < bits.mean() < 0.55

    def test_passes_battery(self):
        # The headline claim of Section 5.2: the RO-RNG passes the NIST
        # battery.  20 kbit keeps the test quick but meaningful.
        trng = RingOscillatorRNG(seed=6)
        result = run_battery(trng.bits(20000))
        assert result.passed, str(result)


class TestDRBG:
    def test_deterministic_from_seed(self):
        a = TRNGSeededDRBG(seed=bytes(range(16)))
        b = TRNGSeededDRBG(seed=bytes(range(16)))
        assert a.random_bytes(100) == b.random_bytes(100)

    def test_getrandbits_width(self):
        drbg = TRNGSeededDRBG(seed=bytes(16))
        for k in (1, 7, 128, 129):
            assert drbg.getrandbits(k) < (1 << k)

    def test_bad_seed_length(self):
        with pytest.raises(ConfigurationError):
            TRNGSeededDRBG(seed=b"short")

    def test_seeds_from_trng(self):
        drbg = TRNGSeededDRBG(trng=RingOscillatorRNG(seed=7))
        assert len(drbg.random_bytes(16)) == 16

    def test_passes_battery(self):
        drbg = TRNGSeededDRBG(seed=b"\x42" * 16)
        bits = np.unpackbits(np.frombuffer(drbg.random_bytes(4000), dtype=np.uint8))
        assert run_battery(bits).passed


class TestDRBGStream:
    """The first 4 KiB of two seeded streams, recorded from the
    loop-built counter blocks and whole-pool re-slicing that preceded
    the vectorised refill: draws of any size read the same stream."""

    GOLDEN = {
        bytes(range(16)): "8a0e8a514e748aba01b579326622143542ff39e9928ffb5024805da3b3b7a897",
        b"\x42" * 16: "e73ea1bd47581fec299142b87edc2ebd07cf427b2523ca27ea3a782d3e9a6bfc",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN), ids=["counting", "0x42"])
    def test_first_4kib_match_the_pinned_digest(self, seed):
        stream = TRNGSeededDRBG(seed=seed).random_bytes(4096)
        assert hashlib.sha256(stream).hexdigest() == self.GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN), ids=["counting", "0x42"])
    def test_uneven_draws_read_the_same_stream(self, seed):
        drbg = TRNGSeededDRBG(seed=seed)
        sizes = [1, 15, 16, 17, 0, 1023, 5, 2048, 3]
        chunks = [drbg.random_bytes(n) for n in sizes]
        assert [len(c) for c in chunks] == sizes
        chunks.append(drbg.random_bytes(4096 - sum(sizes)))
        stream = b"".join(chunks)
        assert hashlib.sha256(stream).hexdigest() == self.GOLDEN[seed]

    def test_getrandbits_reads_the_stream_big_endian(self):
        seed = bytes(range(16))
        head = TRNGSeededDRBG(seed=seed).random_bytes(32)
        drbg = TRNGSeededDRBG(seed=seed)
        assert drbg.getrandbits(128) == int.from_bytes(head[:16], "big")
        assert drbg.getrandbits(4) == head[16] >> 4


class TestBattery:
    def test_all_ones_fails(self):
        bits = np.ones(20000, dtype=np.uint8)
        result = run_battery(bits)
        assert not result.passed
        assert "monobit" in result.failures

    def test_alternating_fails_runs(self):
        bits = np.tile(np.array([0, 1], dtype=np.uint8), 10000)
        result = run_battery(bits)
        assert not result.passed

    def test_periodic_fails_spectral_or_serial(self):
        pattern = np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
        bits = np.tile(pattern, 2500)
        result = run_battery(bits)
        assert not result.passed

    def test_good_sequence_passes_each_test(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 20000).astype(np.uint8)
        for name, fn in ALL_TESTS.items():
            assert fn(bits) >= 0.01, name

    def test_too_short_sequence_raises(self):
        with pytest.raises(ConfigurationError):
            run_battery(np.ones(10, dtype=np.uint8))

    def test_result_string_rendering(self):
        result = BatteryResult({"monobit": 0.5, "runs": 0.001})
        text = str(result)
        assert "FAIL" in text and "monobit" in text


class TestMatrixRank:
    def test_random_sequence_passes(self):
        from repro.crypto.randomness_tests import binary_matrix_rank

        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, 32 * 32 * 40).astype(np.uint8)
        assert binary_matrix_rank(bits) >= 0.01

    def test_low_rank_sequence_fails(self):
        from repro.crypto.randomness_tests import binary_matrix_rank

        # constant rows -> every matrix far from full rank
        bits = np.tile(np.ones(32, dtype=np.uint8), 32 * 40)
        assert binary_matrix_rank(bits) < 0.01

    def test_gf2_rank_helper(self):
        from repro.crypto.randomness_tests import _gf2_rank

        eye = np.eye(8, dtype=np.uint8)
        assert _gf2_rank(eye) == 8
        assert _gf2_rank(np.zeros((8, 8), dtype=np.uint8)) == 0
        dup = eye.copy()
        dup[7] = dup[0]
        assert _gf2_rank(dup) == 7

    def test_included_in_battery(self):
        from repro.crypto.randomness_tests import ALL_TESTS

        assert "binary_matrix_rank" in ALL_TESTS

    def test_trng_passes_rank_test(self):
        from repro.crypto.randomness_tests import binary_matrix_rank
        from repro.crypto.rng import TRNGSeededDRBG

        drbg = TRNGSeededDRBG(seed=b"\x21" * 16)
        bits = np.unpackbits(
            np.frombuffer(drbg.random_bytes(32 * 32 * 40 // 8), dtype=np.uint8)
        )
        assert binary_matrix_rank(bits) >= 0.01
