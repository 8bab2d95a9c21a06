"""Garbling hash and wire-label algebra tests."""

import random
import sys
import threading

import numpy as np
import pytest

from repro.crypto.labels import (
    K_BITS,
    LabelFactory,
    LabelPair,
    color,
    random_label,
    random_offset,
)
from repro.crypto.prf import MASK128, GarblingHash, gf_double, make_tweak
from repro.errors import CryptoError


class TestGfDouble:
    def test_simple_shift(self):
        assert gf_double(1) == 2
        assert gf_double(0) == 0

    def test_reduction_on_msb(self):
        assert gf_double(1 << 127) == 0x87

    def test_stays_in_field(self):
        rng = random.Random(1)
        for _ in range(100):
            v = rng.getrandbits(128)
            assert 0 <= gf_double(v) <= MASK128

    def test_linear_over_xor(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b = rng.getrandbits(128), rng.getrandbits(128)
            assert gf_double(a ^ b) == gf_double(a) ^ gf_double(b)


class TestGarblingHash:
    def test_deterministic(self):
        h = GarblingHash()
        assert h(12345, 1) == GarblingHash()(12345, 1)

    def test_tweak_separates_calls(self):
        h = GarblingHash()
        assert h(12345, 1) != h(12345, 2)

    def test_label_separates_calls(self):
        h = GarblingHash()
        assert h(1, 7) != h(2, 7)

    def test_output_is_128_bits(self):
        h = GarblingHash()
        for i in range(20):
            assert 0 <= h(i * 999331, i) <= MASK128

    def test_batch_matches_scalar(self):
        h = GarblingHash()
        rng = random.Random(3)
        labels = [rng.getrandbits(128) for _ in range(64)]
        tweaks = list(range(64))
        batch = GarblingHash().hash_many(labels, tweaks)
        scalar = [h(l, t) for l, t in zip(labels, tweaks)]
        assert batch == scalar

    def test_batch_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            GarblingHash().hash_many([1, 2], [3])

    def test_call_counter(self):
        h = GarblingHash()
        h(1, 2)
        h.hash_many([3, 4], [5, 6])
        assert h.calls == 3


class TestSharedHashAcrossThreads:
    """The gateway's serve and refill threads hash on one cipher: each
    thread's batches must still match the scalar oracle exactly."""

    THREADS, BATCHES, BLOCKS = 4, 25, 48

    def test_four_threads_share_one_hash(self):
        shared = GarblingHash()
        oracle = GarblingHash()
        rng = np.random.default_rng(11)
        work = []
        for _ in range(self.THREADS):
            batches = []
            for _ in range(self.BATCHES):
                labels = rng.integers(0, 2**64, size=(self.BLOCKS, 2), dtype=np.uint64)
                tweaks = rng.integers(0, 2**64, size=(self.BLOCKS, 2), dtype=np.uint64)
                expected = [
                    oracle(
                        (int(l[0]) << 64) | int(l[1]),
                        (int(t[0]) << 64) | int(t[1]),
                    )
                    for l, t in zip(labels, tweaks)
                ]
                batches.append((labels, tweaks, expected))
            work.append(batches)
        barrier = threading.Barrier(self.THREADS)
        mismatches = [0] * self.THREADS

        def hammer(i):
            barrier.wait()
            for labels, tweaks, expected in work[i]:
                out = shared.hash_words(labels, tweaks)
                got = [(int(hi) << 64) | int(lo) for hi, lo in out]
                mismatches[i] += sum(g != e for g, e in zip(got, expected))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == [0] * self.THREADS
        assert shared.aes.scalar_calls == 0


class TestTweaks:
    def test_unique_per_gate_and_half(self):
        seen = set()
        for gate in range(100):
            for half in (0, 1):
                seen.add(make_tweak(gate, half))
        assert len(seen) == 200


class TestLabels:
    def test_offset_lsb_is_one(self):
        for _ in range(20):
            assert random_offset() & 1 == 1

    def test_pair_relation(self):
        r = random_offset()
        pair = LabelPair(random_label(), r)
        assert pair.one == pair.zero ^ r
        assert pair.select(0) == pair.zero
        assert pair.select(1) == pair.one

    def test_colors_differ(self):
        r = random_offset()
        for _ in range(20):
            pair = LabelPair(random_label(), r)
            assert color(pair.zero) != color(pair.one)

    def test_decode(self):
        pair = LabelPair(random_label(), random_offset())
        assert pair.decode(pair.zero) == 0
        assert pair.decode(pair.one) == 1
        with pytest.raises(CryptoError):
            pair.decode(pair.zero ^ 2)

    def test_even_offset_rejected(self):
        with pytest.raises(CryptoError):
            LabelPair(0, 2)
        with pytest.raises(CryptoError):
            LabelFactory(offset=4)


class TestLabelFactory:
    def test_shared_offset(self):
        factory = LabelFactory()
        pairs = [factory.fresh_pair() for _ in range(10)]
        assert len({p.offset for p in pairs}) == 1
        assert len({p.zero for p in pairs}) == 10

    def test_entropy_accounting(self):
        factory = LabelFactory()
        for _ in range(5):
            factory.fresh_pair()
        assert factory.random_bits_consumed == 5 * K_BITS

    def test_custom_source(self):
        factory = LabelFactory(source=random.Random(42))
        other = LabelFactory(source=random.Random(42))
        assert factory.fresh_pair().zero == other.fresh_pair().zero

    def test_pair_from_zero(self):
        factory = LabelFactory()
        pair = factory.pair_from_zero(123456)
        assert pair.zero == 123456
        assert pair.offset == factory.offset
