"""The RNS transform's ring products against the schoolbook oracle,
over moduli on both sides of every machine-word boundary."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CryptoError
from repro.he.ntt import (
    RESIDUE_PRIME_BITS,
    NegacyclicNTT,
    find_ntt_prime,
    is_probable_prime,
    negacyclic_mul_schoolbook,
    residue_primes,
)

#: q bit sizes: word-sized, around 2**63 and 2**64, and the
#: multi-word moduli the 32-bit fixed-point format derives
MODULUS_BITS = (20, 40, 62, 63, 64, 65, 100, 140)
DEGREES = (2, 4, 8, 16, 32, 64)


@lru_cache(maxsize=None)
def _ntt(bits: int, n: int) -> NegacyclicNTT:
    return NegacyclicNTT(find_ntt_prime(bits, n), n)


rings = st.builds(_ntt, st.sampled_from(MODULUS_BITS), st.sampled_from(DEGREES))


def _poly(ntt, rng):
    return [rng.randrange(ntt.q) for _ in range(ntt.n)]


class TestMultiplyMatchesSchoolbook:
    @settings(max_examples=80, deadline=None)
    @given(rings, st.integers(0, 2**32 - 1))
    def test_random_operands(self, ntt, seed):
        rng = random.Random(seed)
        a, b = _poly(ntt, rng), _poly(ntt, rng)
        assert ntt.multiply(a, b) == negacyclic_mul_schoolbook(a, b, ntt.q)

    @pytest.mark.parametrize("bits", MODULUS_BITS)
    @pytest.mark.parametrize("n", DEGREES)
    def test_all_max_operands(self, bits, n):
        """(q-1) everywhere: exact coefficients of the largest magnitude."""
        ntt = _ntt(bits, n)
        a = [ntt.q - 1] * n
        assert ntt.multiply(a, a) == negacyclic_mul_schoolbook(a, a, ntt.q)

    @settings(max_examples=60, deadline=None)
    @given(rings, st.data())
    def test_monomials_wrap_past_x_to_the_n(self, ntt, data):
        """x^i * x^j with i + j >= N lands on x^(i+j-N) with its sign
        flipped: the exact coefficient is negative."""
        n, q = ntt.n, ntt.q
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(n - i, n - 1))
        ca, cb = data.draw(st.integers(1, q - 1)), data.draw(st.integers(1, q - 1))
        a, b = [0] * n, [0] * n
        a[i], b[j] = ca, cb
        expect = [0] * n
        expect[i + j - n] = -(ca * cb) % q
        assert ntt.multiply(a, b) == expect == negacyclic_mul_schoolbook(a, b, q)


class TestTransformShape:
    @pytest.mark.parametrize("bits", (62, 140))
    def test_batched_transforms_match_single_ones(self, bits):
        ntt = _ntt(bits, 64)
        rng = random.Random(bits)
        a, b, w = _poly(ntt, rng), _poly(ntt, rng), _poly(ntt, rng)
        batch = ntt.forward([a, b])
        assert batch.shape == (2, ntt.k, ntt.n)
        assert np.array_equal(batch[0], ntt.forward(a))
        assert np.array_equal(batch[1], ntt.forward(b))
        products = ntt.inverse(ntt.pointwise(batch, ntt.forward(w)))
        assert products == [ntt.multiply(a, w), ntt.multiply(b, w)]

    def test_residue_shape_is_checked(self):
        ntt = _ntt(62, 32)
        with pytest.raises(CryptoError):
            ntt.inverse(np.zeros((ntt.k + 1, ntt.n), dtype=np.uint64))
        with pytest.raises(CryptoError):
            ntt.forward([[0] * 32, [0] * 16])


class TestResiduePrimes:
    @pytest.mark.parametrize("bits", MODULUS_BITS)
    @pytest.mark.parametrize("n", (2, 64, 512))
    def test_least_word_sized_basis(self, bits, n):
        q = find_ntt_prime(bits, n)
        primes = NegacyclicNTT(q, n).primes
        bound = 2 * n * q * q
        assert np.prod(primes, dtype=object) > bound
        assert np.prod(primes[:-1], dtype=object) <= bound
        for p in primes:
            assert p < 1 << RESIDUE_PRIME_BITS
            assert (p - 1) % (2 * n) == 0
            assert is_probable_prime(p)
        assert len(set(primes)) == len(primes)

    def test_deterministic(self):
        assert residue_primes(512, 1 << 140) == residue_primes(512, 1 << 140)
