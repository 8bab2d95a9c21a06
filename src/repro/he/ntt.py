"""Negacyclic number-theoretic transform over ``Z_q[x]/(x^N + 1)``.

The moduli sized for the paper's 32-bit fixed-point format run well
past 64 bits, so no machine word holds a coefficient mod ``q``.  The
transform therefore works in a residue number system (RNS):
:class:`NegacyclicNTT` derives ``k`` word-sized primes
``p_i ≡ 1 (mod 2N)``, each below ``2**31`` so that the product of two
residues fits a ``uint64``, with ``prod(p_i) > 2*N*q**2``.  A ring
product of two operands reduced mod ``q`` has exact integer
coefficients of magnitude below ``N*q**2``, so it is computed exactly,
one numpy butterfly network per prime, and recovered by a *centred*
Chinese-remainder step (the negacyclic wrap makes exact coefficients
negative) before its one reduction mod ``q``.

The negacyclic trick is the textbook one: with ``psi`` a primitive
``2N``-th root of unity mod ``p_i`` (so ``psi**N == -1``), scaling
coefficient ``j`` by ``psi**j`` turns the cyclic convolution computed
by a plain NTT of ``omega = psi**2`` into the negacyclic convolution
that reduction by ``x^N + 1`` demands.  The forward transform merges
that scaling into its twiddles; the inverse applies ``psi**-j`` after.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CryptoError

# Deterministic Miller-Rabin witness set.  For the < 2^64 range the
# first twelve primes are a proven-deterministic test; above that the
# fixed set keeps the search reproducible with a vanishing (< 2^-128)
# composite-slip probability — fine for a reproduction, and critically
# both endpoints derive the *same* q from the same inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic output)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_prime(bits: int, ring_degree: int) -> int:
    """Smallest prime ``q >= 2**bits`` with ``q ≡ 1 (mod 2N)``.

    The congruence guarantees ``Z_q*`` contains an element of order
    ``2N``, i.e. the negacyclic NTT exists.  Deterministic: both the
    gateway and the client find the same modulus independently.
    """
    if ring_degree <= 0 or ring_degree & (ring_degree - 1):
        raise CryptoError(f"ring degree must be a power of two, got {ring_degree}")
    step = 2 * ring_degree
    # First candidate >= 2**bits that is 1 mod 2N.
    k = (2 ** bits - 2) // step + 1
    while True:
        q = k * step + 1
        if is_probable_prime(q):
            return q
        k += 1


def find_primitive_2n_root(q: int, ring_degree: int) -> int:
    """Smallest-base primitive ``2N``-th root of unity mod ``q``.

    Tries bases 2, 3, ... and accepts ``psi = base**((q-1)/2N)`` once
    ``psi**N == -1`` — that single check pins the order to exactly
    ``2N``.  Deterministic by construction.
    """
    exponent = (q - 1) // (2 * ring_degree)
    for base in range(2, 1000):
        psi = pow(base, exponent, q)
        if pow(psi, ring_degree, q) == q - 1:
            return psi
    raise CryptoError(f"no primitive 2N-th root found for q={q}, N={ring_degree}")


#: Residue primes stay below ``2**RESIDUE_PRIME_BITS``, so the product of
#: two residues fits a uint64 and the sum of two stays below ``2**32``.
RESIDUE_PRIME_BITS = 31

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def residue_primes(ring_degree: int, bound: int) -> tuple[int, ...]:
    """The fewest word-sized NTT primes whose product exceeds ``bound``.

    Takes primes ``p ≡ 1 (mod 2N)`` below ``2**RESIDUE_PRIME_BITS``,
    largest first, so both endpoints derive the same basis.
    """
    step = 2 * ring_degree
    candidate = ((1 << RESIDUE_PRIME_BITS) - 2) // step * step + 1
    primes: list[int] = []
    product = 1
    while product <= bound:
        if candidate <= step:
            raise CryptoError(f"too few residue primes for N={ring_degree}")
        if is_probable_prime(candidate):
            primes.append(candidate)
            product *= candidate
        candidate -= step
    return tuple(primes)


def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    index = np.arange(n)
    out = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        out |= ((index >> b) & 1) << (bits - 1 - b)
    return out


def _powers_of_two(n: int) -> list[int]:
    """``1, 2, 4, ..., n/2``."""
    return [1 << b for b in range(n.bit_length() - 1)]


def _power_table(bases: list[int], p: np.ndarray, n: int) -> np.ndarray:
    """``(k, n)`` table of ``bases[i]**j mod p[i]``, built by doubling."""
    table = np.ones((len(bases), 1), dtype=np.uint64)
    step = np.array(bases, dtype=np.uint64)[:, None]
    while table.shape[1] < n:
        table = np.concatenate([table, table * step % p], axis=1)
        step = step * step % p
    return table


class NegacyclicNTT:
    """Exact negacyclic ring products mod ``q`` through an RNS transform.

    ``forward`` maps coefficients mod ``q`` (any leading batch shape)
    to uint64 residues shaped ``(..., k, N)``; ``pointwise`` multiplies
    two such images; ``inverse`` maps a product's residues back to
    coefficients mod ``q`` as (nested) lists of python ints.  ``k`` is
    derived from ``(N, q)``: the least count of residue primes whose
    product exceeds ``2*N*q**2``, the span of an exact product of two
    operands reduced mod ``q``.
    """

    def __init__(self, q: int, ring_degree: int):
        if ring_degree <= 0 or ring_degree & (ring_degree - 1):
            raise CryptoError(f"ring degree must be a power of two, got {ring_degree}")
        if (q - 1) % (2 * ring_degree):
            raise CryptoError(f"q={q} does not support a degree-{ring_degree} negacyclic NTT")
        self.q = q
        self.n = n = ring_degree
        self.primes = primes = residue_primes(n, 2 * n * q * q)
        self.k = len(primes)
        p = np.array(primes, dtype=np.uint64)[:, None]
        self._p = p
        psi = [find_primitive_2n_root(pi, n) for pi in primes]
        psi_pow = _power_table(psi, p, n)
        psi_inv_pow = _power_table([pow(s, -1, pi) for s, pi in zip(psi, primes)], p, n)
        # Both directions run in constant geometry (Pease): each stage
        # reads two length-N/2 views and writes two, so every numpy op
        # sees a long inner loop.  A stage's twiddles are a (k, N/2)
        # table: one column per butterfly, one row per prime.
        #
        # Forward: Cooley-Tukey on natural-order coefficients with the
        # psi powers merged into bit-reversed twiddles.  Stage s pairs
        # the two halves and interleaves its outputs, which rotates
        # every index left one bit, so butterfly j of stage s works on
        # group j mod 2**s and takes psi_rev[2**s + j mod 2**s].  The
        # values come out in bit-reversed order.
        psi_rev = psi_pow[:, _bit_reversal(n)]
        self._forward_twiddles = [
            np.tile(psi_rev[:, m:2 * m], n // (2 * m)) for m in _powers_of_two(n)
        ]
        # Inverse: the same butterfly as a decimation-in-time transform
        # by omega^-1 = psi^-2 on those bit-reversed values.  Stage s
        # (half-length h = 2**s) pairs neighbours and writes halves,
        # rotating indices right, so butterfly j takes
        # omega^(-(j >> (log2 N - 1 - s)) * N / 2h); log2 N rotations leave
        # the natural order.
        self._inverse_twiddles = [
            np.repeat(psi_inv_pow[:, ::n // h], n // (2 * h), axis=1)
            for h in _powers_of_two(n)
        ]
        # Centred CRT: X = sum_i y_i * (M/p_i) with
        # y_i = r_i * (M/p_i)^-1 mod p_i.  One (k, N) table folds that
        # factor, N^-1 and the psi^-j untwist into one multiply.  Pairs
        # of terms combine in a word before any python int is made:
        # y_a*M/p_a + y_b*M/p_b = (y_a*p_b + y_b*p_a) * M/(p_a*p_b), and
        # y_a*p_b + y_b*p_a < 2*p_a*p_b < 2**63 (an odd last prime pairs
        # with 1).
        self._crt_modulus = modulus = math.prod(primes)
        partners = primes[1::2] + (1,) * (self.k % 2)
        self._even_partner = np.array(partners, dtype=np.uint64)[:, None]
        self._odd_partner = p[0:self.k - 1:2]
        self._crt_weights = np.array(
            [modulus // (pa * pb) for pa, pb in zip(primes[0::2], partners)], dtype=object
        )
        crt_scale = np.array(
            [pow(n * (modulus // pi), -1, pi) for pi in primes], dtype=np.uint64
        )[:, None]
        self._inverse_scale = psi_inv_pow * crt_scale % p
        # 2**(64 j) mod p_i, to reduce a coefficient one 64-bit word at a time.
        words = max(1, -(-q.bit_length() // _WORD_BITS))
        self._word_radix = [
            np.array([pow(2, _WORD_BITS * j, pi) for pi in primes], dtype=np.uint64)[:, None]
            for j in range(words)
        ]

    def _residues(self, coeffs) -> np.ndarray:
        """Coefficients mod ``q`` -> uint64 residues ``(..., k, N)``."""
        rest = np.asarray(coeffs, dtype=object)
        if rest.ndim == 0 or rest.shape[-1] != self.n:
            raise CryptoError(f"expected {self.n} coefficients, got shape {rest.shape}")
        p = self._p
        out = None
        for j, radix in enumerate(self._word_radix):
            last = j == len(self._word_radix) - 1
            word = (rest if last else rest & _WORD_MASK).astype(np.uint64)
            r = word[..., None, :] % p
            out = r if out is None else (out + r * radix % p) % p
            if not last:
                rest = rest >> _WORD_BITS
        return out

    def _butterflies(self, a: np.ndarray, twiddles, forward: bool) -> np.ndarray:
        """Constant-geometry Cooley-Tukey stages ``(lo + w*hi, lo - w*hi)``.

        Forward stages read the halves and interleave their outputs;
        inverse stages read neighbours and write halves.  Reduction is
        lazy: a stage adds at most ``p`` to the bound of its inputs, so
        three stages from ``[0, p)`` stay below ``4p`` (``< 2**33``)
        and every ``hi * w`` below ``2**64``; the array is reduced again
        before every third stage.  The result is below ``4p``.
        """
        half = self.n // 2

        def halves(x):
            return x[..., :half], x[..., half:]

        def pairs(x):
            return x[..., 0::2], x[..., 1::2]

        read, write = (halves, pairs) if forward else (pairs, halves)
        p = self._p
        out = np.empty_like(a)
        for i, twiddle in enumerate(twiddles):
            if i and i % 3 == 0:
                a %= p
            (lo, hi), (lo_out, hi_out) = read(a), write(out)
            t = hi * twiddle
            t %= p
            np.add(lo, p, out=hi_out)
            hi_out -= t
            np.add(lo, t, out=lo_out)
            a, out = out, a
        return a

    def forward(self, coeffs) -> np.ndarray:
        """Coefficient domain -> per-prime evaluation domain
        (bit-reversed order, reduced)."""
        a = self._butterflies(self._residues(coeffs), self._forward_twiddles, True)
        a %= self._p
        return a

    def inverse(self, values) -> list:
        """Per-prime evaluation domain (residues reduced mod each
        ``p_i``, as :meth:`forward` and :meth:`pointwise` return them)
        -> coefficients mod ``q``.

        The butterflies, one multiply by the untwist/CRT table, then a
        centred CRT to the exact integer coefficient (negative where
        the product wrapped past ``x^N``) and one reduction mod ``q``.
        """
        a = np.array(values, dtype=np.uint64)
        if a.ndim < 2 or a.shape[-2:] != (self.k, self.n):
            raise CryptoError(
                f"expected ({self.k}, {self.n}) residues, got shape {a.shape}"
            )
        a = self._butterflies(a, self._inverse_twiddles, False)
        y = a * self._inverse_scale % self._p
        pairs = y[..., 0::2, :] * self._even_partner
        pairs[..., :self.k // 2, :] += y[..., 1::2, :] * self._odd_partner
        exact = np.matmul(self._crt_weights, pairs.astype(object))
        modulus, half = self._crt_modulus, self._crt_modulus // 2
        return (((exact + half) % modulus - half) % self.q).tolist()

    def pointwise(self, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """Product of two evaluation-domain images (broadcasting)."""
        return fa * fb % self._p

    def multiply(self, a, b) -> list[int]:
        """``a * b mod (x^N + 1, q)`` via pointwise RNS product."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))


def negacyclic_mul_schoolbook(a: list[int], b: list[int], q: int) -> list[int]:
    """Quadratic reference multiplication (test oracle for the NTT)."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            k = i + j
            if k < n:
                out[k] = (out[k] + ai * bj) % q
            else:
                out[k - n] = (out[k - n] - ai * bj) % q
    return out
