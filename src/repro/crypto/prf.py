"""Fixed-key block-cipher hash used for garbling [Bellare et al., S&P'13].

Garbled tables are produced by a *hash* of input labels and a per-gate
tweak.  Following JustGarble and TinyGarble the hash is built from a
single AES-128 instance keyed once with a public constant:

    H(L, T) = pi(K) xor K        with  K = 2L xor T

where ``2L`` is doubling in GF(2^128) and ``T`` a unique gate identifier
(tweak).  Doubling makes H usable on both inputs of a gate without the
two calls colliding; the construction is correlation robust under the
random-permutation model.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import AES128

MASK128 = (1 << 128) - 1

#: Public fixed key (the digits of pi, as in many JustGarble descendants).
FIXED_KEY = bytes.fromhex("243F6A8885A308D313198A2E03707344")

_GF_REDUCTION = 0x87  # x^128 = x^7 + x^2 + x + 1 over GF(2)


def gf_double(value: int) -> int:
    """Multiply by x in GF(2^128) (the "2L" of the half-gates paper)."""
    doubled = (value << 1) & MASK128
    if value >> 127:
        doubled ^= _GF_REDUCTION
    return doubled


def gf_double_words(words: np.ndarray) -> np.ndarray:
    """Vectorised :func:`gf_double` on (..., 2) uint64 [hi, lo] arrays."""
    hi = words[..., 0]
    lo = words[..., 1]
    msb = hi >> np.uint64(63)
    out = np.empty_like(words)
    out[..., 0] = (hi << np.uint64(1)) | (lo >> np.uint64(63))
    out[..., 1] = (lo << np.uint64(1)) ^ (msb * np.uint64(_GF_REDUCTION))
    return out


class GarblingHash:
    """H(L, T) = pi(2L xor T) xor (2L xor T) with a fixed-key AES-128 pi."""

    def __init__(self, key: bytes = FIXED_KEY):
        self._aes = AES128(key)
        # Per-instance statistics let the benches report hash-call counts,
        # which map 1:1 to the hardware AES-engine activations.
        self.calls = 0
        #: vectorised invocations (one per :meth:`hash_words` call, i.e.
        #: one per topological stage in the vector garbler)
        self.batch_calls = 0

    @property
    def aes(self) -> AES128:
        """The underlying fixed-key cipher (exposes invocation counters)."""
        return self._aes

    def __call__(self, label: int, tweak: int) -> int:
        self.calls = self.calls + 1
        k = gf_double(label) ^ tweak
        return self._aes.encrypt_u128(k) ^ k

    def hash_many(self, labels: list[int], tweaks: list[int]) -> list[int]:
        """Batch version (numpy AES path); same outputs as repeated calls."""
        if len(labels) != len(tweaks):
            raise ValueError("labels and tweaks must have equal length")
        self.calls = self.calls + len(labels)
        ks = [gf_double(l) ^ t for l, t in zip(labels, tweaks)]
        buf = b"".join(k.to_bytes(16, "big") for k in ks)
        enc = self._aes.encrypt_blocks(buf)
        return [
            int.from_bytes(enc[16 * i : 16 * i + 16], "big") ^ k
            for i, k in enumerate(ks)
        ]

    def hash_words(self, label_words: np.ndarray, tweak_words: np.ndarray) -> np.ndarray:
        """Fully vectorised H on (..., 2) uint64 [hi, lo] word arrays.

        ``label_words`` and ``tweak_words`` broadcast against each other;
        the whole batch goes through exactly ONE invocation of the
        vectorised fixed-key AES (the counter-checked invariant of the
        stage-vectorised garbler).  Outputs are bit-identical to the
        scalar ``__call__`` on each (label, tweak) element.
        """
        k = np.ascontiguousarray(gf_double_words(label_words) ^ tweak_words)
        flat = k.reshape(-1, 2)
        n = flat.shape[0]
        self.calls += n
        if n == 0:
            return k
        self.batch_calls += 1
        # the (n, 2) uint64 [hi, lo] rows ARE a batch-AES layout, so the
        # cipher reads them in place: no 64 <-> 32-bit word conversion
        out = self._aes.encrypt_words(flat, allow_copy=False)
        out ^= flat
        return out.reshape(k.shape)


def make_tweak(gate_index: int, half: int = 0) -> int:
    """Unique tweak per (gate, half-gate).

    The hardware generates T by concatenating output-element indices
    (i, j of Eq. 3), core id, stage index and gate id; any injective
    encoding works, so we use ``2*gate_index + half`` which is what the
    half-gates reference implementation does.
    """
    return (2 * gate_index + half) & MASK128
