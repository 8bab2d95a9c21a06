"""Ring-oscillator random number generation (Wold & Tan, 2009).

The label generator of MAXelerator instantiates on-chip TRNGs: each RNG
XORs the outputs of 16 free-running ring oscillators of 3 inverters each,
sampled by the system clock.  Phase jitter accumulated between samples is
the entropy source.

Because we have no FPGA fabric, :class:`RingOscillator` is a stochastic
model: each oscillator has a nominal period drawn from process variation
and accumulates Gaussian white jitter per period.  The sampled bit is the
oscillator's output level at the sampling instant.  This reproduces the
statistical behaviour that the NIST battery in
:mod:`repro.crypto.randomness_tests` checks.

For bulk label generation the raw TRNG is far too slow in simulation, so
:class:`TRNGSeededDRBG` mirrors common practice (and keeps the simulated
data path honest): harvest seed entropy from the RO bank, then expand it
with an AES-CTR DRBG.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crypto.aes import AES128
from repro.errors import ConfigurationError

#: Paper parameters: one RNG XORs 16 ring oscillators of 3 inverters each.
DEFAULT_NUM_ROS = 16
DEFAULT_INVERTERS = 3


class RingOscillator:
    """One free-running ring oscillator sampled at the system clock."""

    def __init__(
        self,
        clock_period_ns: float,
        rng: np.random.Generator,
        inverters: int = DEFAULT_INVERTERS,
        gate_delay_ns: float = 0.35,
        process_sigma: float = 0.05,
        jitter_sigma: float = 0.03,
    ):
        if inverters % 2 == 0:
            raise ConfigurationError("a ring oscillator needs an odd inverter count")
        self._clock_period = clock_period_ns
        nominal = 2.0 * inverters * gate_delay_ns
        # Process variation: each fabricated ring has its own period.
        self._period = nominal * (1.0 + process_sigma * rng.standard_normal())
        self._jitter_sigma = jitter_sigma * self._period
        self._phase = rng.uniform(0.0, self._period)
        self._rng = rng

    def sample(self) -> int:
        """Advance one clock period and return the sampled output level."""
        cycles = self._clock_period / self._period
        jitter = self._jitter_sigma * math.sqrt(max(cycles, 1e-9))
        self._phase += self._clock_period + jitter * self._rng.standard_normal()
        self._phase %= self._period
        return 1 if self._phase < self._period / 2 else 0

    def sample_bits(self, n: int) -> np.ndarray:
        """Vectorised sampling of n consecutive clock edges."""
        cycles = self._clock_period / self._period
        jitter = self._jitter_sigma * math.sqrt(max(cycles, 1e-9))
        steps = self._clock_period + jitter * self._rng.standard_normal(n)
        phases = (self._phase + np.cumsum(steps)) % self._period
        self._phase = float(phases[-1])
        return (phases < self._period / 2).astype(np.uint8)


class RingOscillatorRNG:
    """The paper's TRNG cell: XOR of 16 sampled ring oscillators."""

    def __init__(
        self,
        clock_mhz: float = 200.0,
        num_ros: int = DEFAULT_NUM_ROS,
        inverters: int = DEFAULT_INVERTERS,
        seed: int | None = None,
    ):
        if num_ros < 1:
            raise ConfigurationError("need at least one ring oscillator")
        clock_period_ns = 1e3 / clock_mhz
        model_rng = np.random.default_rng(seed)
        self._rings = [
            RingOscillator(clock_period_ns, model_rng, inverters=inverters)
            for _ in range(num_ros)
        ]
        self.bits_produced = 0
        #: Set by the FSM's power gating; a gated RNG produces nothing.
        self.enabled = True

    def bit(self) -> int:
        """One output bit per clock cycle (XOR combiner)."""
        out = 0
        for ring in self._rings:
            out ^= ring.sample()
        self.bits_produced += 1
        return out

    def bits(self, n: int) -> np.ndarray:
        """n output bits, one per clock cycle."""
        acc = np.zeros(n, dtype=np.uint8)
        for ring in self._rings:
            acc ^= ring.sample_bits(n)
        self.bits_produced += n
        return acc

    def bytes(self, n: int) -> bytes:
        """n output bytes (8n clock cycles)."""
        return np.packbits(self.bits(8 * n)).tobytes()


class TRNGSeededDRBG:
    """AES-128-CTR DRBG seeded from the ring-oscillator bank.

    Exposes the subset of the :mod:`random` API the label machinery needs
    (``getrandbits``), so it drops straight into
    :class:`repro.crypto.labels.LabelFactory`.
    """

    def __init__(self, trng: RingOscillatorRNG | None = None, seed: bytes | None = None):
        if seed is None:
            trng = trng or RingOscillatorRNG(seed=None)
            seed = trng.bytes(16)
        if len(seed) != 16:
            raise ConfigurationError("DRBG seed must be 16 bytes")
        self._aes = AES128(seed)
        self._counter = 0
        #: keystream bytes drawn so far are ``_pool[:_pos]``
        self._pool = b""
        self._pos = 0

    def _refill(self, blocks: int) -> None:
        """Append ``blocks`` keystream blocks: AES of the 128-bit counter
        values ``_counter ..`` (mod 2^64), as one ``(blocks, 2)`` batch."""
        counters = np.zeros((blocks, 2), dtype=np.uint64)
        counters[:, 1] = np.arange(blocks, dtype=np.uint64) + np.uint64(self._counter)
        self._counter += blocks
        out = self._aes.encrypt_words(counters, allow_copy=False)
        self._pool = self._pool[self._pos :] + out.astype(">u8").tobytes()
        self._pos = 0

    def random_bytes(self, n: int) -> bytes:
        short = n - (len(self._pool) - self._pos)
        if short > 0:
            self._refill(max((short + 15) // 16, 64))
        out = self._pool[self._pos : self._pos + n]
        self._pos += n
        return out

    def getrandbits(self, k: int) -> int:
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (8 * nbytes - k)
