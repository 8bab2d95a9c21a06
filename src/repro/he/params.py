"""Deterministic BFV parameter derivation for encrypted MACs.

Both endpoints derive the parameter set *independently* from public
inputs — the fixed-point format and the workload shape carried by the
session descriptor — and the client refuses a welcome whose advertised
parameters differ from its own derivation.  That mirrors the GC path's
circuit-fingerprint check: the server cannot quietly weaken the ring.

Two choices make the HE backend bit-identical to the garbled
accumulator:

- The plaintext modulus is ``t = 2**acc_width`` with ``acc_width``
  computed by the *same* formula the garbled MAC datapath uses
  (``2*total_bits + max(1, ceil(log2(cols)) + 1)``).  Arithmetic mod
  ``t`` therefore has exactly the accumulator's two's-complement
  wrap-around semantics, so a decrypted coefficient re-interpreted as
  a signed ``acc_width``-bit integer equals the GC output bit for bit.
- ``N`` is sized so the packed matrix-vector product never wraps
  around ``x^N + 1``: with ``cols`` query coefficients and ``rows``
  model rows packed at block offsets, every product exponent stays
  below ``(rows+1)*cols - 1 <= N - 1`` and the result coefficients
  collect no negacyclic (sign-flipped) terms.

Ring degrees here are toy-sized for the same reason the OT layer
ships ``TOY_GROUP``: the reproduction targets protocol behaviour, not
concrete 128-bit security.  The transform is not what keeps them
small: :mod:`repro.he.ntt` multiplies in a residue number system of
word-sized primes with numpy butterflies.  A production deployment
would fix ``N >= 4096`` and pick ``q`` from the homomorphic-encryption
standard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CryptoError
from repro.fixedpoint import FixedPointFormat
from repro.he.ntt import find_ntt_prime

#: Floor on the ring degree, so even 1x1 workloads use a ring with a
#: meaningful noise/structure gap between N and the message support.
MIN_RING_DEGREE = 64

#: Discrete-gaussian width for the encryption error (standard choice).
ERROR_SIGMA = 3.2

#: Errors are clipped to +-6 sigma, which both bounds the worst case
#: noise exactly (no tail events) and keeps derivation deterministic.
ERROR_BOUND = 19

#: Headroom (bits) between the worst-case multiplied noise and the
#: decryption threshold Delta/2 — this *is* the guaranteed minimum
#: noise budget reported by :meth:`repro.he.bfv.BFVContext.noise_budget_bits`.
NOISE_MARGIN_BITS = 20


@dataclass(frozen=True)
class HEParams:
    """A fully-determined BFV parameter set.

    ``acc_width`` doubles as the plaintext-modulus exponent
    (``t = 2**acc_width``); ``rows``/``cols`` record the workload the
    set was derived for so a mismatched welcome fails loudly.
    """

    ring_degree: int
    q: int
    acc_width: int
    rows: int
    cols: int
    sigma: float = ERROR_SIGMA

    def __post_init__(self):
        n = self.ring_degree
        if n <= 0 or n & (n - 1):
            raise CryptoError(f"ring degree must be a power of two, got {n}")
        if (self.q - 1) % (2 * n):
            raise CryptoError("q is not NTT-friendly for this ring degree")
        if self.plain_modulus >= self.q:
            raise CryptoError("plaintext modulus must be smaller than q")

    @property
    def plain_modulus(self) -> int:
        return 1 << self.acc_width

    @property
    def delta(self) -> int:
        """The BFV scaling factor ``Delta = floor(q / t)``."""
        return self.q // self.plain_modulus

    @property
    def coeff_bytes(self) -> int:
        """Serialized width of one ring coefficient."""
        return (self.q.bit_length() + 7) // 8

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one serialized ciphertext (header + c0 + c1)."""
        from repro.he.bfv import CIPHERTEXT_HEADER_BYTES

        return CIPHERTEXT_HEADER_BYTES + 2 * self.ring_degree * self.coeff_bytes

    def to_wire(self) -> dict:
        """Handshake-welcome representation (json-safe: python's json
        round-trips arbitrary-precision ints, and only our own client
        parses this)."""
        return {
            "ring_degree": self.ring_degree,
            "q": self.q,
            "acc_width": self.acc_width,
            "rows": self.rows,
            "cols": self.cols,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "HEParams":
        try:
            return cls(
                ring_degree=int(payload["ring_degree"]),
                q=int(payload["q"]),
                acc_width=int(payload["acc_width"]),
                rows=int(payload["rows"]),
                cols=int(payload["cols"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CryptoError(f"malformed HE parameter payload: {exc!r}") from exc


def accumulator_width(fmt: FixedPointFormat, cols: int) -> int:
    """Accumulator width for a ``cols``-term MAC — the same formula
    :meth:`repro.host.CloudServer.update_model` sizes the GC datapath
    with, duplicated here so :mod:`repro.he` stays a leaf package."""
    return 2 * fmt.total_bits + max(1, (cols - 1).bit_length() + 1)


def params_for_workload(
    fmt: FixedPointFormat,
    rows: int,
    cols: int,
    *,
    min_ring: int = MIN_RING_DEGREE,
    margin_bits: int = NOISE_MARGIN_BITS,
) -> HEParams:
    """Derive the deterministic parameter set for a workload.

    The modulus is sized so that worst-case multiplied noise
    ``|e * b|_inf <= rows * cols * ERROR_BOUND * 2**(total_bits-1)``
    sits ``margin_bits`` below the decryption threshold ``Delta / 2``.
    """
    if rows < 1 or cols < 1:
        raise CryptoError(f"workload must be at least 1x1, got {rows}x{cols}")
    acc_width = accumulator_width(fmt, cols)
    # No negacyclic wrap anywhere in the packed product.
    degree = max(min_ring, (rows + 1) * cols)
    ring_degree = 1 << (degree - 1).bit_length()
    # |e * b| per coefficient: at most rows*cols plaintext coefficients,
    # each |b_j| <= 2**(total_bits-1), times the clipped error bound.
    mult_noise = rows * cols * ERROR_BOUND * (1 << max(0, fmt.total_bits - 1))
    noise_bits = max(2, mult_noise.bit_length())
    q_bits = acc_width + noise_bits + 1 + margin_bits
    q = find_ntt_prime(q_bits, ring_degree)
    return HEParams(ring_degree=ring_degree, q=q, acc_width=acc_width,
                    rows=rows, cols=cols)
