"""Secret-key BFV over ``Z_q[x]/(x^N + 1)`` — the minimal op set.

The encrypted-MAC protocol only ever needs encrypt -> plaintext
multiply (-> add) -> decrypt: the model matrix belongs to the server
and stays in the clear, so there are no relinearisation or rotation
keys and no ciphertext-ciphertext products.  That restriction keeps
the noise analysis exact: a decrypted ciphertext satisfies

    c0 + c1*s = Delta * P + E   (mod q)

with ``P`` the *integer* plaintext polynomial (coefficients centered,
``|P| < t/2`` by the accumulator-width sizing in :mod:`repro.he.params`)
and ``E`` the multiplied encryption error.  Decoding rounds by
``Delta`` directly — correct whenever ``|E| < Delta/2`` — and the
measured residual *is* the noise, which is what
:meth:`BFVContext.noise_budget_bits` reports.

All randomness flows through a caller-supplied numpy ``Generator`` so
keygen/encrypt are deterministic under a seed (reproducibility is a
tentpole requirement); the server-side operations use no randomness
at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CryptoError, GCProtocolError
from repro.he.ntt import NegacyclicNTT
from repro.he.params import ERROR_BOUND, HEParams

_MAGIC = b"RHE1"
#: magic(4) + ring_degree uint32 + coeff_bytes uint16
CIPHERTEXT_HEADER_BYTES = 10

_WORD_MASK = (1 << 64) - 1


def _ints_from_bytes(buf: bytes, width: int) -> np.ndarray:
    """The big-endian ``width``-byte unsigned integers packed in ``buf``,
    as a 1-D object array of python ints."""
    words = -(-width // 8)
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, width)
    padded = np.zeros((raw.shape[0], 8 * words), dtype=np.uint8)
    padded[:, 8 * words - width:] = raw
    limbs = padded.view(">u8")
    out = limbs[:, 0].astype(object)
    for j in range(1, words):
        out = (out << 64) | limbs[:, j].astype(object)
    return out


def _ints_to_bytes(values: np.ndarray, width: int) -> bytes:
    """Inverse of :func:`_ints_from_bytes` (C order over ``values``)."""
    words = -(-width // 8)
    limbs = np.empty(values.shape + (words,), dtype=">u8")
    for j in range(words - 1, 0, -1):
        limbs[..., j] = values & _WORD_MASK
        values = values >> 64
    limbs[..., 0] = values
    padded = limbs.view(np.uint8).reshape(-1, 8 * words)
    if padded[:, :8 * words - width].any():
        raise OverflowError(f"coefficient does not fit {width} bytes")
    return padded[:, 8 * words - width:].tobytes()


@dataclass(frozen=True)
class SecretKey:
    """Ternary RLWE secret (coefficients in {-1, 0, 1}) with its RNS
    transform under the context that made it, computed once per key."""

    coeffs: tuple[int, ...]
    ntt_values: np.ndarray = field(compare=False, repr=False)


class Ciphertext:
    """An RLWE pair ``(c0, c1)`` in the coefficient domain."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: list[int], c1: list[int]):
        self.c0 = c0
        self.c1 = c1

    def to_bytes(self, params: HEParams) -> bytes:
        width = params.coeff_bytes
        header = (_MAGIC + params.ring_degree.to_bytes(4, "big")
                  + width.to_bytes(2, "big"))
        return header + _ints_to_bytes(np.array([self.c0, self.c1], dtype=object), width)

    @classmethod
    def from_bytes(cls, data: bytes, params: HEParams) -> "Ciphertext":
        if len(data) < CIPHERTEXT_HEADER_BYTES or data[:4] != _MAGIC:
            raise GCProtocolError("malformed HE ciphertext: bad header")
        n = int.from_bytes(data[4:8], "big")
        width = int.from_bytes(data[8:10], "big")
        if n != params.ring_degree or width != params.coeff_bytes:
            raise GCProtocolError(
                f"HE ciphertext shape mismatch: got N={n}/width={width}, "
                f"expected N={params.ring_degree}/width={params.coeff_bytes}"
            )
        body = data[CIPHERTEXT_HEADER_BYTES:]
        if len(body) != 2 * n * width:
            raise GCProtocolError("truncated HE ciphertext body")
        coeffs = _ints_from_bytes(body, width)
        if (coeffs >= params.q).any():
            raise GCProtocolError("HE ciphertext coefficient out of range")
        c0, c1 = coeffs.reshape(2, n).tolist()
        return cls(c0, c1)


class PlainPoly:
    """A plaintext ring element with its RNS transform cached, so a
    model row encoded once multiplies many ciphertexts at no forward
    transform of its own."""

    __slots__ = ("coeffs", "ntt_values")

    def __init__(self, coeffs: list[int], ntt_values: np.ndarray):
        self.coeffs = coeffs
        self.ntt_values = ntt_values


class BFVContext:
    """Parameter-bound BFV operations (shared by client and server)."""

    def __init__(self, params: HEParams):
        self.params = params
        self.ntt = NegacyclicNTT(params.q, params.ring_degree)

    # -- randomness ---------------------------------------------------

    def _uniform_poly(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform element of Z_q^N (8 spare bytes make mod bias
        negligible, and the draw stays seed-deterministic)."""
        width = self.params.coeff_bytes + 8
        raw = rng.bytes(self.params.ring_degree * width)
        return _ints_from_bytes(raw, width) % self.params.q

    def _error_poly(self, rng: np.random.Generator) -> np.ndarray:
        draws = rng.normal(0.0, self.params.sigma, self.params.ring_degree)
        return (np.clip(np.rint(draws), -ERROR_BOUND, ERROR_BOUND)
                .astype(np.int64).astype(object))

    # -- keys and encryption ------------------------------------------

    def keygen(self, rng: np.random.Generator) -> SecretKey:
        coeffs = tuple(int(c) for c in rng.integers(-1, 2, self.params.ring_degree))
        return SecretKey(coeffs, self.ntt.forward(self._centered_to_residues(coeffs)))

    def _centered_to_residues(self, centered) -> list[int]:
        q = self.params.q
        return [c % q for c in centered]

    def encrypt(self, plain_centered: list[int], sk: SecretKey,
                rng: np.random.Generator) -> Ciphertext:
        """Encrypt a centered plaintext polynomial (``|coeff| < t/2``)."""
        params = self.params
        half_t = params.plain_modulus // 2
        if len(plain_centered) != params.ring_degree:
            raise CryptoError(
                f"plaintext must have {params.ring_degree} coefficients"
            )
        m = np.array(plain_centered, dtype=object)
        if ((m < -half_t) | (m >= half_t)).any():
            raise CryptoError("plaintext coefficient outside the centered range")
        ntt = self.ntt
        a = self._uniform_poly(rng)
        e = self._error_poly(rng)
        a_s = np.array(ntt.inverse(ntt.pointwise(ntt.forward(a), sk.ntt_values)),
                       dtype=object)
        c0 = (params.delta * m - a_s + e) % params.q
        return Ciphertext(c0.tolist(), a.tolist())

    # -- homomorphic operations ---------------------------------------

    def make_plain(self, centered_coeffs: list[int]) -> PlainPoly:
        residues = self._centered_to_residues(centered_coeffs)
        return PlainPoly(residues, self.ntt.forward(residues))

    def plain_mul(self, ct: Ciphertext, plain: PlainPoly) -> Ciphertext:
        """Multiply a ciphertext by a plaintext ring element: one
        forward and one inverse transform over the stacked ``(c0, c1)``."""
        ntt = self.ntt
        c0, c1 = ntt.inverse(ntt.pointwise(ntt.forward([ct.c0, ct.c1]),
                                           plain.ntt_values))
        return Ciphertext(c0, c1)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        q = self.params.q
        return Ciphertext(
            [(x + y) % q for x, y in zip(a.c0, b.c0)],
            [(x + y) % q for x, y in zip(a.c1, b.c1)],
        )

    # -- decryption and noise -----------------------------------------

    def decrypt_with_budget(self, ct: Ciphertext,
                            sk: SecretKey) -> tuple[list[int], int]:
        """Plaintext and noise budget from one phase ``c0 + c1*s``.

        The phase is centered ``(c0 + c1*s) mod q``, which equals
        ``Delta*P + E``.  The plaintext is its centered coefficients
        (mod ``t``, in ``[-t/2, t/2)``); the budget is the exact
        ``floor(log2(Delta / 2|E|))``.  A positive budget means every
        coefficient still decodes correctly with at least that many
        bits of headroom; zero or negative means the ciphertext is at
        (or past) the decryption threshold.
        """
        params, ntt = self.params, self.ntt
        q, delta, t = params.q, params.delta, params.plain_modulus
        c1_s = ntt.inverse(ntt.pointwise(ntt.forward(ct.c1), sk.ntt_values))
        phase = (np.array([ct.c0, c1_s], dtype=object).sum(axis=0)
                 + q // 2) % q - q // 2
        rounded = (phase + delta // 2) // delta
        plain = (rounded + t // 2) % t - t // 2
        worst = max(1, np.abs(phase - rounded * delta).max())
        return plain.tolist(), delta.bit_length() - (2 * worst).bit_length()

    def decrypt(self, ct: Ciphertext, sk: SecretKey) -> list[int]:
        """Centered plaintext coefficients (mod ``t``, in ``[-t/2, t/2)``)."""
        return self.decrypt_with_budget(ct, sk)[0]

    def noise_budget_bits(self, ct: Ciphertext, sk: SecretKey) -> int:
        """Exact remaining noise budget: ``floor(log2(Delta / 2|E|))``."""
        return self.decrypt_with_budget(ct, sk)[1]
