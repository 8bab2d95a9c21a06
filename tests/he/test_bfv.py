"""Secret-key BFV: round-trips, homomorphism, noise, serialization."""

import numpy as np
import pytest

from repro.errors import CryptoError, GCProtocolError
from repro.fixedpoint import Q8_4, Q16_8, Q32_16
from repro.he.bfv import CIPHERTEXT_HEADER_BYTES, BFVContext, Ciphertext
from repro.he.ntt import negacyclic_mul_schoolbook
from repro.he.params import params_for_workload


def _context(fmt=Q8_4, rows=2, cols=3):
    return BFVContext(params_for_workload(fmt, rows, cols))


def _random_plaintext(ctx, rng):
    half_t = ctx.params.plain_modulus // 2
    return [int(v) for v in
            rng.integers(-half_t, half_t, ctx.params.ring_degree)]


def _bounded_plaintext(ctx, rng, bound):
    """Coefficients small enough that ring products stay inside the
    centered plaintext range — the contract every protocol message
    honours (the accumulator-width sizing guarantees it)."""
    return [int(v) for v in rng.integers(-bound, bound + 1,
                                         ctx.params.ring_degree)]


class TestEncryptDecrypt:
    def test_roundtrip(self):
        ctx = _context()
        rng = np.random.default_rng(1)
        sk = ctx.keygen(rng)
        plain = _random_plaintext(ctx, rng)
        assert ctx.decrypt(ctx.encrypt(plain, sk, rng), sk) == plain

    def test_seeded_encryption_is_deterministic(self):
        ctx = _context()
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            sk = ctx.keygen(rng)
            ct = ctx.encrypt([1] * ctx.params.ring_degree, sk, rng)
            outs.append(ct.to_bytes(ctx.params))
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self):
        ctx = _context()
        cts = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            sk = ctx.keygen(rng)
            cts.append(ctx.encrypt([0] * ctx.params.ring_degree, sk, rng)
                       .to_bytes(ctx.params))
        assert cts[0] != cts[1]

    def test_out_of_range_plaintext_rejected(self):
        ctx = _context()
        rng = np.random.default_rng(0)
        sk = ctx.keygen(rng)
        bad = [0] * ctx.params.ring_degree
        bad[0] = ctx.params.plain_modulus // 2  # one past the centered range
        with pytest.raises(CryptoError):
            ctx.encrypt(bad, sk, rng)
        with pytest.raises(CryptoError):
            ctx.encrypt([0] * (ctx.params.ring_degree - 1), sk, rng)


class TestHomomorphism:
    def test_plain_mul_matches_schoolbook_mod_t(self):
        ctx = _context(Q16_8, 3, 4)
        params = ctx.params
        rng = np.random.default_rng(3)
        sk = ctx.keygen(rng)
        # |msg*w| <= N * 2^13 * 2^13 = 2^32 < t/2 = 2^34: no wraparound
        msg = _bounded_plaintext(ctx, rng, 1 << 13)
        weights = _bounded_plaintext(ctx, rng, 1 << 13)
        ct = ctx.plain_mul(ctx.encrypt(msg, sk, rng), ctx.make_plain(weights))
        got = ctx.decrypt(ct, sk)
        t = params.plain_modulus
        ref = negacyclic_mul_schoolbook(
            [m % t for m in msg], [w % t for w in weights], t
        )
        centered = [r - t if r >= t // 2 else r for r in ref]
        assert got == centered

    def test_add_is_coefficientwise(self):
        ctx = _context()
        rng = np.random.default_rng(5)
        sk = ctx.keygen(rng)
        t = ctx.params.plain_modulus
        a = _random_plaintext(ctx, rng)
        b = _random_plaintext(ctx, rng)
        ct = ctx.add(ctx.encrypt(a, sk, rng), ctx.encrypt(b, sk, rng))
        expect = [(x + y + t // 2) % t - t // 2 for x, y in zip(a, b)]
        assert ctx.decrypt(ct, sk) == expect

    def test_noise_budget_positive_and_shrinks_under_mul(self):
        ctx = _context(Q16_8, 3, 4)
        rng = np.random.default_rng(9)
        sk = ctx.keygen(rng)
        ct = ctx.encrypt(_bounded_plaintext(ctx, rng, 1 << 10), sk, rng)
        fresh = ctx.noise_budget_bits(ct, sk)
        weights = _bounded_plaintext(ctx, rng, 100)
        spent = ctx.noise_budget_bits(
            ctx.plain_mul(ct, ctx.make_plain(weights)), sk
        )
        assert fresh > 0
        assert spent > 0  # derivation guarantees NOISE_MARGIN_BITS headroom
        assert spent <= fresh


class TestSerialization:
    def test_roundtrip(self):
        ctx = _context()
        rng = np.random.default_rng(2)
        sk = ctx.keygen(rng)
        ct = ctx.encrypt(_random_plaintext(ctx, rng), sk, rng)
        back = Ciphertext.from_bytes(ct.to_bytes(ctx.params), ctx.params)
        assert back.c0 == ct.c0 and back.c1 == ct.c1

    def test_bad_magic_rejected(self):
        ctx = _context()
        with pytest.raises(GCProtocolError, match="bad header"):
            Ciphertext.from_bytes(b"NOPE" + b"\x00" * 64, ctx.params)

    def test_short_buffer_rejected(self):
        ctx = _context()
        with pytest.raises(GCProtocolError):
            Ciphertext.from_bytes(b"RHE1\x00", ctx.params)

    def test_shape_mismatch_rejected(self):
        small = BFVContext(params_for_workload(Q8_4, 1, 2))
        big = BFVContext(params_for_workload(Q16_8, 8, 8))
        rng = np.random.default_rng(4)
        sk = small.keygen(rng)
        wire = small.encrypt([0] * small.params.ring_degree, sk, rng) \
            .to_bytes(small.params)
        with pytest.raises(GCProtocolError, match="shape mismatch"):
            Ciphertext.from_bytes(wire, big.params)

    def test_truncated_body_rejected(self):
        ctx = _context()
        rng = np.random.default_rng(6)
        sk = ctx.keygen(rng)
        wire = ctx.encrypt([0] * ctx.params.ring_degree, sk, rng) \
            .to_bytes(ctx.params)
        with pytest.raises(GCProtocolError, match="truncated"):
            Ciphertext.from_bytes(wire[:-1], ctx.params)

    def test_out_of_range_coefficient_rejected(self):
        ctx = _context()
        params = ctx.params
        width = params.coeff_bytes
        body = (params.q.to_bytes(width, "big") * (2 * params.ring_degree))
        wire = (b"RHE1" + params.ring_degree.to_bytes(4, "big")
                + width.to_bytes(2, "big") + body)
        assert len(wire) - CIPHERTEXT_HEADER_BYTES == 2 * params.ring_degree * width
        with pytest.raises(GCProtocolError, match="out of range"):
            Ciphertext.from_bytes(wire, params)


def _wire(ctx, seed=8):
    rng = np.random.default_rng(seed)
    sk = ctx.keygen(rng)
    return ctx.encrypt(_bounded_plaintext(ctx, rng, 1000), sk, rng).to_bytes(ctx.params)


#: one coefficient per machine word (q < 2**64) and a three-word width
#: (the 32-bit format's 135-bit q)
WIDTHS = [pytest.param(Q8_4, id="one-word"), pytest.param(Q32_16, id="multi-word")]


class TestCodecChecks:
    """The vectorised decoder's shape and range checks, at both widths
    (a bad magic is refused before the width is read)."""

    @pytest.mark.parametrize("fmt", WIDTHS)
    def test_roundtrip_at_width(self, fmt):
        ctx = _context(fmt, 4, 4)
        wire = _wire(ctx)
        ct = Ciphertext.from_bytes(wire, ctx.params)
        assert all(0 <= c < ctx.params.q for c in ct.c0 + ct.c1)
        assert ct.to_bytes(ctx.params) == wire

    @pytest.mark.parametrize("fmt", WIDTHS)
    @pytest.mark.parametrize("field, delta", [(slice(4, 8), 1), (slice(8, 10), 1)],
                             ids=["ring-degree", "width"])
    def test_header_field_mismatch(self, fmt, field, delta):
        ctx = _context(fmt, 4, 4)
        wire = bytearray(_wire(ctx))
        size = field.stop - field.start
        wire[field] = (int.from_bytes(wire[field], "big") + delta).to_bytes(size, "big")
        with pytest.raises(GCProtocolError, match="shape mismatch"):
            Ciphertext.from_bytes(bytes(wire), ctx.params)

    @pytest.mark.parametrize("fmt", WIDTHS)
    @pytest.mark.parametrize("change", ["byte-short", "coefficient-short", "byte-long"])
    def test_body_length_mismatch(self, fmt, change):
        ctx = _context(fmt, 4, 4)
        wire = _wire(ctx)
        bad = {
            "byte-short": wire[:-1],
            "coefficient-short": wire[:-ctx.params.coeff_bytes],
            "byte-long": wire + b"\x00",
        }[change]
        with pytest.raises(GCProtocolError, match="truncated"):
            Ciphertext.from_bytes(bad, ctx.params)

    @pytest.mark.parametrize("fmt", WIDTHS)
    @pytest.mark.parametrize("index", ["first", "last"])
    @pytest.mark.parametrize("value", ["q", "max"])
    def test_one_coefficient_out_of_range(self, fmt, index, value):
        ctx = _context(fmt, 4, 4)
        params = ctx.params
        width = params.coeff_bytes
        wire = bytearray(_wire(ctx))
        bad = params.q if value == "q" else (1 << (8 * width)) - 1
        at = CIPHERTEXT_HEADER_BYTES + (
            0 if index == "first" else (2 * params.ring_degree - 1) * width
        )
        wire[at:at + width] = bad.to_bytes(width, "big")
        with pytest.raises(GCProtocolError, match="out of range"):
            Ciphertext.from_bytes(bytes(wire), params)
        # q - 1 in the same place is a valid coefficient
        wire[at:at + width] = (params.q - 1).to_bytes(width, "big")
        Ciphertext.from_bytes(bytes(wire), params)
