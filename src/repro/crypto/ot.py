"""Oblivious transfer: Naor–Pinkas-style base OT and IKNP OT extension.

The client (evaluator) obtains the labels for its input bits through
1-out-of-2 OT.  We implement:

* :class:`BaseOTSender` / :class:`BaseOTReceiver` — a Diffie–Hellman
  1-of-2 OT in the style of Naor–Pinkas / Chou–Orlandi over a prime-order
  subgroup of ``Z_p*``;
* :func:`extend_ots` — the IKNP'03 semi-honest OT extension that turns
  ``k = 128`` base OTs into arbitrarily many label transfers using only
  symmetric crypto (our fixed-key AES hash).

Messages are routed through a :class:`repro.gc.channel.Endpoint` pair so
the protocol benches account every byte.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

import numpy as np

from repro.crypto.aes import AES128
from repro.crypto.prf import GarblingHash
from repro.errors import CryptoError
from repro.gc.channel import Endpoint, run_two_party

K_SECURITY = 128

# RFC 2409 Oakley group 2: a 1024-bit safe prime with generator 2.  Small
# enough to keep the pure-Python exponentiations quick, large enough to be
# a faithful stand-in for a production group.
MODP_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class DHGroup:
    """A multiplicative group mod a safe prime p with generator g."""

    p: int
    g: int

    @property
    def q(self) -> int:
        """Order of the prime-order subgroup ((p-1)/2 for a safe prime)."""
        return (self.p - 1) // 2

    def rand_exponent(self) -> int:
        return secrets.randbelow(self.q - 2) + 2

    def pow(self, base: int, exp: int) -> int:
        return pow(base, exp, self.p)

    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8


DEFAULT_GROUP = DHGroup(MODP_1024, 2)

#: A small toy group for fast unit tests (NOT secure, clearly labelled).
#: p = 2q + 1 is a 129-bit safe prime.
TOY_GROUP = DHGroup(0x1000000000000000000000000000030A3, 5)


def _kdf(*parts: bytes) -> int:
    """Hash group elements down to a 128-bit pad."""
    digest = hashlib.sha256(b"||".join(parts)).digest()
    return int.from_bytes(digest[:16], "big")


def _int_bytes(value: int, group: DHGroup) -> bytes:
    return value.to_bytes(group.element_bytes(), "big")


class BaseOTSender:
    """Sender S holding message pairs; DH-based 1-of-2 OT."""

    def __init__(self, channel: Endpoint, group: DHGroup = DEFAULT_GROUP):
        self._chan = channel
        self._group = group

    def send(self, pairs: list[tuple[int, int]]) -> None:
        """Transfer one of each (m0, m1) pair; messages are 128-bit ints."""
        group = self._group
        a = group.rand_exponent()
        big_a = group.pow(group.g, a)  # A = g^a
        self._chan.send("ot.base.A", _int_bytes(big_a, group))

        payload = self._chan.recv("ot.base.B")
        size = group.element_bytes()
        if len(payload) != size * len(pairs):
            raise CryptoError("base OT: receiver key count mismatch")

        big_a_inv_a = group.pow(big_a, a)  # A^a, used to derive the 1-key
        out = bytearray()
        for i, (m0, m1) in enumerate(pairs):
            big_b = int.from_bytes(payload[i * size : (i + 1) * size], "big")
            # k0 = H(B^a); k1 = H((B/A)^a) = H(B^a / A^a)
            b_a = group.pow(big_b, a)
            k0 = _kdf(b"k", i.to_bytes(4, "big"), _int_bytes(b_a, group))
            b_over_a = (b_a * pow(big_a_inv_a, group.p - 2, group.p)) % group.p
            k1 = _kdf(b"k", i.to_bytes(4, "big"), _int_bytes(b_over_a, group))
            out += (m0 ^ k0).to_bytes(16, "big")
            out += (m1 ^ k1).to_bytes(16, "big")
        self._chan.send("ot.base.enc", bytes(out))


class BaseOTReceiver:
    """Receiver T with one choice bit per transfer."""

    def __init__(self, channel: Endpoint, group: DHGroup = DEFAULT_GROUP):
        self._chan = channel
        self._group = group

    def receive(self, choices: list[int]) -> list[int]:
        group = self._group
        big_a = int.from_bytes(self._chan.recv("ot.base.A"), "big")

        exps = []
        keys = bytearray()
        for choice in choices:
            b = group.rand_exponent()
            exps.append(b)
            big_b = group.pow(group.g, b)
            if choice:
                big_b = (big_a * big_b) % group.p  # B = A * g^b
            keys += _int_bytes(big_b, group)
        self._chan.send("ot.base.B", bytes(keys))

        payload = self._chan.recv("ot.base.enc")
        results = []
        for i, (choice, b) in enumerate(zip(choices, exps)):
            pad = _kdf(b"k", i.to_bytes(4, "big"), _int_bytes(group.pow(big_a, b), group))
            cipher = payload[32 * i + 16 * choice : 32 * i + 16 * choice + 16]
            results.append(int.from_bytes(cipher, "big") ^ pad)
        return results


# ----------------------------------------------------------------------
# IKNP OT extension
# ----------------------------------------------------------------------


def _prg_bits(seed: int, n_bits: int) -> np.ndarray:
    """Expand a 128-bit seed to n pseudo-random bits via AES-CTR."""
    aes = AES128(seed.to_bytes(16, "big"))
    blocks = (n_bits + 127) // 128
    counters = np.zeros((blocks, 4), dtype=np.uint32)
    counters[:, 3] = np.arange(blocks, dtype=np.uint32)
    stream = aes.encrypt_words(counters).astype(">u4").tobytes()
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))
    return bits[:n_bits]


def _rows_to_u128(matrix: np.ndarray) -> list[int]:
    """Pack the k=128 bit rows of an (m, 128) bit matrix into integers."""
    packed = np.packbits(matrix, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


class OTExtensionSender:
    """Extended-OT sender (the GC garbler sending input labels)."""

    def __init__(self, channel: Endpoint, group: DHGroup = DEFAULT_GROUP):
        self._chan = channel
        self._group = group
        self._hash = GarblingHash()

    def send(self, pairs: list[tuple[int, int]]) -> None:
        m = len(pairs)
        k = K_SECURITY
        s_bits = [secrets.randbits(1) for _ in range(k)]
        # Base OTs run with roles swapped: the extension sender is the
        # base-OT *receiver*, choosing with its secret vector s.
        base_rx = BaseOTReceiver(self._chan, self._group)
        seeds = base_rx.receive(s_bits)

        u_payload = self._chan.recv("ot.ext.u")
        row_bytes = (m + 7) // 8
        q_cols = np.zeros((k, m), dtype=np.uint8)
        for i in range(k):
            col = _prg_bits(seeds[i], m)
            if s_bits[i]:
                u_col = np.unpackbits(
                    np.frombuffer(u_payload[i * row_bytes : (i + 1) * row_bytes], dtype=np.uint8)
                )[:m]
                col = col ^ u_col
            q_cols[i] = col
        q_rows = _rows_to_u128(q_cols.T.copy())
        s_int = int("".join(str(b) for b in s_bits), 2)

        out = bytearray()
        for j, (m0, m1) in enumerate(pairs):
            pad0 = self._hash(q_rows[j], j)
            pad1 = self._hash(q_rows[j] ^ s_int, j)
            out += (m0 ^ pad0).to_bytes(16, "big")
            out += (m1 ^ pad1).to_bytes(16, "big")
        self._chan.send("ot.ext.enc", bytes(out))


class OTExtensionReceiver:
    """Extended-OT receiver (the GC evaluator fetching input labels)."""

    def __init__(self, channel: Endpoint, group: DHGroup = DEFAULT_GROUP):
        self._chan = channel
        self._group = group
        self._hash = GarblingHash()

    def receive(self, choices: list[int]) -> list[int]:
        m = len(choices)
        k = K_SECURITY
        seed_pairs = [(secrets.randbits(128), secrets.randbits(128)) for _ in range(k)]
        base_tx = BaseOTSender(self._chan, self._group)
        base_tx.send(seed_pairs)

        r = np.array(choices, dtype=np.uint8)
        t_cols = np.zeros((k, m), dtype=np.uint8)
        u_payload = bytearray()
        for i, (seed0, seed1) in enumerate(seed_pairs):
            t_col = _prg_bits(seed0, m)
            u_col = t_col ^ _prg_bits(seed1, m) ^ r
            t_cols[i] = t_col
            u_payload += np.packbits(u_col).tobytes()
        self._chan.send("ot.ext.u", bytes(u_payload))

        t_rows = _rows_to_u128(t_cols.T.copy())
        enc = self._chan.recv("ot.ext.enc")
        results = []
        for j, choice in enumerate(choices):
            pad = self._hash(t_rows[j], j)
            cipher = enc[32 * j + 16 * choice : 32 * j + 16 * choice + 16]
            results.append(int.from_bytes(cipher, "big") ^ pad)
        return results


def _extends(n_transfers: int, extension: bool | None) -> bool:
    """The OT-size policy: IKNP extension once the transfers outnumber
    the base-OT security parameter (base OTs amortise away, per the
    paper's OT-extension [24]), base OT below; ``extension`` forces
    either."""
    return n_transfers > K_SECURITY if extension is None else extension


def ot_sender(
    channel: Endpoint,
    n_transfers: int,
    group: DHGroup = DEFAULT_GROUP,
    extension: bool | None = None,
) -> BaseOTSender | OTExtensionSender:
    """The sender for one OT of ``n_transfers`` label pairs."""
    cls = OTExtensionSender if _extends(n_transfers, extension) else BaseOTSender
    return cls(channel, group)


def ot_receiver(
    channel: Endpoint,
    n_transfers: int,
    group: DHGroup = DEFAULT_GROUP,
    extension: bool | None = None,
) -> BaseOTReceiver | OTExtensionReceiver:
    """The receiver matching :func:`ot_sender` for the same count."""
    cls = OTExtensionReceiver if _extends(n_transfers, extension) else BaseOTReceiver
    return cls(channel, group)


def transfer_labels(
    sender_channel: Endpoint,
    receiver_channel: Endpoint,
    pairs: list[tuple[int, int]],
    choices: list[int],
    group: DHGroup = DEFAULT_GROUP,
    use_extension: bool | None = None,
) -> list[int]:
    """Run a complete OT (both sides, interleaved) and return the labels.

    With ``use_extension`` unset the OT-size policy of :func:`ot_sender`
    picks base OT or IKNP extension.
    """
    if len(pairs) != len(choices):
        raise CryptoError("need exactly one choice bit per message pair")
    sender = ot_sender(sender_channel, len(pairs), group, use_extension)
    receiver = ot_receiver(receiver_channel, len(pairs), group, use_extension)
    _, labels = run_two_party(lambda: sender.send(pairs), lambda: receiver.receive(choices))
    return labels
