"""Oblivious transfer: Naor–Pinkas-style base OT and IKNP OT extension.

The client (evaluator) obtains the labels for its input bits through
1-out-of-2 OT.  We implement:

* :class:`BaseOTSender` / :class:`BaseOTReceiver` — a Diffie–Hellman
  1-of-2 OT in the style of Naor–Pinkas / Chou–Orlandi over a prime-order
  subgroup of ``Z_p*``;
* :class:`OTExtensionSender` / :class:`OTExtensionReceiver` — the
  IKNP'03 semi-honest OT extension as a connection-scoped pool: 128
  base OTs once per connection, random OTs topped up in fixed chunks
  using only symmetric crypto (our fixed-key AES hash), and each label
  transfer Beaver-derandomised from one pool index, so a query's OT is
  one correction flight and XORs.

Messages are routed through a :class:`repro.gc.channel.Endpoint` pair so
the protocol benches account every byte.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

import numpy as np

from repro.crypto.prf import GarblingHash
from repro.errors import CryptoError, OTIndexError
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

        # (A^a)^-1, constant over the transfers: derives every 1-key
        inv_a_a = pow(group.pow(big_a, a), -1, group.p)
        out = bytearray()
        for i, (m0, m1) in enumerate(pairs):
            big_b = int.from_bytes(payload[i * size : (i + 1) * size], "big")
            # k0 = H(B^a); k1 = H((B/A)^a) = H(B^a / A^a)
            b_a = group.pow(big_b, a)
            k0 = _kdf(b"k", i.to_bytes(4, "big"), _int_bytes(b_a, group))
            b_over_a = (b_a * inv_a_a) % group.p
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
# IKNP OT extension: a connection-scoped pool of random OTs
# ----------------------------------------------------------------------

#: Random OTs per pool top-up.  A multiple of 128, so a top-up draws
#: whole PRG blocks per column; a pool holds less than one chunk more
#: than the query that last topped it up needed.
POOL_CHUNK = 256

_M64 = (1 << 64) - 1
#: High words of the fixed-key hash tweaks the pool uses.  Garbling
#: tweaks are gate counters (high word 0); the pool's row hash and its
#: column PRG set the top bit and differ below it, so no tweak is shared.
_ROW_HASH = np.uint64(1 << 63)
_COLUMN_PRG = np.uint64((1 << 63) | 1)
_NO_ROWS = np.empty((0, 32), dtype=np.uint8)


def _words(values: list[int]) -> np.ndarray:
    """128-bit integers as (n, 2) uint64 [hi, lo] words."""
    return np.array(
        [(v >> 64, v & _M64) for v in values], dtype=np.uint64
    ).reshape(-1, 2)


def _tweaks(domain: np.uint64, start: int, n: int) -> np.ndarray:
    """Tweaks ``domain ‖ start .. domain ‖ start+n-1`` as (n, 2) words."""
    out = np.empty((n, 2), dtype=np.uint64)
    out[:, 0] = domain
    out[:, 1] = np.arange(start, start + n, dtype=np.uint64)
    return out


def _be_bytes(words: np.ndarray) -> np.ndarray:
    """(..., 2) uint64 words as their big-endian bytes, (..., 16) uint8."""
    return words.astype(">u8").view(np.uint8).reshape(*words.shape[:-1], 16)


def _column_prg(hash_fn: GarblingHash, seeds: np.ndarray, start: int, n: int) -> np.ndarray:
    """Bits ``start .. start+n`` of every seed's PRG stream, packed
    (one row of n/8 bytes per seed), in one fixed-key AES call.

    Block b of a column's stream is H(seed, PRG-domain ‖ b): the
    stream continues across top-ups and never reuses a counter.
    """
    blocks = _tweaks(_COLUMN_PRG, start // 128, n // 128)
    out = hash_fn.hash_words(seeds[:, None, :], blocks[None, :, :])
    return _be_bytes(out).reshape(len(seeds), n // 8)


def _rows(columns: np.ndarray) -> np.ndarray:
    """The n rows of a (128, n/8) packed bit matrix, as (n, 2) words."""
    rows = np.packbits(np.unpackbits(columns, axis=1).T, axis=1)
    return np.ascontiguousarray(rows).view(">u8").astype(np.uint64)


def _row_hash(hash_fn: GarblingHash, rows: np.ndarray, start: int) -> np.ndarray:
    """H(row_j, row-hash-domain ‖ j) for pool indices j = start.. as
    big-endian bytes; ``rows`` is (n, 2) or (n, 2, 2) words."""
    tweaks = _tweaks(_ROW_HASH, start, len(rows))
    if rows.ndim == 3:
        tweaks = tweaks[:, None, :]
    return _be_bytes(hash_fn.hash_words(rows, tweaks))


def _index(payload: bytes) -> int:
    if len(payload) < 8:
        raise OTIndexError("OT frame too short to name a pool index")
    return int.from_bytes(payload[:8], "big")


class OTExtensionSender:
    """The garbler's side of one connection's IKNP random-OT pool.

    One object per connection, kept across its queries.  Each query
    opens with an ``ot.pool`` frame announcing the pool held (its id
    and end index; empty when there is none).  The client answers in
    one flight: on a mismatch an ``ot.setup`` frame and the 128 base
    OTs (this side is the base-OT receiver, choosing with its secret
    vector s), when the pool runs short an ``ot.ext.u`` top-up, then
    ``ot.d`` — one correction bit d = x ⊕ c per transfer, for every
    transfer of the query, from a named start index.  Transfers are
    Beaver-derandomised: each ``ot.e`` answer is (m0 ⊕ r_d, m1 ⊕ r_1⊕d)
    for the pool's random pair (r0, r1), so answering is XORs only.

    Every pool index is answered at most once: corrections below the
    cursor, or past the pool, raise :class:`~repro.errors.OTIndexError`
    before anything is sent.  The pool is a fixed (n, 32) byte array,
    compacted at each top-up to the unused rows plus the new chunk.
    """

    def __init__(self, group: DHGroup = DEFAULT_GROUP):
        self._group = group
        self._hash = GarblingHash()
        self._reset()

    def _reset(self) -> None:
        #: the client-chosen id of the pool held (None before setup)
        self.pool_id: bytes | None = None
        self._s = np.zeros(K_SECURITY, dtype=np.uint8)
        self._s_words = np.zeros(2, dtype=np.uint64)
        self._seeds: np.ndarray | None = None
        #: pool index of the first row of ``_pool``
        self._base = 0
        #: one row per random OT: r0 ‖ r1
        self._pool = _NO_ROWS
        #: the first pool index not yet answered
        self._cursor = 0
        #: the open query's pads, in transfer order: the pad of m0 ‖ m1
        self._pads = _NO_ROWS
        self._pads_used = 0

    @property
    def end(self) -> int:
        """One past the last pool index held."""
        return self._base + len(self._pool)

    @property
    def pool_bytes(self) -> int:
        """Bytes of OT state held between transfers."""
        return self._pool.nbytes + self._pads.nbytes

    @property
    def open_frames(self) -> int:
        """Frames the next query's opening sends before its first
        ``ot.e``: the ``ot.pool`` announcement and, with no pool held,
        the base-OT answer ``ot.base.B``.  The client sets a pool up
        exactly when the announcement is not the pool it holds, and the
        two sides of a connection hold the same one, so the sender's
        own state says which."""
        return 1 if self.pool_id is not None else 2

    def send(self, channel: Endpoint, pairs: list[tuple[int, int]],
             upcoming: int | None = None) -> None:
        """Transfer one of each (m0, m1) pair (128-bit ints) as ``ot.e``.

        ``upcoming`` opens a query: the count of transfers the query
        makes after this one.  The pool is announced and the client's
        corrections for all ``len(pairs) + upcoming`` transfers are
        received; later calls (``upcoming=None``) answer from them.
        """
        if upcoming is not None:
            self._open(channel, len(pairs) + upcoming)
        n = len(pairs)
        pads = self._pads[self._pads_used : self._pads_used + n]
        if len(pads) != n:
            raise OTIndexError(
                f"{n} transfers but {len(pads)} corrections left in this query"
            )
        self._pads_used += n
        messages = np.frombuffer(
            b"".join(m0.to_bytes(16, "big") + m1.to_bytes(16, "big") for m0, m1 in pairs),
            dtype=np.uint8,
        ).reshape(n, 32)
        channel.send("ot.e", (messages ^ pads).tobytes())

    def _open(self, channel: Endpoint, n: int) -> None:
        self._pads, self._pads_used = _NO_ROWS, 0
        announce = b"" if self.pool_id is None else self.pool_id + self.end.to_bytes(8, "big")
        channel.send("ot.pool", announce)
        tag, body = channel.recv_any(("ot.setup", "ot.ext.u", "ot.d"))
        if tag == "ot.setup":
            self._setup(channel, body)
            tag, body = channel.recv_any(("ot.ext.u", "ot.d"))
        if tag == "ot.ext.u":
            self._top_up(body)
            body = channel.recv("ot.d")
        self._correct(body, n)

    def _setup(self, channel: Endpoint, pool_id: bytes) -> None:
        if len(pool_id) != 8:
            raise CryptoError("OT setup: pool id must be 8 bytes")
        self._reset()
        s = np.unpackbits(np.frombuffer(secrets.token_bytes(K_SECURITY // 8), dtype=np.uint8))
        # base OTs with roles swapped: this side chooses with s
        seeds = BaseOTReceiver(channel, self._group).receive([int(b) for b in s])
        self._s = s
        self._s_words = np.packbits(s).view(">u8").astype(np.uint64)
        self._seeds = _words(seeds)
        self.pool_id = bytes(pool_id)

    def _top_up(self, payload: bytes) -> None:
        start = _index(payload)
        u = np.frombuffer(payload, dtype=np.uint8, offset=8)
        if self._seeds is None or start != self.end:
            raise OTIndexError(
                f"top-up at pool index {start}, but the pool ends at {self.end}"
            )
        if not u.size or u.size % (K_SECURITY * 16):
            raise CryptoError("OT top-up: not a whole number of 128-OT blocks")
        u = u.reshape(K_SECURITY, -1)
        n = 8 * u.shape[1]
        # q_i = G(k_{s_i}) ⊕ s_i·u_i, so row q_j = t_j ⊕ c_j·s
        q = _column_prg(self._hash, self._seeds, start, n) ^ (u * self._s[:, None])
        rows = _rows(q)
        pads = _row_hash(self._hash, np.stack([rows, rows ^ self._s_words], axis=1), start)
        self._pool = np.concatenate([self._pool[self._cursor - self._base :], pads.reshape(n, 32)])
        self._base = self._cursor

    def _correct(self, payload: bytes, n: int) -> None:
        start = _index(payload)
        count = int.from_bytes(payload[8:12], "big")
        if count != n or len(payload) != 12 + (n + 7) // 8:
            raise CryptoError(f"OT corrections for {count} transfers, expected {n}")
        if start < self._cursor:
            raise OTIndexError(
                f"corrections reuse pool index {start} (next unused: {self._cursor})"
            )
        if start + n > self.end:
            raise OTIndexError(
                f"corrections reach pool index {start + n}, past the pool's end {self.end}"
            )
        d = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, offset=12))[:n]
        rows = self._pool[start - self._base : start - self._base + n]
        # d = 1 swaps which random pad masks which message
        self._pads = np.where(d[:, None].astype(bool), np.roll(rows, 16, axis=1), rows)
        self._cursor = start + n


class OTExtensionReceiver:
    """The client's side of one connection's IKNP random-OT pool.

    Mirrors :class:`OTExtensionSender`.  On an announcement that is not
    its own pool it runs a fresh setup in band (new id, 128 base OTs as
    the base-OT sender); when the pool holds fewer unused random OTs
    than the query needs it tops up by whole :data:`POOL_CHUNK` chunks,
    each with fresh random choice bits c.  It then sends one ``ot.d``
    for every transfer of the query and advances its cursor, so a
    resumed or retried query always consumes fresh indices.
    """

    def __init__(self, group: DHGroup = DEFAULT_GROUP):
        self._group = group
        self._hash = GarblingHash()
        self._reset()

    def _reset(self) -> None:
        self.pool_id: bytes | None = None
        #: k0 seeds of the 128 columns, then their k1 seeds
        self._seeds: np.ndarray | None = None
        self._base = 0
        #: per random OT: the choice bit c and the pad r_c
        self._choices = np.empty(0, dtype=np.uint8)
        self._pool = np.empty((0, 16), dtype=np.uint8)
        self._cursor = 0
        #: the open query's choices and pads, in transfer order
        self._x = np.empty(0, dtype=np.uint8)
        self._pads = np.empty((0, 16), dtype=np.uint8)
        self._pads_used = 0

    @property
    def end(self) -> int:
        return self._base + len(self._pool)

    @property
    def pool_bytes(self) -> int:
        return (self._choices.nbytes + self._pool.nbytes
                + self._x.nbytes + self._pads.nbytes)

    def receive(self, channel: Endpoint, choices: list[int],
                upcoming: list[int] | None = None) -> list[int]:
        """Receive the chosen message of each transfer from ``ot.e``.

        ``upcoming`` opens a query: the choice bits of the transfers
        the query makes after this one.  The corrections for all of
        them go out in one flight; later calls (``upcoming=None``)
        receive those transfers in order.
        """
        if upcoming is not None:
            self._open(channel, list(choices) + list(upcoming))
        n = len(choices)
        lo, hi = self._pads_used, self._pads_used + n
        x = np.array(choices, dtype=np.uint8)
        if hi > len(self._x) or not np.array_equal(x, self._x[lo:hi]):
            raise CryptoError("OT receive: choices differ from the corrected ones")
        self._pads_used = hi
        e = np.frombuffer(channel.recv("ot.e"), dtype=np.uint8)
        if e.size != 32 * n:
            raise CryptoError(f"OT answer holds {e.size} bytes for {n} transfers")
        chosen = (e.reshape(n, 2, 16)[np.arange(n), x] ^ self._pads[lo:hi]).tobytes()
        return [int.from_bytes(chosen[16 * j : 16 * j + 16], "big") for j in range(n)]

    def _open(self, channel: Endpoint, choices: list[int]) -> None:
        n = len(choices)
        announced = channel.recv("ot.pool")
        if self.pool_id is None or announced != self.pool_id + self.end.to_bytes(8, "big"):
            self._setup(channel)
        short = n - (self.end - self._cursor)
        if short > 0:
            self._top_up(channel, POOL_CHUNK * -(-short // POOL_CHUNK))
        start, lo = self._cursor, self._cursor - self._base
        x = np.array(choices, dtype=np.uint8)
        d = x ^ self._choices[lo : lo + n]
        channel.send(
            "ot.d",
            start.to_bytes(8, "big") + n.to_bytes(4, "big") + np.packbits(d).tobytes(),
        )
        self._cursor = start + n
        self._x, self._pads, self._pads_used = x, self._pool[lo : lo + n], 0

    def _setup(self, channel: Endpoint) -> None:
        self._reset()
        pool_id = secrets.token_bytes(8)
        channel.send("ot.setup", pool_id)
        seeds = [(secrets.randbits(128), secrets.randbits(128)) for _ in range(K_SECURITY)]
        BaseOTSender(channel, self._group).send(seeds)
        self._seeds = _words([k0 for k0, _ in seeds] + [k1 for _, k1 in seeds])
        self.pool_id = pool_id

    def _top_up(self, channel: Endpoint, n: int) -> None:
        start = self.end
        c = np.unpackbits(np.frombuffer(secrets.token_bytes(n // 8), dtype=np.uint8))
        g = _column_prg(self._hash, self._seeds, start, n)
        t = g[:K_SECURITY]
        u = t ^ g[K_SECURITY:] ^ np.packbits(c)
        channel.send("ot.ext.u", start.to_bytes(8, "big") + u.tobytes())
        pads = _row_hash(self._hash, _rows(t), start)
        keep = self._cursor - self._base
        self._choices = np.concatenate([self._choices[keep:], c])
        self._pool = np.concatenate([self._pool[keep:], pads])
        self._base = self._cursor


def _extends(n_transfers: int, extension: bool | None) -> bool:
    """The OT-size policy: IKNP extension once the transfers outnumber
    the base-OT security parameter (base OTs amortise away, per the
    paper's OT-extension [24]), base OT below; ``extension`` forces
    either."""
    return n_transfers > K_SECURITY if extension is None else extension


def send_labels(
    channel: Endpoint,
    pairs: list[tuple[int, int]],
    group: DHGroup = DEFAULT_GROUP,
    extension: bool | None = None,
) -> None:
    """One stand-alone OT of ``pairs``: base OT, or the IKNP extension
    on a fresh pool, by the OT-size policy."""
    if _extends(len(pairs), extension):
        OTExtensionSender(group).send(channel, pairs, upcoming=0)
    else:
        BaseOTSender(channel, group).send(pairs)


def receive_labels(
    channel: Endpoint,
    choices: list[int],
    group: DHGroup = DEFAULT_GROUP,
    extension: bool | None = None,
) -> list[int]:
    """The receiver matching :func:`send_labels` for the same count."""
    if _extends(len(choices), extension):
        return OTExtensionReceiver(group).receive(channel, choices, upcoming=[])
    return BaseOTReceiver(channel, group).receive(choices)


def transfer_labels(
    sender_channel: Endpoint,
    receiver_channel: Endpoint,
    pairs: list[tuple[int, int]],
    choices: list[int],
    group: DHGroup = DEFAULT_GROUP,
    use_extension: bool | None = None,
) -> list[int]:
    """Run a complete OT (both sides, interleaved) and return the labels.

    With ``use_extension`` unset the OT-size policy of :func:`send_labels`
    picks base OT or IKNP extension.
    """
    if len(pairs) != len(choices):
        raise CryptoError("need exactly one choice bit per message pair")
    _, labels = run_two_party(
        lambda: send_labels(sender_channel, pairs, group, use_extension),
        lambda: receive_labels(receiver_channel, choices, group, use_extension),
    )
    return labels
