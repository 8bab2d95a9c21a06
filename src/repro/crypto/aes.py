"""AES-128: a from-scratch FIPS-197 oracle and an OpenSSL batch engine.

The garbling scheme of Bellare et al. [23] keys a single AES-128 instance
once and then encrypts one block per garbled table, so encryption speed of
a *fixed-key* cipher is what matters.  Two code paths are provided:

* a scalar T-table implementation written from the standard
  (``encrypt_block`` / ``encrypt_u128``), used by the FSM reference
  garbler and the scalar evaluator oracle, where blocks arrive one at a
  time;
* a batch path (``encrypt_words``) used by both parties' run-plan
  garbling hash, the label DRBG and the OT-extension hash.  It hands a
  whole batch to one fixed-key AES-128-ECB encryptor from
  ``cryptography`` (OpenSSL, on the CPU's AES instructions where the
  host has them): the software stand-in for the paper's fixed-key AES
  engines, one ``update()`` per batch.

The scalar path is the oracle the batch path is tested against, on the
FIPS-197 appendix vectors and on random batches in both word layouts.
"""

from __future__ import annotations

import threading

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.errors import CryptoError

BLOCK_BYTES = 16
_MASK32 = 0xFFFFFFFF


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Carry-less multiply in GF(2^8) with AES reduction."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    """Construct the AES S-box from the field inverse + affine transform.

    Building it instead of hard-coding 256 literals removes a whole class
    of transcription errors; the FIPS-197 vectors in the tests pin it down.
    """
    # Multiplicative inverse via log tables over generator 3.
    log = [0] * 256
    alog = [0] * 256
    x = 1
    for i in range(255):
        alog[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    alog[255] = alog[0]

    def inverse(v: int) -> int:
        if v == 0:
            return 0
        return alog[255 - log[v]]

    sbox = [0] * 256
    for v in range(256):
        inv = inverse(v)
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        res = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            res |= b << bit
        sbox[v] = res

    inv_sbox = [0] * 256
    for v, s in enumerate(sbox):
        inv_sbox[s] = v
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _build_enc_tables() -> list[list[int]]:
    """The four classic 32-bit encryption T-tables."""
    t0 = []
    for v in range(256):
        s = SBOX[v]
        word = (_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3)
        t0.append(word)

    def ror8(w: int) -> int:
        return ((w >> 8) | (w << 24)) & _MASK32

    t1 = [ror8(w) for w in t0]
    t2 = [ror8(w) for w in t1]
    t3 = [ror8(w) for w in t2]
    return [t0, t1, t2, t3]


_T0, _T1, _T2, _T3 = _build_enc_tables()

#: Batch layouts: words are big-endian *values* (AES byte 0 is the most
#: significant byte of word 0) held in host order; the engine reads and
#: writes bytes, so each batch goes through the explicit big-endian dtype
#: of its word width on the way in and out, whatever the host's order.
_WORD_DTYPE = {4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}
_BE_DTYPE = {4: np.dtype(">u4"), 8: np.dtype(">u8")}

def expand_key(key: bytes) -> list[int]:
    """AES-128 key schedule: 44 32-bit round-key words."""
    if len(key) != 16:
        raise CryptoError(f"AES-128 key must be 16 bytes, got {len(key)}")
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & _MASK32  # RotWord
            temp = (  # SubWord
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return words


class AES128:
    """AES-128 block cipher with a scalar oracle and a batch engine.

    Invocation counters (`scalar_calls`, `batch_calls`, `batch_blocks`)
    model the hardware interface: each *batch call* is one hand-off to
    the batch engine regardless of how many blocks ride in it, so the
    run-plan garbler can prove "one AES invocation per topological
    stage" from the counters alone.

    Each thread that encrypts a batch gets its own OpenSSL encryptor for
    this key, kept on the instance: a cipher context is never shared
    between threads (the gateway's serve and refill threads hash on one
    cipher), and it is freed with the instance.
    """

    def __init__(self, key: bytes):
        self.key = bytes(key)
        self._rk = expand_key(self.key)
        self._local = threading.local()
        self.scalar_calls = 0
        self.batch_calls = 0
        self.batch_blocks = 0

    # ------------------------------------------------------------------
    # scalar path
    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != BLOCK_BYTES:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        self.scalar_calls += 1
        rk = self._rk
        w0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        w1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        w2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        w3 = int.from_bytes(block[12:16], "big") ^ rk[3]

        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        k = 4
        for _ in range(9):
            n0 = t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF] ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ rk[k]
            n1 = t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF] ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ rk[k + 1]
            n2 = t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF] ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ rk[k + 2]
            n3 = t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF] ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ rk[k + 3]
            w0, w1, w2, w3 = n0, n1, n2, n3
            k += 4

        sbox = SBOX
        f0 = (
            (sbox[w0 >> 24] << 24)
            | (sbox[(w1 >> 16) & 0xFF] << 16)
            | (sbox[(w2 >> 8) & 0xFF] << 8)
            | sbox[w3 & 0xFF]
        ) ^ rk[40]
        f1 = (
            (sbox[w1 >> 24] << 24)
            | (sbox[(w2 >> 16) & 0xFF] << 16)
            | (sbox[(w3 >> 8) & 0xFF] << 8)
            | sbox[w0 & 0xFF]
        ) ^ rk[41]
        f2 = (
            (sbox[w2 >> 24] << 24)
            | (sbox[(w3 >> 16) & 0xFF] << 16)
            | (sbox[(w0 >> 8) & 0xFF] << 8)
            | sbox[w1 & 0xFF]
        ) ^ rk[42]
        f3 = (
            (sbox[w3 >> 24] << 24)
            | (sbox[(w0 >> 16) & 0xFF] << 16)
            | (sbox[(w1 >> 8) & 0xFF] << 8)
            | sbox[w2 & 0xFF]
        ) ^ rk[43]
        return b"".join(w.to_bytes(4, "big") for w in (f0, f1, f2, f3))

    def encrypt_u128(self, value: int) -> int:
        """Encrypt a block given (and returned) as a 128-bit integer."""
        return int.from_bytes(self.encrypt_block(value.to_bytes(16, "big")), "big")

    # ------------------------------------------------------------------
    # decryption (scalar only; the GC protocol never decrypts, this is
    # provided for completeness and round-trip tests)
    # ------------------------------------------------------------------
    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block (straightforward inverse cipher)."""
        if len(block) != BLOCK_BYTES:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        state = [list(block[i::4]) for i in range(4)]  # state[row][col]
        rk = self._rk

        def add_round_key(rnd: int) -> None:
            for col in range(4):
                word = rk[4 * rnd + col]
                for row in range(4):
                    state[row][col] ^= (word >> (24 - 8 * row)) & 0xFF

        def inv_shift_rows() -> None:
            for row in range(1, 4):
                state[row] = state[row][-row:] + state[row][:-row]

        def inv_sub_bytes() -> None:
            for row in range(4):
                state[row] = [INV_SBOX[v] for v in state[row]]

        def inv_mix_columns() -> None:
            for col in range(4):
                a = [state[row][col] for row in range(4)]
                state[0][col] = _gf_mul(a[0], 14) ^ _gf_mul(a[1], 11) ^ _gf_mul(a[2], 13) ^ _gf_mul(a[3], 9)
                state[1][col] = _gf_mul(a[0], 9) ^ _gf_mul(a[1], 14) ^ _gf_mul(a[2], 11) ^ _gf_mul(a[3], 13)
                state[2][col] = _gf_mul(a[0], 13) ^ _gf_mul(a[1], 9) ^ _gf_mul(a[2], 14) ^ _gf_mul(a[3], 11)
                state[3][col] = _gf_mul(a[0], 11) ^ _gf_mul(a[1], 13) ^ _gf_mul(a[2], 9) ^ _gf_mul(a[3], 14)

        add_round_key(10)
        for rnd in range(9, 0, -1):
            inv_shift_rows()
            inv_sub_bytes()
            add_round_key(rnd)
            inv_mix_columns()
        inv_shift_rows()
        inv_sub_bytes()
        add_round_key(0)
        out = bytearray(16)
        for col in range(4):
            for row in range(4):
                out[4 * col + row] = state[row][col]
        return bytes(out)

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    def _encryptor(self):
        """This thread's fixed-key AES-128-ECB encryptor.

        ECB over whole blocks buffers nothing between ``update()`` calls,
        so one context serves every batch the thread encrypts.
        """
        try:
            return self._local.encryptor
        except AttributeError:
            encryptor = Cipher(algorithms.AES(self.key), modes.ECB()).encryptor()
            self._local.encryptor = encryptor
            return encryptor

    def encrypt_words(self, words: np.ndarray, allow_copy: bool = True) -> np.ndarray:
        """Encrypt a batch of blocks held as big-endian-valued words.

        Two layouts are accepted, and the output comes back in the
        input's layout: ``(n, 4)`` uint32 rows of the four column words,
        or ``(n, 2)`` uint64 rows of the [hi, lo] block halves (the
        garbling hash's label layout, so it needs no conversion).

        The batch contract is explicit: the input must be C-contiguous
        in one of those layouts.  Anything else is either *copied
        explicitly* into that layout (``allow_copy=True``, the default;
        a mistyped ``(n, 4)`` array becomes uint32) or rejected with :class:`~repro.errors.CryptoError`
        (``allow_copy=False``, the hot-path setting).  There is
        deliberately no silent degradation path — a strided view never
        dribbles through a per-block fallback.
        """
        if words.ndim == 2 and words.dtype == np.uint64 and words.shape[1] == 2:
            width = 8
        elif words.ndim != 2 or words.shape[1] != 4:
            raise CryptoError(
                f"expected (n, 4) uint32 or (n, 2) uint64 array, got shape {words.shape}"
            )
        else:
            width = 4
        if words.dtype != _WORD_DTYPE[width] or not words.flags.c_contiguous:
            if not allow_copy:
                raise CryptoError(
                    "batch AES input must be a C-contiguous (n, 4) uint32 or "
                    "(n, 2) uint64 array "
                    f"(got dtype={words.dtype}, contiguous="
                    f"{words.flags.c_contiguous}); pass allow_copy=True to "
                    "copy it into that layout explicitly"
                )
            words = np.ascontiguousarray(words, dtype=_WORD_DTYPE[width])
        self.batch_calls += 1
        self.batch_blocks += int(words.shape[0])
        be = _BE_DTYPE[width]
        cipher = self._encryptor().update(words.astype(be).view(np.uint8))
        return np.frombuffer(cipher, dtype=be).reshape(words.shape).astype(words.dtype)

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """Encrypt a byte string holding n concatenated 16-byte blocks."""
        if len(blocks) % BLOCK_BYTES:
            raise CryptoError("input is not a whole number of blocks")
        raw = np.frombuffer(blocks, dtype=">u4").reshape(-1, 4).astype(np.uint32)
        out = self.encrypt_words(raw)
        return out.astype(">u4").tobytes()


def words_from_u128(values: list[int]) -> np.ndarray:
    """Pack 128-bit integers into the (n, 4) uint32 layout of the batch path."""
    n = len(values)
    out = np.empty((n, 4), dtype=np.uint32)
    for i, v in enumerate(values):
        out[i, 0] = (v >> 96) & _MASK32
        out[i, 1] = (v >> 64) & _MASK32
        out[i, 2] = (v >> 32) & _MASK32
        out[i, 3] = v & _MASK32
    return out


def u128_from_words(words: np.ndarray) -> list[int]:
    """Inverse of :func:`words_from_u128`."""
    return [
        (int(r[0]) << 96) | (int(r[1]) << 64) | (int(r[2]) << 32) | int(r[3])
        for r in words
    ]
