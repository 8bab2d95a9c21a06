"""Encrypted-MAC session objects and the ``he.*`` wire exchange.

One HE query is a single round trip: the client sends ``he.query``
(one serialized ciphertext encrypting its packed query vector), the
server answers ``he.result`` (the ciphertext multiplied by the
requested plaintext row).  The server never sees a key and uses no
randomness — re-sending a stored result after a crash is exactly as
safe as re-sending a garbled-table frame, which is what lets the
recovery machinery treat both backends uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CryptoError
from repro.fixedpoint import FixedPointFormat
from repro.he.bfv import BFVContext, Ciphertext, SecretKey
from repro.he.encoder import (
    encode_matrix,
    encode_query,
    encode_row,
    extract_result,
)
from repro.he.params import HEParams, params_for_workload

HE_QUERY_TAG = "he.query"
HE_RESULT_TAG = "he.result"


class HEMacServer:
    """Server half: plaintext model rows, ciphertext-in/ciphertext-out.

    Rows are transformed once at construction, so answering a query
    costs two transforms (one forward and one inverse, each over the
    stacked ``(c0, c1)``) regardless of how many queries hit the same
    row.
    """

    def __init__(self, model_matrix, fmt: FixedPointFormat):
        a = np.atleast_2d(np.asarray(model_matrix, dtype=float))
        self.fmt = fmt
        self.rows, self.cols = a.shape
        self.params = params_for_workload(fmt, self.rows, self.cols)
        self.context = BFVContext(self.params)
        self._row_plain = [
            self.context.make_plain(encode_row(a[r], fmt, self.params, block=0))
            for r in range(self.rows)
        ]
        self._matrix_plain = self.context.make_plain(
            encode_matrix(a, fmt, self.params)
        )

    def answer_query(self, query_bytes: bytes, row_index: int) -> bytes:
        """One row's encrypted MAC: ``Enc(x) * A[row]`` (block 0)."""
        if not 0 <= row_index < self.rows:
            raise CryptoError(f"row index {row_index} out of range")
        ct = Ciphertext.from_bytes(bytes(query_bytes), self.params)
        product = self.context.plain_mul(ct, self._row_plain[row_index])
        return product.to_bytes(self.params)

    def answer_matvec(self, query_bytes: bytes) -> bytes:
        """The batched SIMD matvec: every row in one multiplication."""
        ct = Ciphertext.from_bytes(bytes(query_bytes), self.params)
        product = self.context.plain_mul(ct, self._matrix_plain)
        return product.to_bytes(self.params)


class HEMacClient:
    """Client half: owns the secret key; encrypts queries, decrypts
    and decodes results.  Seeded construction makes the whole session
    transcript reproducible."""

    def __init__(self, params: HEParams, fmt: FixedPointFormat,
                 seed: int | None = None):
        self.params = params
        self.fmt = fmt
        self.context = BFVContext(params)
        self._rng = np.random.default_rng(seed)
        self.secret_key: SecretKey = self.context.keygen(self._rng)
        #: Noise budget of the last decrypted result (bits), for
        #: telemetry and the underflow property tests.
        self.last_noise_budget_bits: int | None = None

    def encrypt_query(self, x) -> bytes:
        coeffs = encode_query(x, self.fmt, self.params)
        ct = self.context.encrypt(coeffs, self.secret_key, self._rng)
        return ct.to_bytes(self.params)

    def _decrypt(self, result_bytes: bytes) -> list[int]:
        ct = Ciphertext.from_bytes(bytes(result_bytes), self.params)
        plain, self.last_noise_budget_bits = self.context.decrypt_with_budget(
            ct, self.secret_key
        )
        return plain

    def decrypt_row_result(self, result_bytes: bytes) -> int:
        """Raw product-scale MAC value (centered acc_width-bit int)."""
        return extract_result(self._decrypt(result_bytes), self.params, block=0)

    def decrypt_matvec_result(self, result_bytes: bytes, rows: int) -> list[int]:
        plain = self._decrypt(result_bytes)
        return [extract_result(plain, self.params, block=r) for r in range(rows)]
