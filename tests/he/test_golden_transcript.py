"""A seeded HE exchange hashes to a pinned digest.

The transform behind every ring product is exact, so a rewrite of
:mod:`repro.he.ntt` or of the ciphertext codec must leave every byte
of a seeded session unchanged: the query and answer ciphertexts, the
decoded MAC values and the noise budgets the client reads.  The
digests below were recorded from the big-int butterfly implementation
that preceded the RNS transform.
"""

import hashlib

import numpy as np
import pytest

from repro.fixedpoint import Q8_4, Q32_16
from repro.he.mac import HEMacClient, HEMacServer

ROWS = COLS = 16

GOLDEN = {
    "Q8_4": "de8556f992bf832212b48ba82b5ce51adad16bcf5b33f5f4719bd93bee53600d",
    "Q32_16": "0934784fb028a7036f0f982313d629a78210de95f2a2b12342aa038bacd20522",
}


def _on_grid(rng, fmt, shape):
    return np.round(rng.uniform(-4, 4, shape) * fmt.scale) / fmt.scale


def _transcript(fmt, seed: int = 2024) -> str:
    rng = np.random.default_rng(seed)
    matrix = _on_grid(rng, fmt, (ROWS, COLS))
    server = HEMacServer(matrix, fmt)
    client = HEMacClient(server.params, fmt, seed=seed)
    raw_matrix = fmt.encode_array(matrix)
    digest = hashlib.sha256()

    def record(query, answer, values):
        digest.update(query)
        digest.update(answer)
        digest.update(repr(values).encode())
        digest.update(repr(client.last_noise_budget_bits).encode())
        assert client.last_noise_budget_bits > 0

    for row in (0, 7, ROWS - 1):
        x = _on_grid(rng, fmt, COLS)
        query = client.encrypt_query(x)
        answer = server.answer_query(query, row)
        value = client.decrypt_row_result(answer)
        assert value == int(raw_matrix[row] @ fmt.encode_array(x))
        record(query, answer, value)
    x = _on_grid(rng, fmt, COLS)
    query = client.encrypt_query(x)
    answer = server.answer_matvec(query)
    values = client.decrypt_matvec_result(answer, ROWS)
    assert values == [int(v) for v in raw_matrix @ fmt.encode_array(x)]
    record(query, answer, values)
    return digest.hexdigest()


@pytest.mark.parametrize("name, fmt", [("Q8_4", Q8_4), ("Q32_16", Q32_16)])
def test_seeded_exchange_matches_the_pinned_digest(name, fmt):
    assert _transcript(fmt) == GOLDEN[name]
