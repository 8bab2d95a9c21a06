"""The backend-neutral private-MAC seam.

The paper's related work splits into two camps — garbled-circuit
accelerators (MAXelerator itself) and homomorphic-encryption
accelerators (FAB, FAME) — and the comparison study between them asks
one question: *for a given fixed-point MAC workload, which protocol
is cheaper?*  This module is where that question becomes askable in
code.  A :class:`PrivateMACSession` hides which cryptographic backend
evaluates the dot product behind a single contract:

- session setup binds a model matrix and a
  :class:`~repro.fixedpoint.FixedPointFormat`;
- :meth:`~PrivateMACSession.query_row` / ``query_matvec`` return the
  *same* decoded fixed-point values from every backend (bit-identical
  to the quantised plaintext oracle — both backends compute in the
  same ``acc_width``-bit two's-complement accumulator ring);
- :attr:`~PrivateMACSession.accounting` exposes the comparable costs:
  MACs evaluated, client->server flights, and bytes each way.

``repro.apps`` consumes the seam for its HE mode, the benchmark
(`benchmarks/bench_backends.py`) consumes it for both backends, and
the serving stack negotiates the same backend identifiers over the
wire (:mod:`repro.net.handshake`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.bits import from_bits, to_bits
from repro.crypto.ot import (
    TOY_GROUP,
    DHGroup,
    OTExtensionReceiver,
    OTExtensionSender,
)
from repro.errors import ConfigurationError, GCProtocolError
from repro.fixedpoint import FixedPointFormat, Q16_8
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import SequentialEvaluator
from repro.host import CloudServer

#: The negotiable private-MAC backends: garbled circuits (the paper's
#: datapath) and the BFV-style encrypted MAC (:mod:`repro.he`).
BACKENDS = ("gc", "he")


@dataclass
class MACAccounting:
    """Cumulative protocol costs over a session's lifetime.

    ``round_trips`` counts client->server flights — the messages the
    client must send before the protocol can complete — which is the
    latency-shaping quantity the GC-vs-HE comparison cares about (GC
    pays one OT flight per MAC round, HE pays exactly one query).
    """

    macs: int = 0
    round_trips: int = 0
    bytes_to_server: int = 0
    bytes_to_client: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_to_server + self.bytes_to_client


class PrivateMACSession(abc.ABC):
    """One model bound to one backend; queries until :meth:`close`."""

    #: backend identifier, one of :data:`BACKENDS`
    backend: str

    def __init__(self, fmt: FixedPointFormat, n_rows: int, rounds: int):
        self.fmt = fmt
        self.n_rows = n_rows
        self.rounds = rounds
        self.accounting = MACAccounting()

    @abc.abstractmethod
    def query_row(self, row_index: int, x_values) -> float:
        """Decoded fixed-point ``<model[row], x>``."""

    def query_matvec(self, x_values) -> np.ndarray:
        """Decoded ``model @ x`` (backends may batch; default loops)."""
        return np.array(
            [self.query_row(r, x_values) for r in range(self.n_rows)]
        )

    def expected_row(self, row_index: int, x_values) -> float:
        """The quantised plaintext oracle for one row.

        Accumulated in exact python ints: the 32-bit format's raw
        products span a 67-bit accumulator, past what an int64 numpy
        dot product can hold.
        """
        enc_x = self.fmt.encode_array(np.asarray(x_values, dtype=np.float64))
        raw = sum(int(a) * int(b)
                  for a, b in zip(self._encoded_model()[row_index], enc_x))
        return float(self.fmt.decode_product(raw))

    @abc.abstractmethod
    def _encoded_model(self) -> np.ndarray:
        """The fixed-point-encoded model matrix (oracle support)."""

    def close(self) -> None:  # pragma: no cover - default is stateless
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class GCPrivateMACSession(PrivateMACSession):
    """Garbled-circuit backend: a local two-party run per MAC.

    Wraps a :class:`~repro.host.CloudServer` + sequential evaluator
    pair over an in-process channel, with the channel's traffic stats
    folded into :attr:`accounting` so the costs are measured, not
    estimated.  The session is one connection: its OT pool is set up on
    the first query and reused.
    """

    backend = "gc"

    def __init__(self, model_matrix, fmt: FixedPointFormat = Q16_8, *,
                 seed: int | None = None, group: DHGroup = TOY_GROUP,
                 pool_size: int = 1):
        self.server = CloudServer(
            model_matrix, fmt, pool_size=pool_size, group=group, seed=seed,
        )
        self._ot_sender = OTExtensionSender(group)
        self._ot_receiver = OTExtensionReceiver(group)
        super().__init__(fmt, self.server.model.shape[0],
                         self.server.rounds_per_request)

    def _encoded_model(self) -> np.ndarray:
        return self.server._encoded

    def query_row(self, row_index: int, x_values) -> float:
        x = np.asarray(x_values, dtype=np.float64)
        if x.shape != (self.rounds,):
            raise GCProtocolError(f"query vector must have {self.rounds} entries")
        x_bits = [to_bits(int(v), self.fmt.total_bits)
                  for v in self.fmt.encode_array(x)]
        accelerator = self.server.accelerator
        g_chan, e_chan = local_channel()
        evaluator = SequentialEvaluator(
            accelerator.circuit.circuit, e_chan, self.server.group,
            plan=accelerator.plan, ot=self._ot_receiver,
        )
        _, report = run_two_party(
            lambda: self.server.serve_row(g_chan, row_index, ot=self._ot_sender),
            lambda: evaluator.run(x_bits),
        )
        acct = self.accounting
        acct.macs += 1
        acct.round_trips += e_chan.sent.messages
        acct.bytes_to_server += e_chan.sent.payload_bytes
        acct.bytes_to_client += g_chan.sent.payload_bytes
        return self.fmt.decode_product(from_bits(report.output_bits, signed=True))


class HEPrivateMACSession(PrivateMACSession):
    """Encrypted-MAC backend: client and server halves in-process,
    exchanging the same serialized ciphertexts that cross the real
    wire (so the byte accounting matches the networked path)."""

    backend = "he"

    def __init__(self, model_matrix, fmt: FixedPointFormat = Q16_8, *,
                 seed: int | None = None):
        from repro.he.mac import HEMacClient, HEMacServer

        self._server = HEMacServer(model_matrix, fmt)
        self._client = HEMacClient(self._server.params, fmt, seed=seed)
        self._encoded = fmt.encode_array(
            np.atleast_2d(np.asarray(model_matrix, dtype=np.float64))
        )
        super().__init__(fmt, self._server.rows, self._server.cols)

    @property
    def params(self):
        return self._server.params

    @property
    def last_noise_budget_bits(self) -> int | None:
        return self._client.last_noise_budget_bits

    def _encoded_model(self) -> np.ndarray:
        return self._encoded

    def _account(self, query: bytes, result: bytes, macs: int):
        acct = self.accounting
        acct.macs += macs
        acct.round_trips += 1
        acct.bytes_to_server += len(query)
        acct.bytes_to_client += len(result)

    def query_row(self, row_index: int, x_values) -> float:
        if not 0 <= row_index < self.n_rows:
            raise GCProtocolError(f"model has no row {row_index}")
        query = self._client.encrypt_query(x_values)
        result = self._server.answer_query(query, row_index)
        self._account(query, result, 1)
        return self.fmt.decode_product(self._client.decrypt_row_result(result))

    def query_matvec(self, x_values) -> np.ndarray:
        """The batched SIMD path: the whole matvec under one
        plaintext multiplication — one ciphertext each way."""
        query = self._client.encrypt_query(x_values)
        result = self._server.answer_matvec(query)
        self._account(query, result, self.n_rows)
        raws = self._client.decrypt_matvec_result(result, self.n_rows)
        return np.array([self.fmt.decode_product(r) for r in raws])


def open_session(model_matrix, fmt: FixedPointFormat = Q16_8,
                 backend: str = "gc", *, seed: int | None = None,
                 **backend_options) -> PrivateMACSession:
    """Open a private-MAC session on the requested backend."""
    if backend == "gc":
        return GCPrivateMACSession(model_matrix, fmt, seed=seed, **backend_options)
    if backend == "he":
        return HEPrivateMACSession(model_matrix, fmt, seed=seed, **backend_options)
    raise ConfigurationError(
        f"unknown private-MAC backend {backend!r} (expected one of {BACKENDS})"
    )
