"""Private linear algebra on the garbled MAC — the public API of the repo.

The server (garbler) holds a matrix (the ML model); the client
(evaluator) holds a vector (its private datum).  Every output element
is one sequential-MAC run (Eq. 3 of the paper), garbled on the run plan
either for the MAXelerator's scheduled tree-multiplier circuit or for
the TinyGarble-style serial-multiplier baseline — in both cases the
client runs the identical evaluator.

Because a cycle-true garbled execution in pure Python is slow, sizes in
the *executed* path should stay small (the tests use b = 8/16 and short
vectors); :class:`repro.apps.matmul.MatVecEstimate` scales any shape
with the calibrated per-framework timing models instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.maxelerator import MAXelerator, TimingModel
from repro.accel.tree_mac import default_acc_width
from repro.baselines.overlay import OverlayModel
from repro.baselines.tinygarble import TinyGarbleModel
from repro.bits import to_bits
from repro.circuits.mac import build_sequential_mac
from repro.crypto.ot import DHGroup, TOY_GROUP
from repro.errors import ConfigurationError
from repro.fixedpoint import FixedPointFormat, Q16_8
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import SequentialEvaluator, SequentialGarbler
from repro.bits import from_bits
from repro.privatemac import open_session

#: ``maxelerator``/``tinygarble`` garble the paper's MAC circuit; ``he``
#: routes through the BFV-style encrypted MAC (:mod:`repro.he`) via the
#: backend-neutral :func:`repro.privatemac.open_session` seam.
BACKENDS = ("maxelerator", "tinygarble", "he")


@dataclass
class MatVecReport:
    """Result + accounting of one private matrix-vector product."""

    result: np.ndarray
    n_macs: int
    bitwidth: int
    backend: str
    bytes_sent_garbler: int
    bytes_sent_evaluator: int
    tables: int
    estimates: dict[str, float] = field(default_factory=dict)


def estimate_times_s(n_macs: int, bitwidth: int) -> dict[str, float]:
    """Garbling-time estimates for all frameworks at paper clock rates."""
    est = {
        "maxelerator": TimingModel(bitwidth).time_per_mac_s * n_macs,
        "tinygarble": TinyGarbleModel(bitwidth).time_per_mac_s * n_macs,
        "overlay": OverlayModel(bitwidth).time_per_mac_s * n_macs,
    }
    return est


class PrivateMatVec:
    """Server-side object: y = A @ x with A private to the server and
    x private to the client."""

    def __init__(
        self,
        matrix,
        fmt: FixedPointFormat = Q16_8,
        backend: str = "maxelerator",
        group: DHGroup = TOY_GROUP,
        seed: int | None = None,
    ):
        if backend not in BACKENDS:
            raise ConfigurationError(f"backend must be one of {BACKENDS}")
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ConfigurationError("matrix must be 2-D")
        self.fmt = fmt
        self.backend = backend
        self.group = group
        self._seed = seed
        self.bitwidth = fmt.total_bits
        n, m = self.matrix.shape
        self.acc_width = default_acc_width(self.bitwidth, max(m, 2))
        self._encoded = fmt.encode_array(self.matrix)

        if backend == "maxelerator":
            self._accelerator = MAXelerator(
                self.bitwidth, self.acc_width, seed=seed
            )
            self._circuit = self._accelerator.circuit.circuit
        elif backend == "he":
            # no circuit at all: the session owns the BFV machinery
            self._accelerator = None
            self._circuit = None
        else:
            self._accelerator = None
            self._circuit = build_sequential_mac(
                self.bitwidth, self.acc_width, kind="serial"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def n_macs(self) -> int:
        n, m = self.matrix.shape
        return n * m

    # ------------------------------------------------------------------
    def run_with_client(self, x_values) -> MatVecReport:
        """Run the full two-party protocol, one row at a time."""
        x = np.asarray(x_values, dtype=np.float64)
        n, m = self.matrix.shape
        if x.shape != (m,):
            raise ConfigurationError(f"client vector must have shape ({m},)")
        if self.backend == "he":
            return self._run_he(x)
        x_enc = self.fmt.encode_array(x)
        x_rounds = [to_bits(int(v), self.bitwidth) for v in x_enc]

        raw = np.zeros(n, dtype=np.int64)
        g_bytes = e_bytes = tables = 0
        for i in range(n):
            a_rounds = [to_bits(int(v), self.bitwidth) for v in self._encoded[i]]
            g_chan, e_chan = local_channel()
            garbler = SequentialGarbler(self._circuit, g_chan, self.group)
            garbled = None
            if self._accelerator is not None:
                [garbled] = self._accelerator.garble_vectorized(m)
            client = SequentialEvaluator(self._circuit, e_chan, self.group)
            g_rep, e_rep = run_two_party(
                lambda: garbler.run(a_rounds, garbled=garbled),
                lambda: client.run(x_rounds),
            )
            raw[i] = from_bits(e_rep.output_bits, signed=True)
            g_bytes += g_rep.bytes_sent
            e_bytes += e_rep.bytes_sent
            tables += g_rep.n_tables

        return MatVecReport(
            result=self.fmt.decode_product_array(raw),
            n_macs=self.n_macs,
            bitwidth=self.bitwidth,
            backend=self.backend,
            bytes_sent_garbler=g_bytes,
            bytes_sent_evaluator=e_bytes,
            tables=tables,
            estimates=estimate_times_s(self.n_macs, self.bitwidth),
        )

    def _run_he(self, x: np.ndarray) -> MatVecReport:
        """The encrypted-MAC path: one SIMD-batched matvec, no tables."""
        with open_session(self.matrix, self.fmt, "he", seed=self._seed) as sess:
            result = sess.query_matvec(x)
            acct = sess.accounting
        return MatVecReport(
            result=result,
            n_macs=self.n_macs,
            bitwidth=self.bitwidth,
            backend=self.backend,
            bytes_sent_garbler=acct.bytes_to_client,
            bytes_sent_evaluator=acct.bytes_to_server,
            tables=0,
            estimates=estimate_times_s(self.n_macs, self.bitwidth),
        )

    # ------------------------------------------------------------------
    def expected(self, x_values) -> np.ndarray:
        """Quantised-arithmetic ground truth (what the protocol must yield)."""
        x_enc = self.fmt.encode_array(np.asarray(x_values, dtype=np.float64))
        return self.fmt.decode_product_array(self._encoded @ x_enc)


@dataclass(frozen=True)
class MatVecEstimate:
    """Closed-form cost of A(n x m) @ x for any size (no execution)."""

    n: int
    m: int
    bitwidth: int = 32

    @property
    def n_macs(self) -> int:
        return self.n * self.m

    def times_s(self) -> dict[str, float]:
        return estimate_times_s(self.n_macs, self.bitwidth)

    def table_bytes(self, ands_per_mac: int | None = None) -> int:
        if ands_per_mac is None:
            # the scheduled MAC's AND count scales ~ 2.6 b^2 (measured)
            ands_per_mac = int(2.6 * self.bitwidth**2)
        return 32 * ands_per_mac * self.n_macs


def private_dot(a_values, x_values, fmt: FixedPointFormat = Q16_8, **kw) -> float:
    """Convenience API: one private dot product; returns the float result."""
    a = np.atleast_2d(np.asarray(a_values, dtype=np.float64))
    report = PrivateMatVec(a, fmt, **kw).run_with_client(x_values)
    return float(report.result[0])
