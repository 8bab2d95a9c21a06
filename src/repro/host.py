"""The host CPU runtime of Figure 1: pre-garbling pool + client sessions.

Section 3 describes an operational pattern beyond the raw protocol:

    "MAXelerator keeps generating the garbled tables independently and
    sends them to the host CPU along with the generated labels ...  The
    host in the meantime dynamically updates her model if required, and
    when requested by the client simply performs the garbling with one
    of the stored garbled circuits."

:class:`CloudServer` implements that pattern: a pool of pre-garbled
runs (each usable exactly once — fresh labels per garbling is the
security requirement), model storage, and per-client service that
consumes one pooled run per request.  The pool refills from the
accelerator between requests — either synchronously after each serve
(``auto_refill``) or from the background refiller thread the serving
layer (`repro.serve`) attaches — which is what turns the accelerator's
throughput into client capacity.

All pool and statistics mutations are lock-protected so one server can
be shared by the concurrent session manager in :mod:`repro.serve`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.accel.fsm import AcceleratorRun
from repro.accel.maxelerator import MAXelerator
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
from repro.gc.sequential_gc import (
    RoundMaterial,
    SequentialEvaluator,
    SequentialStreamer,
    materials_for_run,
)
from repro.gc.stage_plan import warm_run_plans
from repro.gc.vector_garble import VectorRun
from repro.telemetry import MetricsRegistry


@dataclass
class ServerStats:
    """Race-free serving counters (one lock guards every increment)."""

    requests_served: int = 0
    runs_garbled: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    tables_streamed: int = 0
    he_queries: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, name: str, n: int = 1) -> None:
        """Atomically add ``n`` to counter ``name``."""
        if name.startswith("_") or not hasattr(self, name):
            raise ConfigurationError(f"no counter named '{name}'")
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    @property
    def pool_hit_rate(self) -> float:
        with self._lock:
            total = self.pool_hits + self.pool_misses
            return self.pool_hits / total if total else 0.0


class CloudServer:
    """The host of Figure 1: model owner + accelerator + garbling pool."""

    def __init__(
        self,
        model_matrix,
        fmt: FixedPointFormat = Q16_8,
        pool_size: int = 2,
        group: DHGroup = TOY_GROUP,
        seed: int | None = None,
        auto_refill: bool = True,
        telemetry: MetricsRegistry | None = None,
    ):
        self.fmt = fmt
        self.group = group
        self._seed = seed
        self.stats = ServerStats()
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        if pool_size < 0:
            raise ConfigurationError("pool size cannot be negative")
        self.pool_size = pool_size
        self.auto_refill = auto_refill
        #: pre-garbled runs: the refill garbles run-plan runs, and a run
        #: of the FSM model (:meth:`MAXelerator.garble`) serves the same
        self._pool: deque[VectorRun | AcceleratorRun] = deque()
        #: guards the pool deque and the accelerator/model references
        self._lock = threading.Lock()
        #: serialises refillers so garbling happens outside the pool lock
        self._refill_lock = threading.Lock()
        #: set by the serving layer; called (not blocking) after each serve
        self._refill_listener = None
        #: set by the serving layer under the ring scheduler: pool
        #: misses route through a fingerprint-keyed batching station so
        #: concurrent tenants share one run-plan AES pass
        self._garble_station = None
        self._fingerprint: str | None = None
        self.update_model(model_matrix)

    # ------------------------------------------------------------------
    # model management ("the host dynamically updates her model")
    # ------------------------------------------------------------------
    def update_model(self, model_matrix) -> None:
        matrix = np.asarray(model_matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError("model must be a matrix")
        n, m = matrix.shape
        accelerator = MAXelerator(
            self.fmt.total_bits,
            acc_width=2 * self.fmt.total_bits + max(1, (m - 1).bit_length() + 1),
            seed=self._seed,
        )
        # plan the whole M-round run now, not on the first query
        warm_run_plans(accelerator.circuit.circuit, m, accelerator.plan)
        with self._lock:
            self.model = matrix
            self._encoded = self.fmt.encode_array(matrix)
            self.rounds_per_request = m
            self.accelerator = accelerator
            # a model change invalidates nothing cryptographically (tables
            # are input-independent!) but the pool is sized per round count
            self._pool.clear()
            # the HE context bakes the plaintext rows in, so it IS
            # model-dependent — rebuilt lazily on the next HE query
            self._he_server = None
            # the circuit fingerprint is shape-derived; recompute lazily
            self._fingerprint = None
        self.refill_pool()

    def refill_pool(self) -> int:
        """Garble ahead of demand; returns the number of runs added.

        Garbling happens outside the pool lock so concurrent serves can
        keep draining while the refill is in flight; ``_refill_lock``
        keeps at most one refiller garbling at a time.  The whole
        deficit is garbled as ONE run-plan pass — the runs share AES
        batches (same circuit fingerprint) but never label material.
        """
        added = 0
        with self._refill_lock:
            while True:
                with self._lock:
                    deficit = self.pool_size - len(self._pool)
                    accelerator = self.accelerator
                    rounds = self.rounds_per_request
                if deficit <= 0:
                    break
                with self.telemetry.timer("garble.refill"):
                    runs = accelerator.garble_vectorized(
                        rounds, deficit, telemetry=self.telemetry
                    )
                with self._lock:
                    # a model swap mid-refill retires these runs
                    if accelerator is self.accelerator:
                        self._pool.extend(runs)
                self.stats.bump("runs_garbled", len(runs))
                added += len(runs)
        return added

    @property
    def pool_level(self) -> int:
        with self._lock:
            return len(self._pool)

    def drain_pool(self) -> int:
        """Discard every pre-garbled run; returns how many were dropped.

        The chaos harness's ``exhaust_pool`` fault: the next serve must
        degrade gracefully to on-demand garbling, never fail.
        """
        with self._lock:
            dropped = len(self._pool)
            self._pool.clear()
        return dropped

    def attach_refill_listener(self, listener) -> None:
        """Register a callable poked after each serve (the background
        refiller's wake-up); replaces synchronous auto-refill."""
        self._refill_listener = listener

    def detach_refill_listener(self) -> None:
        self._refill_listener = None

    def attach_garble_station(self, station) -> None:
        """Route on-demand garbling through a shared
        :class:`~repro.serve.tenants.GarbleStation` so concurrent pool
        misses with matching fingerprints co-batch into one AES pass."""
        self._garble_station = station

    def detach_garble_station(self) -> None:
        self._garble_station = None

    def circuit_fingerprint(self) -> str:
        """The served circuit's structural fingerprint — the co-batching
        key: only servers whose fingerprints match may ever share a
        run-plan AES invocation."""
        with self._lock:
            fp = self._fingerprint
            accelerator = self.accelerator
        if fp is None:
            # imported lazily: repro.net imports repro.host at module load
            from repro.net.handshake import netlist_fingerprint

            fp = netlist_fingerprint(accelerator.circuit.circuit)
            with self._lock:
                self._fingerprint = fp
        return fp

    def _take_run(self) -> VectorRun | AcceleratorRun:
        with self._lock:
            if self._pool:
                run = self._pool.popleft()
            else:
                run = None
            accelerator = self.accelerator
            rounds = self.rounds_per_request
        if run is not None:
            self.stats.bump("pool_hits")
            self.telemetry.counter("pool.hits").inc()
            return run
        # graceful degradation: garble on demand when the pool is dry
        self.stats.bump("pool_misses")
        self.telemetry.counter("pool.misses").inc()
        station = self._garble_station
        with self.telemetry.timer("garble.on_demand"):
            if station is not None:
                # co-batch concurrent misses that share a circuit
                # fingerprint (possibly across tenants and servers)
                # into one run-plan AES pass
                run = station.take(
                    accelerator,
                    rounds,
                    self.circuit_fingerprint(),
                    telemetry=self.telemetry,
                )
            else:
                run = accelerator.garble_vectorized(
                    rounds, 1, telemetry=self.telemetry
                )[0]
        self.stats.bump("runs_garbled")
        return run

    def _after_serve(self) -> None:
        """Keep the pool warm between requests (the PR's drain fix)."""
        listener = self._refill_listener
        if listener is not None:
            listener()
        elif self.auto_refill:
            self.refill_pool()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_row(self, channel, row_index: int, on_round=None, on_run=None,
                  ot: OTExtensionSender | None = None) -> None:
        """Serve one dot product <model[row], x> to a connected client.

        The pooled run's material (tables, selected labels, OT pairs) is
        built once and streamed through
        :class:`~repro.gc.sequential_gc.SequentialStreamer`.  Recovery
        hooks (:mod:`repro.recover`): ``on_run(stream)`` fires once,
        before anything is streamed — the gateway checkpoints the
        stream's material there and binds the checkpoint to the stream.
        ``on_round(next_round)`` fires after each round's
        tables/labels/OT are fully on the wire; it may raise (e.g.
        :class:`~repro.errors.SessionDrainedError`) to abort streaming
        at a round boundary.

        Each round carries its own OT answer, drawn from ``ot``, the
        connection's OT pool (:class:`~repro.crypto.ot.OTExtensionSender`);
        without one the query sets up a pool of its own.
        """
        with self._lock:
            n_rows = self.model.shape[0]
            encoded_row = (
                self._encoded[row_index] if 0 <= row_index < n_rows else None
            )
        if encoded_row is None:
            raise ConfigurationError(f"model has no row {row_index}")
        tm = self.telemetry
        with tm.span("serve_row"):
            run = self._take_run()
            bits = [to_bits(int(v), self.fmt.total_bits) for v in encoded_row]
            stream = SequentialStreamer(
                channel,
                materials_for_run(run, bits),
                run.output_permute_bits,
                self.group,
                on_round=on_round,
                telemetry=tm,
                ot=ot,
            )
            if on_run is not None:
                on_run(stream)
            stream.run()
        self.stats.bump("requests_served")
        self.stats.bump("tables_streamed", run.total_tables)
        tm.counter("stream.tables").inc(run.total_tables)
        tm.counter("gc.hash_calls").inc(run.hash_calls)
        self._after_serve()

    # ------------------------------------------------------------------
    # encrypted-MAC backend (repro.he)
    # ------------------------------------------------------------------
    @property
    def he_mac(self):
        """The lazily-built HE context for the current model.

        Construction (parameter derivation + NTT-encoding every row)
        happens outside the pool lock; a model swap that races the
        build wins — the stale context is discarded, mirroring how
        ``refill_pool`` retires runs garbled against a replaced
        accelerator.
        """
        from repro.he.mac import HEMacServer

        while True:
            with self._lock:
                he = self._he_server
                matrix = self.model
            if he is not None:
                return he
            with self.telemetry.timer("he.context_build"):
                built = HEMacServer(matrix, self.fmt)
            with self._lock:
                if self.model is matrix:
                    self._he_server = built
                    return built
            # model swapped mid-build: discard and rebuild

    def serve_row_he(self, channel, row_index: int, on_round=None,
                     on_run=None) -> None:
        """Serve one encrypted MAC: recv ``he.query``, answer
        ``he.result``.

        The result is streamed as a one-round ``he`` stream, so the
        recovery hooks keep :meth:`serve_row`'s contract: ``on_run(stream)``
        fires after the homomorphic product is computed and before it is
        sent (the gateway checkpoints the *result* — the server holds no
        keys, so re-sending it after a crash is exactly a garbled-table
        replay); ``on_round(1)`` fires once the result is on the wire
        and may raise to abort at the boundary.
        """
        with self._lock:
            n_rows = self.model.shape[0]
        if not 0 <= row_index < n_rows:
            raise ConfigurationError(f"model has no row {row_index}")
        he = self.he_mac
        tm = self.telemetry
        with tm.span("serve_row_he"):
            query = channel.recv("he.query")
            with tm.timer("he.eval"):
                result = he.answer_query(query, row_index)
            stream = SequentialStreamer(
                channel,
                [RoundMaterial(0, bytes(result), [], [], [])],
                backend="he",
                on_round=on_round,
                telemetry=tm,
            )
            if on_run is not None:
                on_run(stream)
            # counted at eval, like runs_garbled: a checkpointed result
            # re-streamed by a peer after a crash must not count twice,
            # which makes the delta an exact zero-recompute oracle
            self.stats.bump("he_queries")
            tm.counter("he.queries").inc()
            stream.run()
        self.stats.bump("requests_served")


class AnalyticsClient:
    """A client of the Figure 1 system: OT in, one scalar out.

    ``recv_timeout_s`` bounds every channel receive in the session
    (``None`` defers to ``REPRO_RECV_TIMEOUT_S`` / the channel
    default); the serving layer sets it from ``ServingConfig``.  The
    client is one long-lived connection: its OT pool pair (both ends
    run in this process) is set up on the first query and reused.
    """

    def __init__(self, server: CloudServer, recv_timeout_s: float | None = None):
        self.server = server
        self.recv_timeout_s = recv_timeout_s
        self._ot_sender = OTExtensionSender(server.group)
        self._ot_receiver = OTExtensionReceiver(server.group)

    def query_row(self, row_index: int, x_values) -> float:
        """Learn <model[row], x> without revealing x."""
        x = np.asarray(x_values, dtype=np.float64)
        if x.shape != (self.server.rounds_per_request,):
            raise GCProtocolError(
                f"query vector must have {self.server.rounds_per_request} entries"
            )
        fmt = self.server.fmt
        x_bits = [to_bits(int(v), fmt.total_bits) for v in fmt.encode_array(x)]
        accelerator = self.server.accelerator
        g_chan, e_chan = local_channel(recv_timeout_s=self.recv_timeout_s)
        evaluator = SequentialEvaluator(
            accelerator.circuit.circuit, e_chan, self.server.group,
            plan=accelerator.plan, ot=self._ot_receiver,
        )
        _, report = run_two_party(
            lambda: self.server.serve_row(g_chan, row_index, ot=self._ot_sender),
            lambda: evaluator.run(x_bits),
        )
        raw = from_bits(report.output_bits, signed=True)
        return fmt.decode_product(raw)
