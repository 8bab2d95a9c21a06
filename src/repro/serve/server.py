"""The thread-pool session manager around :class:`CloudServer`.

Each worker runs complete GC sessions (garble-pool take, table stream,
OT, evaluation) against the shared server; the request queue is bounded
so overload surfaces as typed backpressure instead of unbounded memory;
each request carries an end-to-end deadline and a bounded retry budget.
Results are bit-identical to the sequential path because workers run
the *same* :class:`AnalyticsClient` protocol — concurrency only changes
scheduling, never the transcript of any one session.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from repro.errors import (
    ConfigurationError,
    GCProtocolError,
    OverloadedError,
    ServingError,
)
from repro.host import AnalyticsClient, CloudServer
from repro.serve.config import (
    ServingConfig,
    resolve_controller,
    resolve_scheduler,
)
from repro.serve.control import (
    CONTROLLER_STATE_KEY, LoadSample, OperatingPoint, SLOController,
)
from repro.serve.refiller import PoolRefiller
from repro.serve.tenants import GarbleStation, TenantScheduler
from repro.telemetry import MetricsRegistry, percentile_of

_SHUTDOWN = object()

#: queued scale-down order: the worker that dequeues it retires itself
_SCALE_DOWN = object()


class PendingRequest:
    """A future for one submitted query."""

    #: retried on transient protocol errors; remote sessions are not
    #: (a half-streamed wire session is not replayable to the client)
    retryable = True

    #: tenant charged for this request under the ring scheduler; ``""``
    #: accounts to the default tenant, ``None`` (batched resume
    #: containers, whose entries were charged individually at batcher
    #: admission) is exempt from request-level accounting
    tenant: str | None = ""

    def __init__(self, row_index: int, x_values, deadline: float):
        self.row_index = row_index
        self.x_values = x_values
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        self.attempts = 0
        #: set by the scheduler seam when a credit was spent on this
        #: request (the worker returns it on completion)
        self._admitted = False
        self._done = threading.Event()
        self._cancelled = threading.Event()
        self._result: float | None = None
        self._error: BaseException | None = None

    def _execute(self, client: AnalyticsClient):
        """Run one attempt of this request on a worker's client."""
        return client.query_row(self.row_index, self.x_values)

    # ------------------------------------------------------------------
    def _finish(self, result: float | None, error: BaseException | None) -> None:
        self._result = result
        self._error = error
        self._done.set()

    def cancel(self) -> None:
        """Ask workers to skip this request (used on waiter timeout)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> float:
        """Block for the result; raises the stored error on failure."""
        if not self._done.wait(timeout=timeout):
            self.cancel()
            raise ServingError(
                f"request for row {self.row_index} timed out after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result


class RemoteSessionRequest(PendingRequest):
    """A remote evaluator session: the worker garbles *to* the client.

    Unlike the local path (worker runs both parties), the evaluator
    lives on the far side of ``endpoint``; the worker only runs
    ``CloudServer.serve_row`` against it.  ``start_gate`` lets the
    gateway order its control-frame acknowledgement *before* the first
    streamed table (both travel over the same socket, so the worker
    must not start until the gate opens).
    """

    retryable = False

    def __init__(self, row_index: int, endpoint, deadline: float,
                 on_round=None, on_run=None, backend: str = "gc", ot=None):
        super().__init__(row_index, None, deadline)
        self.endpoint = endpoint
        self.start_gate = threading.Event()
        #: recovery hooks forwarded to :meth:`CloudServer.serve_row` —
        #: the gateway checkpoints the session through these
        self.on_round = on_round
        self.on_run = on_run
        #: negotiated private-MAC backend: ``gc`` garbles to the
        #: client, ``he`` answers its ciphertext query
        self.backend = backend
        #: the connection's OT pool (:class:`~repro.crypto.ot.OTExtensionSender`)
        self.ot = ot

    def _execute(self, client: AnalyticsClient):
        if not self.start_gate.wait(timeout=max(0.0, self.deadline - time.perf_counter())):
            raise ServingError(
                f"remote session for row {self.row_index} never released its start gate"
            )
        if self.backend == "he":
            client.server.serve_row_he(
                self.endpoint, self.row_index,
                on_round=self.on_round, on_run=self.on_run,
            )
            return True
        client.server.serve_row(
            self.endpoint, self.row_index,
            on_round=self.on_round, on_run=self.on_run, ot=self.ot,
        )
        return True


class ServingServer:
    """Bounded-queue, multi-worker serving of ``AnalyticsClient`` queries
    and remote gateway sessions (:meth:`submit_remote`)."""

    def __init__(
        self,
        server: CloudServer,
        config: ServingConfig | None = None,
        telemetry: MetricsRegistry | None = None,
        scheduler: TenantScheduler | None = None,
    ):
        self.server = server
        self.config = (config or ServingConfig()).validate()
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        #: per-tenant credit gate in front of the bounded queue (``None``
        #: under the ``fifo`` scheduler).  An injected scheduler may be
        #: shared across a whole gateway group, making the in-flight
        #: bounds fleet-wide.
        if scheduler is None and resolve_scheduler(
            configured=self.config.scheduler
        ) == "ring":
            scheduler = TenantScheduler.from_config(
                self.config, telemetry=self.telemetry
            )
        self.scheduler = scheduler
        self.station: GarbleStation | None = None
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._workers: list[threading.Thread] = []
        self._refiller: PoolRefiller | None = None
        self._accepting = False
        #: the adaptive control loop (``None`` under ``static``); the
        #: controller owns the operating point, the server applies it
        self.controller: SLOController | None = None
        if resolve_controller(configured=self.config.controller) == "slo":
            self.controller = SLOController.from_serving_config(
                self.config, telemetry=self.telemetry
            )
        self._workers_lock = threading.Lock()
        self._worker_seq = 0
        self._inflight = 0
        #: scale-down orders queued but not yet consumed by a worker
        self._pending_scale_down = 0
        self._control_thread: threading.Thread | None = None
        self._control_stop = threading.Event()
        #: windowing cursor into the request.latency histogram (the
        #: controller reads only the latencies since its last tick)
        self._latency_offset = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingServer":
        if self._workers:
            return self
        if self.scheduler is not None:
            # ring: pool misses from different tenants that share a
            # circuit fingerprint co-batch into one AES pass
            self.station = GarbleStation(telemetry=self.telemetry)
            self.server.attach_garble_station(self.station)
        if self.config.refill:
            self._refiller = PoolRefiller(
                self.server,
                poll_interval_s=self.config.refill_poll_s,
                telemetry=self.telemetry,
            ).start()
        start_workers = self.config.workers
        if self.controller is not None:
            if self.scheduler is not None:
                # SLO classes map onto WRR refill shares before traffic
                self.controller.apply_classes(self.scheduler)
            start_workers = self.controller.operating_point.workers
        with self._workers_lock:
            for _ in range(start_workers):
                self._spawn_worker_locked()
        self._accepting = True
        if self.controller is not None:
            self._control_stop.clear()
            self._control_thread = threading.Thread(
                target=self._control_loop, name="serve-control", daemon=True
            )
            self._control_thread.start()
        return self

    def stop(self) -> None:
        """Drain queued requests, then stop workers and the refiller."""
        if not self._workers:
            return
        self._accepting = False
        if self._control_thread is not None:
            self._control_stop.set()
            self._control_thread.join(timeout=self.config.slo_tick_s + 30.0)
            self._control_thread = None
        with self._workers_lock:
            workers = list(self._workers)
        for _ in workers:
            try:
                self._queue.put(_SHUTDOWN, timeout=self.config.request_timeout_s)
            except queue.Full:  # dead workers left the queue full: don't deadlock
                break
        for t in workers:
            t.join(timeout=self.config.request_timeout_s + 30.0)
        with self._workers_lock:
            self._workers = []
            self._pending_scale_down = 0
        if self._refiller is not None:
            self._refiller.stop()
            self._refiller = None
        if self.station is not None:
            self.server.detach_garble_station()
            self.station = None

    def _spawn_worker_locked(self) -> None:
        """Start one worker thread.  Caller holds ``_workers_lock``."""
        t = threading.Thread(
            target=self._worker_loop,
            name=f"serve-worker-{self._worker_seq}",
            daemon=True,
        )
        self._worker_seq += 1
        t.start()
        self._workers.append(t)

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # adaptive control
    # ------------------------------------------------------------------
    @property
    def retry_after_s(self) -> float:
        """The backoff hint shed answers should carry: the controller's
        live value under ``slo``, the static config otherwise."""
        if self.controller is not None:
            return self.controller.operating_point.retry_after_s
        return self.config.retry_after_s

    def save_operating_point(self, store) -> None:
        """Leave the controller's learned operating point in ``store``
        for a successor (a draining gateway calls this)."""
        if self.controller is not None:
            store.put_meta(
                CONTROLLER_STATE_KEY, self.controller.operating_point.to_dict()
            )

    def restore_operating_point(self, store) -> None:
        """Resume the controller from the operating point a drained
        predecessor left in ``store``; a malformed or future-format
        record is counted and ignored, never fatal."""
        raw = self.controller and store.get_meta(CONTROLLER_STATE_KEY)
        if raw:
            try:
                self.controller.restore(OperatingPoint.from_dict(raw))
            except (KeyError, TypeError, ValueError):
                self.telemetry.counter("controller.restore_rejected").inc()

    @property
    def resume_batch_cap(self) -> int | None:
        """The controller's current adoption-batch ceiling (``None``
        under ``static`` — the batcher then uses its own config)."""
        if self.controller is not None:
            return self.controller.operating_point.batch_max
        return None

    def control_tick(self):
        """Run one control interval now: sample the serving layer, tick
        the controller, apply the decision.  The background loop calls
        this every ``slo_tick_s``; tests and the chaos oracle call it
        directly for deterministic tick-by-tick control."""
        if self.controller is None:
            raise ConfigurationError("no controller attached (static config)")
        hist = self.telemetry.histogram("request.latency")
        window = hist.values_since(self._latency_offset)
        self._latency_offset += len(window)
        with self._workers_lock:
            workers = len(self._workers) - self._pending_scale_down
            inflight = self._inflight
        sample = LoadSample(
            queue_depth=self._queue.qsize(),
            queue_capacity=self.config.queue_depth,
            inflight=inflight,
            workers=workers,
            p50_ms=percentile_of(window, 50.0) * 1000.0 if window else 0.0,
            p99_ms=percentile_of(window, 99.0) * 1000.0 if window else 0.0,
        )
        decision = self.controller.tick(sample)
        self._apply_decision(decision)
        return decision

    def _control_loop(self) -> None:
        while not self._control_stop.wait(self.config.slo_tick_s):
            try:
                self.control_tick()
            except Exception:  # noqa: BLE001 — the loop must survive a bad tick
                self.telemetry.counter("controller.crashes").inc()

    def _apply_decision(self, decision) -> None:
        """Converge the worker pool to the decided size.  Scale-up
        spawns threads; scale-down queues retirement orders so a busy
        worker finishes its session first.  Batch sizing and shed need
        no action here — the batcher and the admission gate read the
        operating point live."""
        if not self._accepting:
            return
        with self._workers_lock:
            effective = len(self._workers) - self._pending_scale_down
            if decision.workers > effective:
                for _ in range(decision.workers - effective):
                    self._spawn_worker_locked()
            elif decision.workers < effective:
                for _ in range(effective - decision.workers):
                    try:
                        self._queue.put_nowait(_SCALE_DOWN)
                    except queue.Full:
                        # a full queue outranks shrinking; the next tick
                        # will retry once there is room
                        break
                    self._pending_scale_down += 1

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness report: workers, refiller, queue, and a verdict.

        A dead refiller (its thread raised) or a dead worker no longer
        fails silently — operators poll this, and the chaos harness
        asserts on it.  Each distinct unhealthy path bumps its own
        counter (``serve.health.draining`` / ``.dead_workers`` /
        ``.refiller_down`` / ``.pool_exhausted``) so a flapping fleet
        is diagnosable from counters alone.
        """
        refiller = self._refiller
        with self._workers_lock:
            workers = list(self._workers)
            inflight = self._inflight
            pending_down = self._pending_scale_down
        expected = len(workers) - pending_down
        alive = sum(t.is_alive() for t in workers) - pending_down
        refiller_configured = self.config.refill
        refiller_running = refiller is not None and refiller.running
        refiller_healthy = refiller is None or refiller.healthy
        refiller_ok = not refiller_configured or (
            refiller_running and refiller_healthy
        )
        pool_level = self.server.pool_level
        healthy = (
            self._accepting
            and alive >= expected
            and expected > 0
            and refiller_ok
        )
        if not self._accepting:
            self.telemetry.counter("serve.health.draining").inc()
        elif expected > 0 and alive < expected:
            self.telemetry.counter("serve.health.dead_workers").inc()
        elif not refiller_ok:
            self.telemetry.counter("serve.health.refiller_down").inc()
        if healthy and pool_level == 0 and refiller_configured:
            # still healthy (on-demand garbling covers misses) but worth
            # a distinct signal: the pre-garble headroom is gone
            self.telemetry.counter("serve.health.pool_exhausted").inc()
        return {
            "healthy": healthy,
            "accepting": self._accepting,
            "workers_alive": alive,
            "workers_expected": expected,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_depth,
            "inflight": inflight,
            "pool_level": pool_level,
            "refiller_configured": refiller_configured,
            "refiller_running": refiller_running,
            "refiller_healthy": refiller_healthy,
            "refiller_error": (
                repr(refiller.last_error)
                if refiller is not None and refiller.last_error is not None
                else None
            ),
            "controller": (
                self.controller.operating_point.to_dict()
                if self.controller is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, row_index: int, x_values, block: bool = True,
               tenant: str = "") -> PendingRequest:
        """Enqueue a query; returns a :class:`PendingRequest` future.

        With ``block=False`` a full queue raises :class:`ServingError`
        immediately (backpressure); with ``block=True`` the caller waits
        for a slot, bounded by the request timeout.  ``tenant`` is the
        account charged under the ring scheduler (blank traffic pools
        into the ``default`` tenant).
        """
        req = PendingRequest(
            row_index,
            np.asarray(x_values, dtype=np.float64),
            deadline=time.perf_counter() + self.config.request_timeout_s,
        )
        req.tenant = tenant
        return self._enqueue(req, block)

    def submit_remote(
        self, row_index: int, endpoint, block: bool = False,
        on_round=None, on_run=None, backend: str = "gc", tenant: str = "",
        ot=None,
    ) -> RemoteSessionRequest:
        """Enqueue a remote evaluator session (the gateway's entry point).

        The returned request does not stream until its ``start_gate`` is
        set, so the caller can first acknowledge the query on the same
        wire.  Remote sessions default to non-blocking submission: the
        gateway turns backpressure into an immediate typed reply instead
        of holding the client's socket silent.  ``on_round``/``on_run``
        are the checkpointing hooks threaded through to
        :meth:`CloudServer.serve_row`; ``ot`` is the client
        connection's OT pool; ``backend`` is the session's negotiated
        private-MAC backend (``he`` sessions route to
        :meth:`CloudServer.serve_row_he`).
        """
        req = RemoteSessionRequest(
            row_index,
            endpoint,
            deadline=time.perf_counter() + self.config.request_timeout_s,
            on_round=on_round,
            on_run=on_run,
            backend=backend,
            ot=ot,
        )
        req.tenant = tenant
        return self._enqueue(req, block)

    def _enqueue(self, req: PendingRequest, block: bool) -> PendingRequest:
        if not self._accepting:
            raise ServingError("serving layer is not running (call start())")
        if (
            self.controller is not None
            and req.tenant is not None
            and self.controller.should_shed(req.tenant)
        ):
            # probabilistic admission shed, scaled by the tenant's SLO
            # class; batched resume containers (tenant None) were
            # already admitted entry-by-entry at the batcher
            self.telemetry.counter("serve.shed").inc()
            raise OverloadedError(
                f"admission shed at probability "
                f"{self.controller.operating_point.shed_probability:g}: "
                f"retry after {self.retry_after_s:g}s"
            )
        if self.scheduler is not None and req.tenant is not None:
            # the credit gate sheds typed (naming the tenant) before the
            # request can occupy a queue slot
            req.tenant = self.scheduler.admit(req.tenant)
            req._admitted = True
        try:
            if block:
                self._queue.put(req, timeout=self.config.request_timeout_s)
            else:
                self._queue.put_nowait(req)
        except queue.Full:
            if req._admitted:
                req._admitted = False
                self.scheduler.release(req.tenant)
            self.telemetry.counter("serve.rejected").inc()
            raise OverloadedError(
                f"request queue full ({self.config.queue_depth} deep): backpressure"
            ) from None
        self.telemetry.counter("serve.submitted").inc()
        return req

    def query(self, row_index: int, x_values, timeout: float | None = None) -> float:
        """Synchronous query: submit and wait (default: the config timeout)."""
        req = self.submit(row_index, x_values)
        budget = self.config.request_timeout_s if timeout is None else timeout
        try:
            return req.wait(timeout=budget)
        except ServingError:
            self.telemetry.counter("serve.timeouts").inc()
            raise

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        client = AnalyticsClient(self.server, recv_timeout_s=self.config.recv_timeout_s)
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            if item is _SCALE_DOWN:
                with self._workers_lock:
                    self._pending_scale_down = max(0, self._pending_scale_down - 1)
                    me = threading.current_thread()
                    if me in self._workers:
                        self._workers.remove(me)
                self.telemetry.counter("serve.workers_retired").inc()
                return
            with self._workers_lock:
                self._inflight += 1
            try:
                self._run_request(client, item)
            except Exception as exc:  # noqa: BLE001 — a request must never kill its worker
                self.telemetry.counter("serve.worker_crashes").inc()
                if not item.done:
                    item._finish(
                        None,
                        ServingError(
                            f"worker crashed serving row {item.row_index}: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                    )
            finally:
                with self._workers_lock:
                    self._inflight -= 1
                if item._admitted:
                    # the credit comes back whatever the outcome — a
                    # poison tenant's failures cannot strand its slots
                    item._admitted = False
                    self.scheduler.complete(item.tenant)

    def _run_request(self, client: AnalyticsClient, req: PendingRequest) -> None:
        tm = self.telemetry
        now = time.perf_counter()
        tm.histogram("serve.queue_wait").record(now - req.enqueued_at)
        if req.cancelled:
            req._finish(None, ServingError("request cancelled"))
            return
        if now > req.deadline:
            tm.counter("serve.timeouts").inc()
            req._finish(
                None,
                ServingError(
                    f"request for row {req.row_index} exceeded its "
                    f"{self.config.request_timeout_s}s deadline in the queue"
                ),
            )
            return
        with tm.span("request"):
            last_error: BaseException | None = None
            retries = self.config.max_retries if req.retryable else 0
            for attempt in range(1 + retries):
                req.attempts = attempt + 1
                if attempt:
                    tm.counter("serve.retries").inc()
                try:
                    result = req._execute(client)
                except (ConfigurationError, GCProtocolError, ServingError) as exc:
                    last_error = exc
                    if isinstance(exc, ConfigurationError):
                        break  # a client error will not heal on retry
                    continue
                except Exception as exc:  # poison request: isolate, don't retry
                    tm.counter("serve.poisoned").inc()
                    last_error = ServingError(
                        f"request for row {req.row_index} raised an unexpected "
                        f"{type(exc).__name__}: {exc} (poison request isolated)"
                    )
                    last_error.__cause__ = exc
                    break
                tm.histogram("request.latency").record(
                    time.perf_counter() - req.enqueued_at
                )
                tm.counter("serve.completed").inc()
                req._finish(result, None)
                return
            tm.counter("serve.failed").inc()
            req._finish(None, last_error)
