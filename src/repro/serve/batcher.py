"""Batched admission for resumed sessions.

After a gateway kill, every client of that gateway reconnects at once;
serving each restored session as its own one-off
``serve_from_checkpoint`` request would burn one bounded-queue slot and
one worker per session during exactly the burst the fleet is least able
to afford it.  The :class:`ResumeBatcher` instead coalesces resumes
that arrive within a short window into a single
:class:`BatchedResumeRequest`, which drives each session's
:class:`~repro.recover.checkpoint.CheckpointStreamer` round-robin — one
queue slot, one worker, N migrated sessions making interleaved
progress.

Error isolation is per-session: a client that dies mid-restore fails
its own :class:`ResumeHandle` while the rest of the batch keeps
streaming.  Head-of-line blocking inside a batch is bounded by the
endpoints' receive timeouts — a stalled client costs the batch at most
one timeout per round, then drops out typed.

Fairness (PR 8): adopted sessions used to jump every queue — a batch
rode one container request past the ring scheduler's per-tenant
accounting, so a mass-adoption burst from a killed gateway could starve
live tenants.  Admission is now charged per *entry*: ``submit`` spends
one credit for the checkpoint's tenant before the handle joins a batch
(shedding typed when the tenant is over budget), and the credit returns
when the handle finishes.  The container request itself is exempt
(``tenant = None``) so batches are never double-charged.
"""

from __future__ import annotations

import threading
import time

from repro.errors import OverloadedError, ServingError
from repro.serve.server import PendingRequest

#: Default coalescing window: long enough to catch a reconnect burst,
#: short enough to be invisible next to a round of OT.
DEFAULT_WINDOW_S = 0.02
DEFAULT_MAX_BATCH = 4


class ResumeHandle:
    """One restored session's slot in a batch: gate, outcome, waiters.

    Mirrors the request-future discipline of
    :class:`~repro.serve.server.PendingRequest`: the gateway opens
    ``start_gate`` once its ``net.resume_ok`` is on the wire, then
    blocks in :meth:`wait` for the streamed outcome.
    """

    def __init__(self, checkpoint, endpoint, group, on_round=None,
                 scheduler=None, tenant: str = "", ot=None):
        self.checkpoint = checkpoint
        self.endpoint = endpoint
        self.group = group
        self.on_round = on_round
        #: the adopting connection's OT pool
        #: (:class:`~repro.crypto.ot.OTExtensionSender`)
        self.ot = ot
        self.start_gate = threading.Event()
        self.rounds_streamed = 0
        #: credit accounting for this adopted session (set at batcher
        #: admission; the credit returns exactly once, at ``_finish``)
        self.scheduler = scheduler
        self.tenant = tenant
        self._done = threading.Event()
        self._error: BaseException | None = None

    def _finish(self, error: BaseException | None) -> None:
        if self._done.is_set():
            return
        self._error = error
        self._done.set()
        if self.scheduler is not None:
            self.scheduler.complete(self.tenant)

    def cancel(self, error: BaseException | None = None) -> None:
        """Withdraw the session before its stream begins: it fails
        with ``error`` and the batch skips it without waiting."""
        self._finish(error or ServingError("resume withdrawn before its stream"))
        self.start_gate.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until this session's restore finished; re-raises its error."""
        if not self._done.wait(timeout=timeout):
            raise ServingError(
                f"batched resume of session {self.checkpoint.session_id} "
                f"timed out after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return True


class BatchedResumeRequest(PendingRequest):
    """One queue slot streaming N restored sessions round-robin.

    ``_execute`` opens every entry's stream (its preamble), then
    interleaves ``stream_round()`` across the live entries until all
    are drained.  Entries fail independently; the
    request itself only reports whether the batch ran.
    """

    retryable = False

    #: exempt from request-level tenant accounting: each entry was
    #: charged individually at batcher admission
    tenant = None

    def __init__(self, entries: list[ResumeHandle], deadline: float,
                 telemetry=None):
        super().__init__(entries[0].checkpoint.row_index, None, deadline)
        self.entries = entries
        self.batch_telemetry = telemetry

    def _execute(self, client):
        from repro.recover.checkpoint import CheckpointStreamer

        tm = self.batch_telemetry
        if tm is not None:
            tm.counter("serve.resume.batches").inc()
            tm.counter("serve.resume.batched_sessions").inc(len(self.entries))
            tm.histogram("serve.resume.batch_size").record(len(self.entries))
        active: list[tuple[ResumeHandle, CheckpointStreamer]] = []
        for handle in self.entries:
            budget = max(0.0, self.deadline - time.perf_counter())
            if not handle.start_gate.wait(timeout=budget):
                handle._finish(ServingError(
                    f"batched resume of session "
                    f"{handle.checkpoint.session_id} never released its "
                    "start gate"
                ))
                continue
            if handle.done:  # cancelled before its stream began
                continue
            try:
                streamer = CheckpointStreamer(
                    handle.endpoint,
                    handle.checkpoint,
                    handle.group,
                    on_round=handle.on_round,
                    telemetry=client.server.telemetry,
                    ot=handle.ot,
                )
                streamer.begin()
            except Exception as exc:  # noqa: BLE001 — isolate per session
                handle._finish(exc)
                continue
            active.append((handle, streamer))
        while active:
            still: list[tuple[ResumeHandle, CheckpointStreamer]] = []
            for handle, streamer in active:
                try:
                    more = streamer.stream_round()
                except Exception as exc:  # noqa: BLE001 — isolate per session
                    handle._finish(exc)
                    continue
                if more:
                    still.append((handle, streamer))
                    continue
                try:
                    handle.rounds_streamed = streamer.finish()
                except Exception as exc:  # noqa: BLE001 — isolate per session
                    handle._finish(exc)
                    continue
                handle._finish(None)
            active = still
        return True


class ResumeBatcher:
    """Window + size coalescing in front of the serving queue.

    ``submit`` returns a :class:`ResumeHandle` immediately; the batch
    flushes when it reaches ``max_batch`` entries or when ``window_s``
    elapses after its first entry (via a one-shot timer).  Admission
    control stays at submit time: a closed or saturated serving queue
    raises :class:`OverloadedError` *before* a handle exists, so the
    gateway can still answer ``net.retry_after`` ahead of its
    ``net.resume_ok``.
    """

    def __init__(self, serving, window_s: float = DEFAULT_WINDOW_S,
                 max_batch: int = DEFAULT_MAX_BATCH, telemetry=None):
        if max_batch < 1:
            raise ServingError("resume batch must admit at least one session")
        self.serving = serving
        self.window_s = window_s
        self.max_batch = max_batch
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._pending: list[ResumeHandle] = []
        self._timer: threading.Timer | None = None
        self._closed = False

    def effective_max_batch(self) -> int:
        """The batch ceiling *right now*: the static ``max_batch``,
        capped by the SLO controller's live adoption ceiling (when one
        is attached) and by the serving queue's current headroom.

        The headroom cap is the PR-10 fix: sizing adoption batches from
        static config alone let a takeover burst land a full-size batch
        on an almost-full queue, blowing the live tenants' p99 exactly
        when the fleet was busiest.  A saturated queue now shrinks the
        batch to what actually fits (never below 1 — the pre-check in
        :meth:`submit` already shed when the queue was full).
        """
        cap = self.max_batch
        controller_cap = getattr(self.serving, "resume_batch_cap", None)
        if controller_cap is not None:
            cap = min(cap, controller_cap)
        config = getattr(self.serving, "config", None)
        serving_queue = getattr(self.serving, "_queue", None)
        if config is not None and serving_queue is not None:
            headroom = config.queue_depth - serving_queue.qsize()
            cap = min(cap, headroom)
        return max(1, cap)

    def submit(self, checkpoint, endpoint, group, on_round=None,
               ot=None) -> ResumeHandle:
        scheduler = getattr(self.serving, "scheduler", None)
        tenant = getattr(checkpoint, "tenant", "") or ""
        flush_now: list[ResumeHandle] | None = None
        with self._lock:
            if self._closed:
                raise ServingError("resume batcher is closed")
            if not self.serving._accepting or self.serving._queue.full():
                raise OverloadedError(
                    "resume queue full: batched admission shed"
                )
            if scheduler is not None:
                # adoption spends the checkpoint's tenant's credit like
                # any live request — a mass-adoption burst sheds typed
                # instead of jumping the queue (OverloadedError here)
                tenant = scheduler.admit(tenant)
            handle = ResumeHandle(
                checkpoint, endpoint, group, on_round=on_round,
                scheduler=scheduler, tenant=tenant, ot=ot,
            )
            self._pending.append(handle)
            if len(self._pending) >= self.effective_max_batch():
                flush_now = self._take_pending_locked()
            elif len(self._pending) == 1:
                if self.window_s <= 0:
                    flush_now = self._take_pending_locked()
                else:
                    self._timer = threading.Timer(self.window_s, self._on_timer)
                    self._timer.daemon = True
                    self._timer.start()
        if flush_now:
            self._flush(flush_now)
        return handle

    def close(self) -> None:
        """Flush anything pending and refuse further submissions."""
        with self._lock:
            self._closed = True
            batch = self._take_pending_locked()
        if batch:
            self._flush(batch)

    # ------------------------------------------------------------------
    def _take_pending_locked(self) -> list[ResumeHandle]:
        batch, self._pending = self._pending, []
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        return batch

    def _on_timer(self) -> None:
        with self._lock:
            batch = self._take_pending_locked()
        if batch:
            self._flush(batch)

    def _flush(self, batch: list[ResumeHandle]) -> None:
        req = BatchedResumeRequest(
            batch,
            deadline=time.perf_counter() + self.serving.config.request_timeout_s,
            telemetry=self.telemetry,
        )
        try:
            self.serving._enqueue(req, block=False)
        except (OverloadedError, ServingError) as exc:
            # The pre-check at submit raced a fill-up: fail the whole
            # batch typed; each waiter sees the shed and retries.
            for handle in batch:
                handle._finish(exc)
