"""Serving-layer tunables (validated once, then frozen)."""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.privatemac import BACKENDS

REAPER_TIMEOUT_ENV = "REPRO_REAPER_TIMEOUT_S"

BACKEND_ENV = "REPRO_BACKEND"

SCHEDULER_ENV = "REPRO_SCHEDULER"

CONTROLLER_ENV = "REPRO_CONTROLLER"

#: Admission schedulers: ``fifo`` is the pre-ring behavior (one shared
#: bounded queue, no per-tenant accounting); ``ring`` routes every
#: admission through per-tenant credits (weighted refill, bounded
#: in-flight, tenant-attributed shedding) backed by the same
#: :class:`~repro.accel.ring.CreditAccount` primitives the simulated
#: :class:`~repro.accel.ring.CoreRing` proves fair.
SCHEDULERS = ("fifo", "ring")

#: Serving controllers: ``static`` is the pre-control behavior (every
#: knob fixed at its configured value); ``slo`` attaches the
#: tick-driven :class:`~repro.serve.control.SLOController`, which
#: steers worker-pool size, resume-batch sizing, and admission shed
#: toward the configured p99 target.
CONTROLLERS = ("static", "slo")


def resolve_choice(
    explicit,
    configured,
    env_var: str,
    allowed,
    *,
    explicit_name: str,
    configured_name: str,
    default=None,
):
    """The shared ``explicit > configured > env > default`` precedence.

    Every string-valued serving knob resolves the same way: the first
    non-empty source in precedence order wins, and the winner must be
    a member of ``allowed`` (a losing source is never validated — an
    explicit override must shadow a broken environment, not trip over
    it).  ``None`` and ``""`` both mean "unset", so an empty
    environment variable falls through instead of failing.
    """
    for source, value in (
        (explicit_name, explicit),
        (configured_name, configured),
        (env_var, os.environ.get(env_var)),
    ):
        if value is None or value == "":
            continue
        if value not in allowed:
            raise ConfigurationError(
                f"{source} must be one of {allowed}, got {value!r}"
            )
        return value
    return default


def resolve_backend(
    explicit: str | None = None,
    configured: str | None = None,
    default: str | None = "gc",
) -> str | None:
    """Default-backend precedence: explicit argument >
    ``ServingConfig.backend`` > ``REPRO_BACKEND`` > ``default``.

    The resolved value is the backend a gateway *grants* to clients
    that do not request one explicitly; clients that name a backend in
    their hello always get that backend (or a typed rejection)."""
    return resolve_choice(
        explicit,
        configured,
        BACKEND_ENV,
        BACKENDS,
        explicit_name="explicit backend",
        configured_name="ServingConfig.backend",
        default=default,
    )

def resolve_scheduler(
    explicit: str | None = None,
    configured: str | None = None,
    default: str = "fifo",
) -> str:
    """Scheduler precedence: explicit argument >
    ``ServingConfig.scheduler`` > ``REPRO_SCHEDULER`` > ``fifo``."""
    return resolve_choice(
        explicit,
        configured,
        SCHEDULER_ENV,
        SCHEDULERS,
        explicit_name="explicit scheduler",
        configured_name="ServingConfig.scheduler",
        default=default,
    )


def resolve_controller(
    explicit: str | None = None,
    configured: str | None = None,
    default: str = "static",
) -> str:
    """Controller precedence: explicit argument >
    ``ServingConfig.controller`` > ``REPRO_CONTROLLER`` > ``static``."""
    return resolve_choice(
        explicit,
        configured,
        CONTROLLER_ENV,
        CONTROLLERS,
        explicit_name="explicit controller",
        configured_name="ServingConfig.controller",
        default=default,
    )


#: Gateway default: how long a connection may sit without completing
#: its handshake before the session reaper closes it.
DEFAULT_REAPER_TIMEOUT_S = 10.0


def resolve_reaper_timeout(
    explicit: float | None = None, configured: float | None = None
) -> float:
    """Reaper-timeout precedence: explicit argument >
    ``ServingConfig.reaper_timeout_s`` > ``REPRO_REAPER_TIMEOUT_S`` >
    the built-in default."""
    if explicit is not None:
        return explicit
    if configured is not None:
        return configured
    env = os.environ.get(REAPER_TIMEOUT_ENV)
    if env is not None and env != "":
        try:
            value = float(env)
        except ValueError:
            raise ConfigurationError(
                f"{REAPER_TIMEOUT_ENV} must be a number of seconds, got {env!r}"
            ) from None
        if value <= 0:
            raise ConfigurationError(
                f"{REAPER_TIMEOUT_ENV} must be positive, got {value}"
            )
        return value
    return DEFAULT_REAPER_TIMEOUT_S


@dataclass(frozen=True)
class ServingConfig:
    """How the session manager schedules work.

    ``queue_depth`` bounds the request queue: when it is full,
    non-blocking submits are rejected with :class:`ServingError`
    (backpressure) instead of growing memory without bound.
    ``request_timeout_s`` is the end-to-end budget per request measured
    from enqueue; a request that exceeds it fails typed instead of
    wedging a worker.  ``max_retries`` re-runs a request whose GC
    session failed with a (transient) protocol error.
    ``recv_timeout_s`` is the per-message channel receive timeout for
    sessions run under this config (``None`` defers to the
    ``REPRO_RECV_TIMEOUT_S`` environment variable, then the channel
    default — see :func:`repro.gc.channel.resolve_recv_timeout`).

    Recovery knobs: ``reaper_timeout_s`` feeds the gateway's
    half-open-session reaper (``None`` defers to
    ``REPRO_REAPER_TIMEOUT_S`` then the default); ``retry_after_s`` is
    the backoff hint a load-shedding gateway sends with
    ``net.retry_after``; ``resume_window_s`` is how long a broken
    session waits parked for the client to reconnect before giving up;
    ``drain_timeout_s`` is the SIGTERM drain deadline;
    ``replay_buffer_frames`` bounds the per-endpoint resume replay
    buffer; ``checkpoint_ttl_s`` is the session-store eviction horizon.

    Fleet knobs: ``lease_ttl_s`` bounds how long a gateway owns
    a session without committing a round before another gateway may
    steal it; ``resume_batch_window_s``/``resume_batch_max`` shape the
    resumed-session admission batcher — restored sessions arriving
    within the window coalesce into one batched serve (round-robin
    interleaved through a single worker) instead of one-off
    ``serve_from_checkpoint`` requests.
    """

    workers: int = 4
    queue_depth: int = 32
    request_timeout_s: float = 60.0
    max_retries: int = 1
    refill: bool = True
    #: refiller fallback poll period; it is normally woken by the server
    refill_poll_s: float = 0.05
    recv_timeout_s: float | None = None
    reaper_timeout_s: float | None = None
    retry_after_s: float = 0.25
    resume_window_s: float = 5.0
    drain_timeout_s: float = 10.0
    replay_buffer_frames: int = 4096
    checkpoint_ttl_s: float = 300.0
    lease_ttl_s: float = 30.0
    resume_batch_window_s: float = 0.02
    resume_batch_max: int = 4
    #: Default private-MAC backend granted to clients that do not
    #: request one (``gc`` or ``he``); ``None`` defers to
    #: ``REPRO_BACKEND`` and then to ``gc``.
    backend: str | None = None
    #: Admission scheduler: ``fifo`` or ``ring``; ``None`` defers
    #: to ``REPRO_SCHEDULER`` and then to ``fifo``.  Under ``ring``,
    #: every request is charged to a per-tenant credit account and the
    #: gateway's shed answers carry the tenant they were shed for.
    scheduler: str | None = None
    #: Per-tenant credit ceiling under the ring scheduler: how much
    #: admission burst one tenant can bank while idle.
    tenant_credit_cap: int = 4
    #: Per-tenant in-flight bound under the ring scheduler: how many of
    #: one tenant's requests may occupy workers/queue slots at once.
    tenant_max_inflight: int = 4
    #: Optional ``(tenant, weight)`` pairs for weighted credit refill;
    #: tenants not named here refill at weight 1.0.
    tenant_weights: tuple = ()
    #: Serving controller: ``static`` or ``slo``; ``None``
    #: defers to ``REPRO_CONTROLLER`` and then to ``static``.  Under
    #: ``slo``, the tick-driven controller autoscales the worker pool
    #: within ``[slo_min_workers, slo_max_workers]``, sizes resume
    #: batches, and sheds admissions toward ``slo_p99_ms``.
    controller: str | None = None
    #: The p99 serve-latency target (milliseconds) the SLO controller
    #: steers toward.
    slo_p99_ms: float = 50.0
    #: Worker-pool autoscaling bounds; ``None`` means "1" for the floor
    #: and ``max(workers, floor)`` for the ceiling.
    slo_min_workers: int | None = None
    slo_max_workers: int | None = None
    #: Control-loop tick interval (seconds).
    slo_tick_s: float = 0.25
    #: Anti-flap cooldown: ticks a knob stays frozen after it moves.
    slo_cooldown_ticks: int = 4
    #: Optional ``(tenant, slo_class)`` pairs (classes: gold / silver /
    #: bronze); the class sets the tenant's weighted credit-refill share
    #: and how much of the shed probability applies to it.  Unnamed
    #: tenants are bronze.
    slo_classes: tuple = ()
    #: Seed for the controller's deterministic admission-shed draw
    #: stream (same seed + same admission order sheds the same
    #: requests).
    slo_seed: int = 0

    def validate(self) -> "ServingConfig":
        if self.workers < 1:
            raise ConfigurationError("serving needs at least one worker")
        if self.queue_depth < 1:
            raise ConfigurationError("queue depth must be positive")
        if self.request_timeout_s <= 0:
            raise ConfigurationError("request timeout must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("retry budget cannot be negative")
        if self.refill_poll_s <= 0:
            raise ConfigurationError("refill poll period must be positive")
        if self.recv_timeout_s is not None and self.recv_timeout_s <= 0:
            raise ConfigurationError("receive timeout must be positive")
        if self.reaper_timeout_s is not None and self.reaper_timeout_s <= 0:
            raise ConfigurationError("reaper timeout must be positive")
        if self.retry_after_s <= 0:
            raise ConfigurationError("retry-after hint must be positive")
        if self.resume_window_s <= 0:
            raise ConfigurationError("resume window must be positive")
        if self.drain_timeout_s <= 0:
            raise ConfigurationError("drain timeout must be positive")
        if self.replay_buffer_frames < 1:
            raise ConfigurationError("replay buffer must hold at least one frame")
        if self.checkpoint_ttl_s <= 0:
            raise ConfigurationError("checkpoint TTL must be positive")
        if self.lease_ttl_s <= 0:
            raise ConfigurationError("lease TTL must be positive")
        if self.resume_batch_window_s < 0:
            raise ConfigurationError("resume batch window cannot be negative")
        if self.resume_batch_max < 1:
            raise ConfigurationError("resume batch must admit at least one session")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"scheduler must be one of {SCHEDULERS}, got {self.scheduler!r}"
            )
        if self.tenant_credit_cap < 1:
            raise ConfigurationError("tenant credit cap must be at least 1")
        if self.tenant_max_inflight < 1:
            raise ConfigurationError("tenant in-flight bound must be at least 1")
        for pair in self.tenant_weights:
            try:
                tenant, weight = pair
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"tenant_weights entries must be (tenant, weight) pairs, "
                    f"got {pair!r}"
                ) from None
            if not tenant or not isinstance(tenant, str):
                raise ConfigurationError(
                    f"tenant_weights names a blank tenant: {pair!r}"
                )
            if weight <= 0:
                raise ConfigurationError(
                    f"tenant {tenant!r}: refill weight must be positive"
                )
        if self.controller is not None and self.controller not in CONTROLLERS:
            raise ConfigurationError(
                f"controller must be one of {CONTROLLERS}, got "
                f"{self.controller!r}"
            )
        if self.slo_p99_ms <= 0:
            raise ConfigurationError("the p99 SLO target must be positive")
        if self.slo_min_workers is not None and self.slo_min_workers < 1:
            raise ConfigurationError("slo_min_workers must be at least 1")
        if self.slo_max_workers is not None:
            floor = self.slo_min_workers or 1
            if self.slo_max_workers < floor:
                raise ConfigurationError(
                    f"slo_max_workers ({self.slo_max_workers}) must be >= "
                    f"the worker floor ({floor})"
                )
        if self.slo_tick_s <= 0:
            raise ConfigurationError("the control tick interval must be positive")
        if self.slo_cooldown_ticks < 1:
            raise ConfigurationError("the anti-flap cooldown must be >= 1 tick")
        for pair in self.slo_classes:
            try:
                tenant, klass = pair
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"slo_classes entries must be (tenant, slo_class) pairs, "
                    f"got {pair!r}"
                ) from None
            if not tenant or not isinstance(tenant, str):
                raise ConfigurationError(
                    f"slo_classes names a blank tenant: {pair!r}"
                )
            # class-name membership is enforced by SLOConfig.validate
            # when the controller is built
        return self
