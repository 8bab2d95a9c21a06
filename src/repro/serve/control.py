"""Latency-SLO adaptive control: a deterministic, tick-driven loop.

Every serving knob was static config until now: worker counts, resume
batch sizing, and shedding were chosen at construction and never moved,
so the "hardware" either idled below the knee or shed past it.  The
:class:`SLOController` closes the loop from telemetry: each tick it
consumes one :class:`LoadSample` (queue depth, worker utilization,
windowed p50/p99 serve latency) and steers three knobs toward an
explicit :class:`SLOConfig` target —

* the :class:`~repro.serve.server.ServingServer` worker-pool size,
  bounded to ``[min_workers, max_workers]``;
* the :class:`~repro.serve.batcher.ResumeBatcher` adoption batch cap,
  bounded to ``[min_batch, max_batch]``;
* the admission shed probability and the ``retry_after`` hint that
  rides with it.

Stability is structural, not tuned: decisions move along an
*escalation ladder* (scale workers first, shrink batches second, shed
last — and the exact reverse on the way down), every step is
slew-limited to one increment, each knob is frozen for
``cooldown_ticks`` after it moves (anti-flap), and the overload /
underload thresholds form a hysteresis dead band in which nothing moves
at all.  The controller is a pure function of its sample trace: no wall
clock, no internal randomness beyond the seeded admission-draw stream,
so the hypothesis suite in ``tests/serve/test_controller_props.py`` can
assert bit-for-bit determinism, bounded knobs, no-flap, and
convergence-to-zero-shed as hard invariants.

The current :class:`OperatingPoint` serialises to a plain dict and is
checkpointed into the session store on gateway drain
(:data:`CONTROLLER_STATE_KEY`), so a successor gateway inherits the
operating point instead of re-learning the load from scratch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

#: Session-store meta key under which a draining gateway checkpoints its
#: controller's operating point for the successor to inherit.
CONTROLLER_STATE_KEY = "controller.operating_point"

#: Per-tenant SLO classes: the class sets both the tenant's weighted
#: credit-refill share (gold refills 4x a bronze tenant) and how much of
#: the controller's shed probability applies to it (gold sheds at a
#: quarter of the nominal rate — latency-SLO traffic is the last to go).
SLO_CLASSES = ("gold", "silver", "bronze")
CLASS_REFILL_WEIGHT = {"gold": 4.0, "silver": 2.0, "bronze": 1.0}
CLASS_SHED_FACTOR = {"gold": 0.25, "silver": 0.5, "bronze": 1.0}

#: the knobs a decision may move (each has an independent cooldown)
KNOB_WORKERS = "workers"
KNOB_BATCH = "batch_max"
KNOB_SHED = "shed"
KNOBS = (KNOB_WORKERS, KNOB_BATCH, KNOB_SHED)

#: mixes the admission-draw index into the seed so the shed stream is
#: independent of everything else derived from the same seed
_SHED_DRAW_SALT = 0x5EDC0DE

#: Seed of the admission-shed draw stream (same seed + same admission
#: order sheds the same requests).
SHED_SEED = 0


@dataclass(frozen=True)
class SLOConfig:
    """The target and the stability envelope of one control loop.

    ``p99_target_ms`` is the SLO itself.  The hysteresis band is
    ``[low_pressure, high_pressure]`` as fractions of the target: above
    ``high_pressure`` the controller escalates, below ``low_pressure``
    it relaxes, in between it holds.  ``queue_high``/``queue_low`` are
    the same band on queue occupancy (a saturated queue is overload even
    before its latency shows up in completed-request percentiles).
    """

    p99_target_ms: float = 50.0
    min_workers: int = 1
    max_workers: int = 8
    min_batch: int = 1
    max_batch: int = 8
    cooldown_ticks: int = 4
    high_pressure: float = 1.0
    low_pressure: float = 0.5
    queue_high: float = 0.75
    queue_low: float = 0.25
    shed_step: float = 0.125
    max_shed: float = 0.9
    retry_after_min_s: float = 0.05
    retry_after_max_s: float = 2.0
    #: ``(tenant, slo_class)`` pairs; unnamed tenants are ``bronze``
    classes: tuple = ()

    def validate(self) -> "SLOConfig":
        if self.p99_target_ms <= 0:
            raise ConfigurationError("the p99 SLO target must be positive")
        if self.min_workers < 1:
            raise ConfigurationError("the controller needs at least one worker")
        if self.max_workers < self.min_workers:
            raise ConfigurationError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if self.min_batch < 1:
            raise ConfigurationError("the batch floor must be at least 1")
        if self.max_batch < self.min_batch:
            raise ConfigurationError(
                f"max_batch ({self.max_batch}) must be >= min_batch "
                f"({self.min_batch})"
            )
        if self.cooldown_ticks < 1:
            raise ConfigurationError("the anti-flap cooldown must be >= 1 tick")
        if not 0.0 < self.low_pressure < self.high_pressure:
            raise ConfigurationError(
                "the latency hysteresis band needs 0 < low_pressure < "
                "high_pressure"
            )
        if not 0.0 <= self.queue_low < self.queue_high <= 1.0:
            raise ConfigurationError(
                "the queue hysteresis band needs 0 <= queue_low < "
                "queue_high <= 1"
            )
        if not 0.0 < self.shed_step <= 1.0:
            raise ConfigurationError("shed_step must be in (0, 1]")
        if not 0.0 < self.max_shed <= 1.0:
            raise ConfigurationError("max_shed must be in (0, 1]")
        if not 0.0 < self.retry_after_min_s <= self.retry_after_max_s:
            raise ConfigurationError(
                "retry-after bounds need 0 < min <= max"
            )
        for pair in self.classes:
            try:
                tenant, klass = pair
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"classes entries must be (tenant, slo_class) pairs, "
                    f"got {pair!r}"
                ) from None
            if not tenant or not isinstance(tenant, str):
                raise ConfigurationError(f"classes names a blank tenant: {pair!r}")
            if klass not in SLO_CLASSES:
                raise ConfigurationError(
                    f"tenant {tenant!r}: slo class must be one of "
                    f"{SLO_CLASSES}, got {klass!r}"
                )
        return self


@dataclass(frozen=True)
class LoadSample:
    """One tick's observation of the serving layer.

    ``p50_ms``/``p99_ms`` are percentiles over the latencies completed
    *since the previous tick* (windowed, so the controller reacts to
    now, not to the run's lifetime distribution); ``0.0`` means no
    request completed in the window — latency is then unknown and only
    the queue signals drive the tick.
    """

    queue_depth: int = 0
    queue_capacity: int = 1
    inflight: int = 0
    workers: int = 1
    p50_ms: float = 0.0
    p99_ms: float = 0.0


@dataclass(frozen=True)
class ControlDecision:
    """What one tick decided: the full operating point plus what moved."""

    tick: int
    workers: int
    batch_max: int
    shed_probability: float
    retry_after_s: float
    changed: tuple[str, ...] = ()


@dataclass
class OperatingPoint:
    """The controller's live state — everything a successor needs.

    Serialises to a plain dict so a draining gateway can checkpoint it
    into the session store (under :data:`CONTROLLER_STATE_KEY`) and the
    adopting gateway's controller resumes from the same knob settings,
    the same tick count, and the same per-knob cooldown history.
    """

    workers: int
    batch_max: int
    shed_probability: float = 0.0
    retry_after_s: float = 0.05
    tick: int = 0
    #: admission-draw counter (the deterministic shed stream's position)
    draws: int = 0
    #: knob -> tick of its last change (cooldown bookkeeping)
    last_change: dict | None = None

    def __post_init__(self) -> None:
        if self.last_change is None:
            self.last_change = {}

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "batch_max": self.batch_max,
            "shed_probability": self.shed_probability,
            "retry_after_s": self.retry_after_s,
            "tick": self.tick,
            "draws": self.draws,
            "last_change": dict(self.last_change),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "OperatingPoint":
        return cls(
            workers=int(raw["workers"]),
            batch_max=int(raw["batch_max"]),
            shed_probability=float(raw.get("shed_probability", 0.0)),
            retry_after_s=float(raw.get("retry_after_s", 0.05)),
            tick=int(raw.get("tick", 0)),
            draws=int(raw.get("draws", 0)),
            last_change={
                str(k): int(v)
                for k, v in (raw.get("last_change") or {}).items()
            },
        )


class SLOController:
    """The tick-driven brain: one :meth:`tick` per control interval.

    Deterministic by construction — :meth:`tick` is a pure function of
    (state, sample), and the admission-shed stream (:meth:`should_shed`)
    is a seeded counter-indexed draw — so the same (seed, trace) always
    produces the same decision and shed sequences, bit for bit.
    """

    def __init__(
        self,
        config: SLOConfig,
        workers: int | None = None,
        batch_max: int | None = None,
        telemetry=None,
        seed: int = SHED_SEED,
    ):
        self.config = config.validate()
        self.telemetry = telemetry
        self.seed = seed
        start_workers = self._clamp(
            config.min_workers if workers is None else workers,
            config.min_workers, config.max_workers,
        )
        start_batch = self._clamp(
            config.max_batch if batch_max is None else batch_max,
            config.min_batch, config.max_batch,
        )
        self._op = OperatingPoint(
            workers=start_workers,
            batch_max=start_batch,
            retry_after_s=config.retry_after_min_s,
        )
        self._classes = dict(config.classes)

    @classmethod
    def from_serving_config(cls, config, telemetry=None) -> "SLOController":
        """Build from a :class:`~repro.serve.config.ServingConfig`'s
        ``slo_*`` knobs (the ``ServingConfig.validate`` already ran)."""
        min_workers = config.slo_min_workers or 1
        max_workers = config.slo_max_workers or max(config.workers, min_workers)
        slo = SLOConfig(
            p99_target_ms=config.slo_p99_ms,
            min_workers=min_workers,
            max_workers=max_workers,
            min_batch=1,
            max_batch=config.resume_batch_max,
            cooldown_ticks=config.slo_cooldown_ticks,
            retry_after_min_s=config.retry_after_s,
            retry_after_max_s=max(config.retry_after_s, 2.0),
            classes=tuple(config.slo_classes),
        )
        return cls(
            slo, workers=config.workers, batch_max=config.resume_batch_max,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def operating_point(self) -> OperatingPoint:
        return self._op

    def restore(self, op: OperatingPoint) -> None:
        """Adopt a checkpointed operating point (drain/handoff path).

        Knobs are re-clamped against *this* controller's bounds so a
        successor with a narrower config never runs outside it.
        """
        cfg = self.config
        self._op = replace(
            op,
            workers=self._clamp(op.workers, cfg.min_workers, cfg.max_workers),
            batch_max=self._clamp(op.batch_max, cfg.min_batch, cfg.max_batch),
            shed_probability=min(max(op.shed_probability, 0.0), cfg.max_shed),
            retry_after_s=min(
                max(op.retry_after_s, cfg.retry_after_min_s),
                cfg.retry_after_max_s,
            ),
            last_change=dict(op.last_change),
        )
        self._count("controller.restored")

    def apply_classes(self, scheduler) -> None:
        """Push the per-tenant SLO classes into the ring scheduler's
        weighted credit refill (gold refills ahead of bronze)."""
        for tenant, klass in self._classes.items():
            scheduler.set_weight(tenant, CLASS_REFILL_WEIGHT[klass])

    def shed_factor(self, tenant: str) -> float:
        """How much of the nominal shed probability hits ``tenant``."""
        klass = self._classes.get(tenant or "", "bronze")
        return CLASS_SHED_FACTOR[klass]

    def should_shed(self, tenant: str = "") -> bool:
        """One deterministic admission draw against the current shed
        probability, scaled down for higher SLO classes.  The draw
        stream is seeded and counter-indexed: the same (seed, admission
        sequence) sheds the same requests every run."""
        p = self._op.shed_probability * self.shed_factor(tenant)
        if p <= 0.0:
            return False
        index = self._op.draws
        self._op.draws = index + 1
        draw = random.Random((self.seed << 24) ^ (index * 2 + 1) ^ _SHED_DRAW_SALT)
        return draw.random() < p

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def tick(self, sample: LoadSample) -> ControlDecision:
        """Advance one control interval; returns the (possibly moved)
        operating point.  Escalation ladder under overload: workers up,
        then batches down, then shed up.  Relaxation ladder under
        underload: shed down first (convergence to zero shed), then
        batches up, then workers down.  Dead band: hold everything."""
        cfg = self.config
        op = self._op
        op.tick += 1
        self._count("controller.ticks")
        if self.telemetry is not None and sample.p99_ms > 0.0:
            self.telemetry.histogram("controller.p99_ms").record(sample.p99_ms)

        capacity = max(1, sample.queue_capacity)
        queue_frac = sample.queue_depth / capacity
        latency_ratio = (
            sample.p99_ms / cfg.p99_target_ms if sample.p99_ms > 0.0 else None
        )
        overloaded = (
            (latency_ratio is not None and latency_ratio > cfg.high_pressure)
            or queue_frac >= cfg.queue_high
        )
        underloaded = (
            not overloaded
            and (latency_ratio is None or latency_ratio < cfg.low_pressure)
            and queue_frac <= cfg.queue_low
        )

        changed: list[str] = []
        if overloaded:
            self._escalate(changed)
        elif underloaded:
            self._relax(changed)
        self._op = op
        return ControlDecision(
            tick=op.tick,
            workers=op.workers,
            batch_max=op.batch_max,
            shed_probability=op.shed_probability,
            retry_after_s=op.retry_after_s,
            changed=tuple(changed),
        )

    # ------------------------------------------------------------------
    def _escalate(self, changed: list) -> None:
        cfg, op = self.config, self._op
        if op.workers < cfg.max_workers:
            if self._cooled(KNOB_WORKERS):
                op.workers += 1  # slew limit: one worker per move
                self._moved(KNOB_WORKERS, changed, "controller.scale_up")
            return
        if op.batch_max > cfg.min_batch:
            if self._cooled(KNOB_BATCH):
                op.batch_max -= 1
                self._moved(KNOB_BATCH, changed, "controller.batch_shrink")
            return
        if op.shed_probability < cfg.max_shed and self._cooled(KNOB_SHED):
            op.shed_probability = min(
                cfg.max_shed, round(op.shed_probability + cfg.shed_step, 6)
            )
            op.retry_after_s = self._retry_after(op.shed_probability)
            self._moved(KNOB_SHED, changed, "controller.shed_raise")

    def _relax(self, changed: list) -> None:
        cfg, op = self.config, self._op
        if op.shed_probability > 0.0:
            if self._cooled(KNOB_SHED):
                op.shed_probability = max(
                    0.0, round(op.shed_probability - cfg.shed_step, 6)
                )
                op.retry_after_s = self._retry_after(op.shed_probability)
                self._moved(KNOB_SHED, changed, "controller.shed_decay")
            return
        if op.batch_max < cfg.max_batch:
            if self._cooled(KNOB_BATCH):
                op.batch_max += 1
                self._moved(KNOB_BATCH, changed, "controller.batch_grow")
            return
        if op.workers > cfg.min_workers and self._cooled(KNOB_WORKERS):
            op.workers -= 1
            self._moved(KNOB_WORKERS, changed, "controller.scale_down")

    def _retry_after(self, shed: float) -> float:
        """The backoff hint scales linearly with how hard we are
        shedding: a lightly loaded gateway says "come right back"."""
        cfg = self.config
        span = cfg.retry_after_max_s - cfg.retry_after_min_s
        return round(
            cfg.retry_after_min_s + span * (shed / cfg.max_shed), 6
        )

    def _cooled(self, knob: str) -> bool:
        op = self._op
        last = op.last_change.get(knob)
        if last is not None and op.tick - last < self.config.cooldown_ticks:
            self._count("controller.cooldown_holds")
            return False
        return True

    def _moved(self, knob: str, changed: list, counter: str) -> None:
        self._op.last_change[knob] = self._op.tick
        changed.append(knob)
        self._count(counter)

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name).inc()

    @staticmethod
    def _clamp(value: int, lo: int, hi: int) -> int:
        return max(lo, min(hi, value))
