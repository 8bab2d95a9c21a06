"""The fault-injection DSL: seeded, serialisable, reproducible.

A :class:`FaultPlan` is a small declarative description of what goes
wrong in one GC session — which party's endpoint misbehaves, at which
send-frame index, and how.  Plans are built either explicitly (unit
tests pin one fault) or via :meth:`FaultPlan.random` from a seed (the
chaos suite), and they serialise to plain dicts so a failed chaos run
can dump a replay log from which the exact session is reconstructible.

Two fault families:

* **endpoint faults** (``drop``/``corrupt``/``duplicate``/``delay``/
  ``truncate``/``stall``) are injected by
  :class:`repro.testkit.FaultyEndpoint` between the protocol layer and
  the transport, so the same plan runs unchanged against the in-memory
  channel and the socketpair loopback;
* **environment faults** (``exhaust_pool``/``kill_worker``/
  ``abort_handshake``) attack the serving stack around the wire — the
  pre-garbled pool, a serving worker, the gateway handshake.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError

# -- endpoint faults ---------------------------------------------------
DROP = "drop"            #: swallow send-frame N (peer times out, typed)
CORRUPT = "corrupt"      #: flip bits in send-frame N (integrity check fires)
DUPLICATE = "duplicate"  #: send frame N twice (tag sequencing catches it)
DELAY = "delay"          #: sleep briefly before frame N (tolerated)
TRUNCATE = "truncate"    #: cut frame N short (integrity check fires)
STALL = "stall"          #: sleep past the peer's recv timeout at frame N

# -- environment faults ------------------------------------------------
EXHAUST_POOL = "exhaust_pool"        #: drain the pre-garbled pool first
KILL_WORKER = "kill_worker"          #: poison request aimed at a worker
ABORT_HANDSHAKE = "abort_handshake"  #: client drops mid-negotiation

# -- recovery faults (:mod:`repro.recover`) ------------------------------
DISCONNECT = "disconnect"  #: cut the client's wire after frame N; must resume
SHED = "shed"              #: saturate the gateway queue; must retry after hint

# -- fleet handoff faults (:mod:`repro.fleet`) --------------------------
KILL_GATEWAY = "kill_gateway"    #: crash gateway G after frame N; a peer
                                 #: must steal the lease and finish the query
DRAIN_GATEWAY = "drain_gateway"  #: gracefully drain gateway G mid-stream;
                                 #: a peer resumes from its checkpoint

# -- process-fleet faults (:class:`repro.fleet.ProcessFleet`) -----------
KILL_PROCESS = "kill_process"  #: SIGKILL member M once the store shows
                               #: commit round N; a peer process must
                               #: steal the leaked lease and finish
TERM_PROCESS = "term_process"  #: SIGTERM member M at commit round N —
                               #: drain, checkpoint, release, exit 0
DISCONNECT_PROCESS = "disconnect_process"  #: cut the client's TCP wire
                               #: at commit round N; the fleet stays up
                               #: and the session must resume

# -- tenant-isolation faults (ring scheduler, :mod:`repro.serve`) -------
POISON_TENANT = "poison_tenant"          #: one tenant submits poison
                                         #: requests; others stay bit-identical
STALL_TENANT = "stall_tenant"            #: one tenant's request sleeps past
                                         #: the recv timeout; others progress
DISCONNECT_TENANT = "disconnect_tenant"  #: one tenant cancels/abandons its
                                         #: work mid-queue; credits come back

ENDPOINT_FAULT_KINDS = (DROP, CORRUPT, DUPLICATE, DELAY, TRUNCATE, STALL)
ENVIRONMENT_FAULT_KINDS = (EXHAUST_POOL, KILL_WORKER, ABORT_HANDSHAKE)
RECOVERY_FAULT_KINDS = (DISCONNECT, SHED)
HANDOFF_FAULT_KINDS = (KILL_GATEWAY, DRAIN_GATEWAY)
PROCESS_FAULT_KINDS = (KILL_PROCESS, TERM_PROCESS, DISCONNECT_PROCESS)
TENANT_FAULT_KINDS = (POISON_TENANT, STALL_TENANT, DISCONNECT_TENANT)
ALL_FAULT_KINDS = (
    ENDPOINT_FAULT_KINDS + ENVIRONMENT_FAULT_KINDS + RECOVERY_FAULT_KINDS
    + HANDOFF_FAULT_KINDS + PROCESS_FAULT_KINDS + TENANT_FAULT_KINDS
)

#: Faults worth one bounded retry: transient wire gremlins where a
#: fresh attempt of the whole session is expected to succeed.  A
#: corrupted frame is deliberately *not* retryable — integrity failure
#: means the channel cannot be trusted — and neither is a poison
#: request (isolation, not repetition) or an aborted handshake (the
#: client is gone).
RETRYABLE_KINDS = frozenset({DROP, DUPLICATE, DELAY, TRUNCATE, STALL, EXHAUST_POOL})

SIDES = ("garbler", "evaluator")

#: decorrelates the ``slo`` profile's plan stream from ``recovery``'s
#: (both draw the same fault kinds; the tiers must not fire identical
#: sequences for the same master seed)
_SLO_PLAN_SALT = 0x510C7


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what, where, and when.

    ``frame`` indexes the injecting side's *sent* messages (0-based);
    ``duration_s`` parameterises ``delay``/``stall``; ``after_frames``
    is the ``abort_handshake`` boundary — how many handshake frames the
    client sends before vanishing; ``gateway`` is the fleet member a
    handoff fault targets (so replay logs reproduce *which* gateway
    died, not just that one did); ``tenant`` is the victim tenant index
    a tenant-isolation fault misbehaves as.
    """

    kind: str
    side: str = "garbler"
    frame: int = 0
    duration_s: float = 0.0
    after_frames: int = 0
    gateway: int = 0
    tenant: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind '{self.kind}' (kinds: {ALL_FAULT_KINDS})"
            )
        if self.side not in SIDES:
            raise ConfigurationError(f"fault side must be one of {SIDES}")
        if self.frame < 0 or self.after_frames < 0 or self.duration_s < 0:
            raise ConfigurationError("fault parameters cannot be negative")
        if self.gateway < 0:
            raise ConfigurationError("gateway index cannot be negative")
        if self.tenant < 0:
            raise ConfigurationError("tenant index cannot be negative")

    @property
    def is_endpoint_fault(self) -> bool:
        return self.kind in ENDPOINT_FAULT_KINDS

    @property
    def retryable(self) -> bool:
        return self.kind in RETRYABLE_KINDS

    def describe(self) -> str:
        if self.kind in (DELAY, STALL):
            return f"{self.kind}({self.side}@{self.frame}, {self.duration_s:.3g}s)"
        if self.kind == ABORT_HANDSHAKE:
            return f"{self.kind}(after {self.after_frames} frames)"
        if self.kind == DISCONNECT:
            return f"{self.kind}(cut@{self.frame})"
        if self.kind in HANDOFF_FAULT_KINDS:
            return f"{self.kind}(gw{self.gateway}, cut@{self.frame})"
        if self.kind in PROCESS_FAULT_KINDS:
            return f"{self.kind}(m{self.gateway}, commit@{self.frame})"
        if self.kind in TENANT_FAULT_KINDS:
            if self.kind == STALL_TENANT:
                return f"{self.kind}(t{self.tenant}, {self.duration_s:.3g}s)"
            return f"{self.kind}(t{self.tenant})"
        if self.is_endpoint_fault:
            return f"{self.kind}({self.side}@{self.frame})"
        return self.kind

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "side": self.side,
            "frame": self.frame,
            "duration_s": self.duration_s,
            "after_frames": self.after_frames,
            "gateway": self.gateway,
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultSpec":
        return cls(**{f: raw[f] for f in cls.__dataclass_fields__ if f in raw})


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of faults for one session, tagged with its seed."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(f.kind for f in self.faults)

    @property
    def is_environment(self) -> bool:
        """True when the plan attacks the serving stack, not the wire."""
        return any(not f.is_endpoint_fault for f in self.faults)

    @property
    def is_recovery(self) -> bool:
        """True when the plan exercises the resume/shed machinery."""
        return any(f.kind in RECOVERY_FAULT_KINDS for f in self.faults)

    @property
    def is_handoff(self) -> bool:
        """True when the plan kills/drains a fleet member mid-stream."""
        return any(f.kind in HANDOFF_FAULT_KINDS for f in self.faults)

    @property
    def is_process(self) -> bool:
        """True when the plan attacks a *real* subprocess fleet — a
        SIGKILL/SIGTERM of a member, or a TCP cut against one."""
        return any(f.kind in PROCESS_FAULT_KINDS for f in self.faults)

    @property
    def is_tenant(self) -> bool:
        """True when the plan makes one tenant misbehave under the ring
        scheduler (the others must stay isolated)."""
        return any(f.kind in TENANT_FAULT_KINDS for f in self.faults)

    @property
    def retryable(self) -> bool:
        """A session worth one bounded retry after a typed failure."""
        return bool(self.faults) and all(f.retryable for f in self.faults)

    def endpoint_faults(self, side: str) -> list[FaultSpec]:
        return [f for f in self.faults if f.is_endpoint_fault and f.side == side]

    def describe(self) -> str:
        if not self.faults:
            return "clean"
        return "+".join(f.describe() for f in self.faults)

    # -- serialisation (replay logs) -----------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in raw.get("faults", ())),
            seed=raw.get("seed"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- generation ----------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        recv_timeout_s: float = 0.25,
        garbler_frames: int = 12,
        evaluator_frames: int = 4,
        environment_rate: float = 0.25,
    ) -> "FaultPlan":
        """A reproducible random plan: same arguments, same plan.

        Durations are derived from ``recv_timeout_s`` so verdicts are
        deterministic: delays stay well inside the timeout (tolerated),
        stalls well past it (surfaced).  Frame indexes may land beyond
        the session's actual frame count, in which case the fault never
        fires and the session runs clean — the oracle records that.
        """
        rng = random.Random(seed)
        if rng.random() < environment_rate:
            kind = rng.choice(ENVIRONMENT_FAULT_KINDS)
            spec = FaultSpec(
                kind=kind,
                after_frames=rng.randint(0, 1) if kind == ABORT_HANDSHAKE else 0,
            )
            return cls(faults=(spec,), seed=seed)
        faults = []
        for _ in range(rng.choice((1, 1, 2))):
            kind = rng.choice(ENDPOINT_FAULT_KINDS)
            side = rng.choice(SIDES)
            frame = rng.randint(
                0, garbler_frames if side == "garbler" else evaluator_frames
            )
            duration = 0.0
            if kind == DELAY:
                duration = round(rng.uniform(0.2, 0.6) * recv_timeout_s * 0.1, 4)
            elif kind == STALL:
                duration = round(4.0 * recv_timeout_s, 4)
            faults.append(
                FaultSpec(kind=kind, side=side, frame=frame, duration_s=duration)
            )
        return cls(faults=tuple(faults), seed=seed)

    @classmethod
    def random_recovery(
        cls,
        seed: int,
        recv_timeout_s: float = 0.25,
        max_cut_frame: int = 24,
    ) -> "FaultPlan":
        """A reproducible plan from the *recovery* profile: disconnects
        (weighted highest — the tentpole fault), queue sheds, and stalls.

        Kept separate from :meth:`random` on purpose: the default
        profile's seed → plan mapping is pinned by the determinism
        tests, and adding kinds to its draw stream would silently remap
        every historical seed.
        """
        rng = random.Random(seed)
        kind = rng.choice((DISCONNECT, DISCONNECT, SHED, STALL))
        if kind == DISCONNECT:
            spec = FaultSpec(
                kind=DISCONNECT,
                side="evaluator",
                frame=rng.randint(1, max_cut_frame),
            )
        elif kind == SHED:
            spec = FaultSpec(kind=SHED)
        else:
            spec = FaultSpec(
                kind=STALL,
                side=rng.choice(SIDES),
                frame=rng.randint(0, 8),
                duration_s=round(4.0 * recv_timeout_s, 4),
            )
        return cls(faults=(spec,), seed=seed)

    @classmethod
    def random_slo(
        cls,
        seed: int,
        recv_timeout_s: float = 0.25,
        max_cut_frame: int = 24,
    ) -> "FaultPlan":
        """A reproducible plan from the *slo* profile: recovery-class
        faults fired while the SLO controller is mid-adaptation —
        disconnects (weighted highest: the resume path must work from a
        controller-shrunk batch), a saturation shed (the adaptive
        ``retry_after`` hint must round-trip), or a stall.

        A separate generator (even though it draws the same kinds as
        :meth:`random_recovery`) for the same reason all the profile
        generators are: the older profiles' seed → plan mappings are
        pinned by the determinism tests, and this stream must be free
        to evolve without remapping theirs.  The seed is salted so the
        slo stream is independent of recovery's from day one — the two
        tiers fire different fault sequences for the same master seed.
        """
        rng = random.Random(seed ^ _SLO_PLAN_SALT)
        kind = rng.choice((DISCONNECT, DISCONNECT, SHED, STALL))
        if kind == DISCONNECT:
            spec = FaultSpec(
                kind=DISCONNECT,
                side="evaluator",
                frame=rng.randint(1, max_cut_frame),
            )
        elif kind == SHED:
            spec = FaultSpec(kind=SHED)
        else:
            spec = FaultSpec(
                kind=STALL,
                side=rng.choice(SIDES),
                frame=rng.randint(0, 8),
                duration_s=round(4.0 * recv_timeout_s, 4),
            )
        return cls(faults=(spec,), seed=seed)

    @classmethod
    def random_handoff(
        cls,
        seed: int,
        recv_timeout_s: float = 0.25,
        max_cut_frame: int = 24,
        n_gateways: int = 3,
    ) -> "FaultPlan":
        """A reproducible plan from the *handoff* profile: crash
        (weighted highest — the lease-steal tentpole) or drain one
        member of an ``n_gateways`` fleet mid-stream.

        A separate generator for the same reason :meth:`random_recovery`
        is: the older profiles' seed → plan mappings are pinned, and new
        kinds must not remap their draw streams.
        """
        if n_gateways < 2:
            raise ConfigurationError(
                "a handoff plan needs at least two gateways to hand off between"
            )
        rng = random.Random(seed)
        kind = rng.choice((KILL_GATEWAY, KILL_GATEWAY, DRAIN_GATEWAY))
        spec = FaultSpec(
            kind=kind,
            side="evaluator",
            frame=rng.randint(1, max_cut_frame),
            gateway=rng.randrange(n_gateways),
        )
        return cls(faults=(spec,), seed=seed)

    @classmethod
    def random_processes(
        cls,
        seed: int,
        recv_timeout_s: float = 0.25,
        n_members: int = 3,
        max_commit_round: int = 4,
    ) -> "FaultPlan":
        """A reproducible plan from the *processes* profile: against a
        fleet of real gateway subprocesses, ``SIGKILL`` one member
        mid-garble (weighted highest — the crash-consistency tentpole:
        leaked lease, possibly a torn append), ``SIGTERM`` one (drain,
        checkpoint, release, exit 0), or cut the client's TCP wire.

        ``frame`` is a *committed-round* trigger, not a frame index:
        the supervisor fires the fault once the shared store shows the
        session's commit at that round, which is the only cross-process
        surface both sides agree on (a frame count can land inside the
        admission window, before any checkpoint exists).  Keep
        ``max_commit_round`` below the session's round count so the
        trigger always fires mid-stream.

        A separate generator for the same reason the recovery, handoff,
        and tenant ones are: the older profiles' seed → plan mappings
        are pinned, and new kinds must not remap their draw streams.
        """
        if n_members < 2:
            raise ConfigurationError(
                "a process plan needs at least two members to fail over between"
            )
        rng = random.Random(seed)
        kind = rng.choice(
            (KILL_PROCESS, KILL_PROCESS, TERM_PROCESS, DISCONNECT_PROCESS)
        )
        spec = FaultSpec(
            kind=kind,
            side="evaluator",
            frame=rng.randint(1, max(1, max_commit_round)),
            gateway=rng.randrange(n_members),
        )
        return cls(faults=(spec,), seed=seed)

    @classmethod
    def random_tenants(
        cls,
        seed: int,
        recv_timeout_s: float = 0.25,
        n_tenants: int = 4,
    ) -> "FaultPlan":
        """A reproducible plan from the *tenants* profile: one victim
        tenant misbehaves — poison queries (weighted highest, the
        isolation tentpole), a stall past the receive timeout, or an
        abandoned/cancelled query — and every other tenant must stay
        bit-identical and unstalled.

        A separate generator for the same reason the recovery and
        handoff ones are: the older profiles' seed → plan mappings are
        pinned, and new kinds must not remap their draw streams.
        """
        if n_tenants < 2:
            raise ConfigurationError(
                "a tenant plan needs at least two tenants to isolate between"
            )
        rng = random.Random(seed)
        kind = rng.choice(
            (POISON_TENANT, POISON_TENANT, STALL_TENANT, DISCONNECT_TENANT)
        )
        spec = FaultSpec(
            kind=kind,
            tenant=rng.randrange(n_tenants),
            duration_s=(
                round(4.0 * recv_timeout_s, 4) if kind == STALL_TENANT else 0.0
            ),
        )
        return cls(faults=(spec,), seed=seed)
