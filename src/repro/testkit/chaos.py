"""The seeded chaos suite: N faulted sessions, one verdict each.

``ChaosRunner`` derives a per-session seed from the master seed, builds
a :class:`~repro.testkit.FaultPlan` and a grid-snapped workload from it,
alternates transports, and hands each session to the
:class:`~repro.testkit.ConformanceOracle`.  Same seed → same plans →
same workloads → same verdicts, which is what makes a red chaos run
*debuggable*: re-run with the seed from the replay log and the failing
session reappears.

CLI entry point: ``python -m repro chaos --seed 7 --sessions 20``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.fixedpoint import Q8_4
from repro.host import CloudServer
from repro.telemetry import MetricsRegistry, render_text
from repro.testkit.endpoint import TRANSPORTS
from repro.testkit.faults import FaultPlan
from repro.testkit.oracle import (
    ConformanceOracle,
    RECOVERED,
    SessionVerdict,
    SURFACED,
    TOLERATED,
    VIOLATION,
)

# Chaos fault profiles, the rows of PROFILE_TABLE: ``default`` draws
# from the classic wire + environment kinds (its seed → plan mapping is pinned and must never
# change); ``recovery`` draws disconnect/shed/stall plans that
# exercise the session-resume machinery; ``handoff`` kills/drains
# members of a multi-gateway fleet mid-stream (:mod:`repro.fleet`);
# ``backends`` reruns both against HE-backed sessions (protocol-v4
# backend negotiation) — checkpoint/resume must carry the backend id
# and shed/retry_after must be honored identically, with the
# zero-recompute oracle counting homomorphic products instead of
# garbled runs; ``tenants`` makes one tenant of a ring-scheduled
# serving layer misbehave (poison, stall, disconnect) and requires the
# other tenants' results to stay bit-identical and unstalled — the
# multi-tenant isolation contract, with the cross-tenant batching
# path under fire; ``processes`` runs the recovery
# invariants against a fleet of *real* gateway subprocesses sharing
# one store file — SIGKILL (leaked lease, maybe a torn append),
# SIGTERM drains, and TCP cuts mid-stream, with the zero-regarble
# proof carried by per-process counters over the results pipes and a
# balanced-ledger audit of the shared file after every recovery;
# ``slo`` reruns the recovery invariants against a gateway whose SLO
# controller is mid-adaptation (warmed to a non-default operating
# point before the fault fires) — bit-identical MACs, zero re-garbles,
# and the post-recovery gateway's controller state must match the
# checkpointed operating point after a drain/adopt handoff.


@dataclass(frozen=True)
class Profile:
    """One row of the profile table: how a profile draws its plans and
    what it serves them on."""

    #: ``(config, session, session_seed, max_cut) -> FaultPlan``
    plans: Callable
    #: the private-MAC backend the remote sessions negotiate
    backend: str = "gc"
    #: the serving controller the single-gateway topology runs
    controller: str = "static"
    #: the fleet size below which the profile has no peer to hand off to
    min_gateways: int = 1
    #: the highest client frame a cut, kill or drain is drawn at
    max_cut: int = 24


def _recovery_plans(c, session, seed, cut):
    return FaultPlan.random_recovery(
        seed, recv_timeout_s=c.recv_timeout_s, max_cut_frame=cut
    )


def _handoff_plans(c, session, seed, cut):
    return FaultPlan.random_handoff(
        seed, recv_timeout_s=c.recv_timeout_s, n_gateways=c.gateways,
        max_cut_frame=cut,
    )


def _backends_plans(c, session, seed, cut):
    """Recovery plans on even sessions, handoff plans on odd ones."""
    return (_handoff_plans if session % 2 else _recovery_plans)(c, session, seed, cut)


PROFILE_TABLE = {
    "default": Profile(
        lambda c, s, seed, cut: FaultPlan.random(seed, recv_timeout_s=c.recv_timeout_s)
    ),
    "recovery": Profile(_recovery_plans),
    "handoff": Profile(_handoff_plans, min_gateways=2),
    # an HE query is a two-frame exchange, so its cut frames come from
    # a matching range
    "backends": Profile(_backends_plans, backend="he", min_gateways=2, max_cut=3),
    "tenants": Profile(
        lambda c, s, seed, cut: FaultPlan.random_tenants(
            seed, recv_timeout_s=c.recv_timeout_s
        )
    ),
    # the round trigger lands strictly before the final round: the
    # fault then hits the query mid-stream
    "processes": Profile(
        lambda c, s, seed, cut: FaultPlan.random_processes(
            seed, recv_timeout_s=c.recv_timeout_s, n_members=c.gateways,
            max_commit_round=max(1, c.rounds - 1),
        ),
        min_gateways=2,
    ),
    "slo": Profile(
        lambda c, s, seed, cut: FaultPlan.random_slo(
            seed, recv_timeout_s=c.recv_timeout_s, max_cut_frame=cut
        ),
        controller="slo",
    ),
}
PROFILES = tuple(PROFILE_TABLE)


#: mixes the master seed with a session index (distinct from the
#: workload stream's mixer so plan and workload are independent draws)
_SEED_STRIDE = 1_000_003
_WORKLOAD_SALT = 0x9E3779B9


def derive_session_seed(master_seed: int, session: int) -> int:
    """The per-session plan seed: stable across runs and platforms."""
    return master_seed * _SEED_STRIDE + session


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run (all verdict-relevant knobs are here)."""

    sessions: int = 20
    seed: int = 7
    transports: tuple[str, ...] = TRANSPORTS
    #: per-message receive timeout; fault durations derive from it
    recv_timeout_s: float = 0.25
    #: hard wall per session — exceeding it is a *violation* (hang)
    deadline_s: float = 15.0
    max_retries: int = 1
    rows: int = 4
    rounds: int = 2
    pool_size: int = 2
    profile: str = "default"
    #: fleet size for the ``handoff`` profile (ignored by the others)
    gateways: int = 3

    def validate(self) -> "ChaosConfig":
        if self.profile not in PROFILES:
            raise ConfigurationError(
                f"unknown chaos profile '{self.profile}' (profiles: {PROFILES})"
            )
        if self.gateways < 1:
            raise ConfigurationError("the fleet needs at least one gateway")
        if self.gateways < PROFILE_TABLE[self.profile].min_gateways:
            raise ConfigurationError(
                f"the {self.profile} profile needs at least two gateways to "
                "hand off between"
            )
        if self.sessions < 1:
            raise ConfigurationError("a chaos run needs at least one session")
        if not self.transports:
            raise ConfigurationError("at least one transport is required")
        for t in self.transports:
            if t not in TRANSPORTS:
                raise ConfigurationError(
                    f"unknown transport '{t}' (transports: {TRANSPORTS})"
                )
        if self.recv_timeout_s <= 0 or self.deadline_s <= 0:
            raise ConfigurationError("timeouts must be positive")
        if self.deadline_s <= self.recv_timeout_s:
            raise ConfigurationError("the deadline must exceed the recv timeout")
        if self.rows < 1 or self.rounds < 1 or self.pool_size < 0:
            raise ConfigurationError("model shape/pool size out of range")
        if self.max_retries < 0:
            raise ConfigurationError("retry budget cannot be negative")
        return self


@dataclass
class ChaosReport:
    """Everything a chaos run produced, renderable and dumpable."""

    config: ChaosConfig
    verdicts: list[SessionVerdict] = field(default_factory=list)
    telemetry_text: str = ""

    @property
    def counts(self) -> dict:
        out = {TOLERATED: 0, SURFACED: 0, VIOLATION: 0, RECOVERED: 0}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    @property
    def ok(self) -> bool:
        """True iff no session violated the conformance contract."""
        return self.counts[VIOLATION] == 0

    def signature(self) -> tuple:
        """Seed-stable fingerprint: equal for equal (config, seed)."""
        return tuple(v.signature() for v in self.verdicts)

    def violations(self) -> list[SessionVerdict]:
        return [v for v in self.verdicts if v.verdict == VIOLATION]

    def format(self) -> str:
        c = self.counts
        lines = [
            f"chaos run: seed={self.config.seed} sessions={self.config.sessions} "
            f"profile={self.config.profile} "
            f"transports={','.join(self.config.transports)}",
            f"verdicts: {c[TOLERATED]} tolerated, {c[RECOVERED]} recovered, "
            f"{c[SURFACED]} surfaced, {c[VIOLATION]} violations",
            "",
        ]
        for v in self.verdicts:
            plan = FaultPlan.from_dict(v.plan)
            marker = {
                TOLERATED: "ok ", RECOVERED: "rec", SURFACED: "err",
                VIOLATION: "XXX",
            }[v.verdict]
            lines.append(
                f"  [{marker}] session {v.session:3d} ({v.transport:7s}) "
                f"{plan.describe():<42s} -> {v.verdict}"
                + (f" [{v.error_type}]" if v.error_type else "")
                + (f" x{v.attempts}" if v.attempts > 1 else "")
            )
            if v.verdict == VIOLATION:
                lines.append(f"        {v.detail}")
        if self.telemetry_text:
            lines += ["", self.telemetry_text]
        return "\n".join(lines)

    # -- replay log ----------------------------------------------------
    def write_log(self, path) -> None:
        """JSONL replay log: one session per line + a header record.

        A failed CI chaos job uploads this; ``FaultPlan.from_dict`` on
        any line's ``plan`` rebuilds the exact faulted session.
        """
        records = [{"record": "chaos_header", **self._header()}]
        records += [{"record": "session", **v.to_dict()} for v in self.verdicts]
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def _header(self) -> dict:
        c = self.counts
        return {
            "seed": self.config.seed,
            "sessions": self.config.sessions,
            "transports": list(self.config.transports),
            "recv_timeout_s": self.config.recv_timeout_s,
            "deadline_s": self.config.deadline_s,
            "max_retries": self.config.max_retries,
            "rows": self.config.rows,
            "rounds": self.config.rounds,
            "pool_size": self.config.pool_size,
            "profile": self.config.profile,
            "backend": PROFILE_TABLE[self.config.profile].backend,
            "controller": PROFILE_TABLE[self.config.profile].controller,
            "gateways": self.config.gateways,
            "tolerated": c[TOLERATED],
            "recovered": c[RECOVERED],
            "surfaced": c[SURFACED],
            "violations": c[VIOLATION],
        }


class ChaosRunner:
    """Builds the server + oracle once, then runs the seeded sessions."""

    def __init__(
        self,
        config: ChaosConfig | None = None,
        telemetry: MetricsRegistry | None = None,
    ):
        self.config = (config or ChaosConfig()).validate()
        self.profile = PROFILE_TABLE[self.config.profile]
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        model_rng = np.random.default_rng(self.config.seed)
        model = _snap_q84(
            model_rng.uniform(-2.0, 2.0, size=(self.config.rows, self.config.rounds))
        )
        self.server = CloudServer(
            model,
            Q8_4,
            pool_size=self.config.pool_size,
            seed=self.config.seed,
            auto_refill=True,
            telemetry=self.telemetry,
        )
        self.oracle = ConformanceOracle(
            self.server,
            telemetry=self.telemetry,
            recv_timeout_s=self.config.recv_timeout_s,
            deadline_s=self.config.deadline_s,
            max_retries=self.config.max_retries,
            gateways=self.config.gateways,
            backend=self.profile.backend,
            controller=self.profile.controller,
            fleet_seed=self.config.seed,
        )

    def plan_for(self, session: int) -> FaultPlan:
        seed = derive_session_seed(self.config.seed, session)
        return self.profile.plans(self.config, session, seed, self.profile.max_cut)

    def workload_for(self, session: int) -> tuple[int, list[float]]:
        """The (row, x) a session queries — grid-snapped, seed-stable."""
        rng = random.Random(
            derive_session_seed(self.config.seed, session) ^ _WORKLOAD_SALT
        )
        row = rng.randrange(self.config.rows)
        x = [round(rng.uniform(-1.0, 1.0) * 16) / 16 for _ in range(self.config.rounds)]
        return row, x

    def transport_for(self, session: int) -> str:
        return self.config.transports[session % len(self.config.transports)]

    def run(self, progress=None) -> ChaosReport:
        """Run every session; ``progress`` (if given) is called per verdict."""
        verdicts = []
        try:
            for session in range(self.config.sessions):
                plan = self.plan_for(session)
                row, x = self.workload_for(session)
                verdict = self.oracle.run_session(
                    plan, row, x, self.transport_for(session)
                )
                verdict.session = session
                verdicts.append(verdict)
                if progress is not None:
                    progress(verdict)
        finally:
            # the processes profile holds a live subprocess fleet open
            # across sessions; reap it even on a crashed run
            self.oracle.close()
        return ChaosReport(
            config=self.config,
            verdicts=verdicts,
            telemetry_text=render_text(
                self.telemetry.snapshot(), title="chaos telemetry"
            ),
        )

    # ------------------------------------------------------------------
    @classmethod
    def replay(
        cls,
        path,
        telemetry: MetricsRegistry | None = None,
        progress=None,
    ) -> ChaosReport:
        """Re-execute the exact fault plans a chaos run logged.

        The JSONL log's header record rebuilds the run's config (so the
        server, workloads, and timeouts match the original), and each
        session record's serialized plan is re-run as-is — no re-draw
        from the seed, so a log from an older build replays faithfully
        even if plan generation has since changed.  The returned
        report's ``ok`` reflects the *re-execution*: a fixed bug replays
        green, a live one replays red.
        """
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError as exc:
                    raise ConfigurationError(
                        f"corrupt chaos replay log {path}: {exc}"
                    ) from exc
        header = next(
            (r for r in records if r.get("record") == "chaos_header"), None
        )
        if header is None:
            raise ConfigurationError(
                f"chaos replay log {path} has no chaos_header record"
            )
        sessions = [r for r in records if r.get("record") == "session"]
        config = ChaosConfig(
            sessions=max(1, len(sessions)),
            seed=int(header["seed"]),
            transports=tuple(header["transports"]),
            recv_timeout_s=float(header["recv_timeout_s"]),
            deadline_s=float(header["deadline_s"]),
            max_retries=int(header.get("max_retries", 1)),
            rows=int(header.get("rows", 4)),
            rounds=int(header.get("rounds", 2)),
            pool_size=int(header.get("pool_size", 2)),
            profile=str(header.get("profile", "default")),
            # pre-fleet logs carry no gateway count; 3 matches the old
            # single-endpoint behaviour closely enough (the plans in
            # such logs have no handoff faults anyway)
            gateways=int(header.get("gateways", 3)),
        )
        runner = cls(config, telemetry=telemetry)
        verdicts = []
        try:
            for rec in sessions:
                session = int(rec.get("session", len(verdicts)))
                plan = FaultPlan.from_dict(rec["plan"])
                row, x = runner.workload_for(session)
                verdict = runner.oracle.run_session(
                    plan, row, x, runner.transport_for(session)
                )
                verdict.session = session
                verdicts.append(verdict)
                if progress is not None:
                    progress(verdict)
        finally:
            runner.oracle.close()
        return ChaosReport(
            config=config,
            verdicts=verdicts,
            telemetry_text=render_text(
                runner.telemetry.snapshot(), title="chaos replay telemetry"
            ),
        )


def _snap_q84(matrix: np.ndarray) -> np.ndarray:
    """Snap to the Q8.4 grid so MAC results are bit-exact comparable."""
    return np.round(matrix * 16.0) / 16.0
