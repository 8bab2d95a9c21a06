"""A fleet of *real* gateway processes coordinating through the store.

:class:`ProcessFleet` is the deployment shape MAXelerator's serving
story actually implies — one accelerator host per OS process — where
the thread-based :class:`~repro.fleet.group.GatewayGroup` is the CI
approximation.  Each member is a subprocess running its own
:class:`~repro.net.gateway.GCGateway` bound to a TCP port, its own
:class:`~repro.host.CloudServer` (the model is re-derived from the
shared seed, so every member garbles the same circuit family), and a
:class:`~repro.recover.JsonlSessionStore` opened on the *shared* log
file — the only channel members coordinate over.  Ownership moves the
same way it does in-thread: lease steal on expiry, lease-fenced
checkpoint puts, checkpoint adoption.

Supervision surfaces:

* a **results pipe** per member: the worker reports ``runs_garbled``
  (and friends) whenever the counter moves, so the chaos oracle can
  prove zero re-garbles across *processes*, where a shared
  ``ServerStats`` object cannot exist;
* a **heartbeat file** per member, atomically replaced on a short
  period, so the supervisor detects silent death (a member that still
  has a pid but stopped making progress) without trusting the pid;
* **hard kill** (``SIGKILL`` — the crash surface: torn appends, leaked
  leases) and **graceful drain** (``SIGTERM`` — checkpoint, release,
  compact, exit 0);
* **respawn** with per-generation counter folding, so garble accounting
  stays cumulative across a member's crashes.

Placement: session ids are rendezvous-hashed over the member ids
(:func:`~repro.fleet.dialer.rendezvous_index`); the fleet's dialers are
built with ``place_sessions=True`` so a client pins its session to the
placed owner and dials it first on every reconnect.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import tempfile
import time

import numpy as np

from repro.errors import ConfigurationError, WireError
from repro.fleet.dialer import FailoverDialer, rendezvous_index

#: how long a member gets to bind its port and report ready
DEFAULT_READY_TIMEOUT_S = 60.0

#: default heartbeat replacement period (seconds)
DEFAULT_HEARTBEAT_INTERVAL_S = 0.05

#: default stats-poll period inside the worker (seconds).  Short on
#: purpose: the window between "garble finished" and "counter shipped
#: over the pipe" is what a SIGKILL can erase.
DEFAULT_STATS_POLL_S = 0.002


def derive_model(seed: int, rows: int, rounds: int) -> np.ndarray:
    """The fleet's shared model: every member (and the supervisor's
    oracle) derives the same Q8.4-snapped matrix from the same seed."""
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(-2.0, 2.0, size=(rows, rounds)) * 16.0) / 16.0


def _write_heartbeat(path: str, doc: dict) -> None:
    """Atomically replace the heartbeat file (a torn heartbeat would
    read as a silent death, which is the one lie this file must not
    tell)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _member_main(spec: dict, conn) -> None:
    """Subprocess entry point: one gateway, one port, one store handle.

    Must stay importable at module top level — the fleet uses the
    ``spawn`` start method (the parent is threaded; ``fork`` would be
    unsound), and spawn re-imports this function by qualified name.
    """
    from repro.fixedpoint import Q8_4
    from repro.host import CloudServer
    from repro.net.gateway import GCGateway
    from repro.recover import JsonlSessionStore
    from repro.serve import ServingConfig
    from repro.telemetry import MetricsRegistry

    # the handler runs on the main thread between bytecodes, possibly
    # inside the loop's wait: it must take no lock (Event.set does, the
    # one Event.wait holds), so it only appends to a list
    stop: list[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))

    member_id = spec["member_id"]
    hb_path = spec["heartbeat_path"]
    try:
        telemetry = MetricsRegistry()
        model = derive_model(spec["seed"], spec["rows"], spec["rounds"])
        server = CloudServer(
            model,
            Q8_4,
            pool_size=spec["pool_size"],
            seed=spec["seed"],
            auto_refill=spec["auto_refill"],
            telemetry=telemetry,
        )
        config = ServingConfig(**spec["config"]).validate()
        store = JsonlSessionStore(spec["store_path"], telemetry=telemetry)
        gateway = GCGateway(
            server,
            host=spec["host"],
            port=spec["port"],
            config=config,
            telemetry=telemetry,
            store=store,
            gateway_id=member_id,
        )
        gateway.start()
    except Exception as exc:  # surfaced to the supervisor, not swallowed
        conn.send({"event": "error", "member_id": member_id,
                   "error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        raise SystemExit(1)

    pid = os.getpid()
    port = gateway.address[1]
    # first heartbeat lands *before* ready: the supervisor may check for
    # silent deaths the moment start() returns, and a missing file reads
    # as a death
    _write_heartbeat(hb_path, {
        "member_id": member_id, "pid": pid, "port": port,
        "ts": time.time(), "runs_garbled": 0, "stopped": False,
    })
    conn.send({"event": "ready", "member_id": member_id,
               "pid": pid, "port": port})

    def stats_doc() -> dict:
        return {
            "event": "stats",
            "member_id": member_id,
            "runs_garbled": server.stats.runs_garbled,
            "requests_served": server.stats.requests_served,
            "torn_tail_recovered": store.torn_tail_recovered,
        }

    last_runs = -1
    next_heartbeat = 0.0
    while not stop:
        runs = server.stats.runs_garbled
        if runs != last_runs:
            conn.send(stats_doc())
            last_runs = runs
        now = time.monotonic()
        if now >= next_heartbeat:
            _write_heartbeat(hb_path, {
                "member_id": member_id, "pid": pid, "port": port,
                "ts": time.time(), "runs_garbled": runs, "stopped": False,
            })
            next_heartbeat = now + spec["heartbeat_interval_s"]
        time.sleep(spec["stats_poll_s"])

    # SIGTERM: the graceful surface — checkpoint in-flight sessions,
    # release leases for the peers, compact the shared log, exit clean
    gateway.drain()
    gateway.stop()
    conn.send(stats_doc())
    conn.send({"event": "stopped", "member_id": member_id,
               "drains": telemetry.counter("gateway.drains").value})
    _write_heartbeat(hb_path, {
        "member_id": member_id, "pid": pid, "port": port,
        "ts": time.time(), "runs_garbled": server.stats.runs_garbled,
        "stopped": True,
    })
    conn.close()


class _Member:
    """Supervisor-side handle for one fleet member (one generation)."""

    __slots__ = ("index", "member_id", "process", "conn", "heartbeat_path",
                 "port", "pid", "last_stats", "conn_open", "stopped_clean")

    def __init__(self, index: int, member_id: str, heartbeat_path: str):
        self.index = index
        self.member_id = member_id
        self.heartbeat_path = heartbeat_path
        self.process = None
        self.conn = None
        self.port = None
        self.pid = None
        self.last_stats: dict = {}
        self.conn_open = False
        self.stopped_clean = False


class ProcessFleet:
    """N gateway subprocesses sharing one JSONL session store."""

    def __init__(
        self,
        n_members: int = 3,
        seed: int = 0,
        rows: int = 4,
        rounds: int = 2,
        pool_size: int = 0,
        auto_refill: bool = False,
        host: str = "127.0.0.1",
        dir: str | None = None,
        store_path: str | None = None,
        config=None,
        telemetry=None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        stats_poll_s: float = DEFAULT_STATS_POLL_S,
    ):
        if n_members < 1:
            raise ConfigurationError("a process fleet needs at least one member")
        import multiprocessing

        from repro.serve import ServingConfig

        self.n_members = n_members
        self.seed = seed
        self.rows = rows
        self.rounds = rounds
        self.pool_size = pool_size
        self.auto_refill = auto_refill
        self.host = host
        self.telemetry = telemetry
        self.heartbeat_interval_s = heartbeat_interval_s
        self.stats_poll_s = stats_poll_s
        self._owns_dir = dir is None
        self.dir = dir if dir is not None else tempfile.mkdtemp(prefix="repro-fleet-")
        self.store_path = store_path or os.path.join(self.dir, "sessions.jsonl")
        self.config = (config if config is not None else ServingConfig()).validate()
        #: the shared model, identical to every member's (same seed)
        self.model = derive_model(seed, rows, rounds)
        # spawn, not fork: the supervisor is routinely threaded (chaos
        # runner, benchmarks) and fork from a threaded parent is unsound
        self._ctx = multiprocessing.get_context("spawn")
        self.members = [
            _Member(i, f"m{i}", os.path.join(self.dir, f"heartbeat-m{i}.json"))
            for i in range(n_members)
        ]
        #: garble counts folded in from previous generations per member
        self._base_runs = [0] * n_members
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout_s: float = DEFAULT_READY_TIMEOUT_S) -> "ProcessFleet":
        for member in self.members:
            self._spawn(member, port=0)
        for member in self.members:
            self._wait_ready(member, timeout_s)
        self._started = True
        return self

    def _spawn(self, member: _Member, port: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        spec = {
            "member_id": member.member_id,
            "heartbeat_path": member.heartbeat_path,
            "store_path": self.store_path,
            "host": self.host,
            "port": port,
            "seed": self.seed,
            "rows": self.rows,
            "rounds": self.rounds,
            "pool_size": self.pool_size,
            "auto_refill": self.auto_refill,
            "config": dataclasses.asdict(self.config),
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "stats_poll_s": self.stats_poll_s,
        }
        process = self._ctx.Process(
            target=_member_main, args=(spec, child_conn),
            name=f"fleet-{member.member_id}", daemon=True,
        )
        process.start()
        child_conn.close()
        member.process = process
        member.conn = parent_conn
        member.conn_open = True
        member.last_stats = {}
        member.stopped_clean = False

    def _wait_ready(self, member: _Member, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not member.conn.poll(min(remaining, 0.25)):
                if not member.process.is_alive():
                    raise WireError(
                        f"fleet member {member.member_id} died before ready "
                        f"(exitcode {member.process.exitcode})"
                    )
                if remaining <= 0:
                    raise WireError(
                        f"fleet member {member.member_id} not ready within "
                        f"{timeout_s:.1f}s"
                    )
                continue
            try:
                msg = member.conn.recv()
            except (EOFError, OSError) as exc:
                member.conn_open = False
                raise WireError(
                    f"fleet member {member.member_id} died before ready "
                    f"(exitcode {member.process.exitcode})"
                ) from exc
            if msg.get("event") == "ready":
                member.port = msg["port"]
                member.pid = msg["pid"]
                if self.telemetry is not None:
                    self.telemetry.counter("fleet.procs.spawns").inc()
                return
            if msg.get("event") == "error":
                raise WireError(
                    f"fleet member {member.member_id} failed to start: "
                    f"{msg.get('error')}"
                )
            self._absorb(member, msg)

    def stop(self) -> None:
        """SIGTERM everyone, reap, SIGKILL stragglers, clean the dir."""
        for member in self.members:
            process = member.process
            if process is not None and process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except (OSError, TypeError):
                    pass
        deadline = time.monotonic() + max(
            10.0, self.config.drain_timeout_s + 5.0
        )
        for member in self.members:
            process = member.process
            if process is None:
                continue
            while process.is_alive() and time.monotonic() < deadline:
                self.poll_stats()
                process.join(timeout=0.05)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            self.poll_stats()
            if member.conn is not None:
                member.conn.close()
                member.conn_open = False
        if self._owns_dir:
            shutil.rmtree(self.dir, ignore_errors=True)
        self._started = False

    def __enter__(self) -> "ProcessFleet":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # fault surfaces
    # ------------------------------------------------------------------
    def kill(self, index: int) -> int:
        """``SIGKILL`` member ``index`` — the crash surface.  Returns the
        pid that died.  Counters the member reported before the kill are
        retained; whatever it had not flushed is lost, exactly like the
        real failure."""
        member = self.members[index]
        self.poll_stats()
        pid = member.process.pid
        os.kill(pid, signal.SIGKILL)
        member.process.join(timeout=10.0)
        self.poll_stats()
        if self.telemetry is not None:
            self.telemetry.counter("fleet.procs.kills").inc()
        return pid

    def terminate(self, index: int, timeout_s: float = 30.0) -> bool:
        """``SIGTERM`` member ``index`` — the graceful-drain surface.
        Returns True when the member drained and exited clean."""
        os.kill(self.members[index].process.pid, signal.SIGTERM)
        return self.await_exit(index, timeout_s)

    def await_exit(self, index: int, timeout_s: float = 30.0) -> bool:
        """Wait for member ``index``, already sent ``SIGTERM``, to
        drain and exit (``SIGKILL`` past ``timeout_s``).  Returns True
        when it exited clean."""
        member = self.members[index]
        deadline = time.monotonic() + timeout_s
        while member.process.is_alive() and time.monotonic() < deadline:
            self.poll_stats()
            member.process.join(timeout=0.05)
        self.poll_stats()
        if member.process.is_alive():
            member.process.kill()
            member.process.join(timeout=5.0)
            return False
        if self.telemetry is not None:
            self.telemetry.counter("fleet.procs.drains").inc()
        return member.stopped_clean and member.process.exitcode == 0

    def respawn(self, index: int,
                timeout_s: float = DEFAULT_READY_TIMEOUT_S) -> None:
        """Replace a dead member with a fresh generation on the same
        member id (and, when possible, the same port — so placement and
        stale dialers keep working).  Its reported garble count folds
        into the cumulative base first."""
        member = self.members[index]
        if member.process is not None and member.process.is_alive():
            raise ConfigurationError(
                f"member {member.member_id} is still alive — kill or "
                "terminate it before respawning"
            )
        self.poll_stats()
        self._base_runs[index] += int(member.last_stats.get("runs_garbled", 0))
        if member.conn is not None:
            member.conn.close()
            member.conn_open = False
        old_port = member.port
        try:
            self._spawn(member, port=old_port or 0)
            self._wait_ready(member, timeout_s)
        except WireError:
            if not old_port:
                raise
            # the old port was not rebindable (still lingering in the
            # kernel) — fall back to an ephemeral one
            if member.process is not None and member.process.is_alive():
                member.process.kill()
                member.process.join(timeout=5.0)
            self._spawn(member, port=0)
            self._wait_ready(member, timeout_s)
        if self.telemetry is not None:
            self.telemetry.counter("fleet.procs.respawns").inc()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _absorb(self, member: _Member, msg: dict) -> None:
        if msg.get("event") == "stats":
            member.last_stats = msg
        elif msg.get("event") == "stopped":
            member.stopped_clean = True

    def poll_stats(self) -> None:
        """Drain every member's results pipe (non-blocking)."""
        for member in self.members:
            if not member.conn_open or member.conn is None:
                continue
            try:
                while member.conn.poll(0):
                    self._absorb(member, member.conn.recv())
            except (EOFError, OSError):
                member.conn_open = False

    def member_runs_garbled(self, index: int) -> int:
        """Cumulative garbles for the member id, across generations, as
        last reported over the results pipe (drained first)."""
        self.poll_stats()
        return self._base_runs[index] + int(
            self.members[index].last_stats.get("runs_garbled", 0)
        )

    def runs_garbled_by_member(self) -> list[int]:
        return [self.member_runs_garbled(i) for i in range(self.n_members)]

    def total_runs_garbled(self) -> int:
        return sum(self.runs_garbled_by_member())

    def alive(self, index: int) -> bool:
        process = self.members[index].process
        return process is not None and process.is_alive()

    def pid(self, index: int) -> int | None:
        process = self.members[index].process
        return process.pid if process is not None else None

    def read_heartbeat(self, index: int) -> dict | None:
        try:
            with open(self.members[index].heartbeat_path,
                      encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def detect_silent_deaths(self, max_age_s: float) -> list[int]:
        """Members whose heartbeat file has gone stale — the detector
        that works even when the pid table still lies (a wedged process,
        a pid the supervisor cannot wait on)."""
        now = time.time()
        suspects = []
        for i in range(self.n_members):
            doc = self.read_heartbeat(i)
            if doc is None or doc.get("stopped"):
                suspects.append(i)
            elif now - float(doc.get("ts", 0.0)) > max_age_s:
                suspects.append(i)
        return suspects

    # ------------------------------------------------------------------
    # client plumbing
    # ------------------------------------------------------------------
    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [(self.host, m.port) for m in self.members]

    @property
    def member_ids(self) -> list[str]:
        return [m.member_id for m in self.members]

    def place(self, session_id: str, live_only: bool = False) -> int:
        """The member index owning ``session_id`` under rendezvous
        hashing — over all members, or only the live ones (re-placement
        after a death moves exactly the dead member's sessions)."""
        if not live_only:
            return rendezvous_index(session_id, self.member_ids)
        live = [i for i in range(self.n_members) if self.alive(i)]
        if not live:
            raise WireError("no live members to place the session on")
        return live[rendezvous_index(
            session_id, [self.members[i].member_id for i in live]
        )]

    def dialer(
        self,
        name: str = "client",
        recv_timeout_s: float | None = None,
        telemetry=None,
        start_at: int = 0,
        place_sessions: bool = True,
    ) -> FailoverDialer:
        """A placement-aware :class:`FailoverDialer` over the members."""
        return FailoverDialer.from_addresses(
            self.addresses,
            name=name,
            telemetry=telemetry,
            recv_timeout_s=recv_timeout_s,
            start_at=start_at,
            member_ids=self.member_ids,
            place_sessions=place_sessions,
        )

    def expected(self, row: int, x) -> float:
        """The plaintext MAC reference for the shared model."""
        return float(self.model[row] @ np.asarray(x, dtype=float))

    def open_store(self, telemetry=None):
        """A fresh supervisor-side load of the shared store — the
        ledger-audit hook (must parse clean after any chaos)."""
        from repro.recover import JsonlSessionStore

        return JsonlSessionStore(self.store_path, telemetry=telemetry)
