"""Session checkpoint stores: in-memory and JSONL-on-disk, TTL-evicted.

A store maps ``session_id -> SessionCheckpoint`` and is the gateway's
memory of in-flight sessions across disconnects (and, for the JSONL
backend, across process restarts — the drain path persists every
in-flight session so a restarted gateway can serve its resumes).

Eviction is lazy: every mutating call first sweeps entries older than
``ttl_s``.  Checkpoints are small (a few KiB of remaining-round label
material for the test-sized circuits) but they hold key material, so
bounded lifetime is a hygiene requirement, not just a memory one.

For fleet operation (N gateways sharing one store) the store also keeps
per-session :class:`LeaseRecord` ownership: a gateway must hold the
session's lease to stream it, an expired lease can be stolen (epoch
increments — a fencing token), and every round-boundary advance goes
through :meth:`SessionStore.cas_advance`, which compares against the
store's own *committed round* for the session — not the checkpoint
object, which the gateways mutate — so two gateways can never both
commit the same round.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass

try:  # advisory file locking — POSIX only; the store degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.errors import ConfigurationError, LeaseError, ResumeError
from repro.recover.checkpoint import SessionCheckpoint

#: Default checkpoint lifetime.  A client that has not resumed within
#: this window has abandoned the session; its labels are discarded.
DEFAULT_TTL_S = 300.0

#: Default lease lifetime.  Long enough to stream several rounds, short
#: enough that a crashed gateway's sessions become stealable quickly.
DEFAULT_LEASE_TTL_S = 30.0


@dataclass
class LeaseRecord:
    """Who owns a session right now, fenced by a monotonic epoch.

    The epoch increments on every steal, never resets (it survives
    expiry — expired leases are kept, not swept, exactly so the next
    steal continues the fence), so a gateway that went dark holding
    epoch ``e`` can never race a successor holding ``e+1``: the store
    checks ownership on every CAS advance.
    """

    session_id: str
    owner: str
    epoch: int
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "owner": self.owner,
            "epoch": self.epoch,
            "expires_at": self.expires_at,
        }


class SessionStore:
    """The store contract + the TTL/locking machinery both backends share.

    Subclasses implement ``_load()/_persist(op, checkpoint_or_id)``;
    the in-memory dict is the source of truth at runtime either way.
    """

    def __init__(self, ttl_s: float = DEFAULT_TTL_S, telemetry=None, clock=time.monotonic):
        if ttl_s <= 0:
            raise ConfigurationError("checkpoint TTL must be positive")
        self.ttl_s = ttl_s
        self.telemetry = telemetry
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[float, SessionCheckpoint]] = {}
        #: session ownership records; expired leases are retained (only
        #: replaced by a steal or removed with the session) so the epoch
        #: fence never restarts from 1 mid-session.
        self._leases: dict[str, LeaseRecord] = {}
        #: last *committed* next_round per session — the CAS comparand.
        #: Deliberately not read off the stored checkpoint: the
        #: in-memory backend holds the same object the gateway mutates,
        #: and a CAS against a self-mutated field always "succeeds".
        self._committed: dict[str, int] = {}
        #: store-wide metadata (JSON-serialisable values), not tied to
        #: any session and never TTL-swept — e.g. the draining gateway's
        #: SLO-controller operating point for its successor to inherit.
        self._meta: dict[str, object] = {}

    # -- backend hooks --------------------------------------------------
    def _persist(self, op: str, value) -> None:
        """Record a mutation durably (no-op for the in-memory backend)."""

    # -- API ------------------------------------------------------------
    def put(self, checkpoint: SessionCheckpoint) -> None:
        with self._lock:
            self._sweep_locked()
            self._entries[checkpoint.session_id] = (self._clock(), checkpoint)
            self._committed[checkpoint.session_id] = checkpoint.next_round
            self._persist("put", checkpoint)
        if self.telemetry is not None:
            self.telemetry.counter("recover.store.puts").inc()

    def committed_round(self, session_id: str) -> int | None:
        """The last round boundary committed through put/cas_advance."""
        with self._lock:
            return self._committed.get(session_id)

    # -- store-wide metadata ----------------------------------------------
    def put_meta(self, key: str, value) -> None:
        """Durably record one store-wide key (JSON-serialisable value).

        Unlike checkpoints, metadata is never TTL-swept and a ``None``
        value deletes the key.  The drain path uses this to hand the
        SLO controller's operating point to the successor gateway.
        """
        if not key:
            raise ConfigurationError("meta key cannot be blank")
        with self._lock:
            if value is None:
                self._meta.pop(key, None)
            else:
                self._meta[key] = value
            self._persist("meta", (key, value))
        if self.telemetry is not None:
            self.telemetry.counter("recover.store.meta_puts").inc()

    def get_meta(self, key: str, default=None):
        with self._lock:
            return self._meta.get(key, default)

    # -- leases ----------------------------------------------------------
    def acquire_lease(
        self, session_id: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> LeaseRecord | None:
        """Take (or renew, or steal-on-expiry) the session's lease.

        Returns the live lease on success, ``None`` when another owner
        holds an unexpired lease.  A steal increments the epoch.
        """
        if ttl_s <= 0:
            raise ConfigurationError("lease TTL must be positive")
        with self._lock:
            now = self._clock()
            lease = self._leases.get(session_id)
            stolen = False
            if lease is None:
                lease = LeaseRecord(session_id, owner, 1, now + ttl_s)
            elif lease.owner == owner:
                lease = LeaseRecord(session_id, owner, lease.epoch, now + ttl_s)
            elif lease.expired(now):
                lease = LeaseRecord(session_id, owner, lease.epoch + 1, now + ttl_s)
                stolen = True
            else:
                if self.telemetry is not None:
                    self.telemetry.counter("recover.lease.denied").inc()
                return None
            self._leases[session_id] = lease
            self._persist("lease", lease)
        if self.telemetry is not None:
            self.telemetry.counter("recover.lease.acquires").inc()
            if stolen:
                self.telemetry.counter("recover.lease.steals").inc()
        return lease

    def release_lease(self, session_id: str, owner: str) -> bool:
        """Drop the lease if ``owner`` still holds it (stale releases no-op)."""
        with self._lock:
            lease = self._leases.get(session_id)
            if lease is None or lease.owner != owner:
                return False
            del self._leases[session_id]
            self._persist("lease_release", session_id)
            return True

    def get_lease(self, session_id: str) -> LeaseRecord | None:
        with self._lock:
            return self._leases.get(session_id)

    def lease_holder(self, session_id: str) -> str | None:
        """The owner of a *live* lease, or ``None`` (absent or expired).

        A live lease with no checkpoint means the session is real but
        mid-admission: its owner took the lease before acking the query
        and the first checkpoint put is still in flight.  Resume paths
        use this to shed (come back soon) instead of rejecting
        (permanently unknown)."""
        with self._lock:
            lease = self._leases.get(session_id)
            if lease is None or lease.expired(self._clock()):
                return None
            return lease.owner

    def cas_advance(
        self,
        checkpoint: SessionCheckpoint,
        owner: str,
        expected_next_round: int,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        """Commit a round boundary iff ``owner`` holds the lease *and* the
        store's committed round still equals ``expected_next_round``.

        Raises :class:`LeaseError` otherwise — the caller's serve is a
        no-op from the fleet's point of view (some other gateway owns
        the session now) and must stop streaming.  Success renews the
        lease and persists the checkpoint.
        """
        sid = checkpoint.session_id
        with self._lock:
            now = self._clock()
            lease = self._leases.get(sid)
            if lease is None or lease.owner != owner:
                holder = lease.owner if lease is not None else "nobody"
                raise LeaseError(
                    f"session {sid}: {owner!r} cannot advance — lease held "
                    f"by {holder!r}"
                )
            committed = self._committed.get(sid)
            if committed != expected_next_round:
                raise LeaseError(
                    f"session {sid}: CAS advance lost — committed round is "
                    f"{committed}, caller expected {expected_next_round}"
                )
            self._entries[sid] = (now, checkpoint)
            self._committed[sid] = checkpoint.next_round
            lease = LeaseRecord(sid, owner, lease.epoch, now + lease_ttl_s)
            self._leases[sid] = lease
            self._persist("put", checkpoint)
            self._persist("lease", lease)
        if self.telemetry is not None:
            self.telemetry.counter("recover.store.cas_advances").inc()

    def get(self, session_id: str) -> SessionCheckpoint | None:
        with self._lock:
            self._sweep_locked()
            entry = self._entries.get(session_id)
            return entry[1] if entry is not None else None

    def delete(self, session_id: str) -> bool:
        with self._lock:
            self._sweep_locked()
            existed = self._entries.pop(session_id, None) is not None
            if existed:
                self._leases.pop(session_id, None)
                self._committed.pop(session_id, None)
                self._persist("delete", session_id)
            return existed

    def sweep(self) -> int:
        """Evict expired checkpoints; returns how many were dropped."""
        with self._lock:
            return self._sweep_locked()

    def _sweep_locked(self) -> int:
        horizon = self._clock() - self.ttl_s
        expired = [sid for sid, (at, _) in self._entries.items() if at < horizon]
        for sid in expired:
            del self._entries[sid]
            self._leases.pop(sid, None)
            self._committed.pop(sid, None)
            self._persist("delete", sid)
        if expired and self.telemetry is not None:
            self.telemetry.counter("recover.store.evicted").inc(len(expired))
        return len(expired)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def session_ids(self) -> list[str]:
        with self._lock:
            return list(self._entries)


class InMemorySessionStore(SessionStore):
    """The default store: a dict behind a lock, gone with the process."""


#: v2 record marker.  A v2 line is ``!v2 <payload_len> <crc32_hex> <payload>``
#: — length framing makes a torn tail detectable even when the cut lands
#: inside the JSON, and the CRC catches bit rot / interleaved writes.
_V2_MAGIC = b"!v2 "


def encode_record_v2(rec: dict) -> bytes:
    """Frame one store record in the v2 on-disk format (one line)."""
    payload = json.dumps(rec, sort_keys=True).encode("utf-8")
    header = b"!v2 %d %08x " % (len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload + b"\n"


def decode_record_line(line: bytes) -> dict:
    """Decode one v2-framed log line.

    Raises ``ValueError`` when the line is not v2-framed, is truncated,
    fails its CRC, or is not a JSON object — callers decide whether
    that means a torn tail (recoverable) or mid-file corruption (fatal).
    """
    if not line.startswith(_V2_MAGIC):
        raise ValueError("store record is not v2-framed")
    parts = line.split(b" ", 3)
    if len(parts) != 4:
        raise ValueError("v2 record missing framing fields")
    try:
        length = int(parts[1])
        crc = int(parts[2], 16)
    except ValueError as exc:
        raise ValueError(f"v2 record has a malformed header: {exc}") from exc
    payload = parts[3]
    if len(payload) != length:
        raise ValueError(
            f"v2 record truncated: framed length {length}, "
            f"got {len(payload)} bytes"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise ValueError("v2 record failed its CRC32 check")
    rec = json.loads(payload)
    if not isinstance(rec, dict):
        raise ValueError("store record is not a JSON object")
    return rec


class JsonlSessionStore(SessionStore):
    """A crash-surviving, multi-process store: mutations appended to a log.

    The log is replayed on construction (last record per session wins; a
    ``delete`` record tombstones).  :meth:`compact` rewrites the log to
    just the live entries — the drain path calls it so a restarted
    gateway loads a minimal file.

    Crash consistency and cross-process sharing (format v2):

    * every record is CRC32 + length framed (:func:`encode_record_v2`);
    * a torn final record (a writer SIGKILLed mid-append) is detected,
      counted (``store.torn_tail_recovered``) and truncated away — it
      must never poison future readers.  A corrupt record *followed by
      valid ones* is real corruption and still raises
      :class:`ConfigurationError`;
    * every public operation takes an ``fcntl.flock`` on a sidecar
      ``<path>.lock`` file, replays whatever peer processes appended
      since the last look (full reload when the file shrank — a peer
      compacted), then appends its own fsync'd record while still
      holding the lock.  ``flock`` is per open-file-description, so an
      in-process mutex serialises threads around the file lock.

    Restored entries have their age reset to load time: a monotonic
    timestamp from a previous process is meaningless here, and the TTL
    still bounds how long a restart-then-resume window stays open.
    Lease expiry is persisted *relative* (``expires_in``) for the same
    reason; re-anchoring it at replay time slightly overestimates a
    peer's remaining validity, which errs on the safe side (a live
    lease is never stolen early).
    """

    def __init__(self, path, ttl_s: float = DEFAULT_TTL_S, telemetry=None,
                 clock=time.monotonic, lock_path=None):
        super().__init__(ttl_s=ttl_s, telemetry=telemetry, clock=clock)
        self.path = os.fspath(path)
        self.lock_path = os.fspath(lock_path) if lock_path else self.path + ".lock"
        #: how many torn tails this instance has truncated away
        self.torn_tail_recovered = 0
        self._log_pos = 0
        self._flock_depth = 0
        self._flock_mutex = threading.RLock()
        self._lock_fh = open(self.lock_path, "ab")
        with self._shared_log():
            self._replay_from(0)

    def close(self) -> None:
        """Release the sidecar lock file handle."""
        with self._flock_mutex:
            if not self._lock_fh.closed:
                self._lock_fh.close()

    # -- cross-process coordination --------------------------------------
    @contextlib.contextmanager
    def _shared_log(self):
        """Hold the advisory file lock (reentrant within a thread)."""
        with self._flock_mutex:
            self._flock_depth += 1
            try:
                if self._flock_depth == 1 and fcntl is not None:
                    fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_EX)
                yield
            finally:
                self._flock_depth -= 1
                if self._flock_depth == 0 and fcntl is not None:
                    fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)

    def _refresh_locked(self) -> None:
        """Fold in records peers appended since our last look.

        Caller holds the file lock.  A file smaller than our replay
        offset means a peer compacted under us: drop everything and
        replay from scratch (the compacted file is complete on its own).
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        if size < self._log_pos:
            with self._lock:
                self._entries.clear()
                self._leases.clear()
                self._committed.clear()
                self._meta.clear()
            self._log_pos = 0
        if size > self._log_pos:
            self._replay_from(self._log_pos)

    def _replay_from(self, offset: int) -> None:
        """Apply every record at ``offset`` and beyond; handle torn tails."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            self._log_pos = 0
            return
        with fh:
            fh.seek(offset)
            data = fh.read()
        torn_at = None
        pos = 0
        end = len(data)
        now = self._clock()
        while pos < end:
            nl = data.find(b"\n", pos)
            if nl == -1:
                # no terminating newline: the writer died mid-append
                torn_at = offset + pos
                break
            line = data[pos:nl].strip()
            if line:
                try:
                    rec = decode_record_line(line)
                except ValueError as exc:
                    if nl + 1 >= end:
                        # invalid *final* record: torn tail, recoverable
                        torn_at = offset + pos
                        break
                    raise ConfigurationError(
                        f"corrupt checkpoint log {self.path!r} at byte "
                        f"{offset + pos}: {exc}"
                    ) from exc
                try:
                    self._apply_record(rec, now)
                except (KeyError, TypeError, ValueError, ResumeError) as exc:
                    # intact framing, incomplete record: not a torn tail
                    raise ConfigurationError(
                        f"malformed record in checkpoint log {self.path!r} "
                        f"at byte {offset + pos}: {exc!r}"
                    ) from exc
            pos = nl + 1
        if torn_at is not None:
            self._truncate_torn_tail(torn_at)
        else:
            self._log_pos = offset + end

    def _truncate_torn_tail(self, torn_at: int) -> None:
        """Cut the log back to the last complete record (lock held)."""
        with open(self.path, "r+b") as fh:
            fh.truncate(torn_at)
            fh.flush()
            os.fsync(fh.fileno())
        self._log_pos = torn_at
        self.torn_tail_recovered += 1
        if self.telemetry is not None:
            self.telemetry.counter("store.torn_tail_recovered").inc()

    def _apply_record(self, rec: dict, now: float) -> None:
        """Fold one decoded record into the in-memory state."""
        op = rec.get("op")
        with self._lock:
            if op == "put":
                cp = SessionCheckpoint.from_dict(rec["checkpoint"])
                self._entries[cp.session_id] = (now, cp)
                self._committed[cp.session_id] = cp.next_round
            elif op == "delete":
                sid = rec.get("session_id")
                self._entries.pop(sid, None)
                self._leases.pop(sid, None)
                self._committed.pop(sid, None)
            elif op == "lease":
                sid = rec["session_id"]
                self._leases[sid] = LeaseRecord(
                    session_id=sid,
                    owner=rec["owner"],
                    epoch=int(rec["epoch"]),
                    expires_at=now + float(rec.get("expires_in", 0.0)),
                )
            elif op == "lease_release":
                self._leases.pop(rec.get("session_id"), None)
            elif op == "meta":
                key = rec.get("key")
                if key:
                    if rec.get("value") is None:
                        self._meta.pop(key, None)
                    else:
                        self._meta[key] = rec["value"]
            # unknown ops are skipped: a newer writer's record types must
            # not brick an older reader during a rolling upgrade

    # -- persistence ------------------------------------------------------
    def _persist(self, op: str, value) -> None:
        if op == "put":
            rec = {"op": "put", "checkpoint": value.to_dict()}
        elif op == "lease":
            rec = {
                "op": "lease",
                "session_id": value.session_id,
                "owner": value.owner,
                "epoch": value.epoch,
                "expires_in": max(0.0, value.expires_at - self._clock()),
            }
        elif op == "lease_release":
            rec = {"op": "lease_release", "session_id": value}
        elif op == "meta":
            key, meta_value = value
            rec = {"op": "meta", "key": key, "value": meta_value}
        else:
            rec = {"op": "delete", "session_id": value}
        with open(self.path, "ab") as fh:
            fh.write(encode_record_v2(rec))
            fh.flush()
            os.fsync(fh.fileno())
            # our own append must not be replayed back at us later
            self._log_pos = fh.tell()

    # -- public API: refresh-then-act under the file lock -----------------
    def put(self, checkpoint: SessionCheckpoint) -> None:
        with self._shared_log():
            self._refresh_locked()
            super().put(checkpoint)

    def put_meta(self, key: str, value) -> None:
        with self._shared_log():
            self._refresh_locked()
            super().put_meta(key, value)

    def get_meta(self, key: str, default=None):
        with self._shared_log():
            self._refresh_locked()
            return super().get_meta(key, default)

    def committed_round(self, session_id: str) -> int | None:
        with self._shared_log():
            self._refresh_locked()
            return super().committed_round(session_id)

    def acquire_lease(
        self, session_id: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> LeaseRecord | None:
        with self._shared_log():
            self._refresh_locked()
            return super().acquire_lease(session_id, owner, ttl_s=ttl_s)

    def release_lease(self, session_id: str, owner: str) -> bool:
        with self._shared_log():
            self._refresh_locked()
            return super().release_lease(session_id, owner)

    def get_lease(self, session_id: str) -> LeaseRecord | None:
        with self._shared_log():
            self._refresh_locked()
            return super().get_lease(session_id)

    def lease_holder(self, session_id: str) -> str | None:
        with self._shared_log():
            self._refresh_locked()
            return super().lease_holder(session_id)

    def cas_advance(
        self,
        checkpoint: SessionCheckpoint,
        owner: str,
        expected_next_round: int,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        with self._shared_log():
            self._refresh_locked()
            super().cas_advance(
                checkpoint, owner, expected_next_round, lease_ttl_s=lease_ttl_s
            )

    def get(self, session_id: str) -> SessionCheckpoint | None:
        with self._shared_log():
            self._refresh_locked()
            return super().get(session_id)

    def delete(self, session_id: str) -> bool:
        with self._shared_log():
            self._refresh_locked()
            return super().delete(session_id)

    def sweep(self) -> int:
        with self._shared_log():
            self._refresh_locked()
            return super().sweep()

    def __len__(self) -> int:
        with self._shared_log():
            self._refresh_locked()
            return super().__len__()

    def session_ids(self) -> list[str]:
        with self._shared_log():
            self._refresh_locked()
            return super().session_ids()

    def compact(self) -> None:
        """Rewrite the log with only the live entries *and their leases*.

        Leases survive compaction even when expired: dropping one would
        reset the epoch fence to 1 on the next steal, letting a stale
        pre-compaction owner collide with a post-compaction one.

        Runs under the file lock, so the ``os.replace`` can no longer
        race a concurrent appender: appenders queue behind the lock and
        re-open the (new) file for their append afterwards.
        """
        with self._shared_log():
            self._refresh_locked()
            with self._lock:
                self._sweep_locked()
                now = self._clock()
                tmp = f"{self.path}.tmp"
                with open(tmp, "wb") as fh:
                    for _, cp in self._entries.values():
                        fh.write(encode_record_v2(
                            {"op": "put", "checkpoint": cp.to_dict()}
                        ))
                    for lease in self._leases.values():
                        fh.write(encode_record_v2({
                            "op": "lease",
                            "session_id": lease.session_id,
                            "owner": lease.owner,
                            "epoch": lease.epoch,
                            "expires_in": max(0.0, lease.expires_at - now),
                        }))
                    for key, meta_value in self._meta.items():
                        fh.write(encode_record_v2(
                            {"op": "meta", "key": key, "value": meta_value}
                        ))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
                self._log_pos = os.path.getsize(self.path)
                dir_fd = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
