"""Session stores: TTL eviction, JSONL persistence, corruption handling,
and the fleet lease fence."""

import json
import threading

import pytest

from repro.errors import ConfigurationError, LeaseError
from repro.recover import (
    InMemorySessionStore,
    JsonlSessionStore,
    RoundMaterial,
    SessionCheckpoint,
    decode_record_line,
    encode_record_v2,
)
from repro.telemetry import MetricsRegistry


def make_checkpoint(sid="s-1", rounds=2, next_round=0) -> SessionCheckpoint:
    materials = [
        RoundMaterial(
            round_index=r,
            tables=bytes(range(32)) * (r + 1),
            garbler_labels=[r * 10 + 1, r * 10 + 2],
            const_labels=[7],
            evaluator_pairs=[(100 + r, 200 + r)],
            state_labels=[1, 2, 3] if r == 0 else None,
        )
        for r in range(rounds)
    ]
    cp = SessionCheckpoint(
        session_id=sid,
        row_index=1,
        rounds=rounds,
        next_round=next_round,
        materials=materials,
        output_permute_bits=[0, 1, 1, 0],
        client_name="tester",
    )
    cp.begin_stream(3, ot_open_frames=2)
    return cp


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


class TestInMemoryStore:
    def test_put_get_delete_roundtrip(self):
        store = InMemorySessionStore(ttl_s=60.0)
        cp = make_checkpoint("s-a")
        store.put(cp)
        assert store.get("s-a") is cp
        assert len(store) == 1
        assert store.delete("s-a") is True
        assert store.get("s-a") is None
        assert store.delete("s-a") is False

    def test_ttl_evicts_stale_checkpoints(self):
        clock = FakeClock()
        tm = MetricsRegistry()
        store = InMemorySessionStore(ttl_s=10.0, telemetry=tm, clock=clock)
        store.put(make_checkpoint("s-old"))
        clock.now += 11.0
        store.put(make_checkpoint("s-new"))
        assert store.get("s-old") is None
        assert store.get("s-new") is not None
        assert tm.counter("recover.store.evicted").value == 1
        assert tm.counter("recover.store.puts").value == 2

    def test_fresh_entries_survive_a_sweep(self):
        clock = FakeClock()
        store = InMemorySessionStore(ttl_s=10.0, clock=clock)
        store.put(make_checkpoint("s-a"))
        clock.now += 5.0
        assert store.sweep() == 0
        assert store.get("s-a") is not None
        clock.now += 6.0
        assert store.sweep() == 1
        assert len(store) == 0

    def test_put_refreshes_the_ttl_clock(self):
        clock = FakeClock()
        store = InMemorySessionStore(ttl_s=10.0, clock=clock)
        store.put(make_checkpoint("s-a"))
        clock.now += 8.0
        store.put(make_checkpoint("s-a", next_round=1))
        clock.now += 8.0  # 16s after first put, 8s after refresh
        assert store.get("s-a") is not None

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ConfigurationError, match="TTL"):
            InMemorySessionStore(ttl_s=0.0)


class TestJsonlStore:
    def test_checkpoints_survive_a_process_restart(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        cp = make_checkpoint("s-persist", rounds=2, next_round=1)
        store.put(cp)
        # a brand-new store instance (the restarted gateway) reloads it
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        got = reloaded.get("s-persist")
        assert got is not None
        assert got.to_dict() == cp.to_dict()

    def test_delete_tombstones_survive_reload(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.put(make_checkpoint("s-a"))
        store.put(make_checkpoint("s-b"))
        store.delete("s-a")
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        assert reloaded.get("s-a") is None
        assert reloaded.get("s-b") is not None

    def test_last_put_wins_on_reload(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.put(make_checkpoint("s-a", rounds=2, next_round=0))
        store.put(make_checkpoint("s-a", rounds=2, next_round=1))
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        assert reloaded.get("s-a").next_round == 1

    def test_corrupt_mid_file_record_fails_typed(self, tmp_path):
        # a corrupt record *followed by a valid one* is real corruption,
        # not a torn tail — the store must refuse the file loudly
        path = tmp_path / "sessions.jsonl"
        JsonlSessionStore(path, ttl_s=60.0).put(make_checkpoint("s-a"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with open(path, "ab") as fh:
            fh.write(encode_record_v2({"op": "delete", "session_id": "s-x"}))
        with pytest.raises(ConfigurationError, match="corrupt checkpoint log"):
            JsonlSessionStore(path, ttl_s=60.0)

    def test_torn_final_record_is_truncated_not_fatal(self, tmp_path):
        # a SIGKILL mid-append leaves a partial final line; successors
        # must drop it, count it, and keep the complete prefix
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.put(make_checkpoint("s-a"))
        store.put(make_checkpoint("s-b"))
        intact_size = path.stat().st_size
        torn = encode_record_v2({"op": "put", "checkpoint":
                                 make_checkpoint("s-c").to_dict()})
        with open(path, "ab") as fh:
            fh.write(torn[: len(torn) // 2])  # no trailing newline
        telemetry = MetricsRegistry()
        reloaded = JsonlSessionStore(path, ttl_s=60.0, telemetry=telemetry)
        assert reloaded.get("s-a") is not None
        assert reloaded.get("s-b") is not None
        assert reloaded.get("s-c") is None
        assert reloaded.torn_tail_recovered == 1
        assert telemetry.counter("store.torn_tail_recovered").value == 1
        # the torn bytes are physically gone: the next reader is clean
        assert path.stat().st_size == intact_size
        assert JsonlSessionStore(path, ttl_s=60.0).torn_tail_recovered == 0

    def test_torn_newline_terminated_record_is_truncated(self, tmp_path):
        # even a newline-terminated final line that fails its CRC/length
        # framing is treated as torn (v2 framing makes this detectable)
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.put(make_checkpoint("s-a"))
        line = encode_record_v2({"op": "delete", "session_id": "s-a"})
        with open(path, "ab") as fh:
            fh.write(line[:40] + b"\n")
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        assert reloaded.torn_tail_recovered == 1
        assert reloaded.get("s-a") is not None  # the torn delete never happened

    def test_bare_json_line_is_torn_at_the_tail_and_corrupt_mid_file(self, tmp_path):
        # one record format: a bare-JSON line is not a record.  As the
        # final line it is a torn tail (truncated); followed by valid
        # records it is corruption (typed, fatal).
        path = tmp_path / "sessions.jsonl"
        bare = json.dumps({"op": "put", "checkpoint":
                           make_checkpoint("s-bare").to_dict()}) + "\n"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.put(make_checkpoint("s-1"))
        intact_size = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bare)
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        assert reloaded.torn_tail_recovered == 1
        assert reloaded.get("s-bare") is None
        assert reloaded.get("s-1") is not None
        assert path.stat().st_size == intact_size
        with open(path, "ab") as fh:
            fh.write(bare.encode("utf-8"))
            fh.write(encode_record_v2({"op": "delete", "session_id": "s-1"}))
        with pytest.raises(ConfigurationError, match="corrupt checkpoint log"):
            JsonlSessionStore(path, ttl_s=60.0)

    def test_record_missing_a_field_is_a_typed_error(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        record = make_checkpoint("s-old").to_dict()
        del record["tenant"]
        with open(path, "wb") as fh:
            fh.write(encode_record_v2({"op": "put", "checkpoint": record}))
        with pytest.raises(ConfigurationError, match="malformed record"):
            JsonlSessionStore(path, ttl_s=60.0)

    def test_record_codec_roundtrip_and_crc(self):
        rec = {"op": "delete", "session_id": "s-π"}
        line = encode_record_v2(rec)
        assert line.startswith(b"!v2 ") and line.endswith(b"\n")
        assert decode_record_line(line.rstrip(b"\n")) == rec
        flipped = bytearray(line.rstrip(b"\n"))
        flipped[-1] ^= 0x01
        with pytest.raises(ValueError):
            decode_record_line(bytes(flipped))

    def test_peer_appends_are_visible_across_instances(self, tmp_path):
        # two stores on one file (stand-in for two processes): writes by
        # one are folded in by the other on its next operation
        path = tmp_path / "sessions.jsonl"
        a = JsonlSessionStore(path, ttl_s=60.0)
        b = JsonlSessionStore(path, ttl_s=60.0)
        a.put(make_checkpoint("s-shared", next_round=1))
        assert b.get("s-shared").next_round == 1
        assert b.acquire_lease("s-shared", "gw-b") is not None
        assert a.lease_holder("s-shared") == "gw-b"
        # a compaction by one peer does not lose the other's view
        b.compact()
        a.delete("s-shared")
        assert b.get("s-shared") is None

    def test_reader_notices_a_compaction_that_left_a_longer_file(self, tmp_path):
        """A reader whose replay offset is below the compacted file's
        size must still reload: it tracks the log's inode, not only its
        length."""
        path = tmp_path / "sessions.jsonl"
        reader = JsonlSessionStore(path, ttl_s=60.0)
        writer = JsonlSessionStore(path, ttl_s=60.0)
        writer.put(make_checkpoint("s-small", rounds=1))
        assert reader.get("s-small") is not None
        writer.put(make_checkpoint("s-big", rounds=6))
        writer.delete("s-small")
        writer.compact()
        assert path.stat().st_size > 0
        assert reader.get("s-big").to_dict() == writer.get("s-big").to_dict()
        assert reader.get("s-small") is None
        assert reader.torn_tail_recovered == 0

    def test_compact_rewrites_to_live_entries_only(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        for i in range(4):
            store.put(make_checkpoint(f"s-{i}"))
        for i in range(3):
            store.delete(f"s-{i}")
        assert sum(1 for _ in open(path, "rb")) == 7  # 4 puts + 3 tombstones
        store.compact()
        lines = [decode_record_line(l.rstrip(b"\n")) for l in open(path, "rb")]
        assert len(lines) == 1
        assert lines[0]["checkpoint"]["session_id"] == "s-3"
        # and the compacted file still reloads
        assert JsonlSessionStore(path, ttl_s=60.0).get("s-3") is not None

    def test_missing_file_means_empty_store(self, tmp_path):
        store = JsonlSessionStore(tmp_path / "absent.jsonl", ttl_s=60.0)
        assert len(store) == 0


class TestLeases:
    def test_acquire_renew_release(self):
        store = InMemorySessionStore(ttl_s=60.0)
        store.put(make_checkpoint("s-l"))
        lease = store.acquire_lease("s-l", "gw-a", ttl_s=30.0)
        assert lease is not None and lease.epoch == 1
        # renewal keeps the epoch
        again = store.acquire_lease("s-l", "gw-a", ttl_s=30.0)
        assert again.epoch == 1
        assert store.release_lease("s-l", "gw-a") is True
        assert store.get_lease("s-l") is None
        # a stale owner cannot release what it no longer holds
        assert store.release_lease("s-l", "gw-a") is False

    def test_live_lease_denies_other_owners(self):
        tm = MetricsRegistry()
        store = InMemorySessionStore(ttl_s=60.0, telemetry=tm)
        store.acquire_lease("s-l", "gw-a", ttl_s=30.0)
        assert store.acquire_lease("s-l", "gw-b", ttl_s=30.0) is None
        assert tm.counter("recover.lease.denied").value == 1

    def test_expired_lease_is_stolen_with_epoch_bump(self):
        clock = FakeClock()
        tm = MetricsRegistry()
        store = InMemorySessionStore(ttl_s=600.0, telemetry=tm, clock=clock)
        store.acquire_lease("s-l", "gw-a", ttl_s=5.0)
        clock.now += 6.0
        stolen = store.acquire_lease("s-l", "gw-b", ttl_s=5.0)
        assert stolen is not None
        assert stolen.owner == "gw-b" and stolen.epoch == 2
        assert tm.counter("recover.lease.steals").value == 1

    def test_expired_lease_contention_has_exactly_one_winner(self):
        """Satellite: two gateways race to adopt the same expired
        session — one wins, the loser is denied, the epoch moves once."""
        clock = FakeClock()
        store = InMemorySessionStore(ttl_s=600.0, clock=clock)
        store.put(make_checkpoint("s-race", rounds=2, next_round=1))
        store.acquire_lease("s-race", "gw-dead", ttl_s=1.0)
        clock.now += 2.0  # the owner is provably dark now
        results = {}
        barrier = threading.Barrier(2)

        def adopt(owner):
            barrier.wait()
            results[owner] = store.acquire_lease("s-race", owner, ttl_s=30.0)

        threads = [
            threading.Thread(target=adopt, args=(o,))
            for o in ("gw-x", "gw-y")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wins = [o for o, lease in results.items() if lease is not None]
        assert len(wins) == 1
        winner = wins[0]
        lease = store.get_lease("s-race")
        assert lease.owner == winner and lease.epoch == 2

    def test_fenced_put_requires_the_live_owner(self):
        clock = FakeClock()
        store = InMemorySessionStore(ttl_s=600.0, clock=clock)
        cp = make_checkpoint("s-fenced", rounds=2)
        # no lease: the caller's serve is a no-op
        with pytest.raises(LeaseError, match="lease held by 'nobody'"):
            store.put(cp, owner="gw-a")
        assert store.get("s-fenced") is None
        store.acquire_lease("s-fenced", "gw-a", ttl_s=1.0)
        store.put(cp, owner="gw-a")
        assert store.get("s-fenced") is cp
        with pytest.raises(LeaseError, match="lease held by 'gw-a'"):
            store.put(make_checkpoint("s-fenced"), owner="gw-b")
        # an expired lease nobody stole is still the owner's
        clock.now += 2.0
        store.put(cp, owner="gw-a")

    def test_loser_cannot_advance_after_a_steal(self):
        """The fencing property: the stale owner's put is rejected even
        though its checkpoint differs from the store's by nothing."""
        clock = FakeClock()
        store = InMemorySessionStore(ttl_s=600.0, clock=clock)
        cp = make_checkpoint("s-fence", rounds=2)
        store.put(cp)
        store.acquire_lease("s-fence", "gw-old", ttl_s=1.0)
        clock.now += 2.0
        store.acquire_lease("s-fence", "gw-new", ttl_s=30.0)
        stale = SessionCheckpoint.from_dict(cp.to_dict())
        stale.rewind_to(1)
        with pytest.raises(LeaseError, match="lease held by 'gw-new'"):
            store.put(stale, owner="gw-old")
        assert store.get("s-fence") is cp

    def test_delete_drops_lease(self):
        store = InMemorySessionStore(ttl_s=60.0)
        store.put(make_checkpoint("s-d"))
        store.acquire_lease("s-d", "gw-a", ttl_s=30.0)
        store.delete("s-d")
        assert store.get_lease("s-d") is None

    def test_nonpositive_lease_ttl_rejected(self):
        store = InMemorySessionStore(ttl_s=60.0)
        with pytest.raises(ConfigurationError, match="lease TTL"):
            store.acquire_lease("s-l", "gw-a", ttl_s=0.0)


class TestJsonlLeasePersistence:
    def test_lease_survives_restart_with_relative_expiry(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.put(make_checkpoint("s-l", rounds=2, next_round=1))
        store.acquire_lease("s-l", "gw-a", ttl_s=30.0)
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        lease = reloaded.get_lease("s-l")
        assert lease is not None
        assert lease.owner == "gw-a" and lease.epoch == 1
        # still live after the reload: another owner is denied
        assert reloaded.acquire_lease("s-l", "gw-b", ttl_s=30.0) is None
        assert reloaded.get("s-l").next_round == 1

    def test_lease_release_survives_restart(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.put(make_checkpoint("s-l"))
        store.acquire_lease("s-l", "gw-a", ttl_s=30.0)
        store.release_lease("s-l", "gw-a")
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        assert reloaded.get_lease("s-l") is None
        assert reloaded.acquire_lease("s-l", "gw-b", ttl_s=30.0) is not None

    def test_fenced_put_is_the_only_record_a_query_appends(self, tmp_path):
        """A query's durable progress is its one put: the fence checks
        the lease and appends nothing else, and a reload (or a peer)
        reads the whole frame map back."""
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.acquire_lease("s-one", "gw-a", ttl_s=30.0)
        cp = make_checkpoint("s-one", rounds=3)
        before = path.read_bytes().count(b"\n")
        store.put(cp, owner="gw-a")
        records = [decode_record_line(line) for line in path.read_bytes().splitlines()]
        assert len(records) == before + 1
        assert records[-1]["op"] == "put"
        reloaded = JsonlSessionStore(path, ttl_s=60.0).get("s-one")
        assert reloaded.to_dict() == cp.to_dict()
        assert reloaded.stream_boundaries == [[0, 0], [1, 11], [2, 15], [3, 19]]

    def test_log_with_per_round_advance_records_resumes_mid_query(self, tmp_path):
        """A log written when every round boundary appended an
        ``advance`` record (and renewed the lease) replays without
        error, and its session resumes where its client stands: the
        map comes from the last advance, rounds an adoption pruned
        stay pruned, and a peer adopts at the round the client's
        count proves."""
        path = tmp_path / "sessions.jsonl"
        old = make_checkpoint("s-old", rounds=4).to_dict()
        old.update(send_seq=0, recv_seq=0, stream_boundaries=[[0, 0]])
        lease = {"op": "lease", "session_id": "s-old", "owner": "gw-dead",
                 "epoch": 1, "expires_in": 0.0}
        records = [{"op": "put", "checkpoint": old}, lease]
        full = [[0, 0], [1, 11], [2, 15], [3, 19]]
        for r in (1, 2, 3):
            records += [
                {"op": "advance", "session_id": "s-old", "next_round": r,
                 "send_seq": full[r][1], "recv_seq": 4,
                 "stream_boundaries": full[: r + 1], "first_round": 0},
                lease,
            ]
        with open(path, "wb") as fh:
            for rec in records:
                fh.write(encode_record_v2(rec))
        store = JsonlSessionStore(path, ttl_s=60.0)
        got = store.get("s-old")
        assert store.torn_tail_recovered == 0
        assert got.stream_boundaries == full
        assert [m.round_index for m in got.materials] == [0, 1, 2, 3]
        assert [got.acked_round(n) for n in (4, 11, 16, 19)] == [0, 1, 2, 3]
        # adoption: steal the expired lease, rewind to the client's
        # round, one fenced put
        assert store.acquire_lease("s-old", "gw-b", ttl_s=30.0).epoch == 2
        adopted = SessionCheckpoint.from_dict(got.to_dict())
        adopted.rewind_to(adopted.acked_round(16))
        assert adopted.next_round == 2
        assert adopted.stream_boundaries == [[2, 0], [3, 19]]
        store.put(adopted, owner="gw-b")
        assert JsonlSessionStore(path, ttl_s=60.0).get("s-old").to_dict() == (
            adopted.to_dict()
        )
        # an adoption logged in the old format pruned its rounds: replay
        # keeps them pruned
        with open(path, "ab") as fh:
            fh.write(encode_record_v2(
                {"op": "advance", "session_id": "s-old", "next_round": 3,
                 "send_seq": 9, "recv_seq": 2,
                 "stream_boundaries": [[3, 0], [4, 9]], "first_round": 3}
            ))
        got = JsonlSessionStore(path, ttl_s=60.0).get("s-old")
        assert [m.round_index for m in got.materials] == [3]
        assert got.next_round == 3
        assert got.acked_round(2) == 3

    def test_compact_mid_handoff_keeps_lease_and_unacked_tail(self, tmp_path):
        """Satellite: compaction while a handoff is in flight must not
        lose the lease record, the unacked-frame tail material or the
        frame map."""
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=60.0)
        store.acquire_lease("s-mid", "gw-a", ttl_s=30.0)
        cp = make_checkpoint("s-mid", rounds=2)
        store.put(cp, owner="gw-a")
        store.compact()  # a draining peer compacts the shared log now
        reloaded = JsonlSessionStore(path, ttl_s=60.0)
        got = reloaded.get("s-mid")
        assert got is not None
        assert [m.round_index for m in got.materials] == [0, 1]
        assert got.stream_boundaries == cp.stream_boundaries
        lease = reloaded.get_lease("s-mid")
        assert lease is not None
        assert lease.owner == "gw-a" and lease.epoch == 1

    def test_compact_keeps_expired_leases_for_the_epoch_fence(self, tmp_path):
        """Dropping an expired lease at compaction would restart the
        epoch fence at 1 — the next steal must continue it instead."""
        clock = FakeClock()
        path = tmp_path / "sessions.jsonl"
        store = JsonlSessionStore(path, ttl_s=600.0, clock=clock)
        store.put(make_checkpoint("s-fence"))
        store.acquire_lease("s-fence", "gw-a", ttl_s=1.0)
        clock.now += 2.0  # expired, not released
        store.compact()
        reloaded = JsonlSessionStore(path, ttl_s=600.0, clock=clock)
        stolen = reloaded.acquire_lease("s-fence", "gw-b", ttl_s=30.0)
        assert stolen is not None
        assert stolen.epoch == 2
