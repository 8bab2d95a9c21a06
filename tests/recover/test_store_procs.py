"""Cross-process store semantics with *real* subprocesses.

The in-thread lease race (``test_expired_lease_contention_has_exactly_
one_winner``) proves the in-memory fence; these tests prove the same
invariants when the contenders are separate OS processes whose only
shared state is the JSONL file — the fcntl lock and the replay/refresh
path are load-bearing here, not the GIL.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.recover import JsonlSessionStore, RoundMaterial, SessionCheckpoint

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_checkpoint(sid="s-1", rounds=2, next_round=0) -> SessionCheckpoint:
    materials = [
        RoundMaterial(
            round_index=r,
            tables=bytes(range(32)),
            garbler_labels=[r * 10 + 1],
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
        output_permute_bits=[0, 1],
        client_name="tester",
    )
    return cp


def _spawn(code: str, *argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


_RACER = """
import json, os, sys, time
from repro.errors import LeaseError
from repro.recover import JsonlSessionStore, SessionCheckpoint

path, owner, ready, go = sys.argv[1:5]
store = JsonlSessionStore(path, ttl_s=600.0)
open(ready, "w").close()
deadline = time.monotonic() + 30.0
while not os.path.exists(go):
    if time.monotonic() > deadline:
        sys.exit(3)
    time.sleep(0.001)
# expiry re-anchors at *our* load time: wait out our view of the dead
# owner's lease — never the rival's fresh one, which a racer arriving
# second would otherwise outwait and then legitimately steal
lease0 = store.get_lease("s-race")
if lease0 is not None and lease0.owner == "gw-dead":
    delay = lease0.expires_at - time.monotonic()
    if delay > 0:
        time.sleep(delay + 0.01)
lease = store.acquire_lease("s-race", owner, ttl_s=30.0)
won = lease is not None
put_ok = False
cp = SessionCheckpoint.from_dict(store.get("s-race").to_dict())
cp.rewind_to(2)
try:
    store.put(cp, owner=owner)
    put_ok = True
except LeaseError:
    put_ok = False
print(json.dumps({
    "owner": owner,
    "won": won,
    "epoch": lease.epoch if lease else None,
    "put_ok": put_ok,
}))
"""


def test_two_subprocesses_race_one_lease_exactly_one_winner(tmp_path):
    path = str(tmp_path / "sessions.jsonl")
    seed = JsonlSessionStore(path, ttl_s=600.0)
    seed.put(make_checkpoint("s-race", rounds=3, next_round=1))
    seed.acquire_lease("s-race", "gw-dead", ttl_s=0.05)
    time.sleep(0.1)  # the original owner is provably dark now

    ready = [str(tmp_path / f"ready-{i}") for i in range(2)]
    go = str(tmp_path / "go")
    procs = [
        _spawn(_RACER, path, f"proc-{i}", ready[i], go) for i in range(2)
    ]
    deadline = time.monotonic() + 30.0
    while not all(os.path.exists(r) for r in ready):
        assert time.monotonic() < deadline, "racers never became ready"
        time.sleep(0.001)
    open(go, "w").close()

    results = []
    for p in procs:
        out, err = p.communicate(timeout=60)
        assert p.returncode == 0, err
        results.append(json.loads(out))

    winners = [r for r in results if r["won"]]
    assert len(winners) == 1, results
    # the winner stole the expired lease (epoch fence moved exactly once)
    # and stored its adoption through the fenced put; the loser's put
    # bounced off the fence
    assert winners[0]["epoch"] == 2
    assert [r["put_ok"] for r in results] == [r["won"] for r in results]
    # the parent's store instance observes the subprocess outcome
    lease = seed.get_lease("s-race")
    assert lease.owner == winners[0]["owner"] and lease.epoch == 2
    assert seed.get("s-race").next_round == 2


_APPENDER = """
import sys
from repro.recover import JsonlSessionStore
from repro.recover.checkpoint import RoundMaterial, SessionCheckpoint

path, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = JsonlSessionStore(path, ttl_s=600.0)
for i in range(count):
    cp = SessionCheckpoint(
        session_id=f"s-{tag}-{i % 5}",
        row_index=0,
        rounds=1,
        next_round=0,
        materials=[RoundMaterial(round_index=0, tables=b"x" * 16,
                                 garbler_labels=[1], const_labels=[2],
                                 evaluator_pairs=[(3, 4)],
                                 state_labels=[5])],
        output_permute_bits=[0],
        client_name="appender",
    )
    store.put(cp)
print("done")
"""

_COMPACTOR = """
import sys, time
from repro.recover import JsonlSessionStore

path, rounds = sys.argv[1], int(sys.argv[2])
store = JsonlSessionStore(path, ttl_s=600.0)
for _ in range(rounds):
    store.compact()
    time.sleep(0.002)
print("done")
"""


def test_compaction_cannot_corrupt_a_concurrent_appender(tmp_path):
    """compact()'s os.replace races two appenders; the flock serialises
    them, so a fresh reader afterwards sees a clean, torn-free log."""
    path = str(tmp_path / "sessions.jsonl")
    JsonlSessionStore(path, ttl_s=600.0).put(make_checkpoint("s-seed"))
    procs = [
        _spawn(_APPENDER, path, "a", "60"),
        _spawn(_APPENDER, path, "b", "60"),
        _spawn(_COMPACTOR, path, "12"),
    ]
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err
        assert out.strip() == "done"
    fresh = JsonlSessionStore(path, ttl_s=600.0)  # must not raise
    assert fresh.torn_tail_recovered == 0
    # last-record-wins replay kept every session's latest checkpoint
    assert {"s-a-0", "s-b-0", "s-seed"} <= set(fresh.session_ids())
