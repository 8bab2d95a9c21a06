"""The connection-scoped IKNP pool (``OTExtensionSender`` / ``Receiver``).

One pair per connection: base OTs on first use, random OTs topped up
in :data:`POOL_CHUNK` chunks, and each query's transfers
Beaver-derandomised from one ``ot.d`` correction flight.  These tests
pin correctness across chunk boundaries and pool resets, the
use-each-index-once rule, and the pool's bounded memory.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ot import (
    POOL_CHUNK,
    TOY_GROUP,
    OTExtensionReceiver,
    OTExtensionSender,
)
from repro.errors import OTIndexError
from repro.gc.channel import local_channel, run_two_party

#: per-connection OT state bound, on each side
POOL_BYTES_BOUND = 64 * 1024


def pairs_and_choices(rng, n):
    pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(n)]
    return pairs, [rng.getrandbits(1) for _ in range(n)]


def query(sender, receiver, rounds, rng, chans=None):
    """One query of ``rounds`` transfer groups; returns (got, want)."""
    g, e = chans or local_channel()
    groups = [pairs_and_choices(rng, n) for n in rounds]

    def send():
        for i, (pairs, _) in enumerate(groups):
            upcoming = sum(rounds[i + 1 :]) if i == 0 else None
            sender.send(g, pairs, upcoming)

    def receive():
        got = []
        for i, (_, choices) in enumerate(groups):
            later = None
            if i == 0:
                later = [c for _, cs in groups[1:] for c in cs]
            got += receiver.receive(e, choices, later)
        return got

    _, got = run_two_party(send, receive)
    want = [p[c] for pairs, choices in groups for p, c in zip(pairs, choices)]
    return got, want


class TestPoolCorrectness:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(
            st.lists(st.integers(1, 300), min_size=1, max_size=4),
            min_size=1, max_size=5,
        ),
    )
    def test_labels_match_across_queries_and_chunks(self, seed, queries):
        rng = random.Random(seed)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        for rounds in queries:
            got, want = query(sender, receiver, rounds, rng)
            assert got == want
        assert sender.pool_id == receiver.pool_id
        assert sender.end == receiver.end

    def test_query_straddling_a_top_up(self):
        rng = random.Random(1)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        got, want = query(sender, receiver, [POOL_CHUNK - 5], rng)
        assert got == want and sender.end == POOL_CHUNK
        # 5 left: this query needs a second chunk and spans both
        got, want = query(sender, receiver, [4, 4], rng)
        assert got == want
        assert sender.end == 2 * POOL_CHUNK

    def test_larger_than_a_chunk(self):
        rng = random.Random(2)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        got, want = query(sender, receiver, [8, 2 * POOL_CHUNK + 3], rng)
        assert got == want
        assert sender.end == 3 * POOL_CHUNK

    @pytest.mark.parametrize("fresh", ["sender", "receiver"])
    def test_pool_resets_after_an_id_mismatch(self, fresh):
        rng = random.Random(3)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        got, want = query(sender, receiver, [8, 8], rng)
        assert got == want
        first_id = receiver.pool_id
        if fresh == "sender":
            sender = OTExtensionSender(TOY_GROUP)  # a successor gateway
        else:
            receiver = OTExtensionReceiver(TOY_GROUP)  # a new client
        g, e = local_channel()
        got, want = query(sender, receiver, [8, 8, 8], rng, chans=(g, e))
        assert got == want
        assert "ot.setup" in e.sent.by_tag and "ot.base.enc" in e.sent.by_tag
        assert receiver.pool_id == sender.pool_id != first_id

    def test_warm_query_sends_only_corrections(self):
        rng = random.Random(4)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        query(sender, receiver, [8], rng)
        g, e = local_channel()
        got, want = query(sender, receiver, [8, 8, 8, 8], rng, chans=(g, e))
        assert got == want
        assert set(e.sent.by_tag) == {"ot.d"}
        assert set(g.sent.by_tag) == {"ot.pool", "ot.e"}

    def test_a_stale_end_forces_a_fresh_setup(self):
        """A top-up the sender never received (a broken wire) shows as
        a different pool end in the announcement: the client re-runs
        setup rather than trusting diverged PRG counters."""
        rng = random.Random(5)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        query(sender, receiver, [8], rng)
        first_id = receiver.pool_id
        g, e = local_channel()
        receiver._top_up(e, POOL_CHUNK)  # lost on the way
        got, want = query(sender, receiver, [8], rng)
        assert got == want
        assert receiver.pool_id != first_id


class TestEachIndexOnce:
    def corrections(self, start, n):
        return start.to_bytes(8, "big") + n.to_bytes(4, "big") + bytes((n + 7) // 8)

    def warm(self):
        rng = random.Random(6)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        query(sender, receiver, [8, 8], rng)
        return sender

    def replay(self, sender, payload, n=8):
        g, e = local_channel()
        answered = []
        send = g.send
        g.send = lambda tag, body: (answered.append(tag), send(tag, body))

        def client():
            e.recv("ot.pool")
            e.send("ot.d", payload)

        with pytest.raises(OTIndexError):
            run_two_party(
                lambda: sender.send(g, [(1, 2)] * n, upcoming=0), client
            )
        return answered

    def test_reused_index_is_refused_unanswered(self):
        sender = self.warm()
        assert sender._cursor == 16
        answered = self.replay(sender, self.corrections(8, 8))
        assert answered == ["ot.pool"]  # no ot.e
        assert sender._cursor == 16

    def test_index_past_the_pool_is_refused_unanswered(self):
        sender = self.warm()
        answered = self.replay(sender, self.corrections(sender.end - 4, 8))
        assert answered == ["ot.pool"]

    def test_top_up_that_skips_ahead_is_refused(self):
        sender = self.warm()
        g, e = local_channel()

        def client():
            e.recv("ot.pool")
            e.send("ot.ext.u", (sender.end + 128).to_bytes(8, "big") + bytes(128 * 16))

        with pytest.raises(OTIndexError):
            run_two_party(lambda: sender.send(g, [(1, 2)], upcoming=0), client)

    def test_more_transfers_than_corrections_is_typed(self):
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        g, e = local_channel()

        def send():
            sender.send(g, [(1, 2)] * 4, upcoming=0)
            sender.send(g, [(1, 2)])

        def receive():
            receiver.receive(e, [0] * 4, upcoming=[])

        with pytest.raises(OTIndexError):
            run_two_party(send, receive)

    def test_indices_only_move_forward(self):
        rng = random.Random(7)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        cursors = []
        for _ in range(40):
            query(sender, receiver, [8, 8, 8, 8], rng)
            cursors.append(sender._cursor)
        assert cursors == list(range(32, 32 * 41, 32))


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096


class TestBoundedMemory:
    def test_pool_memory_and_rss_stay_flat_over_2000_queries(self):
        """2,000 queries of 32 transfers (a 4-round, 8-bit MAC query's
        OT) on one connection: 250 top-ups, each side's pool state under
        64 KB throughout and the process RSS flat within 1 MB."""
        rng = random.Random(8)
        sender = OTExtensionSender(TOY_GROUP)
        receiver = OTExtensionReceiver(TOY_GROUP)
        g, e = local_channel()
        groups = [pairs_and_choices(rng, 8) for _ in range(4)]
        choices = [c for _, cs in groups for c in cs]
        want = [p[c] for pairs, cs in groups for p, c in zip(pairs, cs)]

        def send(n):
            for _ in range(n):
                sender.send(g, groups[0][0], 24)
                for pairs, _ in groups[1:]:
                    sender.send(g, pairs)
                assert sender.pool_bytes <= POOL_BYTES_BOUND

        def receive(n):
            for _ in range(n):
                got = receiver.receive(e, choices[:8], choices[8:])
                for k in range(1, 4):
                    got += receiver.receive(e, choices[8 * k : 8 * k + 8])
                assert got == want
                assert receiver.pool_bytes <= POOL_BYTES_BOUND

        run_two_party(lambda: send(100), lambda: receive(100))
        before = _rss_bytes()
        run_two_party(lambda: send(2000), lambda: receive(2000))
        assert sender.end >= 2100 * 32
        assert abs(_rss_bytes() - before) <= 1 << 20
