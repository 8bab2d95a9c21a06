"""Cloud-server runtime tests (Figure 1's operational pattern)."""

import random

import numpy as np
import pytest

from repro.accel.label_generator import LabelGenerator
from repro.crypto.labels import LabelFactory
from repro.errors import ConfigurationError, GCProtocolError
from repro.fixedpoint import Q8_4
from repro.host import GARBLE_MODES, AnalyticsClient, CloudServer

MODEL = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5]])


@pytest.fixture(scope="module")
def server():
    return CloudServer(MODEL, Q8_4, pool_size=2, seed=23)


class TestServing:
    def test_client_query_is_correct(self, server):
        client = AnalyticsClient(server)
        x = np.array([1.0, 2.0, -0.5])
        result = client.query_row(0, x)
        assert result == pytest.approx(MODEL[0] @ x, abs=0.05)

    def test_multiple_queries_consume_pool(self, server):
        client = AnalyticsClient(server)
        x = np.array([0.5, 0.5, 0.5])
        before = server.stats.requests_served
        for row in (0, 1):
            got = client.query_row(row, x)
            assert got == pytest.approx(MODEL[row] @ x, abs=0.05)
        assert server.stats.requests_served == before + 2

    def test_pool_miss_falls_back_to_fresh_garbling(self):
        server = CloudServer(MODEL, Q8_4, pool_size=0, seed=24)
        client = AnalyticsClient(server)
        client.query_row(0, np.array([1.0, 0.0, 0.0]))
        assert server.stats.pool_misses == 1
        assert server.stats.pool_hit_rate == 0.0

    def test_manual_pool_refill(self):
        server = CloudServer(MODEL, Q8_4, pool_size=2, seed=25, auto_refill=False)
        client = AnalyticsClient(server)
        client.query_row(0, np.array([1.0, 0.0, 0.0]))
        assert server.pool_level == 1
        assert server.refill_pool() == 1
        assert server.pool_level == 2

    def test_auto_refill_keeps_pool_full_after_serve(self):
        server = CloudServer(MODEL, Q8_4, pool_size=2, seed=25)
        client = AnalyticsClient(server)
        client.query_row(0, np.array([1.0, 0.0, 0.0]))
        assert server.pool_level == 2
        assert server.refill_pool() == 0

    def test_sustained_load_stays_on_pool_hits(self):
        # regression for the drain bug: the pool used to refill only on
        # update_model, so request 3+ degraded to 100% on-demand misses
        server = CloudServer(MODEL, Q8_4, pool_size=2, seed=28)
        client = AnalyticsClient(server)
        x = np.array([0.25, -0.5, 1.0])
        for i in range(6):
            client.query_row(i % 2, x)
        assert server.stats.pool_hits == 6
        assert server.stats.pool_misses == 0
        assert server.stats.pool_hit_rate == 1.0

    def test_without_auto_refill_pool_drains_to_misses(self):
        server = CloudServer(MODEL, Q8_4, pool_size=1, seed=29, auto_refill=False)
        client = AnalyticsClient(server)
        x = np.array([1.0, 0.0, 0.0])
        for _ in range(3):
            client.query_row(0, x)
        assert server.stats.pool_hits == 1
        assert server.stats.pool_misses == 2

    def test_refill_listener_replaces_sync_refill(self):
        server = CloudServer(MODEL, Q8_4, pool_size=1, seed=30)
        pokes = []
        server.attach_refill_listener(lambda: pokes.append(1))
        client = AnalyticsClient(server)
        client.query_row(0, np.array([1.0, 0.0, 0.0]))
        assert pokes == [1]
        assert server.pool_level == 0  # the listener owns refilling now
        server.detach_refill_listener()
        client.query_row(0, np.array([1.0, 0.0, 0.0]))
        assert server.pool_level == 1  # sync auto-refill is back


class TestModelManagement:
    def test_update_model_changes_results(self):
        server = CloudServer(MODEL, Q8_4, pool_size=1, seed=26)
        client = AnalyticsClient(server)
        new_model = np.array([[1.0, 1.0]])
        server.update_model(new_model)
        got = client.query_row(0, np.array([0.5, 0.25]))
        assert got == pytest.approx(0.75, abs=0.05)

    def test_bad_model_rejected(self):
        with pytest.raises(ConfigurationError):
            CloudServer(np.zeros(3), Q8_4)

    def test_bad_row_rejected(self, server):
        from repro.gc.channel import local_channel

        chan, _ = local_channel()
        with pytest.raises(ConfigurationError):
            server.serve_row(chan, 99)

    def test_wrong_query_width_rejected(self, server):
        client = AnalyticsClient(server)
        with pytest.raises(GCProtocolError):
            client.query_row(0, np.array([1.0, 2.0]))

    def test_negative_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            CloudServer(MODEL, Q8_4, pool_size=-1)


def input_label_zeros(run, r):
    """Every zero label a round draws fresh, through the interface both
    run types (FSM and vectorised) expose."""
    meta = run.rounds[r]
    pairs = meta.garbler_pairs + meta.evaluator_pairs + list(meta.const_pairs.values())
    if r == 0:
        pairs += meta.state_pairs
    return [p.zero for p in pairs]


class TestFreshLabelsPerServing:
    def test_two_servings_use_different_tables(self):
        # each pooled run is consumed once; reuse would break security
        for mode in GARBLE_MODES:
            server = CloudServer(MODEL, Q8_4, pool_size=2, seed=27, garble_mode=mode)
            a, b = list(server._pool)
            assert a.offset != b.offset, mode
            for r in range(server.rounds_per_request):
                pa, pb = bytes(a.tables_payload(r)), bytes(b.tables_payload(r))
                tables_a = {pa[i : i + 32] for i in range(0, len(pa), 32)}
                tables_b = {pb[i : i + 32] for i in range(0, len(pb), 32)}
                assert not tables_a & tables_b, (mode, r)
                labels_a = set(input_label_zeros(a, r))
                labels_b = set(input_label_zeros(b, r))
                assert not labels_a & labels_b, (mode, r)

    def test_seeded_vectorized_labels_come_from_the_drbg(self):
        """A seeded vectorised run draws its offset and input labels from
        the accelerator's AES-CTR label generator, seeded per garbling
        exactly like the FSM path — not from a Mersenne Twister, whose
        state the evaluator could recover from the labels it sees."""
        server = CloudServer(MODEL, Q8_4, pool_size=2, seed=27)
        assert server.garble_mode == "vectorized"
        net = server.accelerator.circuit.netlist
        for i, run in enumerate(server._pool):
            factory = LabelGenerator(Q8_4.total_bits, seed=27 + i).factory
            assert run.offset == factory.offset
            meta = run.rounds[0]
            drawn = [
                p.zero
                for p in meta.garbler_pairs + meta.evaluator_pairs + meta.state_pairs
            ] + [meta.const_pairs[w].zero for w in net.constants]
            assert drawn == factory.fresh_zeros(len(drawn))
            mersenne = LabelFactory(source=random.Random(27 + i))
            assert run.offset != mersenne.offset
