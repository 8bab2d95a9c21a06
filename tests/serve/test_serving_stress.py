"""Concurrency stress: many clients, one shared server, real GC sessions.

The invariants under test are the serving layer's whole contract:

* every concurrent result equals the plaintext dot product (concurrency
  changes scheduling, never any session's transcript);
* every pooled run is consumed by exactly one request, and every
  garbling is fresh (label reuse across sessions would break GC
  security);
* the shared :class:`ServerStats` counters are exact under races;
* with the background refiller, sustained load keeps the pool warm
  (hit rate >= 0.9) instead of degrading to on-demand garbling.
"""

import threading

import numpy as np
import pytest

from repro.fixedpoint import Q8_4
from repro.host import CloudServer, ServerStats
from repro.serve import ServingConfig, ServingServer

MODEL = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]])
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 2


@pytest.fixture(scope="module")
def stress_run():
    """One shared concurrent run; every test inspects its outcome."""
    server = CloudServer(MODEL, Q8_4, pool_size=4, seed=11)
    consumed = []
    consumed_lock = threading.Lock()
    original_take = server._take_run

    def spying_take():
        run = original_take()
        with consumed_lock:
            consumed.append(run)  # keep the runs alive so ids stay unique
        return run

    server._take_run = spying_take

    config = ServingConfig(workers=4, queue_depth=64, request_timeout_s=120.0)
    results = []
    results_lock = threading.Lock()
    errors = []

    def client_thread(cid):
        rng = np.random.default_rng(500 + cid)
        try:
            for _ in range(REQUESTS_PER_CLIENT):
                row = int(rng.integers(0, MODEL.shape[0]))
                # on the Q8.4 grid -> the GC result is bit-exact
                x = np.round(rng.uniform(-1.5, 1.5, size=MODEL.shape[1]) * 16) / 16
                got = serving.query(row, x)
                with results_lock:
                    results.append((row, x, got))
        except BaseException as exc:  # surfaced in the correctness test
            errors.append(exc)

    with ServingServer(server, config) as serving:
        threads = [
            threading.Thread(target=client_thread, args=(c,)) for c in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    return {
        "server": server,
        "consumed": consumed,
        "results": results,
        "errors": errors,
    }


class TestConcurrentCorrectness:
    def test_no_client_errored(self, stress_run):
        assert stress_run["errors"] == []
        assert len(stress_run["results"]) == N_CLIENTS * REQUESTS_PER_CLIENT

    def test_all_results_match_plaintext(self, stress_run):
        for row, x, got in stress_run["results"]:
            assert got == pytest.approx(MODEL[row] @ x, abs=1e-9), (
                f"row {row}, x={x}: concurrent result diverged from plaintext"
            )


class TestFreshLabelInvariant:
    def test_each_run_consumed_exactly_once(self, stress_run):
        consumed = stress_run["consumed"]
        assert len(consumed) == N_CLIENTS * REQUESTS_PER_CLIENT
        assert len({id(run) for run in consumed}) == len(consumed)

    def test_every_consumed_run_has_fresh_labels(self, stress_run):
        # distinct tables and input labels across all served runs: a
        # repeat would mean two sessions shared garbled material
        consumed = stress_run["consumed"]
        first_tables = [bytes(run.tables_payload(0))[:32] for run in consumed]
        assert len(set(first_tables)) == len(first_tables)
        last = consumed[0].n_rounds - 1
        for r in (0, last):
            zeros = [
                p.zero
                for run in consumed
                for p in run.rounds[r].garbler_pairs + run.rounds[r].evaluator_pairs
            ]
            assert len(set(zeros)) == len(zeros), r

    def test_distinct_free_xor_offsets(self, stress_run):
        offsets = [run.offset for run in stress_run["consumed"]]
        assert len(set(offsets)) == len(offsets)


class TestStatsUnderConcurrency:
    def test_counters_exact_after_stress(self, stress_run):
        stats = stress_run["server"].stats
        total = N_CLIENTS * REQUESTS_PER_CLIENT
        assert stats.requests_served == total
        assert stats.pool_hits + stats.pool_misses == total
        tables_per_run = stress_run["consumed"][0].total_tables
        assert stats.tables_streamed == total * tables_per_run

    def test_telemetry_counters_agree_with_stats(self, stress_run):
        server = stress_run["server"]
        snap = server.telemetry.snapshot()["counters"]
        assert snap["serve.completed"] == N_CLIENTS * REQUESTS_PER_CLIENT
        assert snap.get("pool.hits", 0) == server.stats.pool_hits
        assert snap.get("pool.misses", 0) == server.stats.pool_misses

    def test_bump_is_race_free(self):
        stats = ServerStats()

        def hammer():
            for _ in range(5000):
                stats.bump("requests_served")
                stats.bump("tables_streamed", 3)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.requests_served == 8 * 5000
        assert stats.tables_streamed == 8 * 5000 * 3

    def test_bump_unknown_counter_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServerStats().bump("nonexistent")


class TestSustainedLoadHitRate:
    def test_refiller_keeps_pool_warm(self):
        """Acceptance: hit rate >= 0.9 under sustained load with refiller."""
        server = CloudServer(MODEL, Q8_4, pool_size=4, seed=31)
        config = ServingConfig(workers=1, queue_depth=8, refill=True)
        with ServingServer(server, config) as serving:
            rng = np.random.default_rng(7)
            for i in range(10):
                row = i % MODEL.shape[0]
                x = np.round(rng.uniform(-1, 1, size=MODEL.shape[1]) * 16) / 16
                got = serving.query(row, x)
                assert got == pytest.approx(MODEL[row] @ x, abs=1e-9)
        assert server.stats.pool_hit_rate >= 0.9
        snap = server.telemetry.snapshot()["counters"]
        assert snap.get("refill.runs", 0) > 0
