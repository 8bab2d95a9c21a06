"""The in-process chaos tiers on the vectorised (run-plan) garbler.

Every in-process tier serves runs garbled on the run plan — the one
garbling path — so the recovery and handoff oracles prove resume
bit-identity and zero re-garbled rounds against the code that serves
traffic.  The live tier below runs both at the two pinned seeds (four
recovery and four handoff sessions each, pool-less, two gateways):
every session must end with the bit-identical MAC result and a verdict
in {tolerated, recovered}.  The seed→plan stream of every profile is
pinned, so the garbling path never moves a fault.
"""

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.gc.vector_garble import VectorRun
from repro.testkit import (
    PROFILES,
    RECOVERED,
    TOLERATED,
    ChaosConfig,
    ChaosRunner,
)

#: sha256 prefix of each profile's (plan, workload) stream for sessions
#: 0-7 at seed 11 — pinned, the garbling path must not move it
PLAN_STREAM_DIGESTS = {
    "default": "237cea1e352aab76",
    "recovery": "e02d5f855a3b37fb",
    "handoff": "1563545fa6d7450f",
    "backends": "cc9e6bb988fee774",
    "tenants": "ef7eed9905a5ae14",
    "processes": "3198ba81cfd67fd3",
    "slo": "6b9ef2e069c9e869",
}


def _config(profile, seed, sessions=4):
    return ChaosConfig(
        profile=profile,
        sessions=sessions,
        seed=seed,
        gateways=2,
        pool_size=0,
        deadline_s=30.0,
    )


class TestVectorizedConfig:
    def test_profile_requires_two_gateways(self):
        """The recovery+handoff mix is the two profiles themselves; the
        handoff one still needs a peer to hand off to."""
        with pytest.raises(ConfigurationError, match="at least two"):
            ChaosConfig(profile="handoff", gateways=1).validate()
        with pytest.raises(ConfigurationError, match="unknown chaos profile"):
            ChaosConfig(profile="vectorized").validate()

    def test_server_runs_the_vector_path(self):
        for profile in PROFILES:
            runner = ChaosRunner(
                ChaosConfig(profile=profile, sessions=2, seed=7, gateways=2)
            )
            pool = list(runner.server._pool)
            assert pool and all(isinstance(run, VectorRun) for run in pool), profile

    def test_plan_draws_match_the_sequential_tiers(self):
        """Same seed, same session -> the pinned fault plan and workload
        for every profile."""
        for profile in PROFILES:
            runner = ChaosRunner(_config(profile, seed=11, sessions=8))
            stream = [
                (runner.plan_for(s).to_dict(), runner.workload_for(s))
                for s in range(8)
            ]
            digest = hashlib.sha256(
                json.dumps(stream, sort_keys=True).encode()
            ).hexdigest()[:16]
            assert digest == PLAN_STREAM_DIGESTS[profile], profile


class TestVectorizedTier:
    """The live tier on two pinned seeds (the acceptance pair)."""

    @pytest.fixture(scope="class", params=[7, 2026], ids=["seed7", "seed2026"])
    def report(self, request):
        return [
            ChaosRunner(_config(profile, seed=request.param)).run()
            for profile in ("recovery", "handoff")
        ]

    def test_green_on_the_pinned_seed(self, report):
        for rep in report:
            assert rep.ok, rep.format()
            for v in rep.verdicts:
                assert v.verdict in (TOLERATED, RECOVERED), rep.format()

    def test_recovered_sessions_resumed_bit_identically(self, report):
        """Every fault that fired must have been healed by the resume or
        handoff machinery with the bit-identical answer — the oracle
        embeds the differential check in the verdict detail."""
        for rep in report:
            for v in rep.verdicts:
                if v.verdict == RECOVERED:
                    assert "bit-identical" in v.detail, v

    def test_log_header_records_the_profile(self, report, tmp_path):
        for rep in report:
            log = tmp_path / f"{rep.config.profile}.jsonl"
            rep.write_log(log)
            with open(log) as fh:
                header = json.loads(fh.readline())
            assert header["record"] == "chaos_header"
            assert header["profile"] == rep.config.profile

    def test_replay_is_deterministic(self, report, tmp_path):
        # attempts (signature()[5]) is retry count: a drained gateway's
        # failover can land first try or second depending on scheduling,
        # so compare every seed-stable field except it
        def stable(rep):
            return [v.signature()[:5] + v.signature()[6:] for v in rep.verdicts]

        for rep in report:
            log = tmp_path / f"{rep.config.profile}.jsonl"
            rep.write_log(log)
            replayed = ChaosRunner.replay(log)
            assert replayed.ok, replayed.format()
            assert stable(replayed) == stable(rep), (
                f"{rep.config.profile} replay diverged from the original run"
            )
