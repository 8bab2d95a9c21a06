"""The backends chaos tier: recovery + handoff oracles on HE sessions.

The ``backends`` profile reruns the fault plans against sessions that
negotiate the ``he`` backend — checkpoint/resume must carry the
backend id, an adopting gateway must re-stream the stored result
ciphertext without recomputing, and shed/retry_after must be honoured
identically to GC.

One deliberate difference from the other tiers: an HE session is only
*two* post-handshake frames (the query ack and the result ciphertext),
so a cut at frame 2 races the query's completion — run-to-run the same
plan may land as TOLERATED (the result beat the cut) or RECOVERED (the
resume machinery healed it).  These tests therefore pin the
race-robust invariants — zero violations, bit-identical recoveries —
rather than exact verdict signatures.
"""

import json

import pytest

from repro.errors import ConfigurationError, ResumeError
from repro.gc.channel import local_channel
from repro.gc.sequential_gc import RoundMaterial, SequentialStreamer
from repro.recover import SessionCheckpoint, checkpoint_from_stream
from repro.testkit import (
    RECOVERED,
    SURFACED,
    TOLERATED,
    ChaosConfig,
    ChaosRunner,
    FaultPlan,
    contract_for,
)


def _allowed(v):
    """A typed error passes only where the plan's fault kind allows one."""
    if contract_for(FaultPlan.from_dict(v.plan)) == RECOVERED:
        return (TOLERATED, RECOVERED)
    return (TOLERATED, RECOVERED, SURFACED)


def _config(seed, sessions=6):
    return ChaosConfig(
        profile="backends",
        sessions=sessions,
        seed=seed,
        gateways=2,
        pool_size=0,
        deadline_s=30.0,
    )


class TestBackendsConfig:
    def test_profile_requires_two_gateways(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            ChaosConfig(profile="backends", gateways=1).validate()

    def test_profile_selects_the_he_backend(self):
        assert ChaosRunner(_config(seed=7)).profile.backend == "he"
        # every other profile keeps negotiating GC
        for profile, kw in (
            ("default", {}),
            ("recovery", {}),
            ("handoff", {"gateways": 2}),
        ):
            cfg = ChaosConfig(profile=profile, sessions=2, seed=7, **kw)
            assert ChaosRunner(cfg).profile.backend == "gc", profile

    def test_plan_stream_alternates_recovery_and_handoff(self):
        runner = ChaosRunner(_config(seed=7, sessions=6))
        for s in range(6):
            assert runner.plan_for(s).is_handoff == (s % 2 == 1)

    def test_cut_frames_fit_the_short_he_dialogue(self):
        """HE sessions are ~2 post-handshake frames; the profile draws
        cut frames low enough that faults actually fire mid-session."""
        runner = ChaosRunner(_config(seed=11, sessions=12))
        for s in range(12):
            for fault in runner.plan_for(s).faults:
                assert fault.frame <= 3, (s, fault)


class TestBackendsTier:
    """The live tier on a pinned seed (race-robust assertions only)."""

    @pytest.fixture(scope="class")
    def report(self):
        return ChaosRunner(_config(seed=11, sessions=8)).run()

    def test_green_on_the_pinned_seed(self, report):
        assert report.ok, report.format()
        for v in report.verdicts:
            assert v.verdict in _allowed(v), report.format()

    def test_recoveries_are_bit_identical_without_recompute(self, report):
        recovered = [v for v in report.verdicts if v.verdict == RECOVERED]
        assert recovered, "pinned seed produced no recovered session"
        for v in recovered:
            assert "bit-identical" in v.detail, v

    def test_log_header_records_the_backend(self, report, tmp_path):
        log = tmp_path / "backends.jsonl"
        report.write_log(log)
        with open(log) as fh:
            header = json.loads(fh.readline())
        assert header["record"] == "chaos_header"
        assert header["profile"] == "backends"
        assert header["backend"] == "he"

    def test_replay_stays_green(self, report, tmp_path):
        """Replay re-executes the same plans.  Cut-at-frame-2 kills race
        the 2-frame HE dialogue, so verdicts may legitimately flip
        between tolerated and recovered — replay must simply stay green
        with the same session count."""
        log = tmp_path / "backends.jsonl"
        report.write_log(log)
        replayed = ChaosRunner.replay(log)
        assert replayed.ok, replayed.format()
        assert len(replayed.verdicts) == len(report.verdicts)
        for v in replayed.verdicts:
            assert v.verdict in _allowed(v), replayed.format()


def checkpoint_from_he_result(result, session_id, row_index, **kwargs):
    """Checkpoint the one-round stream ``serve_row_he`` sends."""
    stream = SequentialStreamer(
        local_channel()[0], [RoundMaterial(0, result, [], [], [])], backend="he"
    )
    return checkpoint_from_stream(stream, session_id, row_index, **kwargs)


class TestHECheckpoints:
    def test_checkpoint_from_he_result_shape(self):
        cp = checkpoint_from_he_result(b"ct-bytes", "sess-1", 2,
                                       client_name="c1")
        assert cp.backend == "he"
        assert cp.rounds == 1
        assert cp.next_round == 0
        assert cp.materials[0].tables == b"ct-bytes"

    def test_backend_survives_the_store_round_trip(self):
        cp = checkpoint_from_he_result(b"ct", "sess-2", 0)
        back = SessionCheckpoint.from_dict(cp.to_dict())
        assert back.backend == "he"
        assert back.materials[0].tables == b"ct"

    def test_record_without_backend_is_a_typed_error(self):
        """Every checkpoint record names its backend: one missing it is
        malformed, never silently loaded as a GC session."""
        cp = checkpoint_from_he_result(b"ct", "sess-3", 0)
        record = cp.to_dict()
        del record["backend"]
        with pytest.raises(ResumeError, match="backend"):
            SessionCheckpoint.from_dict(record)
