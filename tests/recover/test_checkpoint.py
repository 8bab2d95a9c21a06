"""Checkpoints: advance/prune semantics, serialization, resumed serving.

The load-bearing claim: a :class:`SessionCheckpoint` captured by the
``on_run`` hook can serve the *whole* query (or its tail) without a
single additional garbling — ``serve_from_checkpoint`` streams stored
material, and the unmodified evaluator decodes the bit-identical MAC.
"""

import threading

import numpy as np
import pytest

from repro.errors import ResumeError
from repro.fixedpoint import Q8_4
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import SequentialEvaluator
from repro.host import CloudServer
from repro.bits import from_bits, to_bits
from repro.recover import (
    EvaluatorProgress,
    RoundMaterial,
    SessionCheckpoint,
    checkpoint_from_stream,
    serve_from_checkpoint,
)
from repro.telemetry import MetricsRegistry

MODEL = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]])


def make_checkpoint(rounds=3) -> SessionCheckpoint:
    return SessionCheckpoint(
        session_id="s-unit",
        row_index=0,
        rounds=rounds,
        next_round=0,
        materials=[
            RoundMaterial(
                round_index=r,
                tables=b"\xaa" * 32,
                garbler_labels=[r, r + 1],
                const_labels=[],
                evaluator_pairs=[(2 * r, 2 * r + 1)],
                state_labels=[9] if r == 0 else None,
            )
            for r in range(rounds)
        ],
        output_permute_bits=[1, 0],
    )


class TestAdvance:
    def test_advance_prunes_completed_rounds(self):
        cp = make_checkpoint(rounds=3)
        cp.advance(2, send_seq=14, recv_seq=9)
        assert cp.next_round == 2
        # round 1 is the unacked tail: streamed, but the client may not
        # have verified it yet — a successor gateway can re-serve it
        assert [m.round_index for m in cp.materials] == [1, 2]
        assert (cp.send_seq, cp.recv_seq) == (14, 9)
        assert not cp.complete
        cp.advance(3)
        assert cp.complete
        assert [m.round_index for m in cp.materials] == [2]

    def test_upfront_mode_never_prunes_on_advance(self):
        cp = make_checkpoint(rounds=3)
        cp.ot_mode = "upfront"
        cp.advance(3, send_seq=20, recv_seq=2)
        # the free-running upfront stream keeps everything; only
        # rewind_to (which knows the acked round) may discard
        assert [m.round_index for m in cp.materials] == [0, 1, 2]

    def test_boundary_map_tracks_advances(self):
        cp = make_checkpoint(rounds=3)
        cp.begin_stream(0)
        cp.advance(1, send_seq=5)
        cp.advance(2, send_seq=9)
        assert cp.stream_boundaries == [[0, 0], [1, 5], [2, 9]]
        assert cp.acked_round(0) == 0
        assert cp.acked_round(4) == 0
        assert cp.acked_round(5) == 1
        assert cp.acked_round(8) == 1
        assert cp.acked_round(9) == 2
        assert cp.acked_round(999) == 2

    def test_rewind_restores_reservable_rounds(self):
        cp = make_checkpoint(rounds=3)
        cp.ot_mode = "upfront"
        cp.advance(3, send_seq=20)
        cp.rewind_to(1)
        assert cp.next_round == 1
        assert [m.round_index for m in cp.materials] == [1, 2]
        with pytest.raises(ResumeError, match="cannot rewind forward"):
            cp.rewind_to(2)

    def test_rewind_without_material_is_typed(self):
        cp = make_checkpoint(rounds=3)
        cp.advance(2, send_seq=9)
        cp.advance(3, send_seq=14)
        # per_round pruning dropped rounds 0 and 1; only round 2 (the
        # tail) is re-servable
        with pytest.raises(ResumeError, match="never re-served"):
            cp.rewind_to(0)
        cp.rewind_to(2)
        assert cp.next_round == 2

    def test_advance_backwards_is_typed(self):
        cp = make_checkpoint()
        cp.advance(2)
        with pytest.raises(ResumeError, match="cannot move backwards"):
            cp.advance(1)

    def test_material_for_pruned_round_is_typed(self):
        cp = make_checkpoint()
        cp.advance(1)
        cp.advance(2)
        with pytest.raises(ResumeError, match="never re-served"):
            cp.material_for(0)
        assert cp.material_for(1).round_index == 1


class TestSerialization:
    def test_dict_roundtrip_is_lossless(self):
        cp = make_checkpoint()
        cp.advance(2, send_seq=7, recv_seq=4)
        rebuilt = SessionCheckpoint.from_dict(cp.to_dict())
        assert rebuilt.to_dict() == cp.to_dict()
        assert rebuilt.materials[0].tables == b"\xaa" * 32
        assert rebuilt.materials[0].evaluator_pairs == [(2, 3)]

    def test_state_labels_only_on_round_zero(self):
        cp = make_checkpoint()
        rebuilt = SessionCheckpoint.from_dict(cp.to_dict())
        assert rebuilt.materials[0].state_labels == [9]
        assert rebuilt.materials[1].state_labels is None


class _Harness:
    """A server + a captured checkpoint for one row, garbled exactly once."""

    def __init__(self, seed=11):
        self.telemetry = MetricsRegistry()
        self.server = CloudServer(
            MODEL, Q8_4, pool_size=0, seed=seed, auto_refill=False,
            telemetry=self.telemetry,
        )
        self.row = 1
        self.x = np.array([0.5, -0.25])
        self.expected = float(MODEL[self.row] @ self.x)

    def captured_checkpoint(self) -> SessionCheckpoint:
        """Serve the row once end-to-end, capturing the on_run snapshot."""
        captured = {}

        def on_run(stream):
            captured["cp"] = checkpoint_from_stream(
                stream, "s-e2e", self.row, client_name="harness",
            )

        g, e = local_channel(recv_timeout_s=10.0)
        evaluator = SequentialEvaluator(
            self.server.accelerator.circuit.circuit, e, self.server.group
        )
        x_bits = self.x_bits()
        _, report = run_two_party(
            lambda: self.server.serve_row(g, self.row, on_run=on_run),
            lambda: evaluator.run(x_bits),
        )
        assert self.decode(report) == pytest.approx(self.expected, abs=1e-12)
        return captured["cp"]

    def x_bits(self):
        fmt = self.server.fmt
        return [
            to_bits(int(v), fmt.total_bits)
            for v in fmt.encode_array(self.x)
        ]

    def decode(self, report) -> float:
        raw = from_bits(report.output_bits, signed=True)
        return self.server.fmt.decode_product(raw)


class TestServeFromCheckpoint:
    def test_full_query_from_checkpoint_without_regarbling(self):
        h = _Harness()
        cp = h.captured_checkpoint()
        garbled_before = h.server.stats.runs_garbled
        # serve the same query again purely from the checkpoint
        g, e = local_channel(recv_timeout_s=10.0)
        evaluator = SequentialEvaluator(
            h.server.accelerator.circuit.circuit, e, h.server.group
        )
        x_bits = h.x_bits()
        streamed, report = run_two_party(
            lambda: serve_from_checkpoint(g, cp, h.server.group,
                                          telemetry=h.telemetry),
            lambda: evaluator.run(x_bits),
        )
        assert streamed == MODEL.shape[1]
        assert h.decode(report) == pytest.approx(h.expected, abs=1e-12)
        assert h.server.stats.runs_garbled == garbled_before
        assert cp.complete
        assert h.telemetry.counter("recover.rounds.streamed").value == streamed

    def test_checkpoint_survives_serialization_before_resume(self):
        """The JSONL path: dict round-trip, then serve — still bit-exact."""
        h = _Harness(seed=23)
        cp = SessionCheckpoint.from_dict(h.captured_checkpoint().to_dict())
        g, e = local_channel(recv_timeout_s=10.0)
        evaluator = SequentialEvaluator(
            h.server.accelerator.circuit.circuit, e, h.server.group
        )
        x_bits = h.x_bits()
        _, report = run_two_party(
            lambda: serve_from_checkpoint(g, cp, h.server.group),
            lambda: evaluator.run(x_bits),
        )
        assert h.decode(report) == pytest.approx(h.expected, abs=1e-12)

    def test_mid_session_resume_carries_evaluator_state(self):
        """Round 0 on the original stream, rounds 1.. from the checkpoint
        with the client's carried accumulator labels — the paper's state
        chaining, across a simulated disconnect at a round boundary."""
        h = _Harness(seed=31)
        cp = h.captured_checkpoint()
        garbled_before = h.server.stats.runs_garbled
        x_bits = h.x_bits()
        circuit = h.server.accelerator.circuit.circuit

        # phase 1: evaluate only round 0 from a full checkpoint stream,
        # recording progress; a drain would cut here
        cp_phase1 = SessionCheckpoint.from_dict(cp.to_dict())
        g, e = local_channel(recv_timeout_s=10.0)
        progress = EvaluatorProgress()
        stop_after = {"round": 1}

        def serve_then_hang():
            # stream everything; the client stops reading after round 1,
            # so use a plain thread that may block — the evaluator side
            # drives how far phase 1 goes
            try:
                serve_from_checkpoint(g, cp_phase1, h.server.group)
            except Exception:
                pass

        t = threading.Thread(target=serve_then_hang, daemon=True)
        t.start()
        evaluator = SequentialEvaluator(circuit, e, h.server.group)

        class _Stop(Exception):
            pass

        # run rounds [0, stop) by aborting via a progress subclass; the
        # evaluator stores completed_rounds first and the carry labels
        # second, so trigger on the labels to capture a coherent pair
        class _Counting(EvaluatorProgress):
            def __setattr__(self, key, value):
                super().__setattr__(key, value)
                if (
                    key == "state_labels"
                    and self.completed_rounds >= stop_after["round"]
                ):
                    raise _Stop()

        counting = _Counting()
        with pytest.raises(_Stop):
            evaluator.run(x_bits, progress=counting)
        assert counting.completed_rounds == 1
        carried = list(counting.state_labels)

        # phase 2: a fresh channel serves rounds 1.. from the checkpoint
        cp.advance(1)
        g2, e2 = local_channel(recv_timeout_s=10.0)
        evaluator2 = SequentialEvaluator(circuit, e2, h.server.group)
        _, report = run_two_party(
            lambda: serve_from_checkpoint(g2, cp, h.server.group),
            lambda: evaluator2.run(
                x_bits, start_round=1, state_labels=carried,
                progress=progress,
            ),
        )
        assert h.decode(report) == pytest.approx(h.expected, abs=1e-12)
        assert progress.completed_rounds == MODEL.shape[1]
        assert h.server.stats.runs_garbled == garbled_before

    def test_completed_checkpoint_refuses_to_resume(self):
        cp = make_checkpoint(rounds=2)
        cp.advance(2)
        g, _ = local_channel(recv_timeout_s=1.0)
        with pytest.raises(ResumeError, match="nothing to resume"):
            serve_from_checkpoint(g, cp)
