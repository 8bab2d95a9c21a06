"""Upfront-OT resume: label-slice indexing across every round boundary.

In ``upfront`` OT mode the evaluator receives *all* of its input labels
in one OT before round 0 and slices per round.  A resumed stream
restarts that concatenation at ``start_round``, so both sides must
agree that slice ``k`` of the resumed OT belongs to absolute round
``start_round + k`` — an off-by-one on either side silently decodes
the wrong labels.  This property test pins the indexing for every
possible resume boundary ``r in [0, M)`` against the uninterrupted
reference, over randomized model widths and round counts, with exactly
one garbling per scenario.
"""

import random

import numpy as np
import pytest

from repro.bits import from_bits, to_bits
from repro.fixedpoint import FixedPointFormat, Q8_4
from repro.gc.channel import local_channel, run_two_party
from repro.gc.sequential_gc import SequentialEvaluator
from repro.host import CloudServer
from repro.recover import (
    EvaluatorProgress,
    SessionCheckpoint,
    checkpoint_from_stream,
    serve_from_checkpoint,
)


class _Recording(EvaluatorProgress):
    """Snapshot the carried accumulator labels at every round boundary.

    ``carried[k]`` is the state-label list an evaluator re-entering at
    ``start_round=k`` must be given; ``outputs[k]`` mirrors the
    completed-round count when each snapshot was taken (sanity).
    """

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "carried", {})

    def __setattr__(self, key, value):
        super().__setattr__(key, value)
        if key == "state_labels" and self.completed_rounds > 0:
            self.carried[self.completed_rounds] = list(value)


def _scenario(seed):
    """One randomized (fmt, model row, query) scenario."""
    rng = random.Random(seed)
    total_bits = rng.choice((4, 8))
    frac_bits = total_bits // 2
    fmt = FixedPointFormat(total_bits, frac_bits)
    rounds = rng.randint(2, 5)
    scale = 2.0**frac_bits
    # small representable magnitudes keep the accumulator honest at
    # every width the scenario can draw
    draw = lambda: rng.randint(-3 * int(scale) // 2, 3 * int(scale) // 2) / scale
    row = np.array([draw() for _ in range(rounds)])
    x = np.array([draw() for _ in range(rounds)])
    model = np.vstack([row, [draw() for _ in range(rounds)]])
    return fmt, model, x


@pytest.mark.parametrize("seed", [101, 202, 303, 404])
def test_upfront_resume_is_bit_exact_at_every_boundary(seed):
    fmt, model, x = _scenario(seed)
    rounds = model.shape[1]
    server = CloudServer(model, fmt, pool_size=0, seed=seed, auto_refill=False)
    circuit = server.accelerator.circuit.circuit
    x_bits = [to_bits(int(v), fmt.total_bits) for v in fmt.encode_array(x)]
    expected_raw = {}

    # uninterrupted upfront reference run; capture the checkpoint and
    # the carried labels at every boundary from the same garbled run
    captured = {}

    def on_run(stream):
        captured["cp"] = checkpoint_from_stream(stream, f"s-up{seed}", 0)

    g, e = local_channel(recv_timeout_s=10.0)
    recording = _Recording()
    evaluator = SequentialEvaluator(circuit, e, server.group)
    _, report = run_two_party(
        lambda: server.serve_row(g, 0, on_run=on_run, ot_mode="upfront"),
        lambda: evaluator.run(x_bits, progress=recording),
    )
    expected_raw["bits"] = report.output_bits
    expected = fmt.decode_product(from_bits(report.output_bits, signed=True))
    assert expected == pytest.approx(float(model[0] @ x), abs=1e-9)
    assert server.stats.runs_garbled == 1
    reference = captured["cp"]
    assert reference.ot_mode == "upfront"

    for r in range(rounds):
        cp = SessionCheckpoint.from_dict(reference.to_dict())
        if r:
            cp.advance(r)
            # upfront advance never prunes: every remaining round must
            # still be re-servable from the store copy
            assert [m.round_index for m in cp.materials] == list(range(rounds))
        g2, e2 = local_channel(recv_timeout_s=10.0)
        evaluator2 = SequentialEvaluator(circuit, e2, server.group)
        progress = EvaluatorProgress()
        streamed, resumed = run_two_party(
            lambda: serve_from_checkpoint(g2, cp, server.group),
            lambda: evaluator2.run(
                x_bits,
                start_round=r,
                state_labels=(recording.carried[r] if r else None),
                progress=progress,
            ),
        )
        assert streamed == rounds - r
        assert resumed.output_bits == expected_raw["bits"], (
            f"seed {seed}: resume at round {r} diverged from the "
            "uninterrupted run"
        )
        assert progress.completed_rounds == rounds
    # the whole sweep re-served stored material: still exactly one garble
    assert server.stats.runs_garbled == 1


@pytest.mark.parametrize("seed", [55, 66])
def test_per_round_resume_matches_upfront_results(seed):
    """Cross-mode sanity: the same scenario served per_round from a
    checkpoint at its deepest boundary decodes the same product."""
    fmt, model, x = _scenario(seed)
    rounds = model.shape[1]
    server = CloudServer(model, fmt, pool_size=0, seed=seed, auto_refill=False)
    circuit = server.accelerator.circuit.circuit
    x_bits = [to_bits(int(v), fmt.total_bits) for v in fmt.encode_array(x)]
    captured = {}

    def on_run(stream):
        captured["cp"] = checkpoint_from_stream(stream, f"s-pr{seed}", 0)

    g, e = local_channel(recv_timeout_s=10.0)
    recording = _Recording()
    evaluator = SequentialEvaluator(circuit, e, server.group)
    _, report = run_two_party(
        lambda: server.serve_row(g, 0, on_run=on_run),
        lambda: evaluator.run(x_bits, progress=recording),
    )
    r = rounds - 1
    cp = captured["cp"]
    cp.advance(r)
    g2, e2 = local_channel(recv_timeout_s=10.0)
    evaluator2 = SequentialEvaluator(circuit, e2, server.group)
    _, resumed = run_two_party(
        lambda: serve_from_checkpoint(g2, cp, server.group),
        lambda: evaluator2.run(
            x_bits, start_round=r, state_labels=recording.carried[r]
        ),
    )
    assert resumed.output_bits == report.output_bits
    assert server.stats.runs_garbled == 1
