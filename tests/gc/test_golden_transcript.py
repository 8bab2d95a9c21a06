"""A seeded run-plan garbling hashes to pinned digests.

Everything the garbler sends and the client computes is a function of
the label stream and the fixed-key AES, so a rewrite of the batch AES
kernel, the label DRBG or the run-plan garbler must leave every byte of
a seeded run unchanged: the table bytes of every round, the output
permute bits and the output labels the client evaluates.  The digests
below were recorded from the numpy T-table AES kernel that preceded the
OpenSSL batch path.

The run is Q8.4's serving circuit (b = 8, a 19-bit accumulator) over a
4 x 4 model: four sessions, one per row, of four MAC rounds each, with
labels drawn from the accelerator's ring-oscillator-seeded AES-CTR DRBG.
"""

import hashlib

import numpy as np
import pytest

from repro.accel.label_generator import LabelGenerator
from repro.accel.tree_mac import build_scheduled_mac
from repro.bits import from_bits, to_bits
from repro.gc.vector_garble import decode_tables, evaluate_run, garble_mac_runs

BITS, ACC_WIDTH = 8, 19
ROWS = COLS = 4

GOLDEN = {
    "tables": "669e243bfbbda88926cf2f891adf2394a8444c864a72989c0f72c65acd19a26d",
    "permute_bits": "653887c94dc3a691e45714e909ff30a48845cae8987f6529e7dd203f27df8f87",
    "output_labels": "b978e447b77847fd9fd2a96f7e3ac0714df6c676c872847652f2f439ec35a79d",
}


def _run(seed: int = 2024):
    scheduled = build_scheduled_mac(BITS, ACC_WIDTH)
    circuit = scheduled.circuit
    net = circuit.netlist
    factories = [LabelGenerator(BITS, seed=seed + s).factory for s in range(ROWS)]
    runs = garble_mac_runs(circuit, COLS, factories)
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=(ROWS, COLS)).tolist()
    xs = rng.integers(-128, 128, size=COLS).tolist()
    n_and = len(net.nonfree_gates)
    digests = {name: hashlib.sha256() for name in GOLDEN}
    for row, run in enumerate(runs):
        inputs, tables = [], []
        for r in range(COLS):
            meta = run.rounds[r]
            labels = {}
            for wires, pairs, value in (
                (net.garbler_inputs, meta.garbler_pairs, weights[row][r]),
                (net.evaluator_inputs, meta.evaluator_pairs, xs[r]),
            ):
                bits = to_bits(value & 0xFF, BITS)
                labels.update(
                    {w: p.select(b) for w, p, b in zip(wires, pairs, bits)}
                )
            labels.update(
                {w: p.select(net.constants[w]) for w, p in meta.const_pairs.items()}
            )
            inputs.append(labels)
            payload = bytes(run.tables_payload(r))
            digests["tables"].update(payload)
            tables.append(decode_tables(payload, n_and))
        permute = run.output_permute_bits
        digests["permute_bits"].update(bytes(permute))
        state = [p.zero for p in run.rounds[0].state_pairs]
        outputs = evaluate_run(circuit, 0, state, inputs, tables)
        for round_labels in outputs:
            for label in round_labels:
                digests["output_labels"].update(label.to_bytes(16, "big"))
        value = from_bits(
            [(label & 1) ^ p for label, p in zip(outputs[-1], permute)], signed=True
        )
        assert value == sum(w * x for w, x in zip(weights[row], xs))
    return {name: d.hexdigest() for name, d in digests.items()}


@pytest.fixture(scope="module")
def transcript():
    return _run()


@pytest.mark.parametrize("part", sorted(GOLDEN))
def test_seeded_run_matches_the_pinned_digest(transcript, part):
    assert transcript[part] == GOLDEN[part]
