"""Sequential GC: garble one round netlist for M rounds [TinyGarble].

The state wires' label pairs of round ``r`` are the output pairs the
round-``r-1`` garbling produced at the feedback positions, so no OT or
re-transfer is needed for state — the evaluator simply keeps the labels
it computed.  Fresh input labels (and tweaks) are used every round,
which is the security requirement the paper emphasises ("new labels are
required for every garbling operation").

This module is both the software baseline's execution engine and the
reference semantics that the MAXelerator accelerator stream must match.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.sequential import SequentialCircuit
from repro.crypto.labels import LabelFactory, color
from repro.crypto.ot import (
    DEFAULT_GROUP,
    DHGroup,
    BaseOTReceiver,
    BaseOTSender,
    OTExtensionReceiver,
    OTExtensionSender,
    K_SECURITY,
)
from repro.errors import GCProtocolError
from repro.gc.channel import Endpoint, local_channel, run_two_party
from repro.gc.garble import Garbler
from repro.gc.stage_plan import StagePlan
from repro.gc.tables import serialize_tables
from repro.gc.vector_garble import VectorEvaluator


#: OT scheduling modes (Section 3 of the paper): per-round OT keeps the
#: client's label memory at one round's worth; upfront OT extension
#: transfers every round's labels at once (fewer protocol flights, more
#: client memory) — "the evaluator may not have enough memory to store
#: all the labels together".
OT_MODES = ("per_round", "upfront")


@dataclass
class SequentialReport:
    """Summary of a multi-round sequential GC execution."""

    rounds: int
    output_bits: list[int] | None
    bytes_sent: int
    n_tables: int
    hash_calls: int
    #: evaluator-side: peak bytes of buffered input labels (the paper's
    #: memory-constrained-client trade-off)
    peak_input_label_bytes: int = 0


class SequentialGarbler:
    """Garbles the round netlist M times with carried-over state pairs."""

    def __init__(
        self,
        circuit: SequentialCircuit,
        channel: Endpoint,
        group: DHGroup = DEFAULT_GROUP,
        factory: LabelFactory | None = None,
    ):
        self.circuit = circuit
        self.channel = channel
        self.group = group
        self.factory = factory or LabelFactory()
        self.garbler = Garbler(circuit.netlist, factory=self.factory)

    def run(
        self,
        round_inputs: list[list[int]],
        reveal: str = "evaluator",
        ot_mode: str = "per_round",
        on_round=None,
    ) -> SequentialReport:
        """``on_round(next_round)`` fires after each round's material
        (tables, labels, OT) is fully on the wire — the checkpointing
        hook of :mod:`repro.recover`.  It may raise to abort streaming
        at a round boundary (graceful drain)."""
        net = self.circuit.netlist
        chan = self.channel
        rounds = len(round_inputs)
        if rounds == 0:
            raise GCProtocolError("sequential GC needs at least one round")
        if ot_mode not in OT_MODES:
            raise GCProtocolError(f"ot_mode must be one of {OT_MODES}")
        chan.send("seq.rounds", rounds.to_bytes(4, "big"))
        chan.send("seq.ot_mode", ot_mode.encode())

        # Garble every round up front (state pairs chain eagerly); the
        # upfront OT mode needs all evaluator-input pairs before the loop.
        gcs = []
        state_pairs = None
        hash_calls = 0
        n_tables = 0
        for r, bits in enumerate(round_inputs):
            if len(bits) != len(net.garbler_inputs):
                raise GCProtocolError(
                    f"round {r}: expected {len(net.garbler_inputs)} garbler bits"
                )
            preset = None
            if state_pairs is not None:
                preset = dict(zip(net.state_inputs, state_pairs))
            gc = self.garbler.garble(
                preset_pairs=preset, tweak_offset=r * len(net.gates)
            )
            hash_calls += gc.hash_calls
            n_tables += len(gc.tables)
            state_pairs = [gc.output_pairs[i] for i in self.circuit.state_feedback]
            gcs.append(gc)
        last_gc = gcs[-1]

        if ot_mode == "upfront" and net.evaluator_inputs:
            all_pairs = [
                (gc.wire_pairs[w].zero, gc.wire_pairs[w].one)
                for gc in gcs
                for w in net.evaluator_inputs
            ]
            sender = (
                OTExtensionSender(chan, self.group)
                if len(all_pairs) > K_SECURITY
                else BaseOTSender(chan, self.group)
            )
            sender.send(all_pairs)

        for r, (gc, bits) in enumerate(zip(gcs, round_inputs)):
            chan.send("seq.tables", serialize_tables(gc.tables))
            chan.send_u128_list(
                "seq.garbler_labels",
                gc.input_labels_for(net.garbler_inputs, bits),
            )
            const_wires = sorted(net.constants)
            chan.send_u128_list(
                "seq.const_labels",
                gc.input_labels_for(const_wires, [net.constants[w] for w in const_wires]),
            )
            if r == 0:
                # Initial state is garbler-known: send the active labels.
                chan.send_u128_list(
                    "seq.state_labels",
                    gc.input_labels_for(net.state_inputs, self.circuit.initial_state),
                )
            if ot_mode == "per_round" and net.evaluator_inputs:
                use_ext = len(net.evaluator_inputs) > K_SECURITY
                sender = (
                    OTExtensionSender(chan, self.group)
                    if use_ext
                    else BaseOTSender(chan, self.group)
                )
                sender.send(
                    [
                        (gc.wire_pairs[w].zero, gc.wire_pairs[w].one)
                        for w in net.evaluator_inputs
                    ]
                )
            if on_round is not None:
                on_round(r + 1)

        output_bits = None
        if reveal in ("evaluator", "both"):
            chan.send("seq.output_map", bytes(last_gc.output_permute_bits))
        if reveal in ("garbler", "both"):
            labels = chan.recv_u128_list("seq.output_labels")
            output_bits = last_gc.decode(labels)

        return SequentialReport(
            rounds=rounds,
            output_bits=output_bits,
            bytes_sent=chan.sent.payload_bytes,
            n_tables=n_tables,
            hash_calls=hash_calls,
        )


class SequentialEvaluator:
    """Evaluates round after round, carrying state labels forward.

    Each round runs on the circuit's stage plan
    (:class:`~repro.gc.vector_garble.VectorEvaluator`): one batched
    AES call per AND stage, tables read straight from the received
    ``seq.tables`` payload.  A caller that evaluates the same circuit
    many times passes its resolved ``plan`` so no query re-hashes the
    netlist to find it.
    """

    def __init__(
        self,
        circuit: SequentialCircuit,
        channel: Endpoint,
        group: DHGroup = DEFAULT_GROUP,
        plan: StagePlan | None = None,
    ):
        self.circuit = circuit
        self.channel = channel
        self.group = group
        self.evaluator = VectorEvaluator(circuit.netlist, plan=plan)

    def run(
        self,
        round_inputs: list[list[int]],
        reveal: str = "evaluator",
        start_round: int = 0,
        state_labels: list[int] | None = None,
        progress=None,
    ) -> SequentialReport:
        """Evaluate rounds ``start_round..rounds-1``.

        ``round_inputs`` is always the *full* per-round input list; on
        a resume (``start_round > 0``) the completed rounds' inputs are
        skipped, the carried accumulator labels come from
        ``state_labels``, and the garbler re-streams only the remaining
        rounds (:func:`repro.recover.checkpoint.serve_from_checkpoint`).
        ``progress`` (a :class:`~repro.recover.checkpoint.EvaluatorProgress`)
        is updated at every round boundary so the caller can resume
        after a mid-stream disconnect.
        """
        net = self.circuit.netlist
        chan = self.channel
        if not 0 <= start_round <= len(round_inputs):
            raise GCProtocolError(
                f"start_round {start_round} outside 0..{len(round_inputs)}"
            )
        tail_resume = start_round == len(round_inputs)
        if tail_resume and (
            progress is None or not getattr(progress, "output_labels", None)
        ):
            # Every round was evaluated but the output map never arrived:
            # re-entering past the last round needs the output labels the
            # final evaluation produced.
            raise GCProtocolError(
                "resuming past the last round needs the carried output labels"
            )
        if 0 < start_round < len(round_inputs) and not state_labels:
            raise GCProtocolError(
                "resuming past round 0 needs the carried state labels"
            )
        rounds = int.from_bytes(chan.recv("seq.rounds"), "big")
        if rounds != len(round_inputs):
            raise GCProtocolError(
                f"garbler runs {rounds} rounds but evaluator supplied {len(round_inputs)}"
            )
        ot_mode = chan.recv("seq.ot_mode").decode()
        if ot_mode not in OT_MODES:
            raise GCProtocolError(f"garbler announced unknown ot_mode '{ot_mode}'")

        n_in = len(net.evaluator_inputs)
        for r, bits in enumerate(round_inputs):
            if len(bits) != n_in:
                raise GCProtocolError(
                    f"round {r}: expected {n_in} evaluator bits"
                )

        upfront_labels: list[int] = []
        peak_label_bytes = 16 * n_in
        if ot_mode == "upfront" and n_in and start_round < rounds:
            # Only the *remaining* rounds' labels: on a resume the
            # garbler (any gateway holding the checkpoint) re-runs one
            # OT over rounds start_round..M-1, concatenated in order.
            choices = [b for bits in round_inputs[start_round:] for b in bits]
            receiver = (
                OTExtensionReceiver(chan, self.group)
                if len(choices) > K_SECURITY
                else BaseOTReceiver(chan, self.group)
            )
            upfront_labels = receiver.receive(choices)
            peak_label_bytes = 16 * len(choices)

        state_labels = list(state_labels) if state_labels else []
        hash_calls = 0
        result = None
        for r in range(start_round, rounds):
            bits = round_inputs[r]
            offset = r * len(net.gates)
            tables = self.evaluator.decode_tables(chan.recv("seq.tables"))
            garbler_labels = chan.recv_u128_list("seq.garbler_labels")
            const_labels = chan.recv_u128_list("seq.const_labels")
            if r == 0:
                state_labels = chan.recv_u128_list("seq.state_labels")
            my_labels: list[int] = []
            if n_in:
                if ot_mode == "upfront":
                    base = (r - start_round) * n_in
                    my_labels = upfront_labels[base : base + n_in]
                else:
                    use_ext = n_in > K_SECURITY
                    receiver = (
                        OTExtensionReceiver(chan, self.group)
                        if use_ext
                        else BaseOTReceiver(chan, self.group)
                    )
                    my_labels = receiver.receive(list(bits))

            labels: dict[int, int] = {}
            for wire, label in zip(net.garbler_inputs, garbler_labels):
                labels[wire] = label
            for wire, label in zip(sorted(net.constants), const_labels):
                labels[wire] = label
            for wire, label in zip(net.state_inputs, state_labels):
                labels[wire] = label
            for wire, label in zip(net.evaluator_inputs, my_labels):
                labels[wire] = label

            result = self.evaluator.evaluate(labels, tables, tweak_offset=offset)
            hash_calls += result.hash_calls
            state_labels = result.labels_for_state(self.circuit.state_feedback)
            if progress is not None:
                # record the boundary *after* the carry labels exist, so
                # a disconnect mid-round resumes at this round, not past it
                progress.completed_rounds = r + 1
                progress.state_labels = list(state_labels)
                progress.hash_calls += result.hash_calls
                progress.output_labels = list(result.output_labels)

        out_labels = (
            list(result.output_labels)
            if result is not None
            else list(progress.output_labels)
        )
        output_bits = None
        if reveal in ("evaluator", "both"):
            output_map = list(chan.recv("seq.output_map"))
            output_bits = [
                color(label) ^ p for label, p in zip(out_labels, output_map)
            ]
        if reveal in ("garbler", "both"):
            chan.send_u128_list("seq.output_labels", out_labels)

        return SequentialReport(
            rounds=rounds,
            output_bits=output_bits,
            bytes_sent=chan.sent.payload_bytes,
            n_tables=0,
            hash_calls=hash_calls,
            peak_input_label_bytes=peak_label_bytes,
        )


def run_sequential(
    circuit: SequentialCircuit,
    garbler_rounds: list[list[int]],
    evaluator_rounds: list[list[int]],
    reveal: str = "evaluator",
    group: DHGroup = DEFAULT_GROUP,
    ot_mode: str = "per_round",
) -> tuple[SequentialReport, SequentialReport]:
    """Run the multi-round protocol on a local channel; both reports."""
    g_chan, e_chan = local_channel()
    garbler = SequentialGarbler(circuit, g_chan, group)
    evaluator = SequentialEvaluator(circuit, e_chan, group)
    return run_two_party(
        lambda: garbler.run(garbler_rounds, reveal, ot_mode=ot_mode),
        lambda: evaluator.run(evaluator_rounds, reveal),
    )
