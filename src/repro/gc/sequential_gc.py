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

import base64
from dataclasses import dataclass

from repro.circuits.sequential import SequentialCircuit
from repro.crypto.labels import LabelFactory, color
from repro.crypto.ot import DEFAULT_GROUP, DHGroup, ot_receiver, ot_sender
from repro.errors import GCProtocolError
from repro.gc.channel import Endpoint, local_channel, run_two_party
from repro.gc.garble import Garbler
from repro.gc.stage_plan import StagePlan
from repro.gc.tables import serialize_tables
from repro.gc.vector_garble import VectorEvaluator, evaluate_run
from repro.he.mac import HE_RESULT_TAG
from repro.telemetry import MetricsRegistry


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


@dataclass
class RoundMaterial:
    """Everything the garbler transmits for one round of one query.

    Selected once per query (:func:`materials_for_run`): the garbled
    tables as their ``seq.tables`` payload, the active garbler and
    constant labels, and the evaluator's label pairs for OT.  A session
    checkpoint stores the same objects, so a resumed stream sends what
    the fresh one would have.  An HE session's single round carries the
    result ciphertext in ``tables`` and nothing else.
    """

    round_index: int
    tables: bytes
    #: active labels for the garbler's (model) input bits
    garbler_labels: list[int]
    #: active labels for the netlist's constant wires
    const_labels: list[int]
    #: (zero, one) pairs for the evaluator's input wires — OT material
    evaluator_pairs: list[tuple[int, int]]
    #: active initial-state labels; only round 0 carries them
    state_labels: list[int] | None = None

    def to_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "tables": base64.b64encode(self.tables).decode("ascii"),
            "garbler_labels": self.garbler_labels,
            "const_labels": self.const_labels,
            "evaluator_pairs": [list(p) for p in self.evaluator_pairs],
            "state_labels": self.state_labels,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoundMaterial":
        state = data["state_labels"]
        return cls(
            round_index=int(data["round_index"]),
            tables=base64.b64decode(data["tables"].encode("ascii")),
            garbler_labels=[int(v) for v in data["garbler_labels"]],
            const_labels=[int(v) for v in data["const_labels"]],
            evaluator_pairs=[
                (int(p[0]), int(p[1])) for p in data["evaluator_pairs"]
            ],
            state_labels=None if state is None else [int(v) for v in state],
        )


def materials_for_run(run, round_bits: list[list[int]]) -> list[RoundMaterial]:
    """Select one query's material from a garbled MAC run.

    ``run`` is an :class:`~repro.accel.fsm.AcceleratorRun` or a
    :class:`~repro.gc.vector_garble.VectorRun`; ``round_bits`` holds the
    garbler's input bits for each round.  Tables are copied out of the
    run — a vectorised run's payload is a view into a batch shared with
    other sessions — so the material can outlive it in a checkpoint.
    """
    net = run.circuit.netlist
    const_wires = sorted(net.constants)
    initial_state = run.circuit.circuit.initial_state
    materials = []
    for r, bits in enumerate(round_bits):
        meta = run.rounds[r]
        if len(bits) != len(meta.garbler_pairs):
            raise GCProtocolError(
                f"round {r}: expected {len(meta.garbler_pairs)} garbler bits"
            )
        materials.append(RoundMaterial(
            round_index=r,
            tables=bytes(run.tables_payload(r)),
            garbler_labels=[p.select(b) for p, b in zip(meta.garbler_pairs, bits)],
            const_labels=[
                meta.const_pairs[w].select(net.constants[w]) for w in const_wires
            ],
            evaluator_pairs=[(p.zero, p.one) for p in meta.evaluator_pairs],
            state_labels=(
                [p.select(b) for p, b in zip(meta.state_pairs, initial_state)]
                if r == 0
                else None
            ),
        ))
    return materials


class SequentialStreamer:
    """The garbler half of the sequential-GC dialogue — its one implementation.

    Whoever garbled, the evaluator (:class:`SequentialEvaluator`) sees
    these frames: fresh queries (:meth:`repro.host.CloudServer.serve_row`,
    and ``serve_row_he`` for the one-round HE dialogue), resumed
    sessions (:class:`repro.recover.checkpoint.CheckpointStreamer`) and
    the reference garblers (:class:`SequentialGarbler`,
    :class:`repro.accel.maxelerator.MaxSequentialGarbler`) all stream
    through it.

    ``begin()`` sends the preamble (``seq.rounds``, ``seq.ot_mode``)
    and, in ``upfront`` mode, one OT over every remaining round's
    evaluator pairs in round order.  ``stream_round()`` sends one round
    — ``seq.tables``, ``seq.garbler_labels``, ``seq.const_labels``,
    ``seq.state_labels`` on round 0, then the round's OT in
    ``per_round`` mode — and returns True while rounds remain.
    ``finish()`` sends ``seq.output_map``, unless ``output_permute_bits``
    is None (only the garbler learns the result).  An ``he`` stream has
    no preamble and no output map; its one round is ``he.result``.

    ``materials`` are the rounds from ``start_round`` on: a resumed
    stream starts past round 0, and a tail resume streams no round at
    all.  After each round is on the wire, ``checkpoint`` (when set) is
    advanced to the channel's counters and then ``on_round(next_round)``
    fires; either may raise to stop the stream at that boundary.
    """

    def __init__(
        self,
        channel: Endpoint,
        materials: list[RoundMaterial],
        output_permute_bits: list[int] | None = None,
        ot_mode: str = "per_round",
        group: DHGroup = DEFAULT_GROUP,
        start_round: int = 0,
        backend: str = "gc",
        on_round=None,
        telemetry: MetricsRegistry | None = None,
        checkpoint=None,
    ):
        self.channel = channel
        self.materials = list(materials)
        self.output_permute_bits = output_permute_bits
        self.ot_mode = ot_mode
        self.group = group
        self.start_round = start_round
        self.rounds = start_round + len(self.materials)
        self.backend = backend
        self.on_round = on_round
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        #: the session checkpoint this stream advances at every round
        #: boundary (anything with ``begin_stream`` / ``advance``)
        self.checkpoint = checkpoint
        self.streamed = 0
        self._begun = False

    def run(self) -> int:
        """Stream the whole dialogue; returns the number of rounds streamed."""
        self.begin()
        while self.stream_round():
            pass
        return self.finish()

    def begin(self) -> None:
        """Send the preamble (and the remaining upfront OT)."""
        self._begun = True
        if self.checkpoint is not None:
            self.checkpoint.begin_stream(self.start_round)
        if self.backend == "he":
            # the HE client is parked in recv("he.result") and expects it first
            return
        self.channel.send("seq.rounds", self.rounds.to_bytes(4, "big"))
        self.channel.send("seq.ot_mode", self.ot_mode.encode("ascii"))
        if self.ot_mode == "upfront":
            # the evaluator slices its labels relative to start_round,
            # so the transfer concatenates the remaining rounds in order
            self._transfer([p for m in self.materials for p in m.evaluator_pairs])

    def stream_round(self) -> bool:
        """Stream one round; returns True while more rounds remain."""
        if not self._begun:
            raise GCProtocolError("stream_round() before begin()")
        if self.streamed >= len(self.materials):
            return False
        chan = self.channel
        tm = self.telemetry
        m = self.materials[self.streamed]
        if self.backend == "he":
            chan.send(HE_RESULT_TAG, m.tables)
        else:
            with tm.timer("stream.round"):
                chan.send("seq.tables", m.tables)
                chan.send_u128_list("seq.garbler_labels", m.garbler_labels)
                chan.send_u128_list("seq.const_labels", m.const_labels)
                if m.state_labels is not None:
                    chan.send_u128_list("seq.state_labels", m.state_labels)
            if self.ot_mode == "per_round":
                self._transfer(m.evaluator_pairs)
        tm.counter("stream.bytes").inc(len(m.tables))
        self.streamed += 1
        next_round = self.start_round + self.streamed
        if self.checkpoint is not None:
            self.checkpoint.advance(next_round, chan.send_seq, chan.recv_seq)
        if self.on_round is not None:
            self.on_round(next_round)
        return self.streamed < len(self.materials)

    def finish(self) -> int:
        """Send the output map; returns the number of rounds streamed."""
        if self.backend != "he" and self.output_permute_bits is not None:
            self.channel.send("seq.output_map", bytes(self.output_permute_bits))
        return self.streamed

    def _transfer(self, pairs: list[tuple[int, int]]) -> None:
        if not pairs:
            return
        with self.telemetry.timer("ot.send"):
            ot_sender(self.channel, len(pairs), self.group).send(pairs)
        self.telemetry.counter("ot.transfers").inc(len(pairs))


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
    ) -> SequentialReport:
        net = self.circuit.netlist
        rounds = len(round_inputs)
        if rounds == 0:
            raise GCProtocolError("sequential GC needs at least one round")
        if ot_mode not in OT_MODES:
            raise GCProtocolError(f"ot_mode must be one of {OT_MODES}")

        # Garble every round up front: state pairs chain eagerly, and
        # the upfront OT mode needs all evaluator-input pairs first.
        const_wires = sorted(net.constants)
        const_bits = [net.constants[w] for w in const_wires]
        materials = []
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
            materials.append(RoundMaterial(
                round_index=r,
                tables=serialize_tables(gc.tables),
                garbler_labels=gc.input_labels_for(net.garbler_inputs, bits),
                const_labels=gc.input_labels_for(const_wires, const_bits),
                evaluator_pairs=gc.evaluator_input_pairs(),
                # the initial state is garbler-known: send its active labels
                state_labels=(
                    gc.input_labels_for(net.state_inputs, self.circuit.initial_state)
                    if r == 0
                    else None
                ),
            ))

        reveal_map = gc.output_permute_bits if reveal in ("evaluator", "both") else None
        SequentialStreamer(
            self.channel, materials, reveal_map, ot_mode, self.group
        ).run()
        output_bits = None
        if reveal in ("garbler", "both"):
            output_bits = gc.decode(self.channel.recv_u128_list("seq.output_labels"))

        return SequentialReport(
            rounds=rounds,
            output_bits=output_bits,
            bytes_sent=self.channel.sent.payload_bytes,
            n_tables=n_tables,
            hash_calls=hash_calls,
        )


class SequentialEvaluator:
    """Receives round after round, then evaluates them in one pass.

    Each round's frames are read as they arrive and its OT is answered
    at once, so the garbler never waits on evaluation.  Once every
    round is in, the rounds are evaluated together on the circuit's run
    plan (:func:`~repro.gc.vector_garble.evaluate_run`): one batched
    AES call per AND stage of the whole run, tables read straight from
    the received ``seq.tables`` payloads.  A caller that evaluates the
    same circuit many times passes its resolved round ``plan`` so no
    query re-hashes the netlist to find it.
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
        rounds (:class:`SequentialStreamer` from ``start_round``).
        ``progress`` (a :class:`~repro.recover.checkpoint.EvaluatorProgress`)
        is updated at every round boundary so the caller can resume
        after a mid-stream disconnect: when receiving stops early (a
        drain notice, a wire break), the rounds fully received so far
        are evaluated and recorded before the error propagates.
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
            upfront_labels = ot_receiver(chan, len(choices), self.group).receive(choices)
            peak_label_bytes = 16 * len(choices)

        state = list(state_labels) if state_labels else []
        inputs: list[dict[int, int]] = []
        tables: list = []
        const_wires = sorted(net.constants)
        try:
            for r in range(start_round, rounds):
                round_tables = self.evaluator.decode_tables(chan.recv("seq.tables"))
                labels = dict(
                    zip(net.garbler_inputs, chan.recv_u128_list("seq.garbler_labels"))
                )
                labels.update(zip(const_wires, chan.recv_u128_list("seq.const_labels")))
                if r == 0:
                    state = chan.recv_u128_list("seq.state_labels")
                if n_in:
                    if ot_mode == "upfront":
                        base = (r - start_round) * n_in
                        my_labels = upfront_labels[base : base + n_in]
                    else:
                        my_labels = ot_receiver(chan, n_in, self.group).receive(
                            list(round_inputs[r])
                        )
                    labels.update(zip(net.evaluator_inputs, my_labels))
                inputs.append(labels)
                tables.append(round_tables)
        except BaseException:
            # keep the progress at the last fully received round
            self._evaluate(start_round, state, inputs, tables, progress)
            raise
        outputs = self._evaluate(start_round, state, inputs, tables, progress)

        out_labels = outputs[-1] if outputs else list(progress.output_labels)
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
            hash_calls=2 * self.evaluator.plan.n_and * len(outputs),
            peak_input_label_bytes=peak_label_bytes,
        )

    def _evaluate(self, start_round, state, inputs, tables, progress) -> list:
        """Evaluate the received rounds in one run-plan pass, record each
        round boundary in ``progress`` and return every round's output
        labels."""
        if not inputs:
            return []
        outputs = evaluate_run(
            self.circuit,
            start_round,
            state,
            inputs,
            tables,
            hash_fn=self.evaluator.hash,
            plan=self.evaluator.plan,
        )
        if progress is not None:
            feedback = self.circuit.state_feedback
            for r, labels in enumerate(outputs, start_round):
                # completed_rounds first: the carried labels belong to it
                progress.completed_rounds = r + 1
                progress.state_labels = [labels[i] for i in feedback]
                progress.hash_calls += 2 * self.evaluator.plan.n_and
                progress.output_labels = list(labels)
        return outputs


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
