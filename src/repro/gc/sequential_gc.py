"""Sequential GC: garble one round netlist for M rounds [TinyGarble].

The state wires' label pairs of round ``r`` are the output pairs the
round-``r-1`` garbling produced at the feedback positions, so no OT or
re-transfer is needed for state — the evaluator simply keeps the labels
it computed.  Fresh input labels (and tweaks) are used every round,
which is the security requirement the paper emphasises ("new labels are
required for every garbling operation").

This module is the wire dialogue of a sequential run, one
implementation per side: :class:`SequentialStreamer` sends a garbled
run and :class:`SequentialEvaluator` receives and evaluates it.
Whatever garbled the run — the run plan that serves traffic
(:func:`~repro.gc.vector_garble.garble_mac_runs`) or the paper's FSM
model (:meth:`repro.accel.maxelerator.MAXelerator.garble`) — the
evaluator sees the same frames; :class:`SequentialGarbler` is the
garbler-side entry point for a whole run.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

from repro.circuits.sequential import SequentialCircuit
from repro.crypto.labels import LabelFactory, color
from repro.crypto.ot import (
    DEFAULT_GROUP,
    DHGroup,
    OTExtensionReceiver,
    OTExtensionSender,
)
from repro.crypto.prf import GarblingHash
from repro.errors import GCProtocolError
from repro.gc.channel import Endpoint, local_channel, run_two_party
from repro.gc.stage_plan import StagePlan, stage_plan_for
from repro.gc.vector_garble import decode_tables, evaluate_run, garble_mac_runs
from repro.he.mac import HE_RESULT_TAG
from repro.telemetry import MetricsRegistry


@dataclass
class SequentialReport:
    """Summary of a multi-round sequential GC execution."""

    rounds: int
    output_bits: list[int] | None
    bytes_sent: int
    n_tables: int
    hash_calls: int


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

    def frames(self, backend: str = "gc") -> list[tuple[str, bytes | None]]:
        """The frames that stream this round, in order — the one
        definition of the round's schedule.  The OT answer is the entry
        ``("ot.e", None)``: the connection's OT sender sends it, after
        the frames that open the query on the stream's first transfer
        (:attr:`~repro.crypto.ot.OTExtensionSender.open_frames`)."""
        if backend == "he":
            return [(HE_RESULT_TAG, self.tables)]
        frames = [
            ("seq.tables", self.tables),
            ("seq.garbler_labels", _u128_payload(self.garbler_labels)),
        ]
        if self.evaluator_pairs:
            frames.append(("ot.e", None))
        frames.append(("seq.const_labels", _u128_payload(self.const_labels)))
        if self.state_labels is not None:
            frames.append(("seq.state_labels", _u128_payload(self.state_labels)))
        return frames


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
    initial_state = run.circuit.initial_state
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


def _u128_payload(values: list[int]) -> bytes:
    return b"".join(v.to_bytes(16, "big") for v in values)


class SequentialStreamer:
    """The garbler half of the sequential-GC dialogue — its one implementation.

    Whoever garbled, the evaluator (:class:`SequentialEvaluator`) sees
    these frames: fresh queries (:meth:`repro.host.CloudServer.serve_row`,
    and ``serve_row_he`` for the one-round HE dialogue), resumed
    sessions (:class:`repro.recover.checkpoint.CheckpointStreamer`) and
    whole runs (:class:`SequentialGarbler`) all stream through it.

    ``begin()`` sends the preamble, ``seq.rounds``.  ``stream_round()``
    sends one round — ``seq.tables``, ``seq.garbler_labels``, the
    round's OT answer, then ``seq.const_labels`` and
    ``seq.state_labels`` on round 0 — and returns True while rounds
    remain.
    OT runs on ``ot``, the connection's
    :class:`~repro.crypto.ot.OTExtensionSender` (a fresh pool when
    None): the stream's first transfer announces the pool and takes
    the client's corrections for every remaining round in one flight,
    so later rounds' answers need no client message.
    ``finish()`` sends ``seq.output_map``, unless ``output_permute_bits``
    is None (only the garbler learns the result).  An ``he`` stream has
    no preamble and no output map; its one round is ``he.result``.

    ``materials`` are the rounds from ``start_round`` on: a resumed
    stream starts past round 0, and a tail resume streams no round at
    all.  The frame schedule is static, so where each round ends is
    known before the first frame (:meth:`boundaries`).  Once a
    round is on the wire ``on_round(next_round)`` fires and may raise
    to stop the stream at that boundary.
    """

    def __init__(
        self,
        channel: Endpoint,
        materials: list[RoundMaterial],
        output_permute_bits: list[int] | None = None,
        group: DHGroup = DEFAULT_GROUP,
        start_round: int = 0,
        backend: str = "gc",
        on_round=None,
        telemetry: MetricsRegistry | None = None,
        ot: OTExtensionSender | None = None,
    ):
        self.channel = channel
        self.materials = list(materials)
        self.output_permute_bits = output_permute_bits
        self.group = group
        self.start_round = start_round
        self.rounds = start_round + len(self.materials)
        self.backend = backend
        self.on_round = on_round
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.ot = ot if ot is not None else OTExtensionSender(group)
        self.streamed = 0
        self._begun = False
        self._ot_open = False

    def run(self) -> int:
        """Stream the whole dialogue; returns the number of rounds streamed."""
        self.begin()
        while self.stream_round():
            pass
        return self.finish()

    def begin(self) -> None:
        """Send the preamble."""
        self._begun = True
        if self.backend == "he":
            # the HE client is parked in recv("he.result") and expects it first
            return
        self.channel.send("seq.rounds", self.rounds.to_bytes(4, "big"))

    def stream_round(self) -> bool:
        """Stream one round; returns True while more rounds remain."""
        if not self._begun:
            raise GCProtocolError("stream_round() before begin()")
        if self.streamed >= len(self.materials):
            return False
        chan = self.channel
        tm = self.telemetry
        m = self.materials[self.streamed]
        with tm.timer("stream.round"):
            for tag, payload in m.frames(self.backend):
                if payload is None:  # the round's OT answer
                    later = self.materials[self.streamed + 1 :]
                    self._transfer(
                        m.evaluator_pairs,
                        sum(len(l.evaluator_pairs) for l in later),
                    )
                else:
                    chan.send(tag, payload)
        tm.counter("stream.bytes").inc(len(m.tables))
        self.streamed += 1
        if self.on_round is not None:
            self.on_round(self.start_round + self.streamed)
        return self.streamed < len(self.materials)

    @staticmethod
    def boundaries(
        start_seq: int,
        materials: list[RoundMaterial],
        ot_open_frames: int,
        start_round: int = 0,
        backend: str = "gc",
    ) -> list[list[int]]:
        """The round boundaries of a stream, before it sends a frame.

        Counts ``seq.rounds`` and each round's
        :meth:`RoundMaterial.frames` — what :meth:`begin` and
        :meth:`stream_round` send — plus ``ot_open_frames`` before the
        stream's first OT answer (the connection's
        :attr:`~repro.crypto.ot.OTExtensionSender.open_frames`).  Entry
        ``[r, s]`` says that once the client has verified ``s`` frames
        of the channel (which stood at ``start_seq`` when the stream
        began) it holds every round below ``r``; the first entry,
        ``[start_round, 0]``, is the floor.
        """
        bounds = [[start_round, 0]]
        seq = start_seq if backend == "he" else start_seq + 1  # seq.rounds
        opened = False
        for r, m in enumerate(materials, start_round + 1):
            frames = m.frames(backend)
            seq += len(frames)
            if not opened and any(payload is None for _, payload in frames):
                seq += ot_open_frames
                opened = True
            bounds.append([r, seq])
        return bounds

    def finish(self) -> int:
        """Send the output map; returns the number of rounds streamed."""
        if self.backend != "he" and self.output_permute_bits is not None:
            self.channel.send("seq.output_map", bytes(self.output_permute_bits))
        return self.streamed

    def _transfer(self, pairs: list[tuple[int, int]], upcoming: int) -> None:
        """Answer ``pairs``; the stream's first transfer opens the OT
        for these and the ``upcoming`` transfers after them."""
        if not pairs:
            return
        opens = not self._ot_open
        self._ot_open = True
        with self.telemetry.timer("ot.send"):
            self.ot.send(self.channel, pairs, upcoming if opens else None)
        self.telemetry.counter("ot.transfers").inc(len(pairs))


class SequentialGarbler:
    """The garbler side of one sequential-GC run: garble, stream, reveal.

    :meth:`run` streams a garbled run through the one dialogue
    (:func:`materials_for_run` + :class:`SequentialStreamer`): the
    caller's ``garbled`` run — a run-plan
    :class:`~repro.gc.vector_garble.VectorRun` or the paper model's
    :class:`~repro.accel.fsm.AcceleratorRun` from
    :meth:`repro.accel.maxelerator.MAXelerator.garble` — or, when none
    is given, one garbled here by
    :func:`~repro.gc.vector_garble.garble_mac_runs` from ``factory``.
    """

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

    def run(
        self,
        round_inputs: list[list[int]],
        reveal: str = "evaluator",
        garbled=None,
    ) -> SequentialReport:
        rounds = len(round_inputs)
        if rounds == 0:
            raise GCProtocolError("sequential GC needs at least one round")
        if garbled is None:
            [garbled] = garble_mac_runs(self.circuit, rounds, [self.factory])
        elif garbled.n_rounds != rounds:
            raise GCProtocolError(
                f"the garbled run has {garbled.n_rounds} rounds, not {rounds}"
            )
        reveal_map = (
            garbled.output_permute_bits if reveal in ("evaluator", "both") else None
        )
        SequentialStreamer(
            self.channel,
            materials_for_run(garbled, round_inputs),
            reveal_map,
            self.group,
        ).run()
        output_bits = None
        if reveal in ("garbler", "both"):
            labels = self.channel.recv_u128_list("seq.output_labels")
            output_bits = [
                pair.decode(label)
                for pair, label in zip(garbled.rounds[-1].output_pairs, labels)
            ]
        return SequentialReport(
            rounds=rounds,
            output_bits=output_bits,
            bytes_sent=self.channel.sent.payload_bytes,
            n_tables=garbled.total_tables,
            hash_calls=garbled.hash_calls,
        )


class SequentialEvaluator:
    """Receives round after round, then evaluates them in one pass.

    Each round's frames are read as they arrive; the first round's OT
    sends the corrections for every remaining round in one flight
    (through ``ot``, the connection's
    :class:`~repro.crypto.ot.OTExtensionReceiver`, or a fresh pool),
    so the garbler never waits on evaluation.  Once every
    round is in, the rounds are evaluated together on the circuit's run
    plan (:func:`~repro.gc.vector_garble.evaluate_run`): one batched
    AES call per AND stage of the whole run, tables read straight from
    the received ``seq.tables`` payloads.  A caller that evaluates the
    same circuit many times passes its resolved round ``plan`` so no
    query re-hashes the netlist to find it.  The gate-at-a-time
    :class:`~repro.gc.evaluate.Evaluator` is the reference it is tested
    against.
    """

    def __init__(
        self,
        circuit: SequentialCircuit,
        channel: Endpoint,
        group: DHGroup = DEFAULT_GROUP,
        plan: StagePlan | None = None,
        ot: OTExtensionReceiver | None = None,
    ):
        self.circuit = circuit
        self.channel = channel
        self.group = group
        self.ot = ot if ot is not None else OTExtensionReceiver(group)
        self.plan = plan if plan is not None else stage_plan_for(circuit.netlist)
        self.hash = GarblingHash()

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

        n_in = len(net.evaluator_inputs)
        for r, bits in enumerate(round_inputs):
            if len(bits) != n_in:
                raise GCProtocolError(
                    f"round {r}: expected {n_in} evaluator bits"
                )

        state = list(state_labels) if state_labels else []
        inputs: list[dict[int, int]] = []
        tables: list = []
        const_wires = sorted(net.constants)
        try:
            for r in range(start_round, rounds):
                round_tables = decode_tables(chan.recv("seq.tables"), self.plan.n_and)
                labels = dict(
                    zip(net.garbler_inputs, chan.recv_u128_list("seq.garbler_labels"))
                )
                my_labels: list[int] = []
                if n_in:
                    later = None
                    if r == start_round:
                        later = [b for bits in round_inputs[r + 1 :] for b in bits]
                    my_labels = self.ot.receive(chan, list(round_inputs[r]), later)
                labels.update(zip(const_wires, chan.recv_u128_list("seq.const_labels")))
                if r == 0:
                    state = chan.recv_u128_list("seq.state_labels")
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
            hash_calls=2 * self.plan.n_and * len(outputs),
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
            hash_fn=self.hash,
            plan=self.plan,
        )
        if progress is not None:
            feedback = self.circuit.state_feedback
            for r, labels in enumerate(outputs, start_round):
                # completed_rounds first: the carried labels belong to it
                progress.completed_rounds = r + 1
                progress.state_labels = [labels[i] for i in feedback]
                progress.hash_calls += 2 * self.plan.n_and
                progress.output_labels = list(labels)
        return outputs


def run_sequential(
    circuit: SequentialCircuit,
    garbler_rounds: list[list[int]],
    evaluator_rounds: list[list[int]],
    reveal: str = "evaluator",
    group: DHGroup = DEFAULT_GROUP,
) -> tuple[SequentialReport, SequentialReport]:
    """Run the multi-round protocol on a local channel; both reports."""
    g_chan, e_chan = local_channel()
    garbler = SequentialGarbler(circuit, g_chan, group)
    evaluator = SequentialEvaluator(circuit, e_chan, group)
    return run_two_party(
        lambda: garbler.run(garbler_rounds, reveal),
        lambda: evaluator.run(evaluator_rounds, reveal),
    )
