"""Resumable session state and the resumed streaming path.

A :class:`SessionCheckpoint` is what the gateway writes once per query,
before the first frame: everything needed to serve the rounds of one
``serve_row`` query to a reconnecting client without re-garbling —
the pre-serialized tables, the already-selected garbler/constant
labels, the evaluator label pairs for fresh OT, and the output
permutation map — plus the stream's ``stream_boundaries`` map.  The
frame schedule is static
(:meth:`~repro.gc.sequential_gc.SequentialStreamer.boundaries`), so
the map is complete before the stream starts: it says how many server
frames end each round.  A gateway adopting the session (possibly not
the one that wrote it) turns the ``last_acked_seq`` of the client's
``net.resume`` into the exact round the client holds, and restarts
there; the store never records progress round by round.

The security argument for storing this is unchanged from the pooled
:class:`~repro.accel.fsm.AcceleratorRun` it is derived from: each run
is used by exactly one session, active labels for garbler inputs are
already destined for this client, and a resume re-sends the same
garbling with the same labels, re-running OT only for the rounds the
client does not hold, on fresh random-OT pool indices.  No OT state is
stored: an adopting gateway has no pool for the client, which sets up
a new one in band.

On the client side, :class:`EvaluatorProgress` is the mirror image:
the rounds completed so far and the carried accumulator labels, enough
to re-enter :meth:`~repro.gc.sequential_gc.SequentialEvaluator.run`
at ``start_round=k`` after a reconnect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.ot import DHGroup, TOY_GROUP
from repro.errors import ResumeError
from repro.gc.sequential_gc import RoundMaterial, SequentialStreamer


@dataclass
class SessionCheckpoint:
    """One query's resumable state: its stream's rounds and frame map.

    ``next_round`` is the round the stored stream starts at (0 for a
    fresh query).  ``stream_boundaries`` maps round boundaries of that
    stream to the server send-sequence counter at each: the entry
    ``[r, s]`` means "after ``s`` server frames the client holds every
    round below ``r``".  :meth:`begin_stream` computes the map for a
    stream about to start; a gateway restarting the session combines
    it with the client's ``last_acked_seq`` (:meth:`acked_round`) to
    :meth:`rewind_to` the exact round the client completed.
    """

    session_id: str
    row_index: int
    rounds: int
    next_round: int
    materials: list[RoundMaterial]
    output_permute_bits: list[int]
    client_name: str = ""
    stream_boundaries: list[list[int]] = field(default_factory=list)
    #: Which private-MAC backend produced the material: ``gc`` rounds
    #: carry tables/labels/OT pairs, ``he`` sessions carry the one
    #: result ciphertext in ``materials[0].tables``.  Carried so a
    #: *different* gateway adopting the session replays the right wire
    #: dialogue.
    backend: str = "gc"
    #: Admission account the session's queries are charged to: an
    #: adopting gateway routes the resume through this tenant's credits
    #: so a mass-adoption burst cannot jump the queue.
    tenant: str = ""

    @classmethod
    def idle(cls, session_id: str, client_name: str = "", backend: str = "gc",
             tenant: str = "") -> "SessionCheckpoint":
        """The record a drain stores for a session with no query in
        flight: who the session is, and no stream."""
        return cls(session_id, -1, 0, 0, [], [], client_name,
                   backend=backend, tenant=tenant)

    @property
    def is_idle(self) -> bool:
        """An :meth:`idle` record: no stream to resume."""
        return self.rounds == 0

    def begin_stream(self, start_seq: int, ot_open_frames: int) -> None:
        """Map the stream of rounds ``next_round..rounds-1`` that starts
        when the channel's send counter stands at ``start_seq``, on a
        connection whose OT sender opens a query with
        ``ot_open_frames`` frames."""
        self.stream_boundaries = SequentialStreamer.boundaries(
            start_seq, self.materials, ot_open_frames,
            start_round=self.next_round, backend=self.backend,
        )

    def acked_round(self, peer_acked_seq: int) -> int:
        """Highest round boundary the client's verified-receive counter covers.

        Falls back to ``next_round`` when no stream has begun (no
        boundary map yet).
        """
        if not self.stream_boundaries:
            return self.next_round
        best = self.stream_boundaries[0][0]
        for r, seq in self.stream_boundaries:
            if seq <= peer_acked_seq and r > best:
                best = r
        return min(best, self.rounds)

    def rewind_to(self, round_index: int) -> None:
        """Restart the stored stream at ``round_index``, the round the
        client proved it completed, discarding the rounds before it.

        Every round in ``[round_index, rounds)`` must still have
        material.  The map keeps its boundaries past ``round_index``
        under a floor at it: the count the client proved this round
        with still reads ``round_index``, and so does any smaller one.
        """
        for r in range(round_index, self.rounds):
            self.material_for(r)
        self.next_round = round_index
        self.materials = [m for m in self.materials if m.round_index >= round_index]
        self.stream_boundaries = [[round_index, 0]] + [
            b for b in self.stream_boundaries if b[0] > round_index
        ]

    def material_for(self, round_index: int) -> RoundMaterial:
        for m in self.materials:
            if m.round_index == round_index:
                return m
        raise ResumeError(
            f"session {self.session_id}: no stored material for round "
            f"{round_index} (completed rounds are pruned and never re-served)"
        )

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "row_index": self.row_index,
            "rounds": self.rounds,
            "next_round": self.next_round,
            "materials": [m.to_dict() for m in self.materials],
            "output_permute_bits": self.output_permute_bits,
            "client_name": self.client_name,
            "stream_boundaries": [list(b) for b in self.stream_boundaries],
            "backend": self.backend,
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output; a record
        missing a field (or holding a malformed one) is a typed
        :class:`ResumeError`."""
        try:
            return cls(
                session_id=str(data["session_id"]),
                row_index=int(data["row_index"]),
                rounds=int(data["rounds"]),
                next_round=int(data["next_round"]),
                materials=[RoundMaterial.from_dict(m) for m in data["materials"]],
                output_permute_bits=[int(b) for b in data["output_permute_bits"]],
                client_name=str(data["client_name"]),
                stream_boundaries=[
                    [int(b[0]), int(b[1])] for b in data["stream_boundaries"]
                ],
                backend=str(data["backend"]),
                tenant=str(data["tenant"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ResumeError(
                f"malformed session checkpoint record: {exc!r}"
            ) from exc


@dataclass
class EvaluatorProgress:
    """Client-side resume state: rounds done + carried accumulator labels.

    Passed into :meth:`SequentialEvaluator.run`, which records every
    round boundary once it evaluates the received rounds — also when
    the stream breaks early, so ``completed_rounds`` is the last round
    fully received.  After a ``WireError`` mid-stream the client
    re-enters ``run(start_round=progress.completed_rounds,
    state_labels=progress.state_labels)`` on a resumed channel.
    """

    completed_rounds: int = 0
    state_labels: list[int] = field(default_factory=list)
    hash_calls: int = 0
    #: output labels of the last completed round — needed only for the
    #: tail resume where every round was evaluated but the crash ate
    #: ``seq.output_map``: the re-entered evaluator has no round left
    #: to produce them from.
    output_labels: list[int] = field(default_factory=list)


def checkpoint_from_stream(
    stream: SequentialStreamer,
    session_id: str,
    row_index: int,
    client_name: str = "",
    tenant: str = "",
) -> SessionCheckpoint:
    """Snapshot a query's stream, and map its frames, before it sends
    anything.

    The checkpoint shares the stream's :class:`RoundMaterial` — selected
    once per query, never copied — so resuming re-sends exactly what the
    fresh stream sends.  An ``he`` stream's one round is the result
    ciphertext: the server holds no keys and the client's query needs
    no replay, so an adopting gateway finishes the session by re-sending
    ``he.result`` verbatim.
    """
    cp = SessionCheckpoint(
        session_id=session_id,
        row_index=row_index,
        rounds=stream.rounds,
        next_round=stream.start_round,
        materials=list(stream.materials),
        output_permute_bits=list(stream.output_permute_bits or []),
        client_name=client_name,
        backend=stream.backend,
        tenant=tenant,
    )
    cp.begin_stream(stream.channel.send_seq, stream.ot.open_frames)
    return cp


class CheckpointStreamer(SequentialStreamer):
    """A resumed session's stream: the remaining rounds of a checkpoint.

    Streams through the one garbler-side dialogue from
    ``checkpoint.next_round``.  No garbling happens: stored material is
    retransmitted and OT re-runs only for rounds the client never
    evaluated.  The resume batcher drives
    ``begin()`` / ``stream_round()`` / ``finish()`` directly to
    interleave many resumed sessions round-robin through one worker.

    A *tail* resume (``next_round == rounds``: the client holds every
    round but never acked ``seq.output_map``) is legal: the preamble goes out, zero rounds
    follow, and ``finish()`` re-sends the output map.
    """

    def __init__(
        self,
        channel,
        checkpoint: SessionCheckpoint,
        group: DHGroup = TOY_GROUP,
        on_round=None,
        telemetry=None,
        ot=None,
    ):
        start = checkpoint.next_round
        super().__init__(
            channel,
            [checkpoint.material_for(r) for r in range(start, checkpoint.rounds)],
            checkpoint.output_permute_bits,
            group=group,
            start_round=start,
            backend=checkpoint.backend,
            on_round=on_round,
            telemetry=telemetry,
            ot=ot,
        )

    def finish(self) -> int:
        streamed = super().finish()
        self.telemetry.counter("recover.rounds.streamed").inc(streamed)
        return streamed


def serve_from_checkpoint(
    channel,
    checkpoint: SessionCheckpoint,
    group: DHGroup = TOY_GROUP,
    on_round=None,
    telemetry=None,
    ot=None,
) -> int:
    """Stream the *remaining* rounds of a checkpointed session.

    Serial convenience wrapper over :class:`CheckpointStreamer`; the
    batched admission path drives the streamer directly.  Refuses a
    complete checkpoint — callers that can prove the client never acked
    the output map (the gateway restart path) use the streamer, which
    allows the zero-round tail resume.
    """
    if checkpoint.next_round >= checkpoint.rounds:
        raise ResumeError(
            f"session {checkpoint.session_id}: nothing to resume — all "
            f"{checkpoint.rounds} rounds already streamed"
        )
    return CheckpointStreamer(
        channel, checkpoint, group=group, on_round=on_round,
        telemetry=telemetry, ot=ot,
    ).run()
