"""Per-round resumable session state and the resumed streaming path.

A :class:`SessionCheckpoint` is what the gateway writes at every round
boundary: everything needed to serve the *remaining* rounds of one
``serve_row`` query to a reconnecting client without re-garbling —
the pre-serialized tables, the already-selected garbler/constant
labels, the evaluator label pairs for fresh OT, and the output
permutation map.  Material the client has *confirmed* is pruned as the
session advances; because the server streams ahead of the client's
verified-receive counter, each checkpoint also keeps an unacked tail
(one round in ``per_round`` OT mode, every streamed round in
``upfront`` mode, where nothing throttles the server's lead) plus a
``stream_boundaries`` map from round boundaries to the send-sequence
counter at each — which is how a *different* gateway adopting the
session computes the exact round the client last completed from the
``last_acked_seq`` in its ``net.resume``.

The security argument for storing this is unchanged from the pooled
:class:`~repro.accel.fsm.AcceleratorRun` it is derived from: each run
is used by exactly one session, active labels for garbler inputs are
already destined for this client, and evaluator label *pairs* are
consumed by OT exactly once per round (a resume re-runs OT only for
rounds the client never evaluated).

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
    """One session's resumable state, written at round boundaries.

    ``send_seq``/``recv_seq`` record the server endpoint's channel
    sequence counters at checkpoint time; a frame-level rebind restores
    them so the CRC trailers (which mix the sequence index) keep
    verifying across the reconnect.  A round-level resume instead
    restarts the stream on fresh counters — the counters then only
    document how far the broken stream got.

    ``stream_boundaries`` maps round boundaries reached by the *current*
    stream to the server send-sequence counter at each: the entry
    ``[r, s]`` means "after ``s`` server frames the client can have
    verified at most ``r`` complete rounds".  A gateway restarting the
    session (possibly a different gateway than streamed it) combines
    this with the client's ``last_acked_seq`` to :meth:`rewind_to` the
    exact round the client completed, instead of trusting its own
    (always-ahead) ``next_round``.  :meth:`begin_stream` resets the map
    whenever a stream starts on fresh channel counters.

    ``next_round == rounds`` means every round was *streamed*, not that
    the client confirmed them: the unacked tail (the last round in
    ``per_round`` OT mode, every streamed round in ``upfront`` mode) is
    retained so a post-completion crash can still rewind and re-serve
    what the client provably never received.
    """

    session_id: str
    row_index: int
    rounds: int
    next_round: int
    materials: list[RoundMaterial]
    output_permute_bits: list[int]
    send_seq: int = 0
    recv_seq: int = 0
    client_name: str = ""
    ot_mode: str = "per_round"
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

    def advance(self, next_round: int, send_seq: int = 0, recv_seq: int = 0) -> None:
        """Mark rounds below ``next_round`` streamed and prune confirmed material.

        Pruning keeps an unacked tail: in ``per_round`` OT mode the
        round just streamed (the client's interactive OT reply bounds
        its lag to one round), in ``upfront`` mode everything — the
        server free-runs arbitrarily far ahead of the client there, so
        only :meth:`rewind_to` (which knows what the client acked) may
        discard material.
        """
        if next_round < self.next_round:
            raise ResumeError(
                f"session {self.session_id}: checkpoint cannot move backwards "
                f"(round {self.next_round} -> {next_round})"
            )
        self.next_round = next_round
        self.send_seq = send_seq
        self.recv_seq = recv_seq
        self.stream_boundaries.append([next_round, send_seq])
        if self.ot_mode == "per_round":
            horizon = max(0, next_round - 1)
            self.materials = [m for m in self.materials if m.round_index >= horizon]

    def begin_stream(self, start_round: int) -> None:
        """Reset the boundary map for a stream starting at ``start_round``.

        The base entry ``[start_round, 0]`` is a floor: any acked count
        proves at least the rounds completed before this stream began.
        """
        self.stream_boundaries = [[start_round, 0]]

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
        """Move ``next_round`` *backwards* to a client-confirmed boundary.

        The only sanctioned backwards move: a resume adopting this
        session re-serves the rounds the client never verified.  Every
        round in ``[round_index, rounds)`` must still have material.
        """
        if round_index > self.next_round:
            raise ResumeError(
                f"session {self.session_id}: cannot rewind forward "
                f"(round {self.next_round} -> {round_index})"
            )
        for r in range(round_index, self.rounds):
            self.material_for(r)
        self.next_round = round_index
        self.materials = [m for m in self.materials if m.round_index >= round_index]

    @property
    def complete(self) -> bool:
        return self.next_round >= self.rounds

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
            "send_seq": self.send_seq,
            "recv_seq": self.recv_seq,
            "client_name": self.client_name,
            "ot_mode": self.ot_mode,
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
                send_seq=int(data["send_seq"]),
                recv_seq=int(data["recv_seq"]),
                client_name=str(data["client_name"]),
                ot_mode=str(data["ot_mode"]),
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
    """Snapshot a query's stream before it sends anything.

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
        ot_mode=stream.ot_mode,
        backend=stream.backend,
        tenant=tenant,
    )
    cp.begin_stream(stream.start_round)
    return cp


class CheckpointStreamer(SequentialStreamer):
    """A resumed session's stream: the remaining rounds of a checkpoint.

    Streams through the one garbler-side dialogue from
    ``checkpoint.next_round``, advancing the checkpoint (and its
    ``stream_boundaries``) at every round boundary.  No garbling
    happens: stored material is retransmitted and OT re-runs only for
    rounds the client never evaluated.  The resume batcher drives
    ``begin()`` / ``stream_round()`` / ``finish()`` directly to
    interleave many resumed sessions round-robin through one worker.

    A *tail* resume (``checkpoint.complete`` but the client never acked
    ``seq.output_map``) is legal: the preamble goes out, zero rounds
    follow, and ``finish()`` re-sends the output map.
    """

    def __init__(
        self,
        channel,
        checkpoint: SessionCheckpoint,
        group: DHGroup = TOY_GROUP,
        on_round=None,
        telemetry=None,
    ):
        start = checkpoint.next_round
        super().__init__(
            channel,
            [checkpoint.material_for(r) for r in range(start, checkpoint.rounds)],
            checkpoint.output_permute_bits,
            ot_mode=checkpoint.ot_mode,
            group=group,
            start_round=start,
            backend=checkpoint.backend,
            on_round=on_round,
            telemetry=telemetry,
            checkpoint=checkpoint,
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
        channel, checkpoint, group=group, on_round=on_round, telemetry=telemetry
    ).run()
