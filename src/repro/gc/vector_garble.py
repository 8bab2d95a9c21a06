"""Stage-vectorised half-gates garbling and evaluation.

:class:`repro.gc.garble.Garbler` batches the AND gates of one circuit
level through ``hash_many``; this module goes two axes further.  All
label material lives in one ``(sessions, wires, 2)`` uint64 array, so a
topological stage of ``G`` independent AND gates across ``S`` concurrent
sessions becomes a single ``(S, G, 2, 2, 2)`` hash batch — ONE
invocation of the vectorised fixed-key AES per stage, regardless of how
many sessions share the circuit fingerprint.  That is the software
analogue of the paper's point: keep the AES engines saturated by
exposing all the gate-level parallelism the schedule allows.

The evaluator runs the same :class:`~repro.gc.stage_plan.StagePlan` on
the other side of the wire (:class:`VectorEvaluator`): one ``(wires, 2)``
label array, tables read straight from the received payload, one
``hash_words`` call per AND stage.

Everything here is bit-identical to the sequential garbler: same label
stream per session (a seeded :class:`LabelFactory` draws the identical
sequence), same tweaks, same table bytes.  The sequential path stays
around as the differential-testing oracle (see
``tests/gc/test_vector_bit_identity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.netlist import Netlist
from repro.crypto.labels import LabelFactory, LabelPair
from repro.crypto.prf import GarblingHash
from repro.errors import GCProtocolError
from repro.gc.evaluate import EvaluationResult
from repro.gc.garble import GarbledCircuit
from repro.gc.stage_plan import StagePlan, stage_plan_for
from repro.gc.tables import TABLE_BYTES, GarbledTable

_ONE = np.uint64(1)


def u128_rows(values) -> np.ndarray:
    """Pack 128-bit ints into an ``(n, 2)`` uint64 [hi, lo] array."""
    arr = np.empty((len(values), 2), dtype=np.uint64)
    for i, v in enumerate(values):
        arr[i, 0] = (v >> 64) & 0xFFFFFFFFFFFFFFFF
        arr[i, 1] = v & 0xFFFFFFFFFFFFFFFF
    return arr


def words_to_u128(row) -> int:
    """The 128-bit int encoded by one [hi, lo] uint64 row."""
    return (int(row[0]) << 64) | int(row[1])


@dataclass
class VectorBatch:
    """One vectorised garbling of a netlist for ``S`` sessions.

    ``W[s, w]`` is session ``s``'s zero-label of wire ``w`` as [hi, lo]
    uint64 words (plus the plan's all-zero row); ``tables_be[s]`` is
    that session's garbled tables in netlist non-free order as
    big-endian u64 quadruples — its raw bytes ARE the
    ``serialize_tables`` payload, so the serving path can hand a row of
    this array straight to the frame writer without copies.
    """

    netlist: Netlist
    plan: StagePlan
    W: np.ndarray
    offsets: np.ndarray
    offset_ints: list[int]
    tables_be: np.ndarray
    tweak_offset: int
    preset_keys: list[frozenset]

    @property
    def n_sessions(self) -> int:
        return int(self.W.shape[0])

    @property
    def hash_calls_per_session(self) -> int:
        """Garbling-hash invocations per session (4 per AND, as scalar)."""
        return 4 * self.plan.n_and

    # ------------------------------------------------------------------
    def zero_label(self, s: int, wire: int) -> int:
        return words_to_u128(self.W[s, wire])

    def pair(self, s: int, wire: int) -> LabelPair:
        return LabelPair(self.zero_label(s, wire), self.offset_ints[s])

    def tables_payload(self, s: int) -> memoryview:
        """Session ``s``'s serialised tables as a zero-copy buffer."""
        return memoryview(self.tables_be[s].view(np.uint8).reshape(-1))

    def tables(self, s: int) -> list[GarbledTable]:
        be = self.tables_be[s]
        return [
            GarbledTable(
                g.index + self.tweak_offset,
                (int(be[i, 0]) << 64) | int(be[i, 1]),
                (int(be[i, 2]) << 64) | int(be[i, 3]),
            )
            for i, g in enumerate(self.netlist.nonfree_gates)
        ]

    def to_garbled_circuit(self, s: int) -> GarbledCircuit:
        """Materialise session ``s`` as a sequential-garbler-shaped result."""
        pairs = {w: self.pair(s, w) for w in self.plan.driven_wires}
        for w in self.preset_keys[s]:
            if w not in pairs:
                pairs[w] = self.pair(s, w)
        return GarbledCircuit(
            netlist=self.netlist,
            wire_pairs=pairs,
            tables=self.tables(s),
            offset=self.offset_ints[s],
            hash_calls=self.hash_calls_per_session,
            tweak_offset=self.tweak_offset,
        )


class VectorGarbler:
    """Garbles one netlist for many sessions with one AES call per stage."""

    def __init__(
        self,
        netlist: Netlist,
        hash_fn: GarblingHash | None = None,
        plan: StagePlan | None = None,
    ):
        netlist.validate()
        self.netlist = netlist
        self.plan = plan if plan is not None else stage_plan_for(netlist)
        self.hash = hash_fn or GarblingHash()

    def garble(
        self,
        factories: list[LabelFactory],
        preset_pairs: list[dict[int, LabelPair] | None] | None = None,
        tweak_offset: int = 0,
        telemetry=None,
    ) -> VectorBatch:
        """Vectorised equivalent of ``S`` sequential ``Garbler.garble`` calls.

        ``factories[s]`` supplies session ``s``'s labels; with a seeded
        source the draw order (presets pinned, then input wires and
        constants) consumes the entropy stream exactly like the
        sequential garbler, so outputs are bit-identical per session.
        """
        net = self.netlist
        plan = self.plan
        S = len(factories)
        if S == 0:
            raise GCProtocolError("vector garbling needs at least one session")
        if preset_pairs is not None and len(preset_pairs) != S:
            raise GCProtocolError("preset_pairs must have one entry per session")

        W = np.zeros((S, plan.label_rows, 2), dtype=np.uint64)
        offsets = np.empty((S, 2), dtype=np.uint64)
        offset_ints = [f.offset for f in factories]
        preset_keys: list[frozenset] = []
        input_order = list(net.input_wires) + list(net.constants)
        for s, factory in enumerate(factories):
            offsets[s, 0] = (factory.offset >> 64) & 0xFFFFFFFFFFFFFFFF
            offsets[s, 1] = factory.offset & 0xFFFFFFFFFFFFFFFF
            preset = (preset_pairs[s] if preset_pairs else None) or {}
            for pair in preset.values():
                if pair.offset != factory.offset:
                    raise GCProtocolError(
                        "preset label pair has a foreign free-XOR offset"
                    )
            keys = list(preset)
            if keys:
                W[s, keys] = u128_rows([preset[w].zero for w in keys])
            fresh_wires = [w for w in input_order if w not in preset]
            if fresh_wires:
                W[s, fresh_wires] = u128_rows(factory.fresh_zeros(len(fresh_wires)))
            preset_keys.append(frozenset(keys))

        tweaks = plan.tweak_words(tweak_offset)
        tables_be = np.zeros((S, plan.n_and, 4), dtype=">u8")
        off3 = offsets[:, None, :]
        off4 = offsets[:, None, None, :]
        for stage, tw in zip(plan.stages, tweaks):
            for level in stage.free_levels:
                X = W[:, level.a_idx] ^ W[:, level.b_idx]
                if level.inv_pos.size:
                    X[:, level.inv_pos] ^= off3
                W[:, level.out_idx] = X
            n = stage.n_and
            if not n:
                continue
            # AB[s, g] = the AND-form zero labels (a0, b0) of each gate
            AB = W[:, stage.ab_idx]
            AB ^= off4 & stage.flip_ab
            # hash inputs per gate: (a0, a0^R) against j0, (b0, b0^R) against j1
            K = np.empty((S, n, 2, 2, 2), dtype=np.uint64)
            K[:, :, :, 0] = AB
            K[:, :, :, 1] = AB ^ off4
            H = self.hash.hash_words(K, tw[None, :, :, None, :])
            if telemetry is not None:
                telemetry.counter("gc.aes_batch_calls").inc()
            a0 = AB[:, :, 0]
            # all-ones where the colour bit of a0 / b0 is set
            colour = -(AB[..., 1:] & _ONE)
            p_a, p_b = colour[:, :, 0], colour[:, :, 1]
            h_a0, h_b0 = H[:, :, 0, 0], H[:, :, 1, 0]
            t_g = h_a0 ^ H[:, :, 0, 1] ^ (off3 & p_b)
            t_e = h_b0 ^ H[:, :, 1, 1] ^ a0
            out0 = h_a0 ^ (t_g & p_a) ^ h_b0 ^ ((t_e ^ a0) & p_b)
            out0 ^= off3 & stage.flip_out
            W[:, stage.out_idx] = out0
            tables_be[:, stage.table_pos, 0:2] = t_g
            tables_be[:, stage.table_pos, 2:4] = t_e

        if telemetry is not None:
            telemetry.counter("gc.vector_garbles").inc()
            telemetry.counter("gc.vector_sessions").inc(S)
        return VectorBatch(
            netlist=net,
            plan=plan,
            W=W,
            offsets=offsets,
            offset_ints=offset_ints,
            tables_be=tables_be,
            tweak_offset=tweak_offset,
            preset_keys=preset_keys,
        )


class VectorEvaluator:
    """The evaluator's half of the stage plan: one AES call per AND stage.

    Holds one active label per wire in a ``(wires, 2)`` uint64 array
    laid out exactly like one session of :class:`VectorGarbler`'s
    ``W``, reads the garbled tables straight from the received payload
    (the big-endian table array the garbler serialised) and hashes each
    AND stage's ``2 * n_and`` labels in a single ``hash_words`` call.
    The scalar :class:`~repro.gc.evaluate.Evaluator` is its
    differential-testing oracle.
    """

    def __init__(
        self,
        netlist: Netlist,
        hash_fn: GarblingHash | None = None,
        plan: StagePlan | None = None,
    ):
        netlist.validate()
        self.netlist = netlist
        self.plan = plan if plan is not None else stage_plan_for(netlist)
        self.hash = hash_fn or GarblingHash()
        self._needed = frozenset(netlist.input_wires) | frozenset(netlist.constants)

    def decode_tables(self, payload) -> np.ndarray:
        """The ``seq.tables`` frame body as ``(n_and, 2, 2)`` uint64
        [t_g, t_e] rows in netlist non-free order; a payload of the
        wrong length raises :class:`~repro.errors.GCProtocolError`."""
        expected = TABLE_BYTES * self.plan.n_and
        if len(payload) != expected:
            raise GCProtocolError(
                f"expected {expected} table bytes, got {len(payload)}"
            )
        return np.frombuffer(payload, dtype=">u8").reshape(-1, 2, 2).astype(np.uint64)

    def evaluate(
        self, input_labels: dict[int, int], tables: np.ndarray, tweak_offset: int = 0
    ) -> EvaluationResult:
        """Evaluate once from the active input labels and the decoded
        tables (:meth:`decode_tables`).

        ``input_labels`` must cover every input and constant wire; a
        missing label raises :class:`~repro.errors.GCProtocolError`.
        """
        plan = self.plan
        missing = self._needed - input_labels.keys()
        if missing:
            raise GCProtocolError(f"missing labels for wires {sorted(missing)[:8]}")
        lab = np.zeros((plan.label_rows, 2), dtype=np.uint64)
        lab[list(input_labels)] = u128_rows(list(input_labels.values()))
        for stage, tw in zip(plan.stages, plan.tweak_words(tweak_offset)):
            for level in stage.free_levels:
                lab[level.out_idx] = lab[level.a_idx] ^ lab[level.b_idx]
            if not stage.n_and:
                continue
            L = lab[stage.ab_idx]  # [la, lb] per gate, hashed against [j0, j1]
            H = self.hash.hash_words(L, tw)
            # W_G = H(la) ^ s_a·T_G,  W_E = H(lb) ^ s_b·(T_E ^ la)
            T = tables[stage.table_pos]
            T[:, 1] ^= L[:, 0]
            T &= -(L[:, :, 1:] & _ONE)
            H ^= T
            lab[stage.out_idx] = H[:, 0] ^ H[:, 1]
        return EvaluationResult(
            output_labels=[words_to_u128(lab[w]) for w in self.netlist.outputs],
            output_bits=None,
            hash_calls=2 * plan.n_and,
        )


# ----------------------------------------------------------------------
# sequential-GC MAC runs (the serving path's unit of work)
# ----------------------------------------------------------------------
@dataclass
class VectorRun:
    """One session's view of a vectorised multi-round MAC garbling.

    Duck-types the parts of :class:`repro.accel.fsm.AcceleratorRun` the
    host serving/recovery layers consume: ``rounds`` metadata,
    per-round tables, output permute bits and hash-call accounting.
    """

    circuit: object  # ScheduledMacCircuit
    batches: list[VectorBatch]
    session: int
    offset: int
    _rounds: list | None = field(default=None, repr=False)

    @property
    def n_rounds(self) -> int:
        return len(self.batches)

    @property
    def total_tables(self) -> int:
        return sum(b.plan.n_and for b in self.batches)

    @property
    def hash_calls(self) -> int:
        return sum(b.hash_calls_per_session for b in self.batches)

    @property
    def rounds(self) -> list:
        if self._rounds is None:
            self._rounds = [self._round_labels(r) for r in range(self.n_rounds)]
        return self._rounds

    def _round_labels(self, r: int):
        from repro.accel.fsm import RoundLabels

        net = self.circuit.netlist
        batch = self.batches[r]
        s = self.session
        return RoundLabels(
            garbler_pairs=[batch.pair(s, w) for w in net.garbler_inputs],
            evaluator_pairs=[batch.pair(s, w) for w in net.evaluator_inputs],
            const_pairs={w: batch.pair(s, w) for w in net.constants},
            state_pairs=[batch.pair(s, w) for w in net.state_inputs],
            output_pairs=[batch.pair(s, w) for w in net.outputs],
        )

    @property
    def output_permute_bits(self) -> list[int]:
        return [p.permute_bit for p in self.rounds[-1].output_pairs]

    def tables_for_round(self, r: int) -> list[GarbledTable]:
        return self.batches[r].tables(self.session)

    def tables_payload(self, r: int) -> memoryview:
        """Round ``r``'s serialised tables, zero-copy."""
        return self.batches[r].tables_payload(self.session)


def garble_mac_runs(
    circuit,
    n_rounds: int,
    factories: list[LabelFactory],
    hash_fn: GarblingHash | None = None,
    telemetry=None,
    plan: StagePlan | None = None,
) -> list[VectorRun]:
    """Garble ``len(factories)`` independent M-round MAC runs together.

    Rounds chain through preset state pairs exactly like sequential GC
    (round ``r`` presets the feedback outputs of round ``r - 1`` and
    tweaks by ``r * len(gates)``), so each returned run is bit-identical
    to a seeded :class:`~repro.gc.garble.Garbler` chain over the same
    label stream.  ``plan`` is the holder's already-resolved plan for
    ``circuit.netlist`` (looked up by fingerprint when omitted).
    """
    if n_rounds <= 0:
        raise GCProtocolError("sequential GC needs at least one round")
    net = circuit.netlist
    vg = VectorGarbler(net, hash_fn=hash_fn, plan=plan)
    S = len(factories)
    feedback_wires = [net.outputs[i] for i in circuit.circuit.state_feedback]
    batches: list[VectorBatch] = []
    preset: list[dict[int, LabelPair] | None] | None = None
    for r in range(n_rounds):
        batch = vg.garble(
            factories,
            preset_pairs=preset,
            tweak_offset=r * len(net.gates),
            telemetry=telemetry,
        )
        batches.append(batch)
        preset = [
            {w: batch.pair(s, fw) for w, fw in zip(net.state_inputs, feedback_wires)}
            for s in range(S)
        ]
    return [
        VectorRun(
            circuit=circuit,
            batches=batches,
            session=s,
            offset=factories[s].offset,
        )
        for s in range(S)
    ]
