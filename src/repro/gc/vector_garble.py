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

A sequential MAC run is garbled (:func:`garble_mac_runs`) and evaluated
(:func:`evaluate_run`) on its :class:`~repro.gc.stage_plan.RunPlan`:
all M rounds of all S sessions in one pass, one AES call per AND stage
of the *run* — about one round's AND depth, whatever M is.  Runs longer
than :data:`~repro.gc.stage_plan.RUN_WINDOW` rounds go window by window,
each window's state inputs carrying the previous window's feedback
labels.  The tables of every round are unchanged.

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
from repro.gc.stage_plan import (
    RunPlan,
    StagePlan,
    run_plan_for,
    run_windows,
    stage_plan_for,
)
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


def words_to_u128_list(words: np.ndarray) -> list[int]:
    """The 128-bit ints of an ``(n, 2)`` [hi, lo] uint64 array."""
    return [(hi << 64) | lo for hi, lo in words.tolist()]


def _garble_stages(
    hash_fn: GarblingHash,
    plan: StagePlan,
    W: np.ndarray,
    offsets: np.ndarray,
    tables_be: np.ndarray,
    tweak_offset: int = 0,
    telemetry=None,
) -> None:
    """Garble ``plan`` for ``S`` sessions in place: one AES call per stage.

    ``W`` is the ``(S, plan.label_rows, 2)`` zero-label array with every
    input row set; the stages fill in every gate output.  ``offsets``
    holds each session's free-XOR offset as ``(S, 2)`` words, and the
    ``(S, plan.n_and, 4)`` big-endian ``tables_be`` receives the tables
    at each gate's ``table_pos``.
    """
    S = W.shape[0]
    off3 = offsets[:, None, :]
    off4 = offsets[:, None, None, :]
    for stage, tw in zip(plan.stages, plan.tweak_words(tweak_offset)):
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
        H = hash_fn.hash_words(K, tw[None, :, :, None, :])
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


def _evaluate_stages(
    hash_fn: GarblingHash,
    plan: StagePlan,
    lab: np.ndarray,
    tables: np.ndarray,
    tweak_offset: int = 0,
) -> None:
    """Evaluate ``plan`` in place: one AES call per AND stage.

    ``lab`` is the ``(plan.label_rows, 2)`` active-label array with every
    input row set; ``tables`` the ``(plan.n_and, 2, 2)`` [t_g, t_e] rows
    in ``table_pos`` order.
    """
    for stage, tw in zip(plan.stages, plan.tweak_words(tweak_offset)):
        for level in stage.free_levels:
            lab[level.out_idx] = lab[level.a_idx] ^ lab[level.b_idx]
        if not stage.n_and:
            continue
        L = lab[stage.ab_idx]  # [la, lb] per gate, hashed against [j0, j1]
        H = hash_fn.hash_words(L, tw)
        # W_G = H(la) ^ s_a·T_G,  W_E = H(lb) ^ s_b·(T_E ^ la)
        T = tables[stage.table_pos]
        T[:, 1] ^= L[:, 0]
        T &= -(L[:, :, 1:] & _ONE)
        H ^= T
        lab[stage.out_idx] = H[:, 0] ^ H[:, 1]


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

        tables_be = np.zeros((S, plan.n_and, 4), dtype=">u8")
        _garble_stages(
            self.hash, plan, W, offsets, tables_be, tweak_offset, telemetry
        )

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
        _evaluate_stages(self.hash, plan, lab, tables, tweak_offset)
        return EvaluationResult(
            output_labels=[words_to_u128(lab[w]) for w in self.netlist.outputs],
            output_bits=None,
            hash_calls=2 * plan.n_and,
        )


# ----------------------------------------------------------------------
# sequential-GC MAC runs (the serving path's unit of work)
# ----------------------------------------------------------------------
@dataclass
class RunWindow:
    """One run-plan window of a vectorised MAC garbling, all sessions.

    ``W[s]`` holds session ``s``'s zero labels for rounds
    ``first_round .. first_round + plan.n_rounds - 1`` laid out by
    ``plan.rows``; ``tables_be[s, r]`` is round ``first_round + r``'s
    serialised tables (big-endian quadruples, netlist non-free order).
    """

    plan: RunPlan
    first_round: int
    W: np.ndarray
    tables_be: np.ndarray


@dataclass
class VectorRun:
    """One session's view of a vectorised multi-round MAC garbling.

    Duck-types the parts of :class:`repro.accel.fsm.AcceleratorRun` the
    host serving/recovery layers consume: ``rounds`` metadata,
    per-round tables, output permute bits and hash-call accounting.
    """

    circuit: object  # ScheduledMacCircuit
    windows: list[RunWindow]
    session: int
    offset: int
    _rounds: list | None = field(default=None, repr=False)

    @property
    def n_rounds(self) -> int:
        return sum(w.plan.n_rounds for w in self.windows)

    @property
    def total_tables(self) -> int:
        return sum(w.plan.n_and for w in self.windows)

    @property
    def hash_calls(self) -> int:
        """Garbling-hash invocations (4 per AND gate, as scalar)."""
        return 4 * self.total_tables

    def _locate(self, r: int) -> tuple[RunWindow, int]:
        for window in self.windows:
            if r < window.first_round + window.plan.n_rounds:
                return window, r - window.first_round
        raise IndexError(f"round {r} outside this {self.n_rounds}-round run")

    @property
    def rounds(self) -> list:
        if self._rounds is None:
            self._rounds = [self._round_labels(r) for r in range(self.n_rounds)]
        return self._rounds

    def _round_labels(self, r: int):
        from repro.accel.fsm import RoundLabels

        net = self.circuit.netlist
        window, local = self._locate(r)
        rows = window.plan.rows[local]
        W = window.W[self.session]
        offset = self.offset

        def pairs(wires):
            zeros = words_to_u128_list(W[rows[wires]])
            return [LabelPair(z, offset) for z in zeros]

        consts = list(net.constants)
        return RoundLabels(
            garbler_pairs=pairs(net.garbler_inputs),
            evaluator_pairs=pairs(net.evaluator_inputs),
            const_pairs=dict(zip(consts, pairs(consts))),
            state_pairs=pairs(net.state_inputs),
            output_pairs=pairs(net.outputs),
        )

    @property
    def output_permute_bits(self) -> list[int]:
        window = self.windows[-1]
        rows = window.plan.rows[-1][self.circuit.netlist.outputs]
        return (window.W[self.session, rows, 1] & _ONE).tolist()

    def tables_for_round(self, r: int) -> list[GarbledTable]:
        be = self.tables_be(r)
        base = r * len(self.circuit.netlist.gates)
        return [
            GarbledTable(
                g.index + base,
                (int(be[i, 0]) << 64) | int(be[i, 1]),
                (int(be[i, 2]) << 64) | int(be[i, 3]),
            )
            for i, g in enumerate(self.circuit.netlist.nonfree_gates)
        ]

    def tables_be(self, r: int) -> np.ndarray:
        """Round ``r``'s ``(n_and, 4)`` big-endian table array (a view)."""
        window, local = self._locate(r)
        return window.tables_be[self.session, local]

    def tables_payload(self, r: int) -> memoryview:
        """Round ``r``'s serialised tables, zero-copy."""
        return memoryview(self.tables_be(r).view(np.uint8).reshape(-1))


def garble_mac_runs(
    circuit,
    n_rounds: int,
    factories: list[LabelFactory],
    hash_fn: GarblingHash | None = None,
    telemetry=None,
    plan: StagePlan | None = None,
) -> list[VectorRun]:
    """Garble ``len(factories)`` independent M-round MAC runs together.

    All rounds of all runs go through the run plan in one pass (window
    by window past :data:`~repro.gc.stage_plan.RUN_WINDOW` rounds): one
    AES call per AND stage of the run.  Each session draws its labels
    in the sequential order (round 0's inputs, state included, then
    every later round's non-state inputs), every gate keeps its round's
    tweak (``r * len(gates)`` past its netlist index) and round ``r``'s
    state inputs are round ``r - 1``'s feedback outputs, so each run is
    bit-identical to a seeded :class:`~repro.gc.garble.Garbler` chain
    over the same label stream.  ``plan`` is the holder's
    already-resolved round plan for ``circuit.netlist`` (looked up by
    fingerprint when omitted).
    """
    if n_rounds <= 0:
        raise GCProtocolError("sequential GC needs at least one round")
    S = len(factories)
    if S == 0:
        raise GCProtocolError("vector garbling needs at least one session")
    seq = circuit.circuit
    hash_fn = hash_fn or GarblingHash()
    offsets = u128_rows([f.offset for f in factories])
    windows: list[RunWindow] = []
    carry = None
    for first, m in run_windows(0, n_rounds):
        rp = run_plan_for(seq, m, plan)
        W = np.zeros((S, rp.label_rows, 2), dtype=np.uint64)
        if carry is not None:
            W[:, rp.state_rows[0]] = carry
        fresh = rp.fresh_rows_first if first == 0 else rp.fresh_rows_rest
        for s, factory in enumerate(factories):
            W[s, fresh] = u128_rows(factory.fresh_zeros(fresh.size))
        tables_be = np.zeros((S, rp.n_and, 4), dtype=">u8")
        _garble_stages(
            hash_fn,
            rp.schedule,
            W,
            offsets,
            tables_be,
            first * rp.gates_per_round,
            telemetry,
        )
        carry = W[:, rp.feedback_rows[-1]]
        windows.append(
            RunWindow(rp, first, W, tables_be.reshape(S, m, rp.round_plan.n_and, 4))
        )
    if telemetry is not None:
        telemetry.counter("gc.vector_garbles").inc()
        telemetry.counter("gc.vector_sessions").inc(S)
    return [
        VectorRun(circuit=circuit, windows=windows, session=s, offset=f.offset)
        for s, f in enumerate(factories)
    ]


def evaluate_run(
    circuit,
    first_round: int,
    state_labels: list[int],
    round_inputs: list[dict[int, int]],
    round_tables: list[np.ndarray],
    hash_fn: GarblingHash | None = None,
    plan: StagePlan | None = None,
) -> list[list[int]]:
    """Evaluate rounds ``first_round ..`` of a sequential run on its run plan.

    ``circuit`` is the :class:`~repro.circuits.sequential.SequentialCircuit`;
    ``state_labels`` are the active labels of ``first_round``'s state
    inputs; ``round_inputs[i]`` maps every garbler, evaluator and
    constant wire of round ``first_round + i`` to its active label, and
    ``round_tables[i]`` is that round's decoded tables
    (:meth:`VectorEvaluator.decode_tables`).  Returns every round's
    output labels.  One AES call per AND stage of the run (per window);
    ``plan`` is the holder's resolved round plan.
    """
    net = circuit.netlist
    n_state = len(net.state_inputs)
    if len(state_labels) != n_state:
        raise GCProtocolError(
            f"expected {n_state} state labels, got {len(state_labels)}"
        )
    needed = (frozenset(net.input_wires) | frozenset(net.constants)) - frozenset(
        net.state_inputs
    )
    hash_fn = hash_fn or GarblingHash()
    carry = u128_rows(state_labels)
    outputs: list[list[int]] = []
    done = 0
    for first, m in run_windows(first_round, first_round + len(round_inputs)):
        rp = run_plan_for(circuit, m, plan)
        lab = np.zeros((rp.label_rows, 2), dtype=np.uint64)
        lab[rp.state_rows[0]] = carry
        rows: list[int] = []
        labels: list[int] = []
        for local in range(m):
            given = round_inputs[done + local]
            missing = needed - given.keys()
            if missing:
                raise GCProtocolError(
                    f"round {first + local}: missing labels for wires "
                    f"{sorted(missing)[:8]}"
                )
            rows.extend(rp.rows[local, list(given)].tolist())
            labels.extend(given.values())
        lab[rows] = u128_rows(labels)
        tables = np.concatenate(round_tables[done : done + m])
        _evaluate_stages(
            hash_fn, rp.schedule, lab, tables, first * rp.gates_per_round
        )
        out_words = lab[rp.rows[:, net.outputs]]
        outputs.extend(words_to_u128_list(w) for w in out_words)
        carry = lab[rp.feedback_rows[-1]]
        done += m
    return outputs
