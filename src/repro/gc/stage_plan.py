"""Topological stage plan shared by the run-plan garbler and evaluator.

A *stage* is the unit of AES batching: all AND-class gates at one
AND-depth level are independent given the previous level's outputs, so
their garbling hashes (four per gate for the garbler, two for the
evaluator) go through a single vectorised fixed-key AES invocation.
Free gates (XOR/XNOR/NOT/BUF) are attached to the stage whose outputs
they consume — stage ``i`` first folds the free gates at AND-depth
``i``, then batches the AND gates at depth ``i + 1``.  Within a stage
the free gates are grouped into XOR-depth *levels* of mutually
independent gates, so each level is one array operation on either
party.

Both parties hold labels in one array with a row per wire plus an
all-zero row (:attr:`StagePlan.label_rows`) that one-input free gates
read as their second operand.  A free level computes
``out = a ^ b``; the garbler also XORs the free-XOR offset into the
NOT/XNOR outputs (``inv_pos``), which the evaluator never sees.

Planning walks the whole netlist, so plans are cached per structural
*fingerprint*: sessions serving the same circuit (the common cloud-MAC
case) share one plan.  Hashing the netlist is itself a walk over every
gate, so the parties that hold a circuit (the accelerator, the client)
resolve its plan once and pass it along rather than looking it up per
round.  Each plan precomputes its tweak words once; another
``tweak_offset`` is one array add.

**Run plans.**  Sequential GC garbles the round netlist M times, and the
only dependency from one round to the next is the state feedback (the
accumulator's carry chain), which pipelines diagonally: bit j of round
r + 1 needs only bit j of round r.  A :class:`RunPlan` is one stage
schedule over all rounds of a run.  Stage ``s`` batches every (round,
gate) pair at AND level ``s`` of the unrolled run, so a whole MAC costs
about one round's AND depth of AES calls instead of M times it.  All
rounds share one label array: round ``r``'s wire ``w`` lives in row
``rows[r, w]``, and a state input of round ``r > 0`` *is* the row of
round ``r - 1``'s feedback output, so no state labels are copied.  A
gate of round ``r`` keeps its tweak (netlist index + r·|gates|), so
the tables are byte-identical to garbling round after round.  The
levels come from the round plan by array arithmetic, one pass per
round, and run plans are cached per (fingerprint, feedback, M).  A run
longer than :data:`RUN_WINDOW` rounds is cut into windows chained
through their state labels exactly like rounds, which bounds plan size
and label memory at large M.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.gates import Gate, GateType
from repro.circuits.netlist import Netlist
from repro.errors import GCProtocolError

#: tweak values stay on the uint64 fast path while 2*gate_id + 1 < 2^64
_U64_TWEAK_LIMIT = 1 << 64
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: rounds per run-plan window (longer runs chain windows like rounds)
RUN_WINDOW = 64

#: run plans kept per process (a few per served circuit and round count)
_RUN_PLAN_CACHE_LIMIT = 32


@dataclass(frozen=True)
class FreeLevel:
    """Free gates with no dependencies among them: ``out = a ^ b``.

    ``b_idx`` is the plan's zero wire for one-input gates (BUF/NOT);
    ``inv_pos`` lists the positions of the NOT/XNOR gates, whose
    garbler-side zero label also carries the free-XOR offset.
    """

    out_idx: np.ndarray
    a_idx: np.ndarray
    b_idx: np.ndarray
    inv_pos: np.ndarray


@dataclass(frozen=True)
class Stage:
    """One AES batch: free levels to fold first, then the AND-gate arrays.

    The AND arrays are parallel, one row per AND gate in the stage:
    ``ab_idx`` holds the two input wire ids, ``out_idx`` the output
    wire, ``flip_ab``/``flip_out`` the AND-form triple as uint64 masks
    (all ones where the garbler XORs the offset into that operand),
    ``gate_idx`` the netlist gate index (tweak base) and ``table_pos``
    the gate's position in the netlist's non-free order (where its
    table lands in the serialised payload).
    """

    free_levels: tuple[FreeLevel, ...]
    ab_idx: np.ndarray
    out_idx: np.ndarray
    flip_ab: np.ndarray
    flip_out: np.ndarray
    gate_idx: np.ndarray
    table_pos: np.ndarray

    @property
    def n_and(self) -> int:
        return int(self.gate_idx.shape[0])


@dataclass
class StagePlan:
    """Cached per-fingerprint schedule of a netlist's garbling stages."""

    fingerprint: str
    n_wires: int
    n_and: int
    stages: tuple[Stage, ...]
    #: tweak words at offset 0, all stages concatenated: ``(n_and, 2, 2)``
    _tweaks: np.ndarray = field(init=False, repr=False)
    #: ``_tweaks`` row range of each stage
    _tweak_slices: tuple[slice, ...] = field(init=False, repr=False)
    #: largest gate index (bounds the uint64 fast path of the tweaks)
    _max_gate: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gate_idx = np.concatenate(
            [s.gate_idx for s in self.stages] or [np.zeros(0, np.uint64)]
        )
        self._max_gate = int(gate_idx.max()) if gate_idx.size else 0
        tweaks = np.zeros((gate_idx.shape[0], 2, 2), dtype=np.uint64)
        tweaks[:, 0, 1] = gate_idx << np.uint64(1)
        tweaks[:, 1, 1] = tweaks[:, 0, 1] | np.uint64(1)
        self._tweaks = tweaks
        bounds = np.cumsum([0] + [s.n_and for s in self.stages])
        self._tweak_slices = tuple(
            slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
        )

    @property
    def label_rows(self) -> int:
        """Rows of a label array laid out for this plan: one per wire
        plus the all-zero row ``n_wires`` that one-input free gates
        read as their second operand."""
        return self.n_wires + 1

    @property
    def n_stages(self) -> int:
        """Stages that actually batch AND gates (AES invocations/session)."""
        return sum(1 for s in self.stages if s.n_and)

    @property
    def and_counts(self) -> tuple[int, ...]:
        return tuple(s.n_and for s in self.stages if s.n_and)

    # ------------------------------------------------------------------
    def tweak_words(self, tweak_offset: int) -> list[np.ndarray]:
        """Per-stage ``(n_and, 2, 2)`` uint64 tweak arrays [j0, j1].

        Matches ``make_tweak(gate.index + tweak_offset, half)`` exactly,
        including the 128-bit wrap-around for absurdly large offsets.
        The offset-0 words are built with the plan; any other offset on
        the uint64 fast path is one array add over every stage at once.
        """
        if tweak_offset == 0:
            words = self._tweaks
        elif 0 < tweak_offset < _U64_TWEAK_LIMIT // 2 - self._max_gate:
            words = self._tweaks + np.array([0, 2 * tweak_offset], dtype=np.uint64)
        else:
            return [self._stage_tweaks(s, tweak_offset) for s in self.stages]
        return [words[sl] for sl in self._tweak_slices]

    def _stage_tweaks(self, stage: Stage, tweak_offset: int) -> np.ndarray:
        """The exact 128-bit tweak words of one stage (the slow path)."""
        out = np.zeros((stage.n_and, 2, 2), dtype=np.uint64)
        for i, gi in enumerate(stage.gate_idx.tolist()):
            for half in (0, 1):
                t = (2 * (gi + tweak_offset) + half) & _MASK128
                out[i, half, 0] = t >> 64
                out[i, half, 1] = t & _MASK64
        return out


# ----------------------------------------------------------------------
def netlist_fingerprint(net: Netlist) -> str:
    """Structural identity of a netlist (labels sessions sharing a plan)."""
    h = hashlib.sha256()
    h.update(
        repr(
            (
                net.n_wires,
                net.garbler_inputs,
                net.evaluator_inputs,
                net.state_inputs,
                net.outputs,
                sorted(net.constants.items()),
            )
        ).encode()
    )
    for g in net.gates:
        h.update(repr((g.index, g.gtype.label, g.inputs, g.output)).encode())
    return h.hexdigest()


def _masks(bits: list[bool]) -> np.ndarray:
    return np.array([_MASK64 if bit else 0 for bit in bits], dtype=np.uint64)


def _free_levels(gates: list[Gate], zero_wire: int) -> tuple[FreeLevel, ...]:
    """Group one stage's free gates (netlist order) by XOR depth."""
    depth: dict[int, int] = {}
    levels: list[list[Gate]] = []
    for gate in gates:
        d = 1 + max((depth.get(w, -1) for w in gate.inputs), default=-1)
        depth[gate.output] = d
        if d == len(levels):
            levels.append([])
        levels[d].append(gate)
    return tuple(
        FreeLevel(
            out_idx=np.array([g.output for g in level], dtype=np.intp),
            a_idx=np.array([g.inputs[0] for g in level], dtype=np.intp),
            b_idx=np.array(
                [g.inputs[1] if len(g.inputs) > 1 else zero_wire for g in level],
                dtype=np.intp,
            ),
            inv_pos=np.array(
                [
                    i
                    for i, g in enumerate(level)
                    if g.gtype in (GateType.NOT, GateType.XNOR)
                ],
                dtype=np.intp,
            ),
        )
        for level in levels
    )


def plan_stages(net: Netlist) -> StagePlan:
    """Extract the AND-depth level schedule (uncached)."""
    wire_level: dict[int, int] = {w: 0 for w in net.input_wires + list(net.constants)}
    levels: dict[int, list[Gate]] = {}
    free_by_level: dict[int, list[Gate]] = {}
    for gate in net.gates:
        in_level = max((wire_level[w] for w in gate.inputs), default=0)
        if gate.is_free:
            wire_level[gate.output] = in_level
            free_by_level.setdefault(in_level, []).append(gate)
        else:
            wire_level[gate.output] = in_level + 1
            levels.setdefault(in_level + 1, []).append(gate)

    table_pos = {
        g.index: i for i, g in enumerate(g for g in net.gates if not g.is_free)
    }
    stages = []
    max_level = max(levels, default=0)
    for level in range(0, max_level + 1):
        ands = levels.get(level + 1, [])
        stages.append(
            Stage(
                free_levels=_free_levels(free_by_level.get(level, []), net.n_wires),
                ab_idx=np.array(
                    [g.inputs[:2] for g in ands], dtype=np.intp
                ).reshape(-1, 2),
                out_idx=np.array([g.output for g in ands], dtype=np.intp),
                flip_ab=np.array(
                    [_masks(g.gtype.and_form[:2]) for g in ands], dtype=np.uint64
                ).reshape(-1, 2, 1),
                flip_out=_masks([g.gtype.and_form[2] for g in ands]).reshape(-1, 1),
                gate_idx=np.array([g.index for g in ands], dtype=np.uint64),
                table_pos=np.array([table_pos[g.index] for g in ands], dtype=np.intp),
            )
        )

    return StagePlan(
        fingerprint=netlist_fingerprint(net),
        n_wires=net.n_wires,
        n_and=len(table_pos),
        stages=tuple(stages),
    )


_PLAN_CACHE: dict[str, StagePlan] = {}
_PLAN_LOCK = threading.Lock()


def stage_plan_for(net: Netlist) -> StagePlan:
    """The cached plan for this netlist's fingerprint (thread-safe)."""
    fp = netlist_fingerprint(net)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(fp)
    if plan is not None:
        return plan
    plan = plan_stages(net)
    with _PLAN_LOCK:
        return _PLAN_CACHE.setdefault(fp, plan)


def clear_plan_cache() -> None:
    """Drop all cached plans (test isolation helper)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        _RUN_PLAN_CACHE.clear()


# ----------------------------------------------------------------------
# run plans: every round of a sequential run in one schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunPlan:
    """One stage schedule over ``n_rounds`` chained rounds of a circuit.

    ``schedule`` is an ordinary :class:`StagePlan` over the run's label
    array (``schedule.label_rows`` rows, the zero row last), which the
    garbler and evaluator run like any stage plan.
    ``rows[r, w]`` is the row of round ``r``'s wire ``w`` (column
    ``n_wires`` is the zero row); a state input of round ``r > 0`` maps
    to the row of round ``r - 1``'s feedback output.  A stage's
    ``gate_idx`` is the gate's tweak base within the run (netlist index
    + r·``gates_per_round``) and its ``table_pos`` is the table's slot
    in the run's tables, round after round in netlist non-free order.
    """

    round_plan: StagePlan
    n_rounds: int
    gates_per_round: int
    schedule: StagePlan
    rows: np.ndarray
    #: rows the garbler draws fresh labels for, in the sequential draw
    #: order: with ``first`` the run's round 0 (state inputs included),
    #: ``rest`` a window whose round 0 continues an earlier window
    fresh_rows_first: np.ndarray
    fresh_rows_rest: np.ndarray
    #: ``rows[:, state_inputs]`` and ``rows[:, feedback outputs]``
    state_rows: np.ndarray
    feedback_rows: np.ndarray

    @property
    def label_rows(self) -> int:
        return self.schedule.label_rows

    @property
    def n_stages(self) -> int:
        """AND stages of the whole run (AES invocations per party)."""
        return self.schedule.n_stages

    @property
    def n_and(self) -> int:
        return self.schedule.n_and


def _flatten(plan: StagePlan):
    """The round plan's gates as flat arrays: free gates, then AND gates."""
    levels = [lv for st in plan.stages for lv in st.free_levels]
    ands = [st for st in plan.stages if st.n_and]

    def cat(arrays, dtype, shape=(0,)):
        return np.concatenate(arrays) if arrays else np.zeros(shape, dtype)

    inv = []
    for lv in levels:
        flag = np.zeros(lv.out_idx.shape[0], dtype=bool)
        flag[lv.inv_pos] = True
        inv.append(flag)
    free = (
        cat([lv.out_idx for lv in levels], np.intp),
        cat([lv.a_idx for lv in levels], np.intp),
        cat([lv.b_idx for lv in levels], np.intp),
        cat(inv, bool),
    )
    gates = (
        cat([st.ab_idx for st in ands], np.intp, (0, 2)),
        cat([st.out_idx for st in ands], np.intp),
        cat([st.flip_ab for st in ands], np.uint64, (0, 2, 1)),
        cat([st.flip_out for st in ands], np.uint64, (0, 1)),
        cat([st.gate_idx for st in ands], np.uint64),
        cat([st.table_pos for st in ands], np.intp),
    )
    return free, gates


def _groups(keys: np.ndarray):
    """``(order, [(key, start, end), ...])``: runs of equal keys, sorted."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if ks.size else []
    ends = list(starts[1:]) + [ks.size]
    return order, [(int(ks[a]), int(a), int(b)) for a, b in zip(starts, ends)]


def plan_run(
    net: Netlist, feedback_wires, n_rounds: int, plan: StagePlan | None = None
) -> RunPlan:
    """Schedule ``n_rounds`` chained rounds of ``net`` as one plan (uncached).

    ``feedback_wires[i]`` is the output wire that feeds
    ``net.state_inputs[i]`` in the next round.  Each (round, gate) pair
    gets a key ``level·K + d + 1``: AND outputs sit at ``d = -1`` of
    their level, a free gate one XOR depth above its deepest input in
    the same level.  A free output's key is thus ``max(input keys) + 1``
    and an AND output's is the next multiple of ``K``; ``K`` exceeds any
    XOR depth the run can reach.  Walking the round plan's arrays once
    per round gives every key, and sorting by key gives the stages.
    """
    if n_rounds <= 0:
        raise GCProtocolError("a run plan needs at least one round")
    plan = plan if plan is not None else stage_plan_for(net)
    nw = plan.n_wires
    state = np.array(net.state_inputs, dtype=np.intp)
    feedback = np.array(list(feedback_wires), dtype=np.intp)
    zero = n_rounds * nw
    rows = np.empty((n_rounds, nw + 1), dtype=np.intp)
    for r in range(n_rounds):
        rows[r, :nw] = np.arange(r * nw, (r + 1) * nw)
        rows[r, nw] = zero
        if r and state.size:
            rows[r, state] = rows[r - 1, feedback]

    n_free = len(net.gates) - plan.n_and
    K = n_rounds * n_free + 2
    keys = np.zeros((n_rounds, nw + 1), dtype=np.int64)
    for r in range(n_rounds):
        key = keys[r]
        if r and state.size:
            key[state] = keys[r - 1, feedback]
        for st in plan.stages:
            for lv in st.free_levels:
                key[lv.out_idx] = np.maximum(key[lv.a_idx], key[lv.b_idx]) + 1
            if st.n_and:
                top = key[st.ab_idx].max(axis=1)
                key[st.out_idx] = (top // K + 1) * K

    (f_out, f_a, f_b, f_inv), (g_ab, g_out, g_flip_ab, g_flip_out, g_idx, g_pos) = (
        _flatten(plan)
    )
    round_of = np.arange(n_rounds)[:, None]

    f_order, f_groups = _groups(keys[:, f_out].reshape(-1))
    fo = rows[:, f_out].reshape(-1)[f_order]
    fa = rows[:, f_a].reshape(-1)[f_order]
    fb = rows[:, f_b].reshape(-1)[f_order]
    finv = np.broadcast_to(f_inv, (n_rounds, f_inv.size)).reshape(-1)[f_order]

    g_order, g_groups = _groups(keys[:, g_out].reshape(-1))
    n_g = g_out.size

    def per_gate(values):
        tiled = np.broadcast_to(values, (n_rounds,) + values.shape)
        return tiled.reshape((n_rounds * n_g,) + values.shape[1:])[g_order]

    g_rows_ab = np.stack(
        [rows[:, g_ab[:, 0]], rows[:, g_ab[:, 1]]], axis=-1
    ).reshape(-1, 2)[g_order]
    g_rows_out = rows[:, g_out].reshape(-1)[g_order]
    g_run_idx = (
        g_idx[None, :] + np.uint64(len(net.gates)) * round_of.astype(np.uint64)
    ).reshape(-1)[g_order]
    g_run_pos = (g_pos[None, :] + plan.n_and * round_of).reshape(-1)[g_order]
    g_flip_ab_run = per_gate(g_flip_ab)
    g_flip_out_run = per_gate(g_flip_out)

    n_levels = 1 + max(
        [k // K for k, _, _ in f_groups] + [k // K - 1 for k, _, _ in g_groups],
        default=0,
    )
    free_levels: list[list[FreeLevel]] = [[] for _ in range(n_levels)]
    for k, a, b in f_groups:
        free_levels[k // K].append(
            FreeLevel(
                out_idx=fo[a:b],
                a_idx=fa[a:b],
                b_idx=fb[a:b],
                inv_pos=np.flatnonzero(finv[a:b]),
            )
        )
    and_span: dict[int, tuple[int, int]] = {k // K - 1: (a, b) for k, a, b in g_groups}
    stages = []
    for level in range(n_levels):
        a, b = and_span.get(level, (0, 0))
        stages.append(
            Stage(
                free_levels=tuple(free_levels[level]),
                ab_idx=g_rows_ab[a:b],
                out_idx=g_rows_out[a:b],
                flip_ab=g_flip_ab_run[a:b],
                flip_out=g_flip_out_run[a:b],
                gate_idx=g_run_idx[a:b],
                table_pos=g_run_pos[a:b],
            )
        )
    schedule = StagePlan(
        fingerprint=f"{plan.fingerprint}/run{n_rounds}",
        n_wires=zero,
        n_and=n_rounds * plan.n_and,
        stages=tuple(stages),
    )

    input_order = list(net.input_wires) + list(net.constants)
    state_set = set(net.state_inputs)
    later = [w for w in input_order if w not in state_set]
    rest = rows[:, later].reshape(-1)
    return RunPlan(
        round_plan=plan,
        n_rounds=n_rounds,
        gates_per_round=len(net.gates),
        schedule=schedule,
        rows=rows,
        fresh_rows_first=np.concatenate([rows[0, input_order], rest[len(later):]]),
        fresh_rows_rest=rest,
        state_rows=rows[:, state],
        feedback_rows=rows[:, feedback],
    )


_RUN_PLAN_CACHE: OrderedDict = OrderedDict()


def run_plan_for(circuit, n_rounds: int, plan: StagePlan | None = None) -> RunPlan:
    """The cached run plan of ``n_rounds`` chained rounds of ``circuit``.

    ``circuit`` is a :class:`~repro.circuits.sequential.SequentialCircuit`;
    ``plan`` is its netlist's already-resolved round plan (looked up by
    fingerprint when omitted).  Callers keep ``n_rounds`` within
    :data:`RUN_WINDOW` (see :func:`run_windows`).
    """
    net = circuit.netlist
    plan = plan if plan is not None else stage_plan_for(net)
    feedback = tuple(net.outputs[i] for i in circuit.state_feedback)
    key = (plan.fingerprint, feedback, n_rounds)
    with _PLAN_LOCK:
        run = _RUN_PLAN_CACHE.get(key)
        if run is not None:
            _RUN_PLAN_CACHE.move_to_end(key)
            return run
    run = plan_run(net, feedback, n_rounds, plan)
    with _PLAN_LOCK:
        run = _RUN_PLAN_CACHE.setdefault(key, run)
        while len(_RUN_PLAN_CACHE) > _RUN_PLAN_CACHE_LIMIT:
            _RUN_PLAN_CACHE.popitem(last=False)
    return run


def run_windows(first_round: int, n_rounds: int) -> list[tuple[int, int]]:
    """``(first round, rounds)`` of each window over ``first_round..n_rounds-1``."""
    return [
        (start, min(RUN_WINDOW, n_rounds - start))
        for start in range(first_round, n_rounds, RUN_WINDOW)
    ]


def warm_run_plans(circuit, n_rounds: int, plan: StagePlan | None = None) -> None:
    """Build the run plans an ``n_rounds`` query from round 0 needs, so
    the first query does not pay for planning."""
    for _, m in run_windows(0, n_rounds):
        run_plan_for(circuit, m, plan)
