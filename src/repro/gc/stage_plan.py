"""Topological stage plan shared by the vectorised garbler and evaluator.

A *stage* is the unit of AES batching: all AND-class gates at one
AND-depth level are independent given the previous level's outputs, so
their garbling hashes (four per gate for the garbler, two for the
evaluator) go through a single vectorised fixed-key AES invocation.
Free gates (XOR/XNOR/NOT/BUF) are attached to the stage whose outputs
they consume, mirroring :meth:`repro.gc.garble.Garbler._garble_batched`
— stage ``i`` first folds the free gates at AND-depth ``i``, then
batches the AND gates at depth ``i + 1``.  Within a stage the free
gates are grouped into XOR-depth *levels* of mutually independent
gates, so each level is one array operation on either party.

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
round.  The per-gate tweak words are cached per ``tweak_offset``
because sequential GC reuses the same offsets round after round.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.gates import Gate, GateType
from repro.circuits.netlist import Netlist

#: tweak values stay on the uint64 fast path while 2*gate_id + 1 < 2^64
_U64_TWEAK_LIMIT = 1 << 64
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: distinct tweak_offset values cached per plan before eviction
_TWEAK_CACHE_LIMIT = 64


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
    #: every wire the garbler assigns a pair to, in assignment order
    driven_wires: tuple[int, ...]
    _tweak_cache: dict[int, list[np.ndarray]] = field(default_factory=dict)
    _tweak_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def label_rows(self) -> int:
        """Rows of a label array laid out for this plan: one per wire
        plus the all-zero row ``n_wires`` that one-input free gates
        read as their second operand."""
        return self.n_wires + 1

    @property
    def n_free_levels(self) -> int:
        """Free-gate array operations per evaluation of the netlist."""
        return sum(len(s.free_levels) for s in self.stages)

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
        """
        with self._tweak_lock:
            cached = self._tweak_cache.get(tweak_offset)
            if cached is not None:
                return cached
        words = [self._stage_tweaks(s, tweak_offset) for s in self.stages]
        with self._tweak_lock:
            if len(self._tweak_cache) >= _TWEAK_CACHE_LIMIT:
                self._tweak_cache.clear()
            self._tweak_cache[tweak_offset] = words
        return words

    def _stage_tweaks(self, stage: Stage, tweak_offset: int) -> np.ndarray:
        n = stage.n_and
        out = np.zeros((n, 2, 2), dtype=np.uint64)
        if n == 0:
            return out
        max_id = int(stage.gate_idx.max()) + tweak_offset
        if 0 <= tweak_offset and 2 * max_id + 1 < _U64_TWEAK_LIMIT:
            j0 = (stage.gate_idx + np.uint64(tweak_offset)) << np.uint64(1)
            out[:, 0, 1] = j0
            out[:, 1, 1] = j0 | np.uint64(1)
            return out
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

    driven = list(net.input_wires) + list(net.constants)
    driven += [g.output for g in net.gates]
    return StagePlan(
        fingerprint=netlist_fingerprint(net),
        n_wires=net.n_wires,
        n_and=len(table_pos),
        stages=tuple(stages),
        driven_wires=tuple(driven),
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
