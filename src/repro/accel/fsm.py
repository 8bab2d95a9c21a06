"""Cycle-accurate FSM execution: garble the MAC stream table by table.

This is the simulation counterpart of the paper's synchronising FSM: it
walks the static schedule cycle by cycle, drives each core's GC engine
(one table per core per cycle), derives free-XOR labels outside the
engines, books label-generator entropy demand at the prefetch cycles,
and logs every table write for the memory/PCIe model.

Executing in *stream order* (not netlist order) is a live proof of the
schedule's legality: an AND gate whose operand labels do not yet exist
raises :class:`ScheduleError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.engine import GCCore
from repro.accel.label_generator import LabelGenerator, LabelGenStats
from repro.accel.schedule import MacSchedule, schedule_rounds
from repro.accel.tree_mac import ScheduledMacCircuit
from repro.circuits.gates import GateType
from repro.crypto.labels import LabelPair
from repro.errors import ScheduleError
from repro.gc.tables import GarbledTable


@dataclass(frozen=True)
class StreamedTable:
    """One garbled table with its emission coordinates."""

    cycle: int
    core: int
    round_index: int
    gate_index: int
    table: GarbledTable


@dataclass
class RoundLabels:
    """Label material of one round (garbler side)."""

    garbler_pairs: list[LabelPair]
    evaluator_pairs: list[LabelPair]
    const_pairs: dict[int, LabelPair]
    state_pairs: list[LabelPair]
    output_pairs: list[LabelPair]


@dataclass
class AcceleratorRun:
    """Everything one garbling run produced."""

    circuit: ScheduledMacCircuit
    schedule: MacSchedule
    stream: list[StreamedTable]
    rounds: list[RoundLabels]
    cores: list[GCCore]
    label_stats: LabelGenStats
    offset: int

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_cycles(self) -> int:
        return self.schedule.total_cycles

    @property
    def total_tables(self) -> int:
        return len(self.stream)

    @property
    def output_permute_bits(self) -> list[int]:
        return [p.permute_bit for p in self.rounds[-1].output_pairs]

    @property
    def hash_calls(self) -> int:
        """Total garbling-hash (AES engine) activations across all cores."""
        return sum(c.engine.stats.aes_activations for c in self.cores)

    def tables_payload(self, r: int) -> bytes:
        """Round ``r``'s tables serialised in netlist order.

        Shares a signature with :meth:`repro.gc.vector_garble.VectorRun.
        tables_payload` so the streaming path takes either kind of run.
        """
        from repro.gc.tables import serialize_tables

        return serialize_tables(self.tables_for_round(r))

    def tables_for_round(self, r: int, netlist_order: bool = True) -> list[GarbledTable]:
        """Tables of round ``r`` (host-side reorder buffer when requested)."""
        entries = [s for s in self.stream if s.round_index == r]
        if netlist_order:
            entries.sort(key=lambda s: s.gate_index)
        return [s.table for s in entries]

    def writes_by_cycle(self) -> dict[int, int]:
        writes: dict[int, int] = {}
        for s in self.stream:
            writes[s.cycle] = writes.get(s.cycle, 0) + 1
        return writes


class AcceleratorFSM:
    """Executes the static schedule with real garbling."""

    def __init__(self, circuit: ScheduledMacCircuit, seed: int | None = None):
        self.circuit = circuit
        self.labelgen = LabelGenerator(circuit.bitwidth, seed=seed)
        self.cores = [GCCore(i) for i in range(circuit.n_cores)]
        net = circuit.netlist
        self._driver = {g.output: g for g in net.gates}

    # ------------------------------------------------------------------
    def garble_rounds(
        self,
        n_rounds: int,
        schedule: MacSchedule | None = None,
    ) -> AcceleratorRun:
        circuit = self.circuit
        net = circuit.netlist
        schedule = schedule or schedule_rounds(circuit, n_rounds)
        if schedule.n_rounds != n_rounds:
            raise ScheduleError("schedule round count mismatch")
        offset = self.labelgen.factory.offset
        ii = schedule.ii_cycles
        n_gates = len(net.gates)

        pairs: list[dict[int, LabelPair]] = []
        rounds_meta: list[RoundLabels] = []
        for r in range(n_rounds):
            # The label generator works through the prefetch window at a
            # steady pace (the FSM power-gates the rest of the RNG bank),
            # so demand is spread across the initiation interval.
            prefetch_cycle = max(0, (r - 1) * ii)
            n_fresh = (
                len(net.garbler_inputs)
                + len(net.evaluator_inputs)
                + len(net.constants)
            )
            pace = max(1, ii // max(n_fresh, 1))
            ticket = iter(range(n_fresh))

            def fresh():
                return self.labelgen.fresh_pair(prefetch_cycle + next(ticket) * pace)

            rp: dict[int, LabelPair] = {}
            g_pairs = [fresh() for _ in net.garbler_inputs]
            e_pairs = [fresh() for _ in net.evaluator_inputs]
            c_pairs = {w: fresh() for w in net.constants}
            for w, p in zip(net.garbler_inputs, g_pairs):
                rp[w] = p
            for w, p in zip(net.evaluator_inputs, e_pairs):
                rp[w] = p
            rp.update(c_pairs)
            if r == 0:
                s_pairs = [self.labelgen.fresh_pair(0) for _ in net.state_inputs]
                for w, p in zip(net.state_inputs, s_pairs):
                    rp[w] = p
            else:
                s_pairs = []  # resolved lazily from round r-1's outputs
            pairs.append(rp)
            rounds_meta.append(
                RoundLabels(
                    garbler_pairs=g_pairs,
                    evaluator_pairs=e_pairs,
                    const_pairs=c_pairs,
                    state_pairs=s_pairs,
                    output_pairs=[],  # filled after garbling
                )
            )
        self._pairs = pairs

        stream: list[StreamedTable] = []
        for op in schedule.stream_order():
            gate = net.gates[op.gate_index]
            rp = pairs[op.round_index]
            a_pair = self._resolve(op.round_index, gate.inputs[0], op)
            b_pair = self._resolve(op.round_index, gate.inputs[1], op)
            alpha, beta, gamma = gate.gtype.and_form
            a0 = a_pair.zero ^ (offset if alpha else 0)
            b0 = b_pair.zero ^ (offset if beta else 0)
            gate_id = op.gate_index + op.round_index * n_gates
            out0, table = self.cores[op.core].engine.garble_and(a0, b0, offset, gate_id)
            if gamma:
                out0 ^= offset
            rp[gate.output] = LabelPair(out0, offset)
            stream.append(
                StreamedTable(
                    cycle=op.cycle,
                    core=op.core,
                    round_index=op.round_index,
                    gate_index=op.gate_index,
                    table=table,
                )
            )

        for r in range(n_rounds):
            rounds_meta[r].output_pairs = [
                self._resolve(r, w, None) for w in net.outputs
            ]
            if r > 0:
                rounds_meta[r].state_pairs = [
                    self._resolve(r, w, None) for w in net.state_inputs
                ]

        return AcceleratorRun(
            circuit=circuit,
            schedule=schedule,
            stream=stream,
            rounds=rounds_meta,
            cores=self.cores,
            label_stats=self.labelgen.stats(schedule.total_cycles),
            offset=offset,
        )

    # ------------------------------------------------------------------
    def _resolve(self, round_index: int, wire: int, op) -> LabelPair:
        """Derive a wire's pair through free gates (XOR outside engines).

        State-input wires of round ``r > 0`` alias the feedback outputs
        of round ``r - 1`` (the sequential-GC state carry-over).
        """
        rp = self._pairs[round_index]
        if wire in rp:
            return rp[wire]
        net = self.circuit.netlist
        offset = self.labelgen.factory.offset
        state_pos = {w: i for i, w in enumerate(net.state_inputs)}
        stack = [wire]
        while stack:
            w = stack[-1]
            if w in rp:
                stack.pop()
                continue
            if round_index > 0 and w in state_pos:
                feedback = self.circuit.circuit.state_feedback[state_pos[w]]
                rp[w] = self._resolve(
                    round_index - 1, net.outputs[feedback], op
                )
                stack.pop()
                continue
            gate = self._driver.get(w)
            if gate is None:
                raise ScheduleError(f"wire {w} has no driver and no label pair")
            if not gate.is_free:
                where = f" needed by scheduled op {op}" if op else ""
                raise ScheduleError(
                    f"schedule violation: AND gate {gate.index} output used"
                    f"{where} before it was garbled"
                )
            missing = [i for i in gate.inputs if i not in rp]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            gtype = gate.gtype
            if gtype is GateType.BUF:
                rp[w] = rp[gate.inputs[0]]
            elif gtype is GateType.NOT:
                rp[w] = LabelPair(rp[gate.inputs[0]].zero ^ offset, offset)
            else:  # XOR / XNOR
                zero = rp[gate.inputs[0]].zero ^ rp[gate.inputs[1]].zero
                if gtype is GateType.XNOR:
                    zero ^= offset
                rp[w] = LabelPair(zero, offset)
        return rp[wire]
