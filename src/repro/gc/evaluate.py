"""Half-gates evaluator.

The evaluator is oblivious to gate polarity tricks: it holds one label
per wire, evaluates free gates with XORs (NOT/BUF are pure wiring) and
each AND-class gate with two hash calls plus the two table ciphertexts.
It works whether the tables came from the software garbler or from the
accelerator stream — the paper's "transparent to the evaluator"
property.  The client's serving path runs the same half-gates algebra
stage by stage (:class:`repro.gc.vector_garble.VectorEvaluator`); this
gate-at-a-time version is its reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.crypto.labels import color
from repro.crypto.prf import GarblingHash, make_tweak
from repro.errors import GCProtocolError
from repro.gc.tables import GarbledTable


@dataclass
class EvaluationResult:
    """Evaluator-side result: active output labels and decoded bits."""

    output_labels: list[int]
    output_bits: list[int] | None
    hash_calls: int

    def labels_for_state(self, feedback: list[int]) -> list[int]:
        """Labels to carry into the next sequential round."""
        return [self.output_labels[idx] for idx in feedback]


class Evaluator:
    """Evaluates one garbled netlist given one active label per input."""

    def __init__(self, netlist: Netlist, hash_fn: GarblingHash | None = None):
        netlist.validate()
        self.netlist = netlist
        self.hash = hash_fn or GarblingHash()

    def evaluate(
        self,
        tables: list[GarbledTable],
        input_labels: dict[int, int],
        output_permute_bits: list[int] | None = None,
        tweak_offset: int = 0,
    ) -> EvaluationResult:
        """Gate-by-gate evaluation.

        ``input_labels`` must cover every input wire (both parties' and
        state) and every constant wire.  With ``output_permute_bits``
        (the garbler's output map) the plaintext output bits are decoded
        from the label colours.  This scalar path is the reference the
        stage-plan evaluator (:class:`~repro.gc.vector_garble.
        VectorEvaluator`) is tested against.
        """
        net = self.netlist
        needed = set(net.input_wires) | set(net.constants)
        missing = needed - set(input_labels)
        if missing:
            raise GCProtocolError(f"missing labels for wires {sorted(missing)[:8]}")

        expected_tables = sum(1 for g in net.gates if not g.is_free)
        if len(tables) != expected_tables:
            raise GCProtocolError(
                f"expected {expected_tables} garbled tables, got {len(tables)}"
            )

        calls_before = self.hash.calls
        labels = dict(input_labels)
        table_iter = iter(tables)
        for gate in net.gates:
            gtype = gate.gtype
            if gtype is GateType.BUF or gtype is GateType.NOT:
                labels[gate.output] = labels[gate.inputs[0]]
            elif gtype is GateType.XOR or gtype is GateType.XNOR:
                labels[gate.output] = labels[gate.inputs[0]] ^ labels[gate.inputs[1]]
            else:
                table = next(table_iter)
                if table.gate_index != gate.index + tweak_offset:
                    raise GCProtocolError(
                        f"table stream out of order: got gate {table.gate_index}, "
                        f"expected {gate.index + tweak_offset}"
                    )
                labels[gate.output] = self._eval_and(
                    labels[gate.inputs[0]],
                    labels[gate.inputs[1]],
                    table,
                )

        output_labels = [labels[w] for w in net.outputs]
        output_bits = None
        if output_permute_bits is not None:
            if len(output_permute_bits) != len(output_labels):
                raise GCProtocolError("output map length mismatch")
            output_bits = [
                color(label) ^ permute
                for label, permute in zip(output_labels, output_permute_bits)
            ]
        return EvaluationResult(
            output_labels=output_labels,
            output_bits=output_bits,
            hash_calls=self.hash.calls - calls_before,
        )

    # ------------------------------------------------------------------
    def _eval_and(self, la: int, lb: int, table: GarbledTable) -> int:
        """Half-gates evaluation: 2 hash calls."""
        s_a, s_b = color(la), color(lb)
        j0 = make_tweak(table.gate_index, 0)
        j1 = make_tweak(table.gate_index, 1)
        w_g = self.hash(la, j0) ^ (table.t_g if s_a else 0)
        w_e = self.hash(lb, j1) ^ ((table.t_e ^ la) if s_b else 0)
        return w_g ^ w_e
