"""Half-gates garbler [Zahur, Rosulek & Evans '15].

Implements the full optimisation stack the paper lists in Section 2.2:

* free XOR (XOR/XNOR/NOT cost nothing) [20];
* row reduction + half gates: two ciphertexts per AND gate [21, 22];
* fixed-key AES garbling via :class:`repro.crypto.prf.GarblingHash` [23].

Every AND-*class* gate (AND/NAND/OR/NOR/...) is reduced to the plain AND
core by absorbing input/output inversions into the free-XOR offset, which
is exactly why MAXelerator's GC engine only ever garbles AND tables.

The garbler is restartable for sequential GC: pass ``preset_pairs`` to
pin the label pairs of state-input wires to the previous round's output
pairs, and ``tweak_offset`` to keep gate identifiers unique across
rounds.  This gate-at-a-time garbler is the reference oracle: the run
plan that serves traffic (:func:`repro.gc.vector_garble.garble_mac_runs`)
is tested byte for byte against a chain of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.crypto.labels import LabelFactory, LabelPair, color
from repro.crypto.prf import GarblingHash, make_tweak
from repro.errors import GCProtocolError
from repro.gc.tables import GarbledTable


@dataclass
class GarbledCircuit:
    """Garbler-side result: all wire pairs plus the transferable material."""

    netlist: Netlist
    wire_pairs: dict[int, LabelPair]
    tables: list[GarbledTable]
    offset: int
    hash_calls: int
    tweak_offset: int = 0

    # ------------------------------------------------------------------
    @property
    def output_pairs(self) -> list[LabelPair]:
        return [self.wire_pairs[w] for w in self.netlist.outputs]

    @property
    def output_permute_bits(self) -> list[int]:
        """The decode ("output") map sent to the evaluator."""
        return [p.permute_bit for p in self.output_pairs]

    def input_labels_for(self, wires: list[int], bits: list[int]) -> list[int]:
        """Select the active labels for known input bits (garbler side)."""
        if len(wires) != len(bits):
            raise GCProtocolError("wire/bit count mismatch")
        return [self.wire_pairs[w].select(b) for w, b in zip(wires, bits)]

    def evaluator_input_pairs(self) -> list[tuple[int, int]]:
        """(label0, label1) pairs for OT, in evaluator-input order."""
        return [
            (self.wire_pairs[w].zero, self.wire_pairs[w].one)
            for w in self.netlist.evaluator_inputs
        ]

    def decode(self, output_labels: list[int]) -> list[int]:
        """Garbler-side decoding of evaluator-returned output labels."""
        return [
            pair.decode(label)
            for pair, label in zip(self.output_pairs, output_labels)
        ]


class Garbler:
    """Garbles one netlist (one *round* in the sequential setting)."""

    def __init__(
        self,
        netlist: Netlist,
        factory: LabelFactory | None = None,
        hash_fn: GarblingHash | None = None,
    ):
        netlist.validate()
        self.netlist = netlist
        self.factory = factory or LabelFactory()
        self.hash = hash_fn or GarblingHash()

    def garble(
        self,
        preset_pairs: dict[int, LabelPair] | None = None,
        tweak_offset: int = 0,
    ) -> GarbledCircuit:
        """Produce the garbled tables and all wire label pairs.

        ``preset_pairs`` maps wire ids (typically state inputs) to pairs
        carried over from a previous round; all pairs must share this
        garbler's global offset.
        """
        net = self.netlist
        offset = self.factory.offset
        pairs: dict[int, LabelPair] = {}
        preset_pairs = preset_pairs or {}
        for wire, pair in preset_pairs.items():
            if pair.offset != offset:
                raise GCProtocolError("preset label pair has a foreign free-XOR offset")
            pairs[wire] = pair

        for wire in list(net.input_wires) + list(net.constants):
            if wire not in pairs:
                pairs[wire] = self.factory.fresh_pair()

        calls_before = self.hash.calls
        tables: list[GarbledTable] = []
        for gate in net.gates:
            gtype = gate.gtype
            if gtype is GateType.BUF:
                pairs[gate.output] = pairs[gate.inputs[0]]
            elif gtype is GateType.NOT:
                src = pairs[gate.inputs[0]]
                pairs[gate.output] = LabelPair(src.zero ^ offset, offset)
            elif gtype is GateType.XOR or gtype is GateType.XNOR:
                a, b = (pairs[w] for w in gate.inputs)
                zero = a.zero ^ b.zero
                if gtype is GateType.XNOR:
                    zero ^= offset
                pairs[gate.output] = LabelPair(zero, offset)
            else:
                alpha, beta, gamma = gtype.and_form
                a, b = (pairs[w] for w in gate.inputs)
                a0 = a.zero ^ (offset if alpha else 0)
                b0 = b.zero ^ (offset if beta else 0)
                out0, table = self._garble_and(
                    a0, b0, gate.index + tweak_offset
                )
                if gamma:
                    out0 ^= offset
                pairs[gate.output] = LabelPair(out0, offset)
                tables.append(table)

        return GarbledCircuit(
            netlist=net,
            wire_pairs=pairs,
            tables=tables,
            offset=offset,
            hash_calls=self.hash.calls - calls_before,
            tweak_offset=tweak_offset,
        )

    # ------------------------------------------------------------------
    def _garble_and(self, a0: int, b0: int, gate_id: int) -> tuple[int, GarbledTable]:
        """Half-gates garbling of one AND gate: 4 hash calls, 2 ciphertexts."""
        r = self.factory.offset
        h = self.hash
        p_a, p_b = color(a0), color(b0)
        a1, b1 = a0 ^ r, b0 ^ r
        j0 = make_tweak(gate_id, 0)
        j1 = make_tweak(gate_id, 1)

        # garbler half gate
        h_a0, h_a1 = h(a0, j0), h(a1, j0)
        t_g = h_a0 ^ h_a1 ^ (r if p_b else 0)
        w_g = h_a0 ^ (t_g if p_a else 0)

        # evaluator half gate
        h_b0, h_b1 = h(b0, j1), h(b1, j1)
        t_e = h_b0 ^ h_b1 ^ a0
        w_e = h_b0 ^ ((t_e ^ a0) if p_b else 0)

        return w_g ^ w_e, GarbledTable(gate_id, t_g, t_e)
