"""The MAXelerator MAC round circuit with structural scheduling tags.

This builds the *same function* as :func:`repro.circuits.mac.build_sequential_mac`
(``acc' = acc + a*x`` for signed a, x) but in the exact structure of the
paper's Figures 2-3, with every AND gate tagged by the functional unit
that garbles it:

====================  =====================================================
tag                   meaning
====================  =====================================================
("seg1", m, n, k)     segment-1 core ``m``, serial bit ``n``; ``k`` is one
                      of "pp_lo"/"pp_hi" (the two partial-product ANDs) or
                      "add" (the serial adder AND) — Figure 3's three
                      garbled tables per stage
("tree", l, j, n)     segment-2 serial adder ``j`` at tree level ``l``,
                      output bit ``n`` — Figure 2's adder tree, where the
                      inter-stream shifts become delay registers
("aneg", n)           input conditional-negate (mux-2C pair) for ``a``
("xneg", n)           input conditional-negate for ``x``
("acc", n)            accumulator serial adder; the output conditional
                      negate is *fused* into it as a conditional subtract
                      (see DESIGN.md section 6 for this reconstruction)
====================  =====================================================

The multiplication core operates on sign-magnitude form: segment 1
computes the radix-4 digit-slice streams ``s_m = (|x|[2m] + 2*|x|[2m+1]) * |a|``
and segment 2's tree combines them; the accumulator adds or subtracts
the magnitude product according to ``sign(a) XOR sign(x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.circuits.builder import ZERO, NetlistBuilder, Sig
from repro.circuits.library import Bus, full_adder, zero_extend
from repro.circuits.sequential import SequentialCircuit
from repro.errors import ConfigurationError

SUPPORTED_BITWIDTHS = (4, 8, 16, 32, 64)

#: Cycles per stage: segment-1 cores garble 3 tables (2 partial products
#: + 1 adder AND) per stage, one per clock cycle.
CYCLES_PER_STAGE = 3


def seg1_cores(bitwidth: int) -> int:
    return bitwidth // 2


def seg2_cores(bitwidth: int) -> int:
    """The paper's Section 4.3 formula: ceil((b/2 + 8) / 3)."""
    return math.ceil((bitwidth // 2 + 8) / 3)


def total_cores(bitwidth: int) -> int:
    """b/2 + ceil((b/2+8)/3): 8, 14, 24 cores at b = 8, 16, 32."""
    return seg1_cores(bitwidth) + seg2_cores(bitwidth)


def default_acc_width(bitwidth: int, max_rounds: int = 256) -> int:
    return 2 * bitwidth + max(1, math.ceil(math.log2(max(max_rounds, 2))))


@dataclass
class ScheduledMacCircuit:
    """Round circuit + tags + core geometry for the FSM scheduler."""

    bitwidth: int
    acc_width: int
    circuit: SequentialCircuit
    tags: dict[int, tuple] = field(default_factory=dict)

    @property
    def netlist(self):
        return self.circuit.netlist

    @property
    def initial_state(self) -> list[int]:
        return self.circuit.initial_state

    @property
    def n_seg1_cores(self) -> int:
        return seg1_cores(self.bitwidth)

    @property
    def n_seg2_cores(self) -> int:
        return seg2_cores(self.bitwidth)

    @property
    def n_cores(self) -> int:
        return total_cores(self.bitwidth)

    def core_for_tag(self, tag: tuple) -> int | None:
        """Fixed core for segment-1 units; None = any segment-2 core."""
        if tag and tag[0] == "seg1":
            return tag[1]
        return None

    @property
    def seg2_core_ids(self) -> list[int]:
        return list(range(self.n_seg1_cores, self.n_cores))

    def ops_by_unit(self) -> dict[tuple, int]:
        """AND-gate counts per functional unit (for the figure benches)."""
        counts: dict[tuple, int] = {}
        for gate in self.netlist.gates:
            if gate.is_free:
                continue
            tag = self.tags.get(gate.index, ("untagged",))
            if tag[0] == "seg1":
                unit = tag[:2]  # ("seg1", core m)
            elif tag[0] == "tree":
                unit = tag[:3]  # ("tree", level, adder j)
            else:
                unit = (tag[0],)
            counts[unit] = counts.get(unit, 0) + 1
        return counts


def _tagged_cond_negate(b: NetlistBuilder, bus: Bus, sign: Sig, unit: str) -> Bus:
    """Conditional negate with per-bit tags (1 AND per bit)."""
    out: Bus = []
    carry: Sig = sign
    for i, bit in enumerate(bus):
        inverted = b.XOR(bit, sign)
        with b.tagged(unit, i):
            out.append(b.XOR(inverted, carry))
            carry = b.AND(inverted, carry)
    return out


def _tagged_serial_add(
    b: NetlistBuilder,
    lo: Bus,
    hi: Bus,
    tag: tuple,
    cin: Sig = ZERO,
) -> Bus:
    """Ripple (serial) adder with per-bit tags; widths may differ."""
    width = max(len(lo), len(hi)) + 1
    lo = zero_extend(lo, width)
    hi = zero_extend(hi, width)
    out: Bus = []
    carry = cin
    for n, (u, v) in enumerate(zip(lo, hi)):
        with b.tagged(*tag, n):
            s, carry = full_adder(b, u, v, carry)
        out.append(s)
    return out


def build_scheduled_mac(
    bitwidth: int,
    acc_width: int | None = None,
) -> ScheduledMacCircuit:
    """Build the tagged MAXelerator round circuit.

    Inputs: ``a`` (garbler, the model weight), ``x`` (evaluator, the
    client datum), accumulator as sequential state.
    """
    if bitwidth not in SUPPORTED_BITWIDTHS:
        raise ConfigurationError(
            f"bit-width {bitwidth} unsupported; pick one of {SUPPORTED_BITWIDTHS}"
        )
    acc_width = acc_width or default_acc_width(bitwidth)
    if acc_width < 2 * bitwidth:
        raise ConfigurationError(
            f"accumulator must be at least 2b = {2 * bitwidth} bits, got {acc_width}"
        )

    b = NetlistBuilder(f"maxelerator_mac{bitwidth}")
    a = b.garbler_input_bus(bitwidth)
    x = b.evaluator_input_bus(bitwidth)
    acc = b.state_input_bus(acc_width)

    sign_a, sign_x = a[-1], x[-1]
    mag_a = _tagged_cond_negate(b, a, sign_a, "aneg")
    mag_x = _tagged_cond_negate(b, x, sign_x, "xneg")

    # ------------------------------------------------------------------
    # Segment 1 (MUX_ADD): one core per pair of x bits (Figure 3)
    # ------------------------------------------------------------------
    streams: list[tuple[Bus, int]] = []  # (digit-slice stream, weight 4^m)
    for m in range(bitwidth // 2):
        x_lo, x_hi = mag_x[2 * m], mag_x[2 * m + 1]
        row_lo: Bus = []
        row_hi: Bus = [ZERO]
        for n, a_bit in enumerate(mag_a):
            with b.tagged("seg1", m, n, "pp_lo"):
                row_lo.append(b.AND(a_bit, x_lo))
            with b.tagged("seg1", m, n + 1, "pp_hi"):
                row_hi.append(b.AND(a_bit, x_hi))
        row_lo += [ZERO, ZERO]
        row_hi += [ZERO]
        # serial adder: s_m[n] needs 1 AND per bit (Figure 3's "add")
        s_m: Bus = []
        carry: Sig = ZERO
        for n, (u, v) in enumerate(zip(row_lo, row_hi)):
            with b.tagged("seg1", m, n, "add"):
                total, carry = full_adder(b, u, v, carry)
            s_m.append(total)
        streams.append((s_m, 2 * m))

    # ------------------------------------------------------------------
    # Segment 2 (TREE): combine streams pairwise; shifts become delays
    # ------------------------------------------------------------------
    level = 0
    while len(streams) > 1:
        merged: list[tuple[Bus, int]] = []
        for j in range(0, len(streams) - 1, 2):
            (lo, lo_w), (hi, hi_w) = streams[j], streams[j + 1]
            shift = hi_w - lo_w  # delay registers of `shift` stages
            hi_shifted: Bus = [ZERO] * shift + list(hi)
            summed = _tagged_serial_add(b, lo, hi_shifted, ("tree", level, j // 2))
            merged.append((summed, lo_w))
        if len(streams) % 2:
            merged.append(streams[-1])
        streams = merged
        level += 1
    product, weight = streams[0]
    product = ([ZERO] * weight + list(product))[: 2 * bitwidth]
    product = zero_extend(product, 2 * bitwidth)

    # ------------------------------------------------------------------
    # Accumulator with fused conditional subtract (sign fix-up)
    # ------------------------------------------------------------------
    sign_p = b.XOR(sign_a, sign_x)
    signed_product = [b.XOR(p, sign_p) for p in zero_extend(product, acc_width)]
    out: Bus = []
    carry = sign_p
    for n, (u, v) in enumerate(zip(acc, signed_product)):
        with b.tagged("acc", n):
            total, carry = full_adder(b, u, v, carry)
        out.append(total)

    b.set_outputs(out)
    netlist = b.build()
    circuit = SequentialCircuit(netlist, state_feedback=list(range(acc_width)))
    return ScheduledMacCircuit(
        bitwidth=bitwidth,
        acc_width=acc_width,
        circuit=circuit,
        tags=dict(b.tags),
    )
