"""Complete two-party GC execution over a channel (with OT).

Protocol flow (honest-but-curious, Section 3 of the paper):

1. garbler garbles the netlist and streams the tables;
2. garbler sends the active labels of its own inputs and constants;
3. evaluator obtains labels for its input bits via OT (extension for
   large inputs);
4. garbler sends the output map (permute bits);
5. evaluator evaluates and decodes; optionally returns output labels so
   the garbler learns the result too.

Every message crosses the byte-accounted channel, so protocol benches
report exact traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import Netlist
from repro.crypto.labels import LabelFactory
from repro.crypto.ot import DEFAULT_GROUP, DHGroup, ot_receiver, ot_sender
from repro.errors import GCProtocolError
from repro.gc.channel import Endpoint, local_channel, run_two_party
from repro.gc.evaluate import EvaluationResult, Evaluator
from repro.gc.garble import Garbler
from repro.gc.tables import deserialize_tables, serialize_tables
from repro.telemetry import MetricsRegistry

REVEAL_MODES = ("evaluator", "garbler", "both")


@dataclass
class ProtocolReport:
    """What one party saw during a protocol run."""

    output_bits: list[int] | None
    bytes_sent: int
    bytes_by_tag: dict[str, int]
    hash_calls: int
    n_tables: int


def _check_reveal(reveal: str) -> None:
    if reveal not in REVEAL_MODES:
        raise GCProtocolError(f"reveal must be one of {REVEAL_MODES}, got '{reveal}'")


class GarblerParty:
    """Server side: owns the model inputs, garbles, never sees client data."""

    def __init__(
        self,
        netlist: Netlist,
        channel: Endpoint,
        group: DHGroup = DEFAULT_GROUP,
        factory: LabelFactory | None = None,
        telemetry: MetricsRegistry | None = None,
    ):
        self.netlist = netlist
        self.channel = channel
        self.group = group
        self.garbler = Garbler(netlist, factory=factory)
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()

    def run(self, input_bits: list[int], reveal: str = "evaluator") -> ProtocolReport:
        _check_reveal(reveal)
        net = self.netlist
        tm = self.telemetry
        if len(input_bits) != len(net.garbler_inputs):
            raise GCProtocolError(
                f"garbler expected {len(net.garbler_inputs)} input bits, "
                f"got {len(input_bits)}"
            )
        with tm.timer("protocol.garble"):
            gc = self.garbler.garble()
        tm.counter("gc.hash_calls").inc(gc.hash_calls)

        chan = self.channel
        with tm.timer("protocol.stream"):
            chan.send("gc.tables", serialize_tables(gc.tables))
            tm.counter("stream.tables").inc(len(gc.tables))
            chan.send_u128_list(
                "gc.garbler_labels", gc.input_labels_for(net.garbler_inputs, input_bits)
            )
            const_wires = sorted(net.constants)
            chan.send_u128_list(
                "gc.const_labels",
                gc.input_labels_for(const_wires, [net.constants[w] for w in const_wires]),
            )

        pairs = gc.evaluator_input_pairs()
        if pairs:
            sender = ot_sender(chan, len(pairs), self.group)
            with tm.timer("protocol.ot"):
                sender.send(pairs)
            tm.counter("ot.transfers").inc(len(pairs))

        if reveal in ("evaluator", "both"):
            chan.send("gc.output_map", bytes(gc.output_permute_bits))

        output_bits = None
        if reveal in ("garbler", "both"):
            labels = chan.recv_u128_list("gc.output_labels")
            output_bits = gc.decode(labels)

        return ProtocolReport(
            output_bits=output_bits,
            bytes_sent=chan.sent.payload_bytes,
            bytes_by_tag=dict(chan.sent.by_tag),
            hash_calls=gc.hash_calls,
            n_tables=len(gc.tables),
        )


class EvaluatorParty:
    """Client side: supplies private inputs via OT and evaluates."""

    def __init__(
        self,
        netlist: Netlist,
        channel: Endpoint,
        group: DHGroup = DEFAULT_GROUP,
    ):
        self.netlist = netlist
        self.channel = channel
        self.group = group
        self.evaluator = Evaluator(netlist)

    def run(self, input_bits: list[int], reveal: str = "evaluator") -> ProtocolReport:
        _check_reveal(reveal)
        net = self.netlist
        if len(input_bits) != len(net.evaluator_inputs):
            raise GCProtocolError(
                f"evaluator expected {len(net.evaluator_inputs)} input bits, "
                f"got {len(input_bits)}"
            )
        chan = self.channel
        nonfree = [g.index for g in net.gates if not g.is_free]
        tables = deserialize_tables(chan.recv("gc.tables"), nonfree)
        garbler_labels = chan.recv_u128_list("gc.garbler_labels")
        const_labels = chan.recv_u128_list("gc.const_labels")

        my_labels: list[int] = []
        if net.evaluator_inputs:
            receiver = ot_receiver(chan, len(net.evaluator_inputs), self.group)
            my_labels = receiver.receive(list(input_bits))

        labels: dict[int, int] = {}
        for wire, label in zip(net.garbler_inputs, garbler_labels):
            labels[wire] = label
        for wire, label in zip(sorted(net.constants), const_labels):
            labels[wire] = label
        for wire, label in zip(net.evaluator_inputs, my_labels):
            labels[wire] = label

        output_map = None
        if reveal in ("evaluator", "both"):
            output_map = list(chan.recv("gc.output_map"))

        result: EvaluationResult = self.evaluator.evaluate(tables, labels, output_map)

        if reveal in ("garbler", "both"):
            chan.send_u128_list("gc.output_labels", result.output_labels)

        return ProtocolReport(
            output_bits=result.output_bits,
            bytes_sent=chan.sent.payload_bytes,
            bytes_by_tag=dict(chan.sent.by_tag),
            hash_calls=result.hash_calls,
            n_tables=len(tables),
        )


def run_protocol(
    netlist: Netlist,
    garbler_bits: list[int],
    evaluator_bits: list[int],
    reveal: str = "evaluator",
    group: DHGroup = DEFAULT_GROUP,
    telemetry: MetricsRegistry | None = None,
    channels: tuple[Endpoint, Endpoint] | None = None,
) -> tuple[ProtocolReport, ProtocolReport]:
    """Run both parties concurrently; returns both reports.

    ``channels`` is any connected endpoint pair — the in-memory default,
    or socket endpoints (:func:`repro.net.socketpair_endpoints`) to run
    the classic protocol over a real wire.
    """
    if channels is None:
        channels = local_channel(telemetry=telemetry)
    g_chan, e_chan = channels
    garbler = GarblerParty(netlist, g_chan, group, telemetry=telemetry)
    evaluator = EvaluatorParty(netlist, e_chan, group)
    return run_two_party(
        lambda: garbler.run(garbler_bits, reveal),
        lambda: evaluator.run(evaluator_bits, reveal),
    )
