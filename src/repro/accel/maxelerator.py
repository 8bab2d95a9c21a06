"""MAXelerator top level: the accelerator as a protocol party.

:class:`MAXelerator` bundles the scheduled MAC circuit, the FSM
simulator, the timing model (Table 2's MAXelerator column) and the
PCIe/memory model.  :class:`MaxSequentialGarbler` streams through the
same garbler-side code as the software
:class:`repro.gc.sequential_gc.SequentialGarbler`, so the unmodified
client-side evaluator works against it — the paper's
"the hardware acceleration is transparent to the evaluator".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.accel.fsm import AcceleratorFSM, AcceleratorRun
from repro.accel.label_generator import LabelGenerator
from repro.accel.memory import (
    DEFAULT_PCIE_MB_PER_S,
    CoreMemorySimulator,
    TransferReport,
)
from repro.accel.schedule import MacSchedule, schedule_rounds
from repro.accel.tree_mac import (
    CYCLES_PER_STAGE,
    ScheduledMacCircuit,
    build_scheduled_mac,
    total_cores,
)
from repro.crypto.ot import DEFAULT_GROUP, DHGroup
from repro.errors import ConfigurationError, GCProtocolError
from repro.gc.channel import Endpoint
from repro.gc.sequential_gc import (
    OT_MODES,
    SequentialReport,
    SequentialStreamer,
    materials_for_run,
)
from repro.gc.stage_plan import StagePlan, stage_plan_for
from repro.gc.vector_garble import VectorRun, garble_mac_runs

DEFAULT_CLOCK_MHZ = 200.0  # Virtex UltraSCALE implementation result


@dataclass(frozen=True)
class TimingModel:
    """Steady-state throughput figures (the MAXelerator column of Table 2)."""

    bitwidth: int
    clock_mhz: float = DEFAULT_CLOCK_MHZ

    @property
    def cycles_per_mac(self) -> int:
        """3b: one MAC initiated every b stages of 3 cycles."""
        return CYCLES_PER_STAGE * self.bitwidth

    @property
    def time_per_mac_s(self) -> float:
        return self.cycles_per_mac / (self.clock_mhz * 1e6)

    @property
    def macs_per_second(self) -> float:
        return 1.0 / self.time_per_mac_s

    @property
    def n_cores(self) -> int:
        return total_cores(self.bitwidth)

    @property
    def macs_per_second_per_core(self) -> float:
        return self.macs_per_second / self.n_cores

    def matmul_cycles(self, m: int, n: int, p: int) -> int:
        """Section 4.3: one (m x n)·(n x p) product per 3MNPb cycles."""
        return self.cycles_per_mac * m * n * p

    def matmul_time_s(self, m: int, n: int, p: int) -> float:
        return self.matmul_cycles(m, n, p) / (self.clock_mhz * 1e6)


class MAXelerator:
    """The accelerator: scheduled circuit + FSM + timing + transfer model."""

    def __init__(
        self,
        bitwidth: int,
        acc_width: int | None = None,
        clock_mhz: float = DEFAULT_CLOCK_MHZ,
        pcie_mb_per_s: float = DEFAULT_PCIE_MB_PER_S,
        seed: int | None = None,
    ):
        if clock_mhz <= 0:
            raise ConfigurationError("clock must be positive")
        self.circuit: ScheduledMacCircuit = build_scheduled_mac(bitwidth, acc_width)
        #: the round netlist's stage plan, resolved once for every
        #: vectorised garbling of this accelerator's circuit
        self.plan: StagePlan = stage_plan_for(self.circuit.netlist)
        self.timing = TimingModel(bitwidth, clock_mhz)
        self.pcie_mb_per_s = pcie_mb_per_s
        self._seed = seed
        self._garble_count = 0
        self._schedule_cache: dict[int, MacSchedule] = {}
        # the serving layer garbles from several threads at once; the
        # seed-diversification counter and schedule cache are shared state
        self._lock = threading.Lock()

    @property
    def bitwidth(self) -> int:
        return self.circuit.bitwidth

    @property
    def acc_width(self) -> int:
        return self.circuit.acc_width

    @property
    def n_cores(self) -> int:
        return self.circuit.n_cores

    # ------------------------------------------------------------------
    def schedule(self, n_rounds: int) -> MacSchedule:
        with self._lock:
            cached = self._schedule_cache.get(n_rounds)
        if cached is None:
            cached = schedule_rounds(self.circuit, n_rounds)
            with self._lock:
                self._schedule_cache.setdefault(n_rounds, cached)
                cached = self._schedule_cache[n_rounds]
        return cached

    def garble(self, n_rounds: int) -> AcceleratorRun:
        """Garble an M-round MAC (one dot-product element) on the FSM.

        Every call uses fresh labels — even under a fixed seed the seed
        is diversified per garbling, because label reuse across garblings
        of the same circuit breaks GC security (Section 3: "new labels
        are required for every garbling operation").
        """
        with self._lock:
            seed = None if self._seed is None else self._seed + self._garble_count
            self._garble_count += 1
        fsm = AcceleratorFSM(self.circuit, seed=seed)
        return fsm.garble_rounds(n_rounds, self.schedule(n_rounds))

    def garble_vectorized(
        self, n_rounds: int, n_runs: int = 1, telemetry=None
    ) -> list[VectorRun]:
        """Garble ``n_runs`` independent MAC runs in one vectorised pass.

        Every run still gets fresh labels from its own label generator
        — the same AES-CTR DRBG and the same per-garbling seed
        diversification as :meth:`garble` ("new labels per garbling");
        the vectorisation only batches the AES work of runs that share
        this circuit's fingerprint, it never shares label material.
        Returns a list of ``n_runs`` :class:`~repro.gc.vector_garble.
        VectorRun` objects that duck-type :class:`AcceleratorRun` for
        the serving/recovery layers.
        """
        if n_runs <= 0:
            raise ConfigurationError("n_runs must be positive")
        with self._lock:
            base = None if self._seed is None else self._seed + self._garble_count
            self._garble_count += n_runs
        factories = [
            LabelGenerator(
                self.bitwidth, seed=None if base is None else base + i
            ).factory
            for i in range(n_runs)
        ]
        return garble_mac_runs(
            self.circuit, n_rounds, factories, telemetry=telemetry, plan=self.plan
        )

    def transfer_report(self, run: AcceleratorRun) -> TransferReport:
        sim = CoreMemorySimulator(
            self.n_cores,
            clock_mhz=self.timing.clock_mhz,
            pcie_mb_per_s=self.pcie_mb_per_s,
        )
        return sim.simulate(run.writes_by_cycle())

    def garbling_time_s(self, run: AcceleratorRun) -> float:
        return run.total_cycles / (self.timing.clock_mhz * 1e6)


class MaxSequentialGarbler:
    """Drop-in replacement for the software SequentialGarbler.

    Garbles ahead of time on the accelerator (the paper's 'stored garbled
    circuits' usage), then streams the run through the one garbler-side
    dialogue (:class:`~repro.gc.sequential_gc.SequentialStreamer`); the
    host CPU's reorder buffer presents each round's tables in netlist
    order.
    """

    def __init__(
        self,
        accelerator: MAXelerator,
        channel: Endpoint,
        group: DHGroup = DEFAULT_GROUP,
    ):
        self.accelerator = accelerator
        self.channel = channel
        self.group = group
        self.last_run: AcceleratorRun | None = None

    def run(
        self,
        round_inputs: list[list[int]],
        reveal: str = "evaluator",
        ot_mode: str = "per_round",
    ) -> SequentialReport:
        rounds = len(round_inputs)
        if rounds == 0:
            raise GCProtocolError("sequential GC needs at least one round")
        if ot_mode not in OT_MODES:
            raise GCProtocolError(f"ot_mode must be one of {OT_MODES}")

        run = self.accelerator.garble(rounds)
        self.last_run = run
        reveal_map = run.output_permute_bits if reveal in ("evaluator", "both") else None
        SequentialStreamer(
            self.channel,
            materials_for_run(run, round_inputs),
            reveal_map,
            ot_mode,
            self.group,
        ).run()
        output_bits = None
        if reveal in ("garbler", "both"):
            labels = self.channel.recv_u128_list("seq.output_labels")
            output_bits = [
                pair.decode(label)
                for pair, label in zip(run.rounds[-1].output_pairs, labels)
            ]

        return SequentialReport(
            rounds=rounds,
            output_bits=output_bits,
            bytes_sent=self.channel.sent.payload_bytes,
            n_tables=run.total_tables,
            hash_calls=run.hash_calls,
        )
