"""MAXelerator: the paper's FPGA accelerator as a cycle-accurate simulation."""

from repro.accel.bitstream import schedule_from_json, schedule_to_json
from repro.accel.energy import EnergyReport, energy_report
from repro.accel.fleet import FleetModel, FleetPlan
from repro.accel.engine import GCCore, GCEngine
from repro.accel.fsm import AcceleratorFSM, AcceleratorRun
from repro.accel.label_generator import LabelGenerator, LabelGenStats
from repro.accel.maxelerator import (
    DEFAULT_CLOCK_MHZ,
    MAXelerator,
    TimingModel,
)
from repro.accel.memory import CoreMemorySimulator, TransferReport
from repro.accel.resources import PAPER_TABLE1, ResourceEstimate, ResourceModel
from repro.accel.schedule import MacSchedule, ScheduledOp, schedule_rounds
from repro.accel.tree_mac import (
    CYCLES_PER_STAGE,
    ScheduledMacCircuit,
    build_scheduled_mac,
    seg1_cores,
    seg2_cores,
    total_cores,
)

__all__ = [
    "AcceleratorFSM",
    "EnergyReport",
    "FleetModel",
    "FleetPlan",
    "energy_report",
    "schedule_from_json",
    "schedule_to_json",
    "AcceleratorRun",
    "CoreMemorySimulator",
    "CYCLES_PER_STAGE",
    "DEFAULT_CLOCK_MHZ",
    "GCCore",
    "GCEngine",
    "LabelGenStats",
    "LabelGenerator",
    "MAXelerator",
    "MacSchedule",
    "PAPER_TABLE1",
    "ResourceEstimate",
    "ResourceModel",
    "ScheduledMacCircuit",
    "ScheduledOp",
    "TimingModel",
    "TransferReport",
    "build_scheduled_mac",
    "schedule_rounds",
    "seg1_cores",
    "seg2_cores",
    "total_cores",
]
