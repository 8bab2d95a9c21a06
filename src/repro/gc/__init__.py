"""Garbled-circuit protocol: garbler, evaluator, channel, sequential GC."""

from repro.gc.channel import Endpoint, TrafficStats, local_channel, run_two_party
from repro.gc.classic import ClassicEvaluator, ClassicGarbler
from repro.gc.evaluate import EvaluationResult, Evaluator
from repro.gc.garble import GarbledCircuit, Garbler
from repro.gc.protocol import (
    EvaluatorParty,
    GarblerParty,
    ProtocolReport,
    run_protocol,
)
from repro.gc.sequential_gc import (
    SequentialEvaluator,
    SequentialGarbler,
    SequentialReport,
    SequentialStreamer,
    run_sequential,
)
from repro.gc.stage_plan import StagePlan, netlist_fingerprint, plan_stages, stage_plan_for
from repro.gc.tables import TABLE_BYTES, GarbledTable
from repro.gc.vector_garble import VectorRun, garble_mac_runs

__all__ = [
    "ClassicEvaluator",
    "ClassicGarbler",
    "Endpoint",
    "EvaluationResult",
    "Evaluator",
    "EvaluatorParty",
    "GarbledCircuit",
    "GarbledTable",
    "Garbler",
    "GarblerParty",
    "ProtocolReport",
    "SequentialEvaluator",
    "SequentialGarbler",
    "SequentialReport",
    "SequentialStreamer",
    "StagePlan",
    "TABLE_BYTES",
    "TrafficStats",
    "VectorRun",
    "garble_mac_runs",
    "local_channel",
    "netlist_fingerprint",
    "plan_stages",
    "run_protocol",
    "run_sequential",
    "run_two_party",
    "stage_plan_for",
]
