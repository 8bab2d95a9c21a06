"""Deterministic fault-injection testkit for the GC serving stack.

The production claim this package tests: under any single injected
fault — wire damage, stalls, pool exhaustion, a poisoned request, an
aborted handshake — a session either completes with the bit-identical
MAC result or fails with a typed :mod:`repro.errors` error within a
deadline.  Never a hang, never a silent wrong answer.

Pieces:

* :mod:`repro.testkit.faults` — the seeded, serialisable
  :class:`FaultPlan` DSL;
* :mod:`repro.testkit.endpoint` — :class:`FaultyEndpoint` wrappers that
  inject a plan below the integrity trailer, on either transport;
* :mod:`repro.testkit.oracle` — the :class:`ConformanceOracle` that
  classifies every faulted session as tolerated / surfaced / violation;
* :mod:`repro.testkit.chaos` — the seeded chaos suite behind
  ``python -m repro chaos``.
"""

from repro.testkit.chaos import (
    PROFILES,
    ChaosConfig,
    ChaosReport,
    ChaosRunner,
    derive_session_seed,
)
from repro.testkit.endpoint import TRANSPORTS, FaultyEndpoint, faulty_pair
from repro.testkit.faults import (
    ALL_FAULT_KINDS,
    DISCONNECT,
    DISCONNECT_PROCESS,
    DISCONNECT_TENANT,
    DRAIN_GATEWAY,
    ENDPOINT_FAULT_KINDS,
    ENVIRONMENT_FAULT_KINDS,
    HANDOFF_FAULT_KINDS,
    KILL_GATEWAY,
    KILL_PROCESS,
    POISON_TENANT,
    PROCESS_FAULT_KINDS,
    RECOVERY_FAULT_KINDS,
    RETRYABLE_KINDS,
    SHED,
    STALL_TENANT,
    TENANT_FAULT_KINDS,
    TERM_PROCESS,
    FaultPlan,
    FaultSpec,
)
from repro.testkit.oracle import (
    CONTRACTS,
    RECOVERED,
    SURFACED,
    TOLERATED,
    VIOLATION,
    ConformanceOracle,
    SessionVerdict,
    contract_for,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "CONTRACTS",
    "ChaosConfig",
    "ChaosReport",
    "ChaosRunner",
    "ConformanceOracle",
    "DISCONNECT",
    "DISCONNECT_PROCESS",
    "DISCONNECT_TENANT",
    "DRAIN_GATEWAY",
    "ENDPOINT_FAULT_KINDS",
    "ENVIRONMENT_FAULT_KINDS",
    "HANDOFF_FAULT_KINDS",
    "KILL_GATEWAY",
    "KILL_PROCESS",
    "FaultPlan",
    "FaultSpec",
    "FaultyEndpoint",
    "POISON_TENANT",
    "PROCESS_FAULT_KINDS",
    "PROFILES",
    "RECOVERED",
    "RECOVERY_FAULT_KINDS",
    "RETRYABLE_KINDS",
    "SHED",
    "STALL_TENANT",
    "SURFACED",
    "SessionVerdict",
    "TENANT_FAULT_KINDS",
    "TERM_PROCESS",
    "TOLERATED",
    "TRANSPORTS",
    "VIOLATION",
    "contract_for",
    "derive_session_seed",
    "faulty_pair",
]
