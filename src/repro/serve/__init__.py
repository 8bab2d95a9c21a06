"""Concurrent serving layer: many clients against one :class:`CloudServer`.

The paper's Figure 1 system only makes sense operationally when the
host serves *sustained* traffic: requests queue, the pre-garbled pool
must be kept warm while requests drain it, and slow or stuck sessions
must time out instead of wedging a worker.  This package supplies that
layer:

* :class:`ServingConfig` — worker count, bounded queue depth
  (backpressure), per-request timeout, retry budget, refiller policy;
* :class:`PoolRefiller` — a background thread that keeps the
  pre-garbling pool at its target level between requests;
* :class:`ServingServer` — the thread-pool session manager with
  submit/query APIs and full telemetry;
* :class:`SLOController` — the tick-driven adaptive control loop
  (``ServingConfig(controller="slo")``) steering worker count, resume
  batching, and admission shed toward an explicit p99 target.
"""

from repro.serve.batcher import (
    BatchedResumeRequest,
    ResumeBatcher,
    ResumeHandle,
)
from repro.serve.config import (
    CONTROLLERS,
    SCHEDULERS,
    ServingConfig,
    resolve_backend,
    resolve_choice,
    resolve_controller,
    resolve_reaper_timeout,
    resolve_scheduler,
)
from repro.serve.control import (
    CONTROLLER_STATE_KEY,
    SLO_CLASSES,
    ControlDecision,
    LoadSample,
    OperatingPoint,
    SLOConfig,
    SLOController,
)
from repro.serve.refiller import PoolRefiller
from repro.serve.server import (
    PendingRequest,
    RemoteSessionRequest,
    ServingServer,
)
from repro.serve.tenants import DEFAULT_TENANT, GarbleStation, TenantScheduler

__all__ = [
    "BatchedResumeRequest",
    "CONTROLLER_STATE_KEY",
    "CONTROLLERS",
    "ControlDecision",
    "DEFAULT_TENANT",
    "GarbleStation",
    "LoadSample",
    "OperatingPoint",
    "PendingRequest",
    "PoolRefiller",
    "RemoteSessionRequest",
    "ResumeBatcher",
    "ResumeHandle",
    "SCHEDULERS",
    "SLO_CLASSES",
    "SLOConfig",
    "SLOController",
    "ServingConfig",
    "ServingServer",
    "TenantScheduler",
    "resolve_backend",
    "resolve_choice",
    "resolve_controller",
    "resolve_reaper_timeout",
    "resolve_scheduler",
]
