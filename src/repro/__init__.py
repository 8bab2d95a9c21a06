"""MAXelerator reproduction: privacy-preserving MAC on a simulated FPGA.

A full-system Python reproduction of *MAXelerator: FPGA Accelerator for
Privacy Preserving Multiply-Accumulate (MAC) on Cloud Servers* (DAC'18):
the garbled-circuit protocol stack (fixed-key AES, half gates, free XOR,
OT), the Boolean netlist substrate, the cycle-accurate accelerator
simulation, the software/overlay baselines, and the ML case studies.

Quick start::

    import numpy as np
    from repro import PrivateMatVec, Q16_8

    server_matrix = np.array([[1.5, -2.25], [0.5, 3.0]])
    client_vector = np.array([2.0, -1.25])
    pm = PrivateMatVec(server_matrix, Q16_8, backend="maxelerator")
    report = pm.run_with_client(client_vector)
    print(report.result)          # == server_matrix @ client_vector
"""

from repro.accel import (
    MAXelerator,
    ResourceModel,
    TimingModel,
    build_scheduled_mac,
    schedule_rounds,
)
from repro.apps import (
    PortfolioRuntimeModel,
    PrivateGradientSolver,
    PrivateMLP,
    PrivateMatVec,
    PrivateMatrixFactorization,
    PrivatePortfolioAnalysis,
    PrivateRidgeRegression,
    RecommenderRuntimeModel,
    RidgeRuntimeModel,
    private_dot,
)
from repro.baselines import GarbledCPUModel, OverlayModel, TinyGarbleModel
from repro.circuits import (
    NetlistBuilder,
    build_mac_netlist,
    build_multiplier_netlist,
    build_sequential_mac,
)
from repro.fixedpoint import FixedPointFormat, Q8_4, Q16_8, Q32_16
from repro.gc import run_protocol, run_sequential
from repro.host import AnalyticsClient, CloudServer
from repro.perf import Table2

__version__ = "1.0.0"

__all__ = [
    "AnalyticsClient",
    "CloudServer",
    "FixedPointFormat",
    "GarbledCPUModel",
    "MAXelerator",
    "NetlistBuilder",
    "OverlayModel",
    "PortfolioRuntimeModel",
    "PrivateGradientSolver",
    "PrivateMLP",
    "PrivateMatVec",
    "PrivateMatrixFactorization",
    "PrivatePortfolioAnalysis",
    "PrivateRidgeRegression",
    "Q16_8",
    "Q32_16",
    "Q8_4",
    "RecommenderRuntimeModel",
    "ResourceModel",
    "RidgeRuntimeModel",
    "Table2",
    "TimingModel",
    "TinyGarbleModel",
    "build_mac_netlist",
    "build_multiplier_netlist",
    "build_scheduled_mac",
    "build_sequential_mac",
    "private_dot",
    "run_protocol",
    "run_sequential",
    "schedule_rounds",
]
