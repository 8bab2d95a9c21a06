"""FPGA resource model reproducing Table 1 (LUT / LUTRAM / FF per MAC unit).

We have no Vivado, so resources are estimated from a component model:

    resource(b) = c_core * n_cores(b) + c_rng * rng_cells(b) + c_delay * b^2

* ``n_cores`` — each GC core carries a single-stage AES datapath plus
  its control (dominant LUT/FF term);
* ``rng_cells = k * b/2`` — the ring-oscillator bank of the label
  generator (Section 5.2);
* ``b^2`` — the k-bit delay shift registers realising the tree shifts
  (total delay stages grow quadratically with b).

The three nonnegative coefficients per resource type are calibrated
once against the paper's three published points (b = 8, 16, 32) with
nonnegative least squares; :func:`model_report` prints paper-vs-model
residuals, and :func:`estimate` extrapolates to other widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.tree_mac import total_cores
from repro.crypto.labels import K_BITS
from repro.errors import ConfigurationError

#: Table 1 of the paper: resource usage of one MAC unit.
PAPER_TABLE1 = {
    8: {"LUT": 2.95e4, "LUTRAM": 1.28e2, "FF": 2.44e4},
    16: {"LUT": 5.91e4, "LUTRAM": 3.84e2, "FF": 4.88e4},
    32: {"LUT": 1.11e5, "LUTRAM": 6.40e2, "FF": 8.40e4},
}

MAX_CLOCK_MHZ = 200.0  # paper: maximum supported clock on the UltraSCALE


def _components(bitwidth: int) -> list[float]:
    return [
        float(total_cores(bitwidth)),
        float(K_BITS * bitwidth // 2),
        float(bitwidth * bitwidth),
    ]


COMPONENT_NAMES = ("per_core", "per_rng_cell", "per_delay_b2")


@dataclass(frozen=True)
class ResourceEstimate:
    bitwidth: int
    lut: float
    lutram: float
    flip_flop: float

    def as_dict(self) -> dict[str, float]:
        return {"LUT": self.lut, "LUTRAM": self.lutram, "FF": self.flip_flop}


class ResourceModel:
    """Component-based resource estimator calibrated to Table 1."""

    def __init__(self) -> None:
        # imported here, not at module level: scipy.optimize is ~29 MB of
        # resident memory that a serving gateway (which imports this
        # package but never fits Table 1) would otherwise carry
        from scipy.optimize import nnls

        widths = sorted(PAPER_TABLE1)
        a = np.array([_components(b) for b in widths])
        self.coefficients: dict[str, np.ndarray] = {}
        self.residual_norm: dict[str, float] = {}
        for resource in ("LUT", "LUTRAM", "FF"):
            y = np.array([PAPER_TABLE1[b][resource] for b in widths])
            coeff, residual = nnls(a, y)
            self.coefficients[resource] = coeff
            self.residual_norm[resource] = float(residual)

    def estimate(self, bitwidth: int) -> ResourceEstimate:
        if bitwidth < 4 or bitwidth % 2:
            raise ConfigurationError(f"unsupported bit-width {bitwidth}")
        comps = np.array(_components(bitwidth))
        return ResourceEstimate(
            bitwidth=bitwidth,
            lut=float(comps @ self.coefficients["LUT"]),
            lutram=float(comps @ self.coefficients["LUTRAM"]),
            flip_flop=float(comps @ self.coefficients["FF"]),
        )

    def relative_error(self, bitwidth: int) -> dict[str, float]:
        """(model - paper) / paper for one of the published widths."""
        if bitwidth not in PAPER_TABLE1:
            raise ConfigurationError(f"paper reports no data for b={bitwidth}")
        est = self.estimate(bitwidth).as_dict()
        return {
            res: (est[res] - val) / val for res, val in PAPER_TABLE1[bitwidth].items()
        }

    def scaling_is_roughly_linear(self) -> bool:
        """The paper's claim: utilisation increases linearly with b."""
        e8, e32 = self.estimate(8), self.estimate(32)
        return e32.lut / e8.lut < 8.0  # far closer to 4x than to 16x

    def model_report(self) -> str:
        lines = ["Resource model (paper Table 1 vs component fit):"]
        header = f"  {'b':>3} {'resource':>8} {'paper':>12} {'model':>12} {'err':>8}"
        lines.append(header)
        for b in sorted(PAPER_TABLE1):
            est = self.estimate(b).as_dict()
            for res, val in PAPER_TABLE1[b].items():
                err = (est[res] - val) / val
                lines.append(
                    f"  {b:>3} {res:>8} {val:>12.3g} {est[res]:>12.4g} {err:>7.1%}"
                )
        return "\n".join(lines)
