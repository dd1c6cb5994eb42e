"""nocgf: refine rapid-passage quantum gates with neighboring optimal control.

Takes a good sweep-generated gate and returns a better one: the nominal
sweep is integrated, the miss against the target is turned into a small
control correction (exponential-ansatz or Riccati feedback), and the
corrected sweep is re-integrated and scored.  Includes finite-precision
sensitivity and clock-jitter robustness experiments, plus control-waveform
bandwidth analysis.
"""

__version__ = "0.1.0"

from .control import (
    NOMINAL_PARAMS,
    SweepParams1Q,
    SweepParams2Q,
    coupling_matrices,
    drive_matrix,
    twist_phase,
)
from .metrics import (
    GATES,
    ErrorReport,
    GateTarget,
    d_star,
    error_report,
    fidelity,
    gate_target,
    target_offset,
    trace_p,
)
from .noc import ImprovedGateResult, improve_gate
from .noise import (
    NoiseParams,
    NoiseRealization,
    noise_ensemble,
    sample_realization,
    timing_jitter,
)
from .propagate import (
    TimeGrid,
    Trajectory,
    integrate_delta_y,
    propagate_sweep,
)
from .sensitivity import SensitivityRow, run_sensitivity
from .spectral import Spectrum, bandwidth_w01, control_spectrum, to_dimensionful

__all__ = [
    "__version__",
    "NOMINAL_PARAMS", "SweepParams1Q", "SweepParams2Q",
    "coupling_matrices", "drive_matrix", "twist_phase",
    "GATES", "ErrorReport", "GateTarget", "d_star", "error_report",
    "fidelity", "gate_target", "target_offset", "trace_p",
    "ImprovedGateResult", "improve_gate",
    "NoiseParams", "NoiseRealization", "noise_ensemble", "sample_realization",
    "timing_jitter",
    "TimeGrid", "Trajectory", "integrate_delta_y", "propagate_sweep",
    "SensitivityRow", "run_sensitivity",
    "Spectrum", "bandwidth_w01", "control_spectrum", "to_dimensionful",
]
