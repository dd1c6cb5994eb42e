"""Finite-precision robustness: perturb one control parameter by one unit
in its last printed significant digit and re-evaluate Tr P with the control
modification frozen at the unperturbed optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import metrics, noc, propagate
from .config import ConfigError

# unit-in-last-place of each printed nominal parameter
ULP = {
    "not": {"lam": 1e-3, "eta4": 1e-7},
    "hadamard": {"lam": 1e-3, "eta4": 1e-7},
    "pi8": {"lam": 1e-3, "eta4": 1e-7},
    "phase": {"lam": 1e-3, "eta4": 1e-7},
    "cphase": {"lam": 1e-1, "eta4": 1e-5, "d1": 1e-3, "d2": 1e-1,
               "d3": 1e-2, "d4": 1e-4, "c4": 1e-4},
}


@dataclass(frozen=True)
class SensitivityRow:
    parameter: str
    value: float
    trp_with_noc: float
    trp_without_noc: float


def parameter_ulp(gate_name: str, parameter: str) -> float:
    try:
        return ULP[gate_name][parameter]
    except KeyError:
        raise ConfigError(
            f"no printed-precision entry for {parameter!r} of gate {gate_name!r}"
        ) from None


def run_sensitivity(improved: noc.ImprovedGateResult, parameter: str):
    """Tr P with and without the frozen control correction at -1/0/+1 ULP.

    The perturbed sweeps run on the grid of `improved`, with its control
    correction frozen, as one batched integration of four members:
    (-1 ULP, +1 ULP) x (with, without the correction), final propagators
    only (propagate.propagate_finals).  The zero row is the ideal pipeline
    output: the two final propagators of `improved`.  A parameter without
    a printed-precision entry raises ConfigError (parameter_ulp).
    """
    gate, p = improved.gate, improved.params
    ulp = parameter_ulp(gate.name, parameter)
    base = getattr(p, parameter)
    low, high = base - ulp, base + ulp
    members = [(replace(p, **{parameter: value}), controlled)
               for value in (low, high) for controlled in (True, False)]
    finals = propagate.propagate_finals(members, improved.control.grid,
                                        improved.control.samples)
    pairs = [
        (low, finals[0], finals[1]),
        (base, improved.improved_unitary, improved.nominal_unitary),
        (high, finals[2], finals[3]),
    ]
    return [
        SensitivityRow(
            parameter=parameter,
            value=float(value),
            trp_with_noc=metrics.trace_p(with_noc, gate.sweep_unitary),
            trp_without_noc=metrics.trace_p(without, gate.sweep_unitary),
        )
        for value, with_noc, without in pairs
    ]
