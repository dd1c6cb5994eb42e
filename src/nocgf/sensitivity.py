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

    The sweeps perturb the sweep parameters of `improved` and run on its
    grid, with its control correction frozen.  The zero row is the ideal
    pipeline output: the two final propagators of `improved`.
    """
    gate, p = improved.gate, improved.params
    if not hasattr(p, parameter):
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    ulp = parameter_ulp(gate.name, parameter)
    grid = improved.control.grid
    delta_f = improved.control.samples
    base = getattr(p, parameter)

    rows = []
    for shift in (-1, 0, 1):
        value = base + shift * ulp
        if shift == 0:
            with_noc, without = improved.improved_unitary, improved.nominal_unitary
        else:
            pp = replace(p, **{parameter: value})
            with_noc = propagate.propagate_sweep(pp, grid, delta_f).final
            without = propagate.propagate_sweep(pp, grid).final
        rows.append(
            SensitivityRow(
                parameter=parameter,
                value=value,
                trp_with_noc=metrics.trace_p(with_noc, gate.sweep_unitary),
                trp_without_noc=metrics.trace_p(without, gate.sweep_unitary),
            )
        )
    return rows
