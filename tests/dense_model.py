"""Dense reference forms of the sweep model, for the tests.

The package writes the generator entry by entry (control.generator), and
forms G_j U and the drive matrix from the couplings' nonzero entries
(control._coupled, control.drive_matrix); control.coupling_matrices is
control._coupled of the identity.  The forms here build the same operators
as sums of Kronecker Paulis on dense (..., n, n) stacks, and the drive
matrix from a dense coupling stack: the textbook expressions the
entry-wise code is checked against.
"""

from __future__ import annotations

import numpy as np

from nocgf.control import SweepParams1Q, SweepParams2Q, twist_phase
from nocgf.lincore import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, component_major, entry_matmul

# two-qubit Pauli tensors, qubit 1 = left factor
SX1 = np.kron(SIGMA_X, ID2)
SY1 = np.kron(SIGMA_Y, ID2)
SZ1 = np.kron(SIGMA_Z, ID2)
SX2 = np.kron(ID2, SIGMA_X)
SY2 = np.kron(ID2, SIGMA_Y)
SZ2 = np.kron(ID2, SIGMA_Z)
ZZ = np.kron(SIGMA_Z, SIGMA_Z)

# projector onto |10>, the state the top sweep level connects to away from
# the edge anticrossings; used by the degeneracy-breaking term (see
# two_qubit_hamiltonian)
P_E4_DIABATIC = np.zeros((4, 4), dtype=complex)
P_E4_DIABATIC[2, 2] = 1.0


def one_qubit_field(tau, p: SweepParams1Q, noise=0.0) -> np.ndarray:
    """Control field (cos phi4, -sin phi4, tau)/lam; shape (..., 3).

    The transverse twist sense is the one for which the sweep crosses
    resonance at tau = 0 and +-1/sqrt(eta4): in the frame co-rotating with
    the twist, the longitudinal field is (tau - eta4 tau^3)/lam, whose zeros
    are exactly those times.  The opposite sense has a single resonance and
    a qualitatively different parameter sensitivity.
    """
    tau = np.asarray(tau, dtype=float)
    phi = twist_phase(tau, p, noise)
    return np.stack(
        [np.cos(phi) / p.lam, -np.sin(phi) / p.lam, tau / p.lam], axis=-1
    )


def one_qubit_hamiltonian(f: np.ndarray) -> np.ndarray:
    """Zeeman form -(f1 sx + f2 sy + f3 sz) for field samples (..., 3)."""
    f = np.asarray(f)
    return -(
        f[..., 0, None, None] * SIGMA_X
        + f[..., 1, None, None] * SIGMA_Y
        + f[..., 2, None, None] * SIGMA_Z
    )


def two_qubit_hamiltonian(tau, p: SweepParams2Q, noise=0.0) -> np.ndarray:
    """Two-qubit sweep Hamiltonian including the c4 degeneracy-breaking term.

    The term is c4 |10><10|: it shifts the z-basis state the top sweep level
    is connected to away from the edge anticrossings, which reproduces the
    reference controlled-phase gate.
    """
    tau = np.asarray(tau, dtype=float)
    phi = twist_phase(tau, p, noise)
    c, s = np.cos(phi), np.sin(phi)
    z1 = (-(p.d1 + p.d2) / 2.0 + tau / p.lam)[..., None, None]
    z2 = (-p.d2 / 2.0 + tau / p.lam)[..., None, None]
    c = c[..., None, None]
    s = s[..., None, None]
    return (
        z1 * SZ1
        + z2 * SZ2
        - (p.d3 / p.lam) * (c * SX1 + s * SY1)
        - (1.0 / p.lam) * (c * SX2 + s * SY2)
        - (np.pi * p.d4 / 2.0) * ZZ
    ) + p.c4 * P_E4_DIABATIC


def sweep_hamiltonian(tau, p, noise=0.0) -> np.ndarray:
    """Nominal sweep Hamiltonian for either system at times tau (...,)."""
    if p.qubits == 1:
        return one_qubit_hamiltonian(one_qubit_field(tau, p, noise))
    return two_qubit_hamiltonian(tau, p, noise)


def coupling_matrices(p, tau=None) -> np.ndarray:
    """Control coupling matrices G_j = dH/dF_j, stacked as (..., 3, n, n).

    One qubit: the constant triple (-sx, -sy, -sz).  Two qubits: the
    tau-dependent triple in the frames rotating at th1 = th2 + d1 (qubit 1)
    and th2 = d1 / (d3 - 1) (qubit 2).
    """
    if p.qubits == 1:
        return np.stack([-SIGMA_X, -SIGMA_Y, -SIGMA_Z])
    th2 = p.d1 / (p.d3 - 1.0)
    th1 = th2 + p.d1
    tau = np.asarray(tau, dtype=float)
    c1, s1 = np.cos(th1 * tau)[..., None, None], np.sin(th1 * tau)[..., None, None]
    c2, s2 = np.cos(th2 * tau)[..., None, None], np.sin(th2 * tau)[..., None, None]
    g1 = p.d3 * (c1 * SX1 + s1 * SY1) + (c2 * SX2 + s2 * SY2)
    g2 = p.d3 * (c1 * SY1 - s1 * SX1) + (c2 * SY2 - s2 * SX2)
    g3 = np.broadcast_to(p.d3 * SZ1 + SZ2, g1.shape)
    return np.stack([g1, g2, g3], axis=-3)


def dense_generator(tau, p, dfi=None, noise=0.0):
    """-i (H0 + sum_j dfi_j G_j) from the dense Hamiltonian and couplings,
    shape (..., n, n); dfi has shape (..., 3) or is None."""
    h = sweep_hamiltonian(tau, p, noise)
    if dfi is not None:
        h = h + np.einsum("...j,...jab->...ab", dfi, coupling_matrices(p, tau))
    return -1j * h


def drive_matrix(u0: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """Drive matrix G with column j = vec(U0† G_j U0) for any coupling
    stack (..., 3, n, n); shape (..., n², 3).  The dense products
    U0† (G_j U0) of lincore.entry_matmul on component-major copies."""
    u0 = np.asarray(u0)
    couplings = np.asarray(couplings)
    n = u0.shape[-1]
    lead = np.broadcast_shapes(u0.shape[:-2], couplings.shape[:-3])
    u = np.ascontiguousarray(component_major(
        np.broadcast_to(u0, (*lead, n, n))))[:, :, None]
    g = np.ascontiguousarray(np.moveaxis(
        np.broadcast_to(couplings, (*lead, 3, n, n)), (-2, -1, -3), (0, 1, 2)))
    gbar = entry_matmul(np.conj(np.swapaxes(u, 0, 1)), entry_matmul(g, u))
    # column stacking: vec index col * n + row
    return np.moveaxis(gbar, (1, 0, 2), (-3, -2, -1)).reshape(*lead, n * n, 3)
