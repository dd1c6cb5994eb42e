"""Twisted-rapid-passage control fields, sweep Hamiltonians, coupling
matrices and the drive matrix.

All quantities are dimensionless.  A sweep runs over tau in
[-tau0/2, +tau0/2]; the longitudinal field inverts linearly while the
transverse field twists with the quartic phase phi4(tau).  One- and
two-qubit systems share the same twist profile; the two-qubit Hamiltonian
adds Ising coupling and a degeneracy-breaking shift of strength c4.

The propagators consume the generator A = -i (H0 + sum_j dF_j G_j) from
`generator`, which writes each matrix entry straight from the few scalar
series that define it (the twist phase with its noise, the longitudinal
ramps and the control modification), in the component-major layout of the
integrator.  The dense forms -- sweep_hamiltonian, two_qubit_hamiltonian,
coupling_matrices -- stay for the drive matrix, one entry-arithmetic
conjugation for both system sizes, and as the generator's tested reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lincore import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    component_major,
    entry_matmul,
    unitarity_defect,
)

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


def _check_positive(p, names) -> None:
    for name in names:
        v = getattr(p, name)
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class SweepParams1Q:
    """Dimensionless sweep parameters of a one-qubit gate.

    lam   inversion rate, eta4 quartic twist strength, tau0 inversion time.
    """

    lam: float
    eta4: float
    tau0: float = 160.0

    def __post_init__(self):
        _check_positive(self, ("lam", "eta4", "tau0"))

    @property
    def qubits(self) -> int:
        return 1

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class SweepParams2Q:
    """Dimensionless sweep parameters of the two-qubit gate.

    d1..d4 are the Larmor mismatch, detuning, drive-ratio and Ising
    couplings; c4 is the degeneracy-breaking strength.
    """

    lam: float
    eta4: float
    tau0: float = 120.0
    d1: float = 0.0
    d2: float = 0.0
    d3: float = 0.0
    d4: float = 0.0
    c4: float = 0.0

    def __post_init__(self):
        _check_positive(self, ("lam", "eta4", "tau0"))
        for name in ("d1", "d2", "d3", "d4", "c4"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.d3 == 1.0:
            raise ValueError("d3 = 1 is a pole of the two-qubit couplings")

    @property
    def qubits(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return 4


# nominal sweep parameters of the five reference gates
NOMINAL_PARAMS = {
    "not": SweepParams1Q(lam=6.965, eta4=2.189e-4),
    "hadamard": SweepParams1Q(lam=7.820, eta4=1.792e-4),
    "pi8": SweepParams1Q(lam=8.465, eta4=1.675e-4),
    "phase": SweepParams1Q(lam=8.073, eta4=1.666e-4),
    "cphase": SweepParams2Q(
        lam=5.1, eta4=2.4e-4, d1=11.702, d2=-2.6, d3=-0.41, d4=6.6650, c4=5.0003
    ),
}


def twist_phase(tau, p, noise=0.0):
    """Quartic twist phase phi4(tau) = (eta4 / 2 lam) tau^4 plus noise, an
    additive phase offset (a scalar or an array broadcasting against tau).

    tau^4 is the product (tau tau)(tau tau): exactly even in tau, within a
    few ulp of tau**4, and on a 16k-sample chunk 0.02 ms against 1.4 ms for
    numpy's general power (2 vCPUs, numpy 2.4.6)."""
    tau = np.asarray(tau, dtype=float)
    t2 = tau * tau
    return (p.eta4 / (2.0 * p.lam)) * (t2 * t2) + noise


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


def generator(tau, p, dfi=None, phase=None, out=None) -> np.ndarray:
    """Generator A = -i (H0 + sum_j dfi_j G_j) of i U' = H U, component-major.

    tau has any shape T (the integrator passes (rows, steps)); dfi, the
    control modification at those times, has shape (*T, 3) or is None;
    phase is the twist phase with any noise already added, shape T, and
    defaults to the noise-free twist_phase.  Returns the (n, n, *T) array
    out (a new contiguous one when None): entry (i, k) of A is the array
    out[i, k] over the times (see propagate, which consumes this layout
    without a copy, and writes a batch member by member into its slabs).

    The entries are written straight from the scalar series that define the
    operator, with no dense per-term stacks.  One qubit: A = i f.sigma with
    f = f0 + dfi, whose off-diagonal is built from f1 + i f2 =
    exp(-i phi)/lam + (dfi_1 + i dfi_2).  Two qubits (basis index
    2 q1 + q2): four real diagonal series, the qubit-1 flips (2,0), (3,1)
    with L1 = -(d3/lam) e^{i phi} + d3 w e^{i th1 tau}, the qubit-2 flips
    (1,0), (3,2) with L2 = -(1/lam) e^{i phi} + w e^{i th2 tau}, where
    w = dfi_1 + i dfi_2 and th1, th2 are the coupling_matrices angles; the
    upper entries are conjugates and (0,3), (1,2), (2,1), (3,0) are 0.
    Agrees with -1j * (sweep_hamiltonian(tau, p, noise)
    + einsum(dfi, coupling_matrices(p, tau))) to roundoff.
    """
    tau = np.asarray(tau, dtype=float)
    phase = twist_phase(tau, p) if phase is None else np.asarray(phase, dtype=float)
    df = None
    if dfi is not None:
        dfi = np.asarray(dfi, dtype=float)
        df = [dfi[..., j] for j in range(3)]
    c, s = np.cos(phase), np.sin(phase)
    n = p.dim
    if out is None:
        out = np.empty((n, n, *tau.shape), dtype=complex)
    re, im = out.real, out.imag

    if p.qubits == 1:
        # f1 + i f2 and f3; A00 = i f3, A10 = i (f1 + i f2), A01 = i conj(.)
        f1, f2, f3 = c / p.lam, -(s / p.lam), tau / p.lam
        if df is not None:
            f1, f2, f3 = f1 + df[0], f2 + df[1], f3 + df[2]
        re[0, 0] = re[1, 1] = 0.0
        im[0, 0] = f3
        im[1, 1] = -f3
        re[1, 0] = -f2
        re[0, 1] = f2
        im[1, 0] = im[0, 1] = f1
        return out

    # two qubits: H = diag(h) + sum over flips of L |lower><upper| + h.c.
    z1 = -(p.d1 + p.d2) / 2.0 + tau / p.lam
    z2 = -p.d2 / 2.0 + tau / p.lam
    zz = np.pi * p.d4 / 2.0
    diag = [(z1 + z2) - zz, (z1 - z2) + zz, ((-z1 + z2) + zz) + p.c4,
            (-z1 - z2) - zz]
    a1 = p.d3 / p.lam
    a2 = 1.0 / p.lam
    l1 = [-(a1 * c), -(a1 * s)]        # (re, im) of L1
    l2 = [-(a2 * c), -(a2 * s)]        # (re, im) of L2
    if df is not None:
        sz = (p.d3 + 1.0, p.d3 - 1.0, 1.0 - p.d3, -p.d3 - 1.0)
        diag = [d + k * df[2] for d, k in zip(diag, sz)]
        th1, th2 = _coupling_angles(p)
        for scale, th, lx in ((p.d3, th1, l1), (1.0, th2, l2)):
            ct, st = np.cos(th * tau), np.sin(th * tau)
            wr = df[0] * ct - df[1] * st      # w e^{i th tau}
            wi = df[0] * st + df[1] * ct
            lx[0] = lx[0] + scale * wr
            lx[1] = lx[1] + scale * wi
    for k in range(4):
        re[k, k] = 0.0
        im[k, k] = -diag[k]
    for r, col in ((2, 0), (3, 1), (1, 0), (3, 2)):
        lr, li = l1 if r - col == 2 else l2
        # A = -i H: lower entry -i L, upper entry -i conj(L)
        re[r, col] = li
        im[r, col] = -lr
        re[col, r] = -li
        im[col, r] = -lr
    for r, col in ((0, 3), (1, 2), (2, 1), (3, 0)):
        out[r, col] = 0.0
    return out


def _coupling_angles(p: SweepParams2Q):
    """Frame rotation rates (th1, th2) of the two-qubit couplings."""
    th2 = p.d1 / (p.d3 - 1.0)
    return th2 + p.d1, th2


def coupling_matrices(p, tau=None) -> np.ndarray:
    """Control coupling matrices G_j = dH/dF_j, stacked as (..., 3, n, n).

    One qubit: the constant triple (-sx, -sy, -sz), broadcast read-only
    over the times.  Two qubits: the
    tau-dependent triple with the inter-qubit frame rotation angles fixed by
    d1 and d3 (d3 = 1 is a pole of that parametrization, which SweepParams2Q
    rejects).
    """
    if p.qubits == 1:
        g = np.stack([-SIGMA_X, -SIGMA_Y, -SIGMA_Z])
        if tau is None or np.ndim(tau) == 0:
            return g
        return np.broadcast_to(g, (*np.shape(tau), 3, 2, 2))
    if tau is None:
        raise ValueError("two-qubit couplings are time dependent; pass tau")
    th1, th2 = _coupling_angles(p)
    tau = np.asarray(tau, dtype=float)
    c1, s1 = np.cos(th1 * tau)[..., None, None], np.sin(th1 * tau)[..., None, None]
    c2, s2 = np.cos(th2 * tau)[..., None, None], np.sin(th2 * tau)[..., None, None]
    g1 = p.d3 * (c1 * SX1 + s1 * SY1) + (c2 * SX2 + s2 * SY2)
    g2 = p.d3 * (c1 * SY1 - s1 * SX1) + (c2 * SY2 - s2 * SX2)
    g3 = np.broadcast_to(p.d3 * SZ1 + SZ2, g1.shape)
    return np.stack([g1, g2, g3], axis=-3)


def drive_matrix(u0: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """Drive matrix G with column j = vec(U0† G_j U0); shape (..., n², 3).

    u0 must be unitary to a defect of 1e-8; couplings has shape (..., 3, n, n).
    The conjugation is the component-major products of
    lincore.entry_matmul, not batched `@`, which is slow on stacks of
    matrices this small.  Broadcast (stride 0) axes of couplings, as of
    the constant one-qubit triple, are not copied.
    """
    u0 = np.asarray(u0)
    if not (unitarity_defect(u0) <= 1e-8):
        raise ValueError("drive_matrix requires a unitary propagator")
    couplings = np.asarray(couplings)
    n = u0.shape[-1]
    # contiguous (n, n, 1 or 3, *lead) operands: every entry one vector
    lead = np.broadcast_shapes(u0.shape[:-2], couplings.shape[:-3])
    u = np.ascontiguousarray(component_major(
        np.broadcast_to(u0, (*lead, n, n))))[:, :, None]
    g = np.broadcast_to(couplings, (*lead, 3, n, n))
    g = g[tuple(slice(None, 1) if s == 0 else slice(None) for s in g.strides[:-3])]
    g = np.ascontiguousarray(np.moveaxis(g, (-2, -1, -3), (0, 1, 2)))
    gbar = entry_matmul(np.conj(np.swapaxes(u, 0, 1)), entry_matmul(g, u))
    # column stacking: vec index col * n + row
    return np.moveaxis(gbar, (1, 0, 2), (-3, -2, -1)).reshape(*lead, n * n, 3)
