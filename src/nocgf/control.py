"""Twisted-rapid-passage sweep parameters, generators, coupling matrices
and the drive matrix.

All quantities are dimensionless.  A sweep runs over tau in
[-tau0/2, +tau0/2]; the longitudinal field inverts linearly while the
transverse field twists with the quartic phase phi4(tau).  One- and
two-qubit systems share the same twist profile; the two-qubit Hamiltonian
adds Ising coupling and a degeneracy-breaking shift of strength c4.

The propagators consume the generator A = -i (H0 + sum_j dF_j G_j) from
`generator`, which writes each matrix entry straight from the few scalar
series that define it (the twist phase, the longitudinal ramps and the
control modification), in the component-major layout of the integrator.
Phase noise is an offset that `generator` adds to the twist phase
(twist_phase), the one place where noise and phase are composed.  The
two-qubit flips sit where _ROW_TERMS_2Q places them and G_3's diagonal is
_g3_diagonal, which generator and _coupled both read: _coupled forms G_j U0
from the couplings' nonzero entries for the drive matrix, and
coupling_matrices is _coupled of the identity.  sweep_hamiltonian is the
generator's entries viewed as dense (..., n, n) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lincore import component_major, entry_matmul, matrix_major
# unused here, but perfbench/tracer.py patches control.unitarity_defect by name
from .lincore import unitarity_defect  # noqa: F401


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


def sweep_hamiltonian(tau, p, noise=0.0) -> np.ndarray:
    """Nominal sweep Hamiltonian H0 = i A of either system at times tau,
    shape (..., n, n): the generator's entries, with the noise (shaped like
    tau or a scalar) added to the twist phase."""
    return 1j * matrix_major(generator(tau, p, noise=noise))


def generator(tau, p, dfi=None, noise=0.0, out=None) -> np.ndarray:
    """Generator A = -i (H0 + sum_j dfi_j G_j) of i U' = H U, component-major.

    tau has any shape T (the integrator passes (rows, steps)); dfi, the
    control modification at those times, has shape (*T, 3) or is None;
    noise is the phase noise, added to the twist phase by twist_phase: a
    scalar or an array that broadcasts against T (the integrator passes
    one value per step, shape (steps,)).  Returns the (n, n, *T) array
    out (a new contiguous one when None): entry (i, k) of A is the array
    out[i, k] over the times (see propagate, which consumes this layout
    without a copy, and writes a batch member by member into its slabs).

    The entries are written straight from the scalar series that define the
    operator, with no dense per-term stacks.  One qubit: A = i f.sigma with
    f = f0 + dfi and f0 = (cos phi, -sin phi, tau)/lam, the twist sense whose
    co-rotating longitudinal field (tau - eta4 tau^3)/lam crosses resonance
    at 0 and +-1/sqrt(eta4); the off-diagonal is built from f1 + i f2 =
    exp(-i phi)/lam + (dfi_1 + i dfi_2).  Two qubits (basis index
    2 q1 + q2): four real diagonal series, the c4 shift on |10> (index 2)
    among them, the qubit-1 flips with
    L1 = -(d3/lam) e^{i phi} + d3 w e^{i th1 tau} and the qubit-2 flips
    with L2 = -(1/lam) e^{i phi} + w e^{i th2 tau}, where w = dfi_1 + i dfi_2
    and th1, th2 are the frame rotation rates of _coupling_phases.  The
    flips sit where _ROW_TERMS_2Q places them, (2,0), (3,1) for qubit 1 and
    (1,0), (3,2) for qubit 2 with the conjugates above the diagonal;
    (0,3), (1,2), (2,1), (3,0) are 0.  tests/dense_model.py builds the same
    operator from Kronecker Paulis, the reference it is tested against.
    """
    tau = np.asarray(tau, dtype=float)
    phase = twist_phase(tau, p, noise)
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
        diag = [d + k * df[2] for d, k in zip(diag, _g3_diagonal(p))]
        for scale, (ct, st), lx in zip((p.d3, 1.0), _coupling_phases(p, tau),
                                       (l1, l2)):
            wr = df[0] * ct - df[1] * st      # w e^{i th tau}
            wi = df[0] * st + df[1] * ct
            lx[0] = lx[0] + scale * wr
            lx[1] = lx[1] + scale * wi
    for k in range(4):
        re[k, k] = 0.0
        im[k, k] = -diag[k]
    for r, terms in enumerate(_ROW_TERMS_2Q):
        for col, q, upper in terms:
            lr, li = l1 if q == 1 else l2
            # A = -i H: lower entry -i L, upper entry -i conj(L)
            re[r, col] = -li if upper else li
            im[r, col] = -lr
        out[r, 3 - r] = 0.0       # the anti-diagonal holds no flip
    return out


def _g3_diagonal(p: SweepParams2Q):
    """Diagonal of G_3 = d3 sz1 + sz2, in basis order 2 q1 + q2."""
    return (p.d3 + 1.0, p.d3 - 1.0, 1.0 - p.d3, -p.d3 - 1.0)


def _coupling_phases(p: SweepParams2Q, tau):
    """(cos, sin) of th1 tau and of th2 tau, the frame rotations of the
    qubit-1 and qubit-2 couplings; d1 and d3 fix the rates."""
    th2 = p.d1 / (p.d3 - 1.0)
    return [(np.cos(th * tau), np.sin(th * tau)) for th in (th2 + p.d1, th2)]


# row i of G_1, G_2: two (column k, flipped qubit, 1 if upper) in k order
_ROW_TERMS_2Q = (((1, 2, 1), (2, 1, 1)), ((0, 2, 0), (3, 1, 1)),
                 ((0, 1, 0), (3, 2, 1)), ((1, 1, 0), (2, 2, 0)))
# row i of -sigma_j U is z U[k]: (k, z) per row
_ROW_TERMS_1Q = (((1, -1.0), (0, -1.0)), ((1, 1j), (0, -1j)), ((0, -1.0), (1, 1.0)))


def _coupled(p, tau, u: np.ndarray) -> np.ndarray:
    """G_j U, (n, n, 3, *lead), from the nonzero entries of the couplings
    at times tau; u is component-major (n, n, *lead).  A row of -sigma_j U
    is a row of U times -1, 1 or +-i; a row of two-qubit G_1 or G_2 U adds
    its two terms in k order, so it is entry_matmul(G, U) bit for bit;
    G_3 scales the rows."""
    n = u.shape[0]
    gu = np.empty((n, n, 3, *u.shape[2:]), dtype=complex)
    if p.qubits == 1:
        for j, rows in enumerate(_ROW_TERMS_1Q):
            for i, (k, z) in enumerate(rows):
                np.multiply(z, u[k], out=gu[i, :, j])
        return gu
    # entries[q][j, upper]: G_j's entry of a qubit-q flip, scale e^{i th tau}
    entries = {}
    for q, scale, (c, s) in zip((1, 2), (p.d3, 1.0), _coupling_phases(p, tau)):
        c, s = scale * c, scale * s
        e = np.empty((2, 2, *np.shape(tau)), dtype=complex)
        e.real[0] = c
        e.imag[0, 0] = s
        e.imag[0, 1] = -s
        e.real[1] = -s
        e.imag[1, 0] = c
        e.imag[1, 1] = -c
        entries[q] = e
    for i, ((ka, qa, ua), (kb, qb, ub)) in enumerate(_ROW_TERMS_2Q):
        for j in (0, 1):
            row = np.multiply(entries[qa][j, ua], u[ka], out=gu[i, :, j])
            row += entries[qb][j, ub] * u[kb]
    for i, d in enumerate(_g3_diagonal(p)):
        np.multiply(d, u[i], out=gu[i, :, 2])
    return gu


def coupling_matrices(p, tau) -> np.ndarray:
    """Control coupling matrices G_j = dH/dF_j, stacked as (..., 3, n, n):
    _coupled of the identity over tau's shape, as the (*T, 3, n, n) view of
    its component-major memory.  One qubit: the constant triple
    (-sx, -sy, -sz).  Two qubits: G_1 and G_2 flip qubit 1 with
    d3 e^{i th1 tau} and i d3 e^{i th1 tau} and qubit 2 with e^{i th2 tau}
    and i e^{i th2 tau}, conjugates above the diagonal; G_3 is the constant
    diagonal d3 sz1 + sz2 (d3 = 1 is a pole of the rates, which
    SweepParams2Q rejects).  The pipeline does not call it (drive_matrix).
    """
    eye = np.broadcast_to(np.eye(p.dim, dtype=complex), (*np.shape(tau), p.dim, p.dim))
    gu = _coupled(p, tau, component_major(eye))
    return np.moveaxis(gu, (2, 0, 1), (-3, -2, -1))


def drive_matrix(u0: np.ndarray, p, tau) -> np.ndarray:
    """Drive matrix G with column j = vec(U0† G_j U0) at times tau; shape
    (..., n², 3), the broadcast of u0's stack axes and tau's shape.

    G_j U0 comes from the couplings' nonzero entries (_coupled), and one
    lincore.entry_matmul forms the transpose of U0† G_j U0, whose rows are
    the column-stacked vectors: the result views (n², 3, *lead) memory,
    which lincore.pauli_coordinates reads without a copy.  u0 is not
    checked: the integrator checked every stored sample (propagate._finish).
    """
    u0 = np.asarray(u0)
    n = u0.shape[-1]
    lead = np.broadcast_shapes(u0.shape[:-2], np.shape(tau))
    u = np.ascontiguousarray(component_major(np.broadcast_to(u0, (*lead, n, n))))
    gu = _coupled(p, tau, u)
    gbar = entry_matmul(np.swapaxes(gu, 0, 1), np.conj(u)[:, :, None])
    # gbar[i, k] is entry (k, i): column stacking, vec index col * n + row
    return np.moveaxis(gbar.reshape(n * n, 3, *lead), (0, 1), (-2, -1))
