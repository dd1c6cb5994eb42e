"""The two neighboring-optimal-control strategies and the end-to-end
improve-gate pipeline.

Each system has one correction, and improve_gate picks it from the gate's
qubit count.  Both are linear laws on the drive matrix G(tau), and both
read it in real Pauli coordinates: delta_b and every drive column
vec(U0† G_j U0) are column-stacked Hermitian matrices, so their
coordinates on an orthonormal Pauli basis (lincore.pauli_coordinates) are
real, and the change of basis is unitary: norms are unchanged and
G† v = G_rᵀ v_r.  What the projection discards, the imaginary parts of the
coordinates, is the one check that the inputs are Hermitian.  Both solvers
stream G in windows (drive_windows) and never hold the whole drive stack.

Strategy 1 (one qubit) fixes the costate by an exponential-decay ansatz;
the weight vector w = delta_b / 20 then yields the control modification
delta_f(tau) = exp(-(tau + tau0/2)/ANSATZ_DECAY) G_rᵀ(tau) w_r directly,
with ANSATZ_DECAY = 10, without ever constructing the state-weight matrix;
the control is real by construction.

Strategy 2 (two qubits) uses the constant-identity Riccati matrix: with
R = I3 and S = I16, the Riccati equation forces Q = G G† and the gain is
C = G†, so the state obeys dy/dtau = -G G† y from y = -delta_b and the
feedback law is delta_f = -G† y; along this closed loop d||y||²/dtau =
-2 |delta_f|², the energy balance the solve checks.  The state, its maps
and the control law are real arrays in the basis P_a/2 of the 16 two-qubit
Pauli products.  G G† has rank 3, which the feedback integration exploits
(propagate.feedback_maps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import control, metrics, propagate
from .config import ConfigError
from .lincore import pauli_coordinates
from .metrics import ErrorReport, GateTarget, TargetOffset
from .propagate import TimeGrid, Trajectory

ANSATZ_DECAY = 10.0        # dimensionless decay constant of the costate ansatz
WEIGHT_DIVISOR = 20.0
IMAG_RESIDUE_TOL = 1e-6
# drive-matrix entries (n² x samples) per streamed window: 4,096 samples for
# one qubit and 1,024 (512 feedback steps) for two
DRIVE_WINDOW = 16_384
# largest one-step increase of ||delta_y|| accepted as roundoff
NORM_INCREASE_TOL = 1e-12
# Budget on energy_balance, relative to ||y_0||²: it reads 7.5e-11 at the
# production cphase grid and 7.7e-8 at 30,000 feedback steps
ENERGY_BALANCE_BUDGET = 1e-6


class ConsistencyError(RuntimeError):
    """A check of the feedback solution or of its inputs failed: an imaginary
    residue or the growth of ||delta_y||."""


@dataclass(frozen=True)
class ControlModification:
    """Real control-modification samples on a time grid, shape (steps+1, 3)."""

    grid: TimeGrid
    samples: np.ndarray


@dataclass
class Strategy2Solution:
    """Feedback solution: state samples and the control law.

    delta_y holds the state at the grid points in real Pauli coordinates,
    shape (steps + 1, 16): y_a = tr(P_a Y) / 2 for the 4x4 matrix Y of
    the column-stacked state, so Y = sum_a y_a P_a / 2 (lincore.
    PAULI_PRODUCTS).  energy_balance_max is the checked closed-loop energy
    balance (energy_balance; 7.5e-11 at the production grid).
    norm_increase_max is the largest one-step increase max_k (||y_{k+1}|| -
    ||y_k||) of the state: the exact flow never increases ||y||, so a
    positive value beyond roundoff means the step size lies outside the
    stability interval of the one-step map (at the production grid it reads
    -8.1e-13).  imag_residue_max is the largest imaginary part of the Pauli
    coordinates of delta_b and of the drive samples, discarded by the
    projection; it measures how far they are from Hermitian (4.4e-16 at the
    production grid).
    """

    delta_y: np.ndarray
    control: ControlModification
    energy_balance_max: float
    norm_increase_max: float
    imag_residue_max: float


@dataclass
class ImprovedGateResult:
    """params are the sweep parameters improve_gate ran with; the noise
    ensembles and sensitivity rows built on the result read them from it.
    improved_trajectory is the grid-stored sweep with the control
    modification; the noisy runs of the jitter ensemble reuse it between
    their noise pulses (propagate.propagate_modified_batch)."""

    gate: GateTarget
    params: object
    nominal_report: ErrorReport
    improved_report: ErrorReport
    control: ControlModification
    improved_trajectory: Trajectory
    nominal_unitary: np.ndarray
    strategy: int
    feedback: Strategy2Solution | None = None

    @property
    def improved_unitary(self) -> np.ndarray:
        return self.improved_trajectory.final


def strategy1_weights(offset: TargetOffset) -> np.ndarray:
    """Weight vector w = delta_b / 20 of the one-qubit ansatz."""
    if offset.dim != 2:
        raise ConfigError("strategy 1 weights are defined for one qubit only")
    return offset.delta_b / WEIGHT_DIVISOR


def _check_imag_residue(residue: float) -> None:
    # "not <=" also catches NaN
    if not (residue <= IMAG_RESIDUE_TOL):
        raise ConsistencyError(
            f"imaginary residue {residue:.3e} of the Pauli coordinates of "
            f"the offset and the drive samples exceeds {IMAG_RESIDUE_TOL:.0e}"
        )


def drive_windows(p, traj: Trajectory):
    """Yield (c0, g_r, residue): the drive matrix G in real Pauli
    coordinates at the trajectory's samples c0 .. c0 + W, shape
    (W + 1, n², 3) with W = DRIVE_WINDOW // n² (fewer in the last window),
    and the largest imaginary part the projection discarded.  Consecutive
    windows share their end sample.  Each window is one coupling_matrices,
    drive_matrix and pauli_coordinates call, reading the propagators in
    place; this is where drive samples enter Pauli coordinates."""
    grid = traj.grid
    n = traj.unitaries.shape[-1]
    window = DRIVE_WINDOW // (n * n)
    last = len(traj.unitaries) - 1
    for c0 in range(0, last, window):
        c1 = min(c0 + window, last) + 1
        # grid.points()[c0:c1]
        taus = grid.tau_start + np.arange(c0, c1) * grid.h
        # no local keeps the complex drive matrix alive while the caller
        # consumes the window
        g_r, residue = pauli_coordinates(np.swapaxes(control.drive_matrix(
            traj.unitaries[c0:c1], control.coupling_matrices(p, taus)), -1, -2))
        yield c0, np.swapaxes(g_r, -1, -2), residue


def strategy1_solve(p, nominal: Trajectory, offset: TargetOffset) -> ControlModification:
    """The one-qubit control modification, in one streamed pass:
    delta_f(tau_k) = exp(-(tau_k + tau0/2)/ANSATZ_DECAY) G_rᵀ(tau_k) w_r on
    the nominal grid, w_r the Pauli coordinates of strategy1_weights,
    filled one drive window at a time; the drive stack is never held.

    Raises ConsistencyError when the projection of the weights (checked
    before any drive sample is formed) or of the drive samples (checked
    after the pass) discards an imaginary residue above IMAG_RESIDUE_TOL.
    """
    w_r, imag_residue = pauli_coordinates(strategy1_weights(offset))
    _check_imag_residue(imag_residue)
    grid = nominal.grid
    env = np.exp(-(grid.points() + grid.tau0 / 2.0) / ANSATZ_DECAY)
    samples = np.empty((grid.steps + 1, 3))
    for c0, g_r, window_residue in drive_windows(p, nominal):
        imag_residue = np.maximum(imag_residue, window_residue)
        c1 = c0 + len(g_r)
        samples[c0:c1] = env[c0:c1, None] * np.einsum("kmj,m->kj", g_r, w_r)
    _check_imag_residue(imag_residue)
    return ControlModification(grid=grid, samples=samples)


def feedback_control(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Strategy 2's law delta_f = -G_rᵀ y, sample by sample."""
    return -np.einsum("kmj,km->kj", g, y)


def energy_balance(delta_y: np.ndarray, control: np.ndarray, h: float) -> float:
    """max_k |r_k| / ||y_0||² for the closed-loop balance d||y||²/dtau =
    -2 |delta_f|² on a grid of step h and at least 2 steps: with V = ||y||²
    and F = |delta_f|², r_k = V_{k+2} - V_k + (2h/3)(F_k + 4 F_{k+1} +
    F_{k+2}) over each step pair (Simpson's rule, fourth order), and an odd
    step count closes with the 3/8 rule over its last three steps.  A change
    of the control that keeps every |delta_f| goes unseen."""
    v = np.einsum("ki,ki->k", delta_y, delta_y)
    f = np.einsum("kj,kj->k", control, control)
    r = v[2::2] - v[:-2:2] + (2.0 * h / 3.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    if len(v) % 2 == 0:
        r = np.append(r, v[-1] - v[-4] + (0.75 * h) * (f[-4:] @ [1.0, 3.0, 3.0, 1.0]))
    worst = np.abs(r).max()
    return float(worst and worst / v[0])   # 0 for a zero start; keeps a NaN


def strategy2_solve(p, nominal: Trajectory, offset: TargetOffset) -> Strategy2Solution:
    """Solve the feedback problem for a two-qubit offset in one streamed pass.

    nominal is the nominal trajectory on twice the feedback steps: every
    feedback step of size h reads the drive matrix at its start, midpoint
    and end, nominal samples 2k, 2k + 1 and 2k + 2, and the control is
    returned on the feedback grid TimeGrid(tau0, nominal.grid.steps // 2).
    Everything runs in real Pauli coordinates (lincore.pauli_coordinates):
    y starts at the projection of -delta_b, and the pass runs one drive
    window at a time (drive_windows; DRIVE_WINDOW // 16 = 1,024 nominal
    samples, 512 feedback steps): the window's drive samples G_r, the
    state advanced through the rank-3 maps (propagate.integrate_delta_y),
    the control law -G_rᵀ y (feedback_control) and the one-step increase
    of ||y|| at the window's feedback grid samples.  Only window-sized
    drive samples are held; the whole (2 steps + 1, 16, 3) stack never
    is.  Against the batched-`@`
    maps on the whole complex stack, at the production grid, delta_y
    differs by 2.7e-14 and the control by 9.1e-16 in max-norm; against the
    same streamed pass on complex arrays, by 5.7e-16 and 9.0e-17.

    Raises ValueError when the nominal step count is odd or below 4;
    ConsistencyError when the projections of delta_b (checked before the
    pass) or of the drive samples (checked with delta_b's after it) discard
    an imaginary residue above IMAG_RESIDUE_TOL, or when ||y|| grows by
    more than NORM_INCREASE_TOL in one step; and then propagate.AccuracyError
    when energy_balance exceeds ENERGY_BALANCE_BUDGET.
    """
    if offset.dim != 4:
        raise ConfigError("strategy 2 expects a two-qubit offset")
    if nominal.grid.steps % 2 or nominal.grid.steps < 4:
        raise ValueError("strategy 2 needs a nominal trajectory on an even step "
                         f"count of at least 4, got {nominal.grid.steps}")
    grid = TimeGrid(nominal.grid.tau0, nominal.grid.steps // 2)
    delta_y = np.empty((grid.steps + 1, 16))
    raw = np.empty((grid.steps + 1, 3))
    b_r, imag_residue = pauli_coordinates(offset.delta_b)
    # the offset's own residue is known before the first window
    _check_imag_residue(imag_residue)
    y = -b_r
    increase = -np.inf
    # np.maximum keeps a NaN, which Python's max drops after a number
    for c0, g_half, window_residue in drive_windows(p, nominal):
        imag_residue = np.maximum(imag_residue, window_residue)
        ys = propagate.integrate_delta_y(g_half, y, grid.h)
        y = ys[-1]
        # the window's feedback grid samples
        k = slice(c0 // 2, c0 // 2 + len(ys))
        delta_y[k] = ys
        increase = np.maximum(increase, np.diff(np.linalg.norm(ys, axis=1)).max())
        raw[k] = feedback_control(g_half[0::2], ys)
    _check_imag_residue(imag_residue)
    if not (increase <= NORM_INCREASE_TOL):
        raise ConsistencyError(
            f"||delta_y|| increases by {increase:.3e} in one step "
            f"(tolerance {NORM_INCREASE_TOL:.0e}); the step size is unstable"
        )
    balance = energy_balance(delta_y, raw, grid.h)
    propagate._check_budget("Riccati energy balance", balance, ENERGY_BALANCE_BUDGET)
    return Strategy2Solution(
        delta_y=delta_y,
        control=ControlModification(grid=grid, samples=raw),
        energy_balance_max=balance,
        norm_increase_max=float(increase),
        imag_residue_max=float(imag_residue),
    )


def improve_gate(gate: GateTarget, p, grid: TimeGrid) -> ImprovedGateResult:
    """Run the full pipeline on the grid: nominal sweep, offset, control
    correction, modified sweep, and error reports for both gates.

    One-qubit gates take strategy 1, the two-qubit gate strategy 2, which
    needs a grid of at least 2 steps (its feedback grid; ConfigError before
    anything is integrated).  Both raise ConsistencyError when the Pauli
    projections of the offset or of the drive samples discard an imaginary
    residue above IMAG_RESIDUE_TOL.
    """
    if p.qubits != gate.qubits:
        raise ConfigError("sweep parameters do not match the gate's system")
    strategy = 1 if gate.qubits == 1 else 2
    if strategy == 2 and grid.steps < 2:
        raise ConfigError("the two-qubit gate needs a grid of at least 2 steps, "
                          f"got {grid.steps}")

    if strategy == 1:
        nominal = propagate.propagate_sweep(p, grid)
    else:
        # each feedback step reads the drive matrix at its midpoint: the
        # nominal sweep runs on twice the steps at one substep each, the
        # sample times and substep size of the grid at DEFAULT_REFINE = 2
        nominal = propagate.propagate_sweep(
            p, TimeGrid(grid.tau0, 2 * grid.steps), refine=1)
    nominal_unitary = nominal.final.copy()
    offset = metrics.target_offset(nominal_unitary, gate)

    feedback = None
    if strategy == 1:
        ctrl = strategy1_solve(p, nominal, offset)
    else:
        feedback = strategy2_solve(p, nominal, offset)
        ctrl = feedback.control
    # free the nominal trajectory before the improved sweep; the result keeps
    # a copy of its final propagator
    del nominal

    improved = propagate.propagate_sweep(p, grid, ctrl.samples)
    return ImprovedGateResult(
        gate=gate,
        params=p,
        nominal_report=metrics.error_report(nominal_unitary, gate),
        improved_report=metrics.error_report(improved.final, gate),
        control=ctrl,
        improved_trajectory=improved,
        nominal_unitary=nominal_unitary,
        strategy=strategy,
        feedback=feedback,
    )
