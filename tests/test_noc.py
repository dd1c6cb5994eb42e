import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocgf import control, propagate
from nocgf.config import ConfigError
from nocgf.control import NOMINAL_PARAMS, coupling_matrices, drive_matrix
from nocgf.lincore import hermitize, pauli_coordinates, vectorize
from nocgf.metrics import GateTarget, TargetOffset, gate_target, target_offset
from nocgf.noc import (
    ConsistencyError,
    improve_gate,
    strategy1_solve,
    strategy1_weights,
    strategy2_solve,
)
from nocgf.propagate import (
    DEFAULT_STEPS_1Q,
    AccuracyError,
    TimeGrid,
    Trajectory,
    propagate_sweep,
)
from nocgf import noc
from tests.conftest import contracted_drive, random_unitary
from tests.test_propagate_kernels import reference_step_maps

HAD = NOMINAL_PARAMS["hadamard"]


def test_strategy1_weights(rng):
    g = gate_target("hadamard")
    off = target_offset(g.sweep_unitary, g)
    assert np.allclose(strategy1_weights(off), 0.0)
    u = random_unitary(rng, 2)
    off = target_offset(u, g)
    w = strategy1_weights(off)
    assert np.allclose(w, off.delta_b / 20.0)
    assert w[1] == pytest.approx(np.conj(w[2]))  # hermitian off-diagonals
    off4 = target_offset(random_unitary(rng, 4), gate_target("cphase"))
    with pytest.raises(ConfigError):
        strategy1_weights(off4)


def test_contracted_drive_closed_form(rng):
    couplings = coupling_matrices(HAD, 0.0)
    # hand-checkable cases at U0 = I
    g = drive_matrix(np.eye(2, dtype=complex), couplings)
    got = contracted_drive(couplings, g, np.array([1.0, 0, 0, 0]))
    assert np.allclose(got, [[1, 0], [0, -1]])
    got = contracted_drive(couplings, g, np.array([0.0, 1.0, 0, 0]))
    assert np.allclose(got, [[0, 0], [2, 0]])
    # random unitaries and complex weights collapse to the closed form
    for _ in range(200):
        u = random_unitary(rng, 2)
        gbar = np.einsum("ba,jbc,cd->jad", u.conj(), couplings, u)
        gmat = drive_matrix(u, couplings)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = contracted_drive(gbar, gmat, w)
        want = np.array([[w[0] - w[3], 2 * w[2]], [2 * w[1], w[3] - w[0]]])
        assert np.abs(got - want).max() < 1e-12


@pytest.fixture(scope="module")
def hadamard_sweep_40k():
    return propagate_sweep(HAD, TimeGrid(HAD.tau0, 40000))


def _offset(beta: np.ndarray) -> TargetOffset:
    return TargetOffset(delta_beta=beta, delta_b=vectorize(beta))


def test_strategy1_control_structure(hadamard_sweep_40k):
    traj = hadamard_sweep_40k
    zero = strategy1_solve(HAD, traj, _offset(np.zeros((2, 2), dtype=complex)))
    assert zero.grid == traj.grid
    assert np.abs(zero.samples).max() == 0.0
    # weights w = delta_b / 20 with Pauli coordinates (0.5, 0.1, -0.2, 0.3)
    # sqrt(2) on (s_0, s_x, s_y, s_z) / sqrt(2): at tau = -tau0/2 (U0 = I)
    # drive column j is vec(-s_j), with coordinates -sqrt(2) e_j, so
    # component j is -sqrt(2) w_j and w_0 does not enter
    w = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]])
    ctrl = strategy1_solve(HAD, traj, _offset(20.0 * w))
    assert ctrl.samples.dtype == np.float64
    assert np.abs(ctrl.samples[0] - [-0.2, 0.4, -0.6]).max() <= 1e-12


def test_strategy1_never_holds_the_drive_stack():
    # the production sweep: one window's drive-matrix work arrays (4.1 MB)
    # would exceed half the stack of a 40,000-step one
    traj = propagate_sweep(HAD, TimeGrid(HAD.tau0, DEFAULT_STEPS_1Q))
    off = target_offset(traj.final, gate_target("hadamard"))
    stack_bytes = len(traj.unitaries) * 4 * 3 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        strategy1_solve(HAD, traj, off)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2


@pytest.mark.parametrize("kind", ["nan", "anti-hermitian"])
def test_strategy1_rejects_bad_weights_before_any_drive_sample(monkeypatch, kind):
    # the weights' own imaginary residue fails before the streamed pass
    def no_drive_matrix(*args, **kwargs):
        raise AssertionError("drive samples formed for rejected weights")

    monkeypatch.setattr(control, "drive_matrix", no_drive_matrix)
    grid = TimeGrid(HAD.tau0, 100)
    traj = Trajectory(grid, np.tile(np.eye(2, dtype=complex), (grid.steps + 1, 1, 1)))
    if kind == "nan":
        beta = np.full((2, 2), np.nan, dtype=complex)
    else:
        z = np.random.default_rng(5).normal(size=(2, 2, 2))
        beta = 1j * hermitize(z[0] + 1j * z[1])
    with pytest.raises(ConsistencyError, match="imaginary residue"):
        strategy1_solve(HAD, traj, _offset(beta))


def test_strategy1_control_matches_the_complex_drive_law():
    # the real-coordinate law env G_r^T w_r against env Re(G† w) on the
    # complex drive matrix, along the nominal hadamard sweep
    grid = TimeGrid(HAD.tau0, 40000)
    res = improve_gate(gate_target("hadamard"), HAD, grid)
    traj = propagate_sweep(HAD, grid)
    w = strategy1_weights(target_offset(traj.final, res.gate))
    g = drive_matrix(traj.unitaries, coupling_matrices(HAD, grid.points()))
    env = np.exp(-(grid.points() + grid.tau0 / 2.0) / noc.ANSATZ_DECAY)
    want = env[:, None] * np.einsum("kmj,m->kj", g.conj(), w).real
    assert np.abs(want).max() > 1e-4
    assert np.abs(res.control.samples - want).max() <= 1e-15


@pytest.mark.parametrize("scale,ok", [(1e-9, True), (1e-3, False), (np.nan, False)])
def test_strategy1_rejects_non_hermitian_weights(monkeypatch, scale, ok):
    # strategy 1 shares strategy 2's residue check: an anti-Hermitian part
    # i K of the weights is the imaginary part of their Pauli coordinates
    p = dataclasses.replace(HAD, tau0=20.0)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    w = vectorize(0.01 * hermitize(z[0]) + 1j * scale * hermitize(z[1]))
    monkeypatch.setattr(noc, "strategy1_weights", lambda offset: w)
    grid = TimeGrid(p.tau0, 10_000)
    if ok:
        ctrl = improve_gate(gate_target("hadamard"), p, grid).control
        assert ctrl.samples.dtype == np.float64
    else:
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            improve_gate(gate_target("hadamard"), p, grid)


def test_improve_gate_synthetic_zero_offset():
    # a target equal to the nominal final unitary gives zero correction
    grid = TimeGrid(HAD.tau0, 40000)
    traj = propagate_sweep(HAD, grid)
    synthetic = GateTarget("synthetic", traj.final.copy(), traj.final.copy(), 1)
    res = improve_gate(synthetic, HAD, grid)
    assert np.abs(res.control.samples).max() < 1e-14
    assert np.abs(res.improved_unitary - res.nominal_unitary).max() < 1e-12
    assert res.improved_report.trace_p < 1e-24


def test_improve_result_keeps_only_the_nominal_final_propagator(improved_all):
    # a copy, not a view that would keep the whole nominal trajectory alive
    for res in improved_all.values():
        assert res.nominal_unitary.flags.owndata
        assert res.nominal_unitary.shape == (res.gate.dim, res.gate.dim)


def test_improve_gate_strategy_mismatch():
    # the strategy follows the gate, so parameters of the other system are
    # rejected before anything is integrated
    grid = TimeGrid(HAD.tau0, 100)
    with pytest.raises(ConfigError, match="system"):
        improve_gate(gate_target("cphase"), HAD, grid)
    with pytest.raises(ConfigError, match="system"):
        improve_gate(gate_target("hadamard"), NOMINAL_PARAMS["cphase"], grid)


def test_strategy2_requires_two_qubit_offset(rng):
    g = gate_target("hadamard")
    off = target_offset(random_unitary(rng, 2), g)
    grid = TimeGrid(1.0, 2)
    traj = Trajectory(grid, np.tile(np.eye(4, dtype=complex), (3, 1, 1)))
    with pytest.raises(ConfigError):
        strategy2_solve(NOMINAL_PARAMS["cphase"], traj, off)


@pytest.fixture(scope="module")
def cphase_30k():
    """The nominal cphase sweep of 30,000 feedback steps (60,000 steps at one
    substep each), and its offset."""
    p = NOMINAL_PARAMS["cphase"]
    grid = TimeGrid(p.tau0, 60000)
    # this coarse grid's defect, 3.4e-10, exceeds the production budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "UNITARITY_BUDGET", np.inf)
        traj = propagate_sweep(p, grid, refine=1)
    return p, traj, target_offset(traj.final, gate_target("cphase"))


def test_strategy2_small_grid_properties(cphase_30k):
    p, traj, off = cphase_30k
    sol = strategy2_solve(p, traj, off)
    assert sol.control.grid == TimeGrid(p.tau0, 30000)
    assert sol.delta_y.shape == (30001, 16)
    # the energy balance is fourth order: 7.7e-8 here, 7.5e-11 at 120,000
    assert 0.0 < sol.energy_balance_max <= 1e-7
    norms = np.linalg.norm(sol.delta_y, axis=1)
    assert norms[-1] <= norms[0]
    assert sol.norm_increase_max == np.diff(norms).max() <= 1e-12
    assert sol.delta_y.dtype == sol.control.samples.dtype == np.float64
    assert sol.imag_residue_max <= 1e-15


def test_strategy2_streamed_pass_matches_an_unstreamed_reference(cphase_30k):
    p, traj, off = cphase_30k
    grid = TimeGrid(p.tau0, traj.grid.steps // 2)
    sol = strategy2_solve(p, traj, off)
    # the whole complex drive stack, the batched-`@` maps of B = -G G† and
    # one matvec per step
    g_half = drive_matrix(traj.unitaries, coupling_matrices(p, traj.grid.points()))
    y = -off.delta_b.astype(complex)
    want = [y]
    for c0 in range(0, grid.steps, 1000):
        g = g_half[2 * c0:2 * (c0 + 1000) + 1]
        b = -(g @ np.conj(np.swapaxes(g, -1, -2)))
        for m in reference_step_maps(b[0:-1:2], b[1::2], b[2::2], grid.h):
            y = m @ y
            want.append(y)
    want = np.stack(want)
    ctrl = -np.einsum("kmj,km->kj", np.conj(g_half[0::2]), want)
    # the solve's state is in Pauli coordinates
    want_r, _ = pauli_coordinates(want)
    assert np.abs(sol.delta_y - want_r).max() <= 1e-13
    assert np.abs(sol.control.samples - ctrl.real).max() <= 1e-13


def test_strategy2_never_holds_the_drive_stack(cphase_30k):
    p, traj, off = cphase_30k
    stack_bytes = len(traj.unitaries) * 16 * 3 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        strategy2_solve(p, traj, off)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2


@pytest.mark.parametrize("mutation", ["scaled", "late"])
def test_strategy2_energy_balance_catches_a_wrong_control_law(cphase_30k, monkeypatch,
                                                              mutation):
    # the balance ties the state to the control law's output: it measures
    # 7.7e-8 here, 5.9e-4 for a control scaled by 1.01 and 1.1e-3 for a law
    # reading y one step late, y_{k+1} in place of y_k
    p, traj, off = cphase_30k
    law = noc.feedback_control
    if mutation == "scaled":
        monkeypatch.setattr(noc, "feedback_control", lambda g, y: 1.01 * law(g, y))
    else:
        monkeypatch.setattr(noc, "feedback_control",
                            lambda g, y: law(g, np.concatenate([y[1:], y[-1:]])))
    with pytest.raises(AccuracyError, match="Riccati energy balance") as err:
        strategy2_solve(p, traj, off)
    assert err.value.check == "Riccati energy balance"
    assert err.value.value > 1e2 * noc.ENERGY_BALANCE_BUDGET


def test_strategy2_energy_balance_fails_at_a_coarse_step():
    # identity propagators at 300 feedback steps: h lambda = 1.9 is stable
    # (test_strategy2_rejects_an_unstable_step_size), but the quadrature of
    # the balance is off by 0.14 relative
    p = NOMINAL_PARAMS["cphase"]
    grid = TimeGrid(p.tau0, 600)
    traj = Trajectory(grid, np.tile(np.eye(4, dtype=complex), (601, 1, 1)))
    off = target_offset(random_unitary(np.random.default_rng(7), 4),
                        gate_target("cphase"))
    with pytest.raises(AccuracyError, match="Riccati energy balance 1.4") as err:
        strategy2_solve(p, traj, off)
    assert "increase the step count" in str(err.value)


@pytest.mark.parametrize("steps", [5000, 5001])
def test_strategy2_energy_balance_at_either_parity(steps):
    # a shortened cphase sweep; an odd feedback step count closes the
    # balance with the 3/8 rule, and both parities measure 1.3e-10
    p = dataclasses.replace(NOMINAL_PARAMS["cphase"], tau0=20.0)
    traj = propagate_sweep(p, TimeGrid(p.tau0, 2 * steps), refine=1)
    sol = strategy2_solve(p, traj, target_offset(traj.final, gate_target("cphase")))
    assert sol.control.grid.steps == steps
    assert 0.0 < sol.energy_balance_max <= 1e-9


def test_strategy2_energy_balance_at_the_production_grid(improved_all):
    assert improved_all["cphase"].feedback.energy_balance_max <= 1e-10


@pytest.mark.parametrize("steps", [2, 3, 7, 8])
def test_energy_balance_reads_every_sample(steps):
    # y = exp(-tau) y0 and |delta_f| = ||y|| satisfy d||y||²/dtau = -2 |delta_f|²
    h = 0.01
    decay = np.exp(-h * np.arange(steps + 1))
    y0 = np.random.default_rng(2).normal(size=16)
    delta_y = decay[:, None] * y0
    ctrl = np.zeros((steps + 1, 3))
    ctrl[:, 1] = decay * np.linalg.norm(y0)
    assert noc.energy_balance(delta_y, ctrl, h) <= 1e-9
    # the last sample of an odd step count enters through the 3/8 rule only
    for k in range(steps + 1):
        bad = ctrl.copy()
        bad[k] *= 1.01
        assert noc.energy_balance(delta_y, bad, h) > 1e2 * noc.ENERGY_BALANCE_BUDGET
    assert noc.energy_balance(0.0 * delta_y, 0.0 * ctrl, h) == 0.0
    ctrl[1, 0] = np.nan
    assert np.isnan(noc.energy_balance(delta_y, ctrl, h))


@pytest.mark.parametrize("steps,stable", [(100, False), (300, True)])
def test_strategy2_rejects_an_unstable_step_size(monkeypatch, steps, stable):
    # identity propagators are exactly unitary, and then G G† has the
    # eigenvalue 4.6724 throughout; the one-step map is stable for
    # h lambda up to about 4.18, so 100 steps (h lambda = 5.6) make ||y||
    # grow and 300 steps (1.9) do not
    p = NOMINAL_PARAMS["cphase"]
    grid = TimeGrid(p.tau0, 2 * steps)
    traj = Trajectory(grid, np.tile(np.eye(4, dtype=complex), (2 * steps + 1, 1, 1)))
    off = target_offset(random_unitary(np.random.default_rng(7), 4),
                        gate_target("cphase"))
    if stable:
        # the step is stable but too coarse for the energy balance, 0.14
        # relative (test_strategy2_energy_balance_fails_at_a_coarse_step)
        monkeypatch.setattr(noc, "ENERGY_BALANCE_BUDGET", np.inf)
        assert strategy2_solve(p, traj, off).norm_increase_max <= noc.NORM_INCREASE_TOL
    else:
        # the norm check comes first, so the balance budget is not reached
        with pytest.raises(ConsistencyError, match="increases"):
            strategy2_solve(p, traj, off)


def test_improvement_is_strict_and_large(improved_all):
    for name, res in improved_all.items():
        assert res.improved_report.trace_p < res.nominal_report.trace_p
        if res.gate.qubits == 1:
            assert res.improved_report.trace_p <= 1e-3 * res.nominal_report.trace_p


def test_control_reality_residue(improved_all):
    # pre-truncation imaginary parts are tiny by the hermitian-subspace argument;
    # the stored samples are exactly real
    for res in improved_all.values():
        assert res.control.samples.dtype.kind == "f"


@pytest.mark.parametrize("name", ["hadamard", "cphase"])
@given(steps=st.integers(1, 40), window=st.integers(1, 24))
@example(steps=9, window=24)     # one window
@example(steps=12, window=4)     # an exact multiple
@example(steps=13, window=4)     # a partial last window
@settings(max_examples=15, deadline=None)
def test_drive_windows_match_one_drive_matrix_call(name, steps, window):
    # synthetic unitary samples on the hadamard grid and on Strategy 2's
    # doubled cphase grid (twice the steps), with a window of `window` steps
    p = NOMINAL_PARAMS[name]
    n = 2 if p.qubits == 1 else 4
    grid = TimeGrid(p.tau0, steps if n == 2 else 2 * steps)
    rng = np.random.default_rng(steps)
    z = rng.normal(size=(grid.steps + 1, n, n)) + 1j * rng.normal(size=(grid.steps + 1, n, n))
    traj = Trajectory(grid, np.linalg.qr(z)[0])
    # the Pauli projection of one drive_matrix call
    want, want_residue = pauli_coordinates(np.swapaxes(
        drive_matrix(traj.unitaries, coupling_matrices(p, grid.points())), -1, -2))
    want = np.swapaxes(want, -1, -2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noc, "DRIVE_WINDOW", n * n * window)
        windows = list(noc.drive_windows(p, traj))
    starts = [c0 for c0, _, _ in windows]
    assert starts == list(range(0, grid.steps, window))
    for c0, g_r, _ in windows:
        assert len(g_r) == min(window, grid.steps - c0) + 1
        assert g_r.dtype == np.float64
    # consecutive windows share their end sample; taken once, they are the call
    for (_, a, _), (_, b, _) in zip(windows, windows[1:]):
        assert np.array_equal(a[-1], b[0])
    got = np.concatenate([windows[0][1]] + [g_r[1:] for _, g_r, _ in windows[1:]])
    assert np.array_equal(got, want)
    assert max(residue for _, _, residue in windows) == want_residue


def test_strategy2_rejects_an_odd_nominal_step_count():
    # every feedback step reads two nominal steps
    p = NOMINAL_PARAMS["cphase"]
    traj = Trajectory(TimeGrid(p.tau0, 601), np.tile(np.eye(4, dtype=complex), (602, 1, 1)))
    off = target_offset(random_unitary(np.random.default_rng(7), 4),
                        gate_target("cphase"))
    with pytest.raises(ValueError, match="even step count"):
        strategy2_solve(p, traj, off)


def test_strategy2_rejects_a_single_feedback_step():
    # the energy balance needs at least two feedback steps
    p = NOMINAL_PARAMS["cphase"]
    traj = Trajectory(TimeGrid(p.tau0, 2), np.tile(np.eye(4, dtype=complex), (3, 1, 1)))
    off = target_offset(random_unitary(np.random.default_rng(7), 4),
                        gate_target("cphase"))
    with pytest.raises(ValueError, match="even step count of at least 4, got 2"):
        strategy2_solve(p, traj, off)


@pytest.mark.parametrize("scale,ok", [(1e-9, True), (1e-4, False), (np.nan, False)])
def test_strategy2_rejects_a_non_hermitian_offset(monkeypatch, scale, ok):
    # exactly unitary identity propagators at a stable step size (see
    # test_strategy2_rejects_an_unstable_step_size); an anti-Hermitian part
    # i K of delta_beta is the imaginary part of its Pauli coordinates, and
    # a NaN offset is caught by the same check
    p = NOMINAL_PARAMS["cphase"]
    grid = TimeGrid(p.tau0, 600)
    traj = Trajectory(grid, np.tile(np.eye(4, dtype=complex), (grid.steps + 1, 1, 1)))
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    beta = 0.01 * hermitize(z[0]) + 1j * scale * hermitize(z[1])
    off = TargetOffset(delta_beta=beta, delta_b=vectorize(beta))
    if ok:
        # the energy balance at this coarse step measures 0.14 relative
        monkeypatch.setattr(noc, "ENERGY_BALANCE_BUDGET", np.inf)
        sol = strategy2_solve(p, traj, off)
        assert 0.0 < sol.imag_residue_max <= noc.IMAG_RESIDUE_TOL
    else:
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            strategy2_solve(p, traj, off)


@pytest.mark.parametrize("kind", ["nan", "anti-hermitian"])
def test_strategy2_rejects_a_bad_offset_before_any_drive_sample(monkeypatch, kind):
    # the offset's own imaginary residue fails before the streamed pass
    def no_drive_windows(*args, **kwargs):
        raise AssertionError("drive samples formed for a rejected offset")

    monkeypatch.setattr(noc, "drive_windows", no_drive_windows)
    p = NOMINAL_PARAMS["cphase"]
    grid = TimeGrid(p.tau0, 600)
    traj = Trajectory(grid, np.tile(np.eye(4, dtype=complex), (grid.steps + 1, 1, 1)))
    z = np.random.default_rng(5).normal(size=(2, 4, 4))
    if kind == "nan":
        beta = np.full((4, 4), np.nan, dtype=complex)
    else:
        beta = 1j * hermitize(z[0] + 1j * z[1])
    off = TargetOffset(delta_beta=beta, delta_b=vectorize(beta))
    with pytest.raises(ConsistencyError, match="imaginary residue"):
        strategy2_solve(p, traj, off)
