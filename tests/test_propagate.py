import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocgf import propagate
from nocgf.control import NOMINAL_PARAMS, coupling_matrices
from nocgf.lincore import SIGMA_Z, hermitize, vectorize
from nocgf.noise import NoiseRealization
from nocgf.propagate import (
    AccuracyError,
    StepNodes,
    TimeGrid,
    _generator_fun,
    _integrate,
    _noisy_composite,
    integrate_delta_y,
    matrix_algebra,
    noisy_segments,
    propagate_finals,
    propagate_modified_batch,
    propagate_sweep,
    step_maps,
)
from nocgf import drive_matrix
from tests.dense_model import one_qubit_field, one_qubit_hamiltonian, sweep_hamiltonian

HAD = NOMINAL_PARAMS["hadamard"]


def sweep_generator(p, grid, delta_f=None, noise=None):
    """One sweep's afun, as propagate_sweep and the noisy segments take it:
    member 0 of a batch of one, with no batch axis."""
    afun = _generator_fun(grid, [(p, True)], delta_f, noise)
    return lambda taus, c0: afun(taus, c0)[0]


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(160.0, 0)
    g = TimeGrid(160.0, 1000)
    assert g.tau_start == -80.0
    pts = g.points()
    assert len(pts) == 1001 and pts[0] == -80.0 and pts[-1] == pytest.approx(80.0)


def test_zero_generator_gives_identity():
    grid = TimeGrid(10.0, 100)

    def afun(taus, c0):
        return np.zeros((*taus.shape, 2, 2), dtype=complex)

    out, u, _ = _integrate(afun, grid, 2)
    assert np.allclose(out, np.eye(2))
    assert np.allclose(u, np.eye(2))


def test_constant_hamiltonian_matches_exponential():
    # H = -sigma_z: U(tau) = exp(+i sigma_z (tau + tau0/2))
    grid = TimeGrid(8.0, 2000)

    def afun(taus, c0):
        return np.broadcast_to(1j * SIGMA_Z, (*taus.shape, 2, 2)).copy()

    out, u, _ = _integrate(afun, grid, 2)
    taus = grid.points()
    expected = np.stack([
        np.diag([np.exp(1j * (t + 4.0)), np.exp(-1j * (t + 4.0))]) for t in taus
    ])
    assert np.abs(out - expected).max() < 1e-10


@pytest.mark.parametrize("p", [HAD, NOMINAL_PARAMS["cphase"]])
def test_an_unstable_grid_raises_without_numpy_warnings(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="unitarity defect"):
            propagate_sweep(p, TimeGrid(p.tau0, 50))


def test_nominal_unitarity_and_budget(monkeypatch):
    traj = propagate_sweep(HAD, TimeGrid(HAD.tau0, 40000))
    assert traj.defect <= 1e-10
    monkeypatch.setattr(propagate, "UNITARITY_BUDGET", 1e-18)
    with pytest.raises(AccuracyError):
        propagate_sweep(HAD, TimeGrid(HAD.tau0, 2000))


def test_one_qubit_sweep_keeps_the_cayley_klein_form():
    # every sample is [[alpha, -conj(beta)], [beta, conj(alpha)]] bit for
    # bit, and the defect is that of the first columns
    traj = propagate_sweep(HAD, TimeGrid(HAD.tau0, 40000))
    u = traj.unitaries
    assert np.array_equal(u[..., 1, 1], np.conj(u[..., 0, 0]))
    assert np.array_equal(u[..., 0, 1], -np.conj(u[..., 1, 0]))
    a, b = u[..., 0, 0], u[..., 1, 0]
    norm = (a.real * a.real + a.imag * a.imag) + b.real * b.real + b.imag * b.imag
    assert traj.defect == np.abs(norm - 1.0).max()


def test_composition_of_half_sweeps():
    # propagate [-tau0/2, 0] then [0, tau0/2] == single pass
    steps = 20000
    grid = TimeGrid(HAD.tau0, steps)

    def afun(taus, c0):
        return -1j * sweep_hamiltonian(taus, HAD)

    _, u_full, _ = _integrate(afun, grid, 2)
    half1 = TimeGrid(HAD.tau0 / 2, steps // 2)   # spans [-40, 40] shifted below

    def afun_lo(taus, c0):
        return afun(taus - 40.0, c0)

    def afun_hi(taus, c0):
        return afun(taus + 40.0, c0)

    _, u_lo, _ = _integrate(afun_lo, half1, 2)
    _, u_hi, _ = _integrate(afun_hi, half1, 2)
    assert np.abs(u_hi @ u_lo - u_full).max() < 1e-10


# the 8,000-step grids below have a unitarity defect of 3.3e-8, above the
# production budget
def test_modified_zero_control_matches_nominal(monkeypatch):
    monkeypatch.setattr(propagate, "UNITARITY_BUDGET", np.inf)
    grid = TimeGrid(HAD.tau0, 8000)
    a = propagate_sweep(HAD, grid)
    b = propagate_sweep(HAD, grid, np.zeros((grid.steps + 1, 3)))
    assert np.abs(a.final - b.final).max() < 1e-12


def test_modified_dual_formulation(monkeypatch):
    # adding delta_f through the couplings equals the field-sum form
    monkeypatch.setattr(propagate, "UNITARITY_BUDGET", np.inf)
    grid = TimeGrid(HAD.tau0, 8000)
    taus = grid.points()
    df = 1e-3 * np.stack([
        np.exp(-((taus + 20) / 25.0) ** 2),
        0.5 * np.cos(taus / 40.0),
        np.zeros_like(taus),
    ], axis=-1)
    a = propagate_sweep(HAD, grid, df)

    def afun(ts, c0):
        f0 = one_qubit_field(ts, HAD)
        dfi = np.stack([np.interp(ts, taus, df[:, j]) for j in range(3)], axis=-1)
        return -1j * one_qubit_hamiltonian(f0 + dfi)

    _, u, _ = _integrate(afun, grid, 2)
    assert np.abs(a.final - u).max() < 1e-12


def test_modified_grid_mismatch():
    grid = TimeGrid(HAD.tau0, 100)
    with pytest.raises(ValueError):
        propagate_sweep(HAD, grid, np.zeros((57, 3)))


def test_convergence_order_on_hadamard_sweep():
    def final_at(steps, refine=1):
        grid = TimeGrid(HAD.tau0, steps)

        def afun(taus, c0):
            return -1j * sweep_hamiltonian(taus, HAD)

        _, u, _ = _integrate(afun, grid, 2, refine=refine, store="final")
        return u

    ref = final_at(320000)
    e1 = np.abs(final_at(10000) - ref).max()
    e2 = np.abs(final_at(20000) - ref).max()
    order = np.log2(e1 / e2)
    assert order >= 3.5
    assert e2 < e1


@pytest.fixture(scope="module")
def cphase_half_drive():
    """Drive samples at the grid points and midpoints of 30,000 steps: a
    cphase sweep on 60,000 steps at one substep each."""
    p = NOMINAL_PARAMS["cphase"]
    grid = TimeGrid(p.tau0, 30000)
    fine = TimeGrid(p.tau0, 2 * grid.steps)
    # this coarse grid's defect, 3.4e-10, exceeds the production budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "UNITARITY_BUDGET", np.inf)
        traj = propagate_sweep(p, fine, refine=1)
    return grid, drive_matrix(traj.unitaries, p, fine.points())


def test_delta_y_zero_offset(cphase_half_drive):
    grid, g_half = cphase_half_drive
    y = integrate_delta_y(g_half, np.zeros(16, dtype=complex), grid.h)
    assert y.shape == (grid.steps + 1, 16)
    assert np.abs(y).max() == 0.0


def test_delta_y_monotone_and_hermitian_subspace(cphase_half_drive):
    grid, g_half = cphase_half_drive
    rng = np.random.default_rng(11)
    beta = hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * 0.01
    delta_b = vectorize(beta)
    y = integrate_delta_y(g_half, -delta_b, grid.h)
    norms = np.linalg.norm(y, axis=1)
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] <= norms[0] == pytest.approx(np.linalg.norm(delta_b))
    # the hermitian-vectorized subspace is preserved along the flow
    for k in (0, grid.steps // 2, grid.steps):
        m = y[k].reshape(4, 4).T
        assert np.abs(m - hermitize(m)).max() < 1e-8
    # integrating in two runs of samples that share the middle node is the
    # same computation
    half = grid.steps // 2
    first = integrate_delta_y(g_half[:2 * half + 1], -delta_b, grid.h)
    second = integrate_delta_y(g_half[2 * half:], first[-1], grid.h)
    assert np.array_equal(np.concatenate([first, second[1:]]), y)


def test_delta_y_shape_mismatch():
    h = NOMINAL_PARAMS["cphase"].tau0 / 100
    y0 = np.zeros(16, dtype=complex)
    for shape in [(8, 16, 3), (1, 16, 3), (7, 9, 3), (7, 16, 2), (7, 16)]:
        with pytest.raises(ValueError):
            integrate_delta_y(np.zeros(shape, dtype=complex), y0, h)
    with pytest.raises(ValueError):
        integrate_delta_y(np.zeros((7, 16, 3), dtype=complex), np.zeros((1, 16)), h)


@pytest.mark.parametrize("refine", [1, 2])
def test_uniform_nodes_match_a_sequential_step_map_product(monkeypatch, refine):
    # three chunks, the last one partial
    steps = 2500
    monkeypatch.setattr(propagate, "CHUNK", 1000)
    grid = TimeGrid(HAD.tau0, steps)
    afun = sweep_generator(HAD, grid)
    out, u, _ = _integrate(afun, grid, 2, refine=refine)
    q = grid.h / refine
    taus = grid.tau_start + np.arange(2 * refine * steps + 1) * (q / 2.0)
    a = afun(taus, None)
    maps = step_maps(a[0:-1:2], a[1::2], a[2::2], q, matrix_algebra(2))
    want = [np.eye(2, dtype=complex)]
    for k in range(steps):
        v = want[-1]
        for r in range(refine):
            v = maps[refine * k + r] @ v
        want.append(v)
    want = np.stack(want)
    assert np.abs(out - want).max() <= 1e-12 * steps
    assert np.array_equal(u, out[-1])


# a short sweep at a coarse grid, so the discretization error is far above
# roundoff; two hand-placed realizations: overlapping pulses, edges on grid
# points, pulses reaching past both sweep ends and a shared edge
SHORT_HAD = dataclasses.replace(HAD, tau0=20.0)


def _hand_placed_noise():
    kw = dict(tau_f=0.5, tau0=SHORT_HAD.tau0)
    return [
        NoiseRealization(centers=np.array([-3.01, -2.7, 4.5, 9.9]),
                         amplitudes=np.array([0.4, -0.25, 0.3, 0.2]), scale=1.0, **kw),
        NoiseRealization(centers=np.array([-9.8, 0.123, 1.123]),
                         amplitudes=np.array([-0.3, 0.5, -0.2]), scale=1.0, **kw),
    ]


def test_grid_and_its_points_as_step_nodes_give_the_same_propagator(monkeypatch):
    # a continuous generator, which both sample sources take at the same
    # times up to rounding, so they feed the same maps (three chunks)
    steps = 2500
    monkeypatch.setattr(propagate, "CHUNK", 1000)
    grid = TimeGrid(SHORT_HAD.tau0, steps)
    afun = sweep_generator(SHORT_HAD, grid)
    _, levels, _ = _integrate(afun, StepNodes(grid.points()), 2, refine=2,
                              store="final")
    for refine, u_nodes in zip((1, 2), levels):
        _, u, _ = _integrate(afun, grid, 2, refine=refine, store="final")
        assert np.abs(u_nodes - u).max() <= 1e-12 * steps


def test_doubled_grid_at_refine_1_matches_the_grid_at_refine_2(monkeypatch):
    # the same sample times and substep maps (Strategy 2's nominal sweep);
    # only the association of the scan product differs
    steps, chunk = 2500, 1000
    grid = TimeGrid(SHORT_HAD.tau0, steps)
    fine = TimeGrid(SHORT_HAD.tau0, 2 * steps)
    assert np.array_equal(fine.points()[0::2], grid.points())
    monkeypatch.setattr(propagate, "CHUNK", chunk)
    at_grid, _, _ = _integrate(sweep_generator(SHORT_HAD, grid), grid, 2)
    monkeypatch.setattr(propagate, "CHUNK", 2 * chunk)
    doubled, u, _ = _integrate(sweep_generator(SHORT_HAD, fine), fine, 2, refine=1)
    assert doubled.shape == (2 * steps + 1, 2, 2)
    assert np.array_equal(doubled[-1], u)
    assert np.abs(doubled[0::2] - at_grid).max() <= 1e-15 * steps


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 60), chunk=st.integers(1, 25), refine=st.integers(1, 6))
def test_storage_modes_write_one_product(steps, chunk, refine):
    grid = TimeGrid(SHORT_HAD.tau0, steps)
    afun = sweep_generator(SHORT_HAD, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "CHUNK", chunk)
        at_grid, u_grid, d_grid = _integrate(afun, grid, 2, refine=refine, store="grid")
        none, u_final, d_final = _integrate(afun, grid, 2, refine=refine, store="final")
    assert none is None and at_grid.shape == (steps + 1, 2, 2)
    assert np.array_equal(u_final, at_grid[-1])
    assert np.array_equal(u_grid, u_final)
    # both modes measure the defect at every node
    assert d_final == d_grid


@settings(max_examples=60, deadline=None)
@given(steps=st.integers(1, 60), chunk=st.integers(1, 25),
       refine=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**32 - 1))
def test_row_weights_match_interpolation_on_the_grid_points(steps, chunk, refine, seed):
    grid = TimeGrid(SHORT_HAD.tau0, steps)
    delta_f = 0.05 * np.random.default_rng(seed).normal(size=(steps + 1, 3))
    points = grid.points()
    weighted = sweep_generator(SHORT_HAD, grid, delta_f)

    def reference(taus, c0):
        dfi = np.stack([np.interp(taus, points, delta_f[:, j]) for j in range(3)], axis=-1)
        return -1j * (sweep_hamiltonian(taus, SHORT_HAD) + np.einsum(
            "...j,jkl->...kl", dfi, coupling_matrices(SHORT_HAD, 0.0)))

    # every sample, read or not, against the reference at the same times;
    # np.interp holds the last sample beyond the final grid point, as the
    # last chunk's end column does with weight 0
    errors, sampled = [], []

    def compared(taus, c0):
        a = weighted(taus, c0)
        errors.append(np.abs(a - reference(taus, c0)).max())
        sampled.append(taus)
        return a

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "CHUNK", chunk)
        out, _, _ = _integrate(compared, grid, 2, refine=refine)
        want, _, _ = _integrate(reference, grid, 2, refine=refine)
    assert len(sampled) == -(-steps // chunk)
    # rows j > 0 of the last chunk's end column lie past the final grid point
    assert np.all(sampled[-1][1:, -1] > points[-1])
    # a sample time carries roundoff of about eps |tau| <= 1.1e-15, that is
    # a fraction of at most 3.3e-15 of a step of h >= 1/3, times a sample
    # difference below 0.5: the generator samples agree to 1e-14.  Grids
    # this coarse are far from unitary (entries up to 8e2 at 3 steps), so
    # the propagators agree to 1e-14 of their size (measured 1e-15)
    assert max(errors) <= 1e-14
    assert np.abs(out - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_unknown_storage_mode_is_rejected():
    grid = TimeGrid(SHORT_HAD.tau0, 40)
    with pytest.raises(ValueError, match="store must be"):
        _integrate(sweep_generator(SHORT_HAD, grid), grid, 2, store="half")


def test_trajectory_holds_one_sample_per_grid_point():
    grid = TimeGrid(SHORT_HAD.tau0, 4)
    for count in (1, 4, 9):
        with pytest.raises(ValueError, match="holds 5 samples, got"):
            propagate.Trajectory(grid, np.tile(np.eye(2, dtype=complex), (count, 1, 1)))
    traj = propagate.Trajectory(grid, np.tile(np.eye(2, dtype=complex), (5, 1, 1)))
    assert np.array_equal(traj.final, np.eye(2))


def _short_control(grid):
    taus = grid.points()
    return 0.02 * np.stack([np.cos(taus / 3.0), np.sin(taus / 5.0),
                            np.exp(-taus**2 / 20.0)], axis=-1)


def test_edge_aligned_batch_error_stays_within_its_estimate(monkeypatch):
    grid = TimeGrid(SHORT_HAD.tau0, 400)
    delta_f = _short_control(grid)
    improved = propagate_sweep(SHORT_HAD, grid, delta_f)
    noises = _hand_placed_noise()
    res = propagate_modified_batch(SHORT_HAD, improved, delta_f, noises)
    assert res.unitaries.shape == (2, 2, 2)
    assert np.all((res.steps > 0) & (res.steps < grid.steps))

    # the same segments and quiet factors, with the segments at refine 16
    runs = [_noisy_composite(SHORT_HAD, improved, delta_f, nz) for nz in noises]
    r1, r2 = np.stack([u for u, _, _ in runs], axis=1)
    monkeypatch.setattr(propagate, "DEFAULT_REFINE", 16)
    ref = np.stack([_noisy_composite(SHORT_HAD, improved, delta_f, nz)[0][1]
                    for nz in noises])
    assert np.array_equal(r2, res.unitaries)
    assert res.error_estimate == np.abs(r2 - r1).max()
    err1 = np.abs(r1 - ref).max()
    err2 = np.abs(r2 - ref).max()
    # the estimate measures the refine-1 error and bounds the reported one
    assert 0.5 * err1 <= res.error_estimate <= 2.0 * err1
    assert err2 <= res.error_estimate
    assert err2 <= err1 / 8.0


@pytest.mark.parametrize("level", [0, 1])
def test_noisy_composite_matches_a_whole_sweep_edge_aligned_run(level):
    # level 0 is refine 1, level 1 refine 2; the quiet factors come from an
    # improved trajectory integrated at that level's refine
    grid = TimeGrid(SHORT_HAD.tau0, 400)
    delta_f = _short_control(grid)
    refine = level + 1
    out, _, _ = _integrate(sweep_generator(SHORT_HAD, grid, delta_f), grid, 2,
                           refine=refine)
    improved = propagate.Trajectory(grid, out)
    for nz in _hand_placed_noise():
        nodes = StepNodes.with_edges(grid.points(), nz.edges())
        _, whole, _ = _integrate(sweep_generator(SHORT_HAD, grid, delta_f, nz), nodes,
                                 2, refine=2, store="final")
        composite, steps, _ = _noisy_composite(SHORT_HAD, improved, delta_f, nz)
        assert steps < nodes.steps
        # roundoff of the solved quiet factors and of the sample times;
        # measured at most 2.1e-15
        assert np.abs(composite[level] - whole[level]).max() <= 1e-13


def test_a_realization_without_pulses_is_the_improved_gate():
    grid = TimeGrid(SHORT_HAD.tau0, 400)
    delta_f = _short_control(grid)
    improved = propagate_sweep(SHORT_HAD, grid, delta_f)
    quiet = NoiseRealization(centers=np.empty(0), amplitudes=np.empty(0), scale=0.0,
                             tau_f=0.5, tau0=SHORT_HAD.tau0)
    res = propagate_modified_batch(SHORT_HAD, improved, delta_f, [quiet])
    assert np.array_equal(res.unitaries[0], improved.final)
    assert res.error_estimate == 0.0 and res.steps.tolist() == [0]


def test_step_doubling_budget_is_enforced(monkeypatch):
    grid = TimeGrid(SHORT_HAD.tau0, 400)
    delta_f = np.zeros((grid.steps + 1, 3))
    improved = propagate_sweep(SHORT_HAD, grid, delta_f)
    monkeypatch.setattr(propagate, "DOUBLING_BUDGET", 0.0)
    with pytest.raises(AccuracyError, match="step-doubling error estimate") as err:
        propagate_modified_batch(SHORT_HAD, improved, delta_f, _hand_placed_noise())
    assert err.value.check == "step-doubling error estimate"
    assert err.value.value > 0.0 == err.value.budget


def test_step_nodes_need_final_storage_and_even_refine():
    nodes = StepNodes(np.linspace(-1.0, 1.0, 5))

    def afun(taus, c0):
        return np.zeros((*taus.shape, 2, 2), dtype=complex)

    for kw in ({"refine": 2, "store": "grid"}, {"refine": 1, "store": "final"}):
        with pytest.raises(ValueError, match="even refine"):
            _integrate(afun, nodes, 2, **kw)
    _, u, _ = _integrate(afun, nodes, 2, refine=2, store="final")
    assert u.shape == (2, 2, 2)
    assert np.array_equal(u, np.broadcast_to(np.eye(2), u.shape))


@settings(max_examples=60, deadline=None)
@given(steps=st.integers(1, 40),
       centers=st.lists(st.floats(-12.0, 12.0), min_size=0, max_size=8),
       tau_f=st.floats(0.01, 3.0))
def test_step_nodes_hold_the_noise_constant_inside_each_step(steps, centers, tau_f):
    grid = TimeGrid(20.0, steps)
    centers = np.array(centers, dtype=float)
    amplitudes = np.linspace(0.1, 0.7, len(centers)) * (-1.0) ** np.arange(len(centers))
    r = NoiseRealization(centers=centers, amplitudes=amplitudes, scale=1.0,
                         tau_f=tau_f, tau0=grid.tau0)
    nodes = StepNodes.with_edges(grid.points(), r.edges()).taus
    points = grid.points()
    assert np.all(np.diff(nodes) > 0.0)
    assert nodes[0] == points[0] and nodes[-1] == points[-1]
    assert np.all(np.isin(points, nodes))
    assert np.all(np.isin(np.clip(r.edges(), points[0], points[-1]), nodes))
    # every sample strictly inside a step sees the step's midpoint value
    lo, hi = nodes[:-1], nodes[1:]
    held = r.evaluate(0.5 * (lo + hi))
    for frac in (1e-9, 0.1, 0.37, 0.9, 1.0 - 1e-9):
        inner = lo + frac * (hi - lo)
        inside = (inner > lo) & (inner < hi)
        assert np.array_equal(r.evaluate(inner)[inside], held[inside])


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(1, 40),
       centers=st.lists(st.floats(-12.0, 12.0), min_size=0, max_size=8),
       on_grid=st.lists(st.integers(0, 40), max_size=4),
       tau_f=st.floats(0.01, 3.0))
def test_noisy_segments_are_disjoint_and_hold_every_pulse(steps, centers, on_grid,
                                                          tau_f):
    grid = TimeGrid(20.0, steps)
    pts = grid.points()
    # plus pulses with an edge exactly on a grid point, as left or right edge
    on = pts[np.array(on_grid, dtype=int) % (steps + 1)]
    odd = np.array(on_grid, dtype=int) % 2 == 1
    left = np.concatenate([np.array(centers) - tau_f, np.where(odd, on, on - 2 * tau_f)])
    right = np.concatenate([np.array(centers) + tau_f, np.where(odd, on + 2 * tau_f, on)])
    seg = noisy_segments(grid, np.concatenate([left, right]))
    assert seg.shape == (len(seg), 2) and np.all(seg[:, 0] < seg[:, 1])
    # sorted and disjoint: a segment ends before the next one starts
    assert np.all(seg[1:, 0] > seg[:-1, 1])
    assert np.all((seg >= 0) & (seg <= steps))
    lo, hi = np.clip(left, pts[0], pts[-1]), np.clip(right, pts[0], pts[-1])
    # a pulse outside the sweep clips to a point and needs no segment
    for l, r in zip(lo[lo < hi], hi[lo < hi]):
        assert np.sum((pts[seg[:, 0]] <= l) & (pts[seg[:, 1]] >= r)) == 1


def _cancelling_generator(dim, chunk, eps=1e-2):
    """A zero generator except for a Hermitian part +eps H in chunk 1 and
    -eps H in chunk 3, with H constant: the middle propagators grow away
    from unitarity by about 2 eps |tau|, and the final one is unitary to
    roundoff.  For 2x2 the Cayley-Klein algebra reads only the first column,
    and its one Hermitian direction is the identity."""
    h = np.eye(2) if dim == 2 else hermitize(
        np.random.default_rng(5).normal(size=(4, 4)) + 0j)

    def afun(taus, c0):
        sign = {1: 1.0, 3: -1.0}.get(c0 // chunk, 0.0)
        return np.broadcast_to(sign * eps * h, (*taus.shape, dim, dim)).astype(complex)

    return afun


@pytest.mark.parametrize("dim", [2, 4])
def test_final_storage_measures_the_defect_of_every_prefix(monkeypatch, dim):
    chunk = 10
    monkeypatch.setattr(propagate, "CHUNK", chunk)
    grid = TimeGrid(10.0, 5 * chunk)
    afun = _cancelling_generator(dim, chunk)
    _, u_grid, d_grid = _integrate(afun, grid, dim, store="grid")
    none, u_final, d_final = _integrate(afun, grid, dim, store="final")
    assert none is None and np.array_equal(u_final, u_grid)
    assert propagate.unitarity_defect(u_final) <= 1e-14
    assert d_final == d_grid > 1e-3


@pytest.mark.parametrize("dim", [2, 4])
def test_checked_finals_raise_on_a_defect_a_later_chunk_cancels(monkeypatch, dim):
    p = SHORT_HAD if dim == 2 else NOMINAL_PARAMS["cphase"]
    grid = TimeGrid(p.tau0, 5 * propagate.CHUNK)
    cancelling = _cancelling_generator(dim, propagate.CHUNK, eps=1e-4)
    integrate = propagate._integrate

    def with_cancelling_generator(afun, grid, dim, batch=(), *args, **kwargs):
        # the cancelling generator in place of every member's
        def every_member(taus, c0):
            return np.broadcast_to(cancelling(taus, c0), (*batch, *taus.shape, dim, dim))

        return integrate(every_member, grid, dim, batch, *args, **kwargs)

    monkeypatch.setattr(propagate, "_integrate", with_cancelling_generator)
    members = [(p, True), (p, False)]
    for run in (lambda: propagate_sweep(p, grid),
                lambda: propagate_finals(members, grid, np.zeros((grid.steps + 1, 3)))):
        with pytest.raises(AccuracyError, match="unitarity defect") as err:
            run()
        assert err.value.value > 1e-4


def test_noisy_runs_check_the_defect_inside_their_segments(monkeypatch):
    # a noisy generator of +eps I in the first half of the segment's steps
    # and -eps I in the second: the segment's final is I to roundoff and the
    # composite as unitary as the improved trajectory, but the propagators
    # inside the segment grow by about eps tau_f away from unitarity
    grid = TimeGrid(SHORT_HAD.tau0, 400)
    delta_f = _short_control(grid)
    improved = propagate_sweep(SHORT_HAD, grid, delta_f)
    pulse = NoiseRealization(centers=np.array([0.0]), amplitudes=np.array([0.3]),
                             scale=1.0, tau_f=0.52, tau0=SHORT_HAD.tau0)
    eps = 1e-2

    def growing_then_shrinking(*args, **kwargs):
        # a batch of one member, as the generator builder writes it
        def afun(taus, c0):
            # every row of a step takes the sign at its midpoint, which the
            # pulse's symmetric nodes split into equal halves
            sign = -np.sign(taus[len(taus) // 2])
            return np.broadcast_to(sign[:, None, None] * eps * np.eye(2),
                                   (1, *taus.shape, 2, 2)).astype(complex)

        return afun

    (seg,) = noisy_segments(grid, pulse.edges())
    nodes = StepNodes.with_edges(grid.points()[seg[0]:seg[1] + 1], pulse.edges())
    member = growing_then_shrinking()
    _, seg_finals, seg_defect = _integrate(lambda taus, c0: member(taus, c0)[0],
                                           nodes, 2, refine=2, store="final")
    assert nodes.steps % 2 == 0
    assert np.abs(seg_finals - np.eye(2)).max() <= 1e-14
    monkeypatch.setattr(propagate, "_generator_fun", growing_then_shrinking)
    composite, _, defect = _noisy_composite(SHORT_HAD, improved, delta_f, pulse)
    assert propagate.unitarity_defect(composite) <= propagate.UNITARITY_BUDGET
    assert defect == seg_defect > 0.5 * eps * pulse.tau_f
    with pytest.raises(AccuracyError, match="unitarity defect") as err:
        propagate_modified_batch(SHORT_HAD, improved, delta_f, [pulse])
    assert err.value.check == "unitarity defect" and err.value.value == defect


# short sweeps: with steps >= tau0 the coarse maps stay finite
params_1q = st.builds(dataclasses.replace, st.just(HAD), lam=st.floats(4.0, 10.0),
                      eta4=st.floats(1e-4, 3e-4), tau0=st.floats(4.0, 12.0))
params_2q = st.builds(
    dataclasses.replace, st.just(NOMINAL_PARAMS["cphase"]), lam=st.floats(4.0, 8.0),
    eta4=st.floats(1e-4, 3e-4), tau0=st.floats(4.0, 12.0), d1=st.floats(-15.0, 15.0),
    d2=st.floats(-3.0, 3.0), d3=st.floats(-0.8, 0.5), d4=st.floats(-8.0, 8.0),
    c4=st.floats(-6.0, 6.0))


def _members(params):
    return st.lists(st.tuples(params, st.booleans()), min_size=1, max_size=4)


SHORT_CP = dataclasses.replace(NOMINAL_PARAMS["cphase"], tau0=12.0)


@settings(max_examples=30, deadline=None)
@given(members=st.one_of(_members(params_1q), _members(params_2q)),
       chunk=st.integers(9, 40), full=st.integers(1, 3), last=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@example(members=[(SHORT_HAD, True), (SHORT_HAD, False),
                  (dataclasses.replace(SHORT_HAD, lam=7.821), True),
                  (dataclasses.replace(SHORT_HAD, eta4=1.8e-4), False)],
         chunk=16, full=2, last=4, seed=0)
@example(members=[(SHORT_CP, True), (dataclasses.replace(SHORT_CP, d1=11.703), False),
                  (dataclasses.replace(SHORT_CP, c4=5.0004), True)],
         chunk=9, full=1, last=4, seed=1)
@example(members=[(SHORT_HAD, True)], chunk=9, full=3, last=1, seed=2)
def test_batched_finals_equal_separate_sweeps(members, chunk, full, last, seed):
    # random members of one system size, each with or without the control;
    # chunks that leave a last chunk of 1 to 8 steps
    steps = full * chunk + last
    grid = TimeGrid(members[0][0].tau0, steps)
    delta_f = 0.05 * np.random.default_rng(seed).normal(size=(steps + 1, 3))
    dim = members[0][0].dim
    with pytest.MonkeyPatch.context() as mp:
        # coarse grids are far from unitary
        mp.setattr(propagate, "UNITARITY_BUDGET", np.inf)
        mp.setattr(propagate, "CHUNK", chunk)
        finals = propagate_finals(members, grid, delta_f)
        assert finals.shape == (len(members), dim, dim)
        for final, (p, controlled) in zip(finals, members):
            want = propagate_sweep(p, grid, delta_f if controlled else None).final
            if last == 1 and len(members) > 1:
                # in a one-step chunk a single sweep's in-place complex
                # products (lincore.cayley_klein_matmul) act on one-element
                # arrays, which numpy rounds differently from its vector
                # loop; the batch's members stay in the vector loop
                scale = max(1.0, np.abs(want).max())
                assert np.abs(final - want).max() <= steps * 2.3e-16 * scale
            else:
                assert np.array_equal(final, want)
