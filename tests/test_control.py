import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocgf.control import (
    NOMINAL_PARAMS,
    SweepParams1Q,
    SweepParams2Q,
    coupling_matrices,
    drive_matrix,
    generator,
    sweep_hamiltonian,
    twist_phase,
)
from nocgf import control, noc
from nocgf.lincore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    component_major,
    entry_matmul,
    hermitize,
    pauli_coordinates,
    vectorize,
)
from tests import dense_model
from tests.conftest import random_unitary
from tests.dense_model import (
    dense_generator,
    one_qubit_field,
    one_qubit_hamiltonian,
    two_qubit_hamiltonian,
)

HAD = NOMINAL_PARAMS["hadamard"]
NOT = NOMINAL_PARAMS["not"]
CP = NOMINAL_PARAMS["cphase"]


def test_params_validation():
    with pytest.raises(ValueError):
        SweepParams1Q(lam=-1.0, eta4=1e-4)
    with pytest.raises(ValueError):
        SweepParams2Q(lam=5.0, eta4=1e-4, d1=np.inf)
    with pytest.raises(ValueError, match="d3 = 1"):
        SweepParams2Q(lam=5.0, eta4=1e-4, d3=1.0)


def test_twist_phase_values():
    assert twist_phase(0.0, HAD) == 0.0
    # direct arithmetic at the sweep edge for the hadamard parameters
    expected = (1.792e-4 / (2 * 7.820)) * 80.0**4
    assert twist_phase(80.0, HAD) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(469.33, rel=1e-3)
    taus = np.linspace(-80, 80, 7)
    assert np.array_equal(twist_phase(taus, HAD), twist_phase(-taus, HAD))


EPS = np.finfo(float).eps
_any_params = st.sampled_from(list(NOMINAL_PARAMS.values()))


@settings(max_examples=200, deadline=None)
@given(p=_any_params, data=st.data())
def test_twist_phase_is_exactly_even(p, data):
    half = p.tau0 / 2.0
    taus = np.array(data.draw(st.lists(st.floats(-half, half), min_size=1, max_size=20)))
    assert np.array_equal(twist_phase(-taus, p), twist_phase(taus, p))


@settings(max_examples=300, deadline=None)
@given(p=_any_params, data=st.data(), noise=st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
def test_twist_phase_matches_the_fourth_power(p, data, noise):
    # (tau tau)(tau tau) is within 3u of tau^4 (u = eps/2), pow within
    # 1 ulp (2u), and the coefficient product rounds once on each side:
    # 7u < 4 eps of coef tau**4 (measured up to 2.8 eps), plus one eps of
    # the result for the two rounded noise sums; below the smallest normal
    # number no relative bound holds, so tiny is an absolute floor
    half = p.tau0 / 2.0
    taus = np.array(data.draw(st.lists(st.floats(-half, half), min_size=1, max_size=20)))
    quartic = (p.eta4 / (2.0 * p.lam)) * taus**4
    ref = quartic + noise
    got = twist_phase(taus, p, noise)
    bound = 4.0 * EPS * np.abs(quartic) + EPS * np.abs(ref) + np.finfo(float).tiny
    assert np.all(np.abs(got - ref) <= bound)


def test_twist_phase_noise_offset():
    assert twist_phase(1.0, HAD, noise=0.5) == twist_phase(1.0, HAD) + 0.5
    taus = np.linspace(-80, 80, 5)
    offsets = np.arange(5.0)
    assert np.array_equal(twist_phase(taus, HAD, offsets),
                          twist_phase(taus, HAD) + offsets)


def test_one_qubit_field():
    f0 = one_qubit_field(0.0, HAD)
    assert np.allclose(f0, [1 / HAD.lam, 0.0, 0.0])
    taus = np.linspace(-80, 80, 23)
    f = one_qubit_field(taus, HAD)
    assert np.allclose(f[:, 0] ** 2 + f[:, 1] ** 2, 1 / HAD.lam**2)
    assert np.allclose(np.sum(f**2, axis=1), (1 + taus**2) / HAD.lam**2)
    fpi = one_qubit_field(0.0, HAD, noise=np.pi)
    assert np.allclose(fpi, [-1 / HAD.lam, 0.0, 0.0], atol=1e-15)


def test_one_qubit_hamiltonian():
    assert np.allclose(one_qubit_hamiltonian(np.array([0.0, 0, 1])), -SIGMA_Z)
    f = one_qubit_field(0.0, HAD)
    assert np.allclose(one_qubit_hamiltonian(f), -SIGMA_X / HAD.lam)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.normal(size=3)
        h = one_qubit_hamiltonian(f)
        assert np.allclose(np.linalg.eigvalsh(h), [-np.linalg.norm(f),
                                                   np.linalg.norm(f)])
        assert abs(np.trace(h)) < 1e-14


def test_two_qubit_hamiltonian_hermitian():
    rng = np.random.default_rng(5)
    taus = rng.uniform(-60, 60, 100)
    h = two_qubit_hamiltonian(taus, CP)
    assert np.abs(h - h.conj().swapaxes(-1, -2)).max() < 1e-12


def test_two_qubit_trace():
    import dataclasses
    p0 = dataclasses.replace(CP, c4=0.0)
    taus = np.linspace(-60, 60, 11)
    h0 = two_qubit_hamiltonian(taus, p0)
    assert np.abs(np.trace(h0, axis1=-2, axis2=-1)).max() < 1e-12
    h = two_qubit_hamiltonian(taus, CP)
    assert np.allclose(np.trace(h, axis1=-2, axis2=-1).real, CP.c4)


def test_two_qubit_eigs_match_explicit_assembly():
    # independent entrywise assembly of the same operator
    tau = 13.7
    phi = (CP.eta4 / (2 * CP.lam)) * tau**4
    z1 = -(CP.d1 + CP.d2) / 2 + tau / CP.lam
    z2 = -CP.d2 / 2 + tau / CP.lam
    a1 = (CP.d3 / CP.lam) * np.exp(-1j * phi)
    a2 = (1.0 / CP.lam) * np.exp(-1j * phi)
    zz = -np.pi * CP.d4 / 2
    h = np.zeros((4, 4), dtype=complex)
    labels = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (qubit1, qubit2) occupations
    for i, (s1, s2) in enumerate(labels):
        sg1, sg2 = 1 - 2 * s1, 1 - 2 * s2
        h[i, i] = z1 * sg1 + z2 * sg2 + zz * sg1 * sg2
    for i, (s1, s2) in enumerate(labels):
        for j, (t1, t2) in enumerate(labels):
            if s1 != t1 and s2 == t2:   # qubit-1 flip
                h[i, j] += -a1 if s1 > t1 else -np.conj(a1)
            if s2 != t2 and s1 == t1:   # qubit-2 flip
                h[i, j] += -a2 if s2 > t2 else -np.conj(a2)
    h[2, 2] += CP.c4
    got = two_qubit_hamiltonian(tau, CP)
    assert np.allclose(np.linalg.eigvalsh(got), np.linalg.eigvalsh(h), atol=1e-12)


def test_coupling_matrices_1q():
    g = coupling_matrices(HAD, 0.0)
    assert np.allclose(g, [-SIGMA_X, -SIGMA_Y, -SIGMA_Z])
    # over times, the constant triple at every sample
    stack = coupling_matrices(HAD, np.linspace(-80.0, 80.0, 4097))
    assert stack.shape == (4097, 3, 2, 2)
    assert np.array_equal(stack[1234], g)


def test_coupling_matrices_2q():
    rng = np.random.default_rng(7)
    taus = rng.uniform(-60, 60, 5)
    g = coupling_matrices(CP, taus)
    sz1 = np.kron(SIGMA_Z, np.eye(2))
    sz2 = np.kron(np.eye(2), SIGMA_Z)
    assert np.allclose(g[:, 2], CP.d3 * sz1 + sz2)
    for j in (0, 1):
        gj = g[:, j]
        assert np.abs(gj - gj.conj().swapaxes(-1, -2)).max() < 1e-12
        assert np.abs(gj[:, np.arange(4), np.arange(4)]).max() < 1e-14


def test_drive_matrix_identity():
    g = drive_matrix(np.eye(2, dtype=complex), HAD, 0.0)
    assert np.allclose(g[:, 0], vectorize(-SIGMA_X))
    assert np.allclose(g[:, 1], vectorize(-SIGMA_Y))
    assert np.allclose(g[:, 2], vectorize(-SIGMA_Z))


def test_drive_matrix_columns_hermitian(rng):
    u = random_unitary(rng, 2)
    g = drive_matrix(u, HAD, 0.0)
    for j in range(3):
        m = g[:, j].reshape(2, 2).T
        assert np.abs(m - hermitize(m)).max() < 1e-12
        # Frobenius norm of each column equals that of the bare coupling
        assert np.linalg.norm(g[:, j]) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def _matmul_drive(u, couplings):
    """vec(U† G_j U) by batched `@` on dense stacks, shape (..., n², 3)."""
    return np.swapaxes(vectorize(
        np.conj(np.swapaxes(u, -1, -2))[..., None, :, :] @ couplings
        @ u[..., None, :, :]), -1, -2)


@pytest.mark.parametrize("n", [2, 4])
def test_drive_matrix_matches_matmul_formula(rng, n):
    points = 64
    u = np.stack([random_unitary(rng, n) for _ in range(points)])
    p = HAD if n == 2 else CP
    taus = np.linspace(-50.0, 50.0, points)
    got = drive_matrix(u, p, taus)
    want = _matmul_drive(u, dense_model.coupling_matrices(p, taus))
    assert got.shape == want.shape == (points, n * n, 3)
    assert np.abs(got - want).max() <= 1e-14
    # a single propagator at a scalar time
    one = drive_matrix(u[7], p, taus[7])
    assert one.shape == (n * n, 3)
    assert np.abs(one - got[7]).max() <= 1e-15
    # the dense oracle of the tests holds for any coupling stack
    shape = (points, 3, n, n)
    generic = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.abs(dense_model.drive_matrix(u, generic)
                  - _matmul_drive(u, generic)).max() <= 1e-14


def resonance_times(p) -> tuple[np.ndarray, np.ndarray]:
    """Sweep resonance times {0, ±1/sqrt(eta4)} and an inside-sweep mask."""
    if p.eta4 <= 0:
        raise ValueError("eta4 must be positive")
    r = 1.0 / np.sqrt(p.eta4)
    times = np.array([-r, 0.0, r])
    inside = np.abs(times) <= p.tau0 / 2.0
    return times, inside


def test_resonance_times():
    t, inside = resonance_times(SweepParams1Q(lam=1.0, eta4=1.0, tau0=10.0))
    assert np.allclose(t, [-1, 0, 1])
    assert inside.all()
    t, inside = resonance_times(HAD)
    assert t[2] == pytest.approx(74.69, abs=0.05)
    assert inside.all()
    t, _ = resonance_times(NOT)
    assert t[2] == pytest.approx(67.59, abs=0.05)
    # root bracketing of the reduced resonance condition tau (1 - eta4 tau^2)
    for p in (HAD, NOT):
        root = 1.0 / np.sqrt(p.eta4)
        cond = lambda tau: tau * (1 - p.eta4 * tau**2)
        assert cond(root - 1e-3) * cond(root + 1e-3) < 0


unit = st.floats(-1.0, 1.0)
params_1q = st.builds(SweepParams1Q, lam=st.floats(1.0, 12.0),
                      eta4=st.floats(1e-5, 1e-3), tau0=st.floats(10.0, 200.0))
params_2q = st.builds(
    SweepParams2Q, lam=st.floats(1.0, 12.0), eta4=st.floats(1e-5, 1e-3),
    tau0=st.floats(10.0, 200.0), d1=st.floats(-20.0, 20.0),
    d2=st.floats(-5.0, 5.0),
    d3=st.one_of(st.floats(-2.0, 0.8), st.floats(1.2, 3.0)),
    d4=st.floats(-10.0, 10.0), c4=st.floats(-10.0, 10.0))


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(params_1q, params_2q), seed=st.integers(0, 2**32 - 1),
       with_dfi=st.booleans(), with_noise=st.booleans())
@example(p=HAD, seed=0, with_dfi=False, with_noise=False)
@example(p=HAD, seed=1, with_dfi=True, with_noise=False)
@example(p=HAD, seed=4, with_dfi=False, with_noise=True)
@example(p=HAD, seed=5, with_dfi=True, with_noise=True)
@example(p=CP, seed=2, with_dfi=False, with_noise=False)
@example(p=CP, seed=3, with_dfi=True, with_noise=False)
@example(p=CP, seed=6, with_dfi=False, with_noise=True)
@example(p=CP, seed=7, with_dfi=True, with_noise=True)
def test_generator_matches_dense_oracle(p, seed, with_dfi, with_noise):
    rng = np.random.default_rng(seed)
    tau = np.sort(rng.uniform(-p.tau0 / 2, p.tau0 / 2, 257))
    dfi = 0.05 * rng.normal(size=(len(tau), 3)) if with_dfi else None
    # a phase offset per sample, as the noisy segments pass it
    noise = rng.uniform(-3.0, 3.0, tau.shape) if with_noise else 0.0
    n = p.dim
    got = generator(tau, p, dfi, noise)
    assert got.shape == (n, n, len(tau)) and got.flags.c_contiguous
    ref = dense_generator(tau, p, dfi, noise)
    a = np.moveaxis(got, (0, 1), (-2, -1))
    assert np.abs(a - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())
    if n == 4:
        for i, k in ((0, 3), (1, 2), (2, 1), (3, 0)):
            assert np.all(got[i, k] == 0.0)
    else:
        # in su(2), exactly: propagate's one-qubit kernels take no trace part
        assert np.all(got[0, 0].real == 0.0) and np.all(got[1, 1].real == 0.0)
        assert np.array_equal(got[1, 1], np.conj(got[0, 0]))
        assert np.array_equal(got[0, 1], -np.conj(got[1, 0]))
    # written into a member's slab of a batch buffer, the same bits
    buffer = np.full((n, n, 3, len(tau)), np.nan, dtype=complex)
    slab = buffer[:, :, 1]
    assert generator(tau, p, dfi, noise, out=slab) is slab
    assert np.array_equal(slab, got)
    assert np.isnan(buffer[:, :, [0, 2]]).all()


@pytest.mark.parametrize("p", [HAD, CP], ids=["hadamard", "cphase"])
def test_generator_nominal_is_the_dense_form_exactly(p):
    # no modification: the same arithmetic as the dense Kronecker form
    tau = np.linspace(-p.tau0 / 2, p.tau0 / 2, 1001)
    a = np.moveaxis(generator(tau, p), (0, 1), (-2, -1))
    assert np.array_equal(a, -1j * dense_model.sweep_hamiltonian(tau, p))


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(params_1q, params_2q), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(-100.0, 100.0))
@example(p=HAD, seed=0, tau=13.7)
@example(p=CP, seed=0, tau=13.7)
def test_coupling_matrices_are_the_kronecker_form_exactly(p, seed, tau):
    # the one-qubit oracle is the constant triple, broadcast over the times
    rng = np.random.default_rng(seed)
    taus = rng.uniform(-p.tau0 / 2, p.tau0 / 2, 65)
    n = p.dim
    g = coupling_matrices(p, taus)
    oracle = np.broadcast_to(dense_model.coupling_matrices(p, taus), (65, 3, n, n))
    assert g.shape == (65, 3, n, n)
    assert np.array_equal(g, oracle)
    one = coupling_matrices(p, tau)
    one_oracle = dense_model.coupling_matrices(p, tau)
    assert one.shape == (3, n, n) and np.array_equal(one, one_oracle)


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(params_1q, params_2q), seed=st.integers(0, 2**32 - 1),
       points=st.one_of(st.none(), st.integers(1, 300)))
@example(p=HAD, seed=0, points=None)
@example(p=HAD, seed=1, points=4097)
@example(p=CP, seed=2, points=None)
@example(p=CP, seed=3, points=1025)
def test_drive_matrix_is_the_dense_conjugation(p, seed, points):
    # against the dense coupling stack of the Kronecker model, at a scalar
    # time (points None) or an array of times
    rng = np.random.default_rng(seed)
    n = p.dim
    if points is None:
        tau = float(rng.uniform(-p.tau0 / 2, p.tau0 / 2))
        u = random_unitary(rng, n)
    else:
        tau = rng.uniform(-p.tau0 / 2, p.tau0 / 2, points)
        u = np.stack([random_unitary(rng, n) for _ in range(points)])
    couplings = np.broadcast_to(dense_model.coupling_matrices(p, tau),
                                (*np.shape(tau), 3, n, n))
    # G_j U0 from the couplings' nonzero entries is the dense product, bit
    # for bit
    u_cm = np.ascontiguousarray(component_major(u))
    g_cm = np.ascontiguousarray(np.moveaxis(couplings, (-2, -1, -3), (0, 1, 2)))
    assert np.array_equal(control._coupled(p, tau, u_cm),
                          entry_matmul(g_cm, u_cm[:, :, None]))
    got = drive_matrix(u, p, tau)
    want = dense_model.drive_matrix(u, couplings)
    assert got.shape == want.shape == (*np.shape(tau), n * n, 3)
    x, residue = pauli_coordinates(np.swapaxes(got, -1, -2))
    x_want, residue_want = pauli_coordinates(np.swapaxes(want, -1, -2))
    # 1e-15 relative to the coordinates, which grow with |d3| to about 4
    scale = max(1.0, np.abs(x_want).max())
    assert np.abs(x - x_want).max() <= 1e-15 * scale
    assert abs(residue - residue_want) <= 1e-15 * scale


def test_drive_matrix_is_one_entry_product(monkeypatch):
    # one window of samples: G_j U0 takes no matrix product, the
    # conjugation exactly one
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return entry_matmul(a, b)

    monkeypatch.setattr(control, "entry_matmul", counting)
    rng = np.random.default_rng(3)
    for p in (HAD, CP):
        n = p.dim
        points = noc.DRIVE_WINDOW // (n * n) + 1
        taus = np.linspace(-p.tau0 / 2, 0.0, points)
        u = np.linalg.qr(rng.normal(size=(points, n, n))
                         + 1j * rng.normal(size=(points, n, n)))[0]
        calls.clear()
        drive_matrix(u, p, taus)
        assert calls == [(n, n, 3, points)]


@pytest.mark.parametrize("p", [HAD, CP], ids=["hadamard", "cphase"])
def test_sweep_hamiltonian_with_noise_matches_the_dense_form(p):
    rng = np.random.default_rng(11)
    tau = rng.uniform(-p.tau0 / 2, p.tau0 / 2, 257)
    noise = rng.uniform(-3.0, 3.0, tau.shape)
    h = sweep_hamiltonian(tau, p, noise)
    ref = dense_model.sweep_hamiltonian(tau, p, noise)
    assert h.shape == ref.shape == (257, p.dim, p.dim)
    assert np.abs(h - ref).max() <= 1e-14 * np.abs(ref).max()
