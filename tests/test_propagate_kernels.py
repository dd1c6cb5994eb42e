"""Property tests of the integrator kernels: the component-major step maps,
the Magnus maps and their exponentials, the rank-3 feedback maps and the
blocked scan, each against a plain reference kept here as the oracle (or
scipy's expm), for whole matrices and for one-qubit matrices in
Cayley-Klein form (first columns, expanded for the oracle).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nocgf import propagate
from nocgf.lincore import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    cayley_klein_expand,
    cayley_klein_matmul,
    component_major,
    matrix_major,
)
from nocgf.propagate import (
    CAYLEY_KLEIN,
    CHUNK,
    SCAN_WIDTH,
    GAUSS,
    TAYLOR_NORM,
    _blocked_scan,
    feedback_maps,
    integrate_delta_y,
    magnus_maps,
    matrix_algebra,
    step_maps,
)
from tests.conftest import random_unitary

EPS_BOUND = 1e-12


def reference_step_maps(a1, a2, a3, dt):
    """The one-step map written with batched `@` on (..., n, n) stacks."""
    k1 = a1
    k2 = a2 + (dt / 2.0) * (a2 @ k1)
    k3 = a2 + (dt / 2.0) * (a2 @ k2)
    k4 = a3 + dt * (a3 @ k3)
    m = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    n = a1.shape[-1]
    idx = np.arange(n)
    m[..., idx, idx] += 1.0
    pbar = (a1 + 4.0 * a2 + a3) * (dt / 6.0)
    p2 = pbar @ pbar
    p5 = (p2 @ p2) @ pbar
    inner = pbar / 720.0 + p2 / 5760.0
    inner[..., idx, idx] += 1.0 / 120.0
    return m + p5 @ inner


def sequential_products(factors, u):
    """p[k] = factors[k] ... factors[0] u, one product per step."""
    out = []
    for f in factors:
        u = f @ u
        out.append(u)
    return np.stack(out)


def tree_product(factors):
    """factors[-1] ... factors[0] by pairwise products of neighbours."""
    level = list(factors)
    while len(level) > 1:
        paired = [level[i + 1] @ level[i] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def unitary_stack(seed, n, length, batch):
    rng = np.random.default_rng(seed)
    count = length * int(np.prod(batch, dtype=int))
    mats = np.stack([random_unitary(rng, n) for _ in range(count)])
    return mats.reshape(length, *batch, n, n)


def complex_columns(rng, *stack):
    """Random first columns (alpha, beta), component-major (2, 1, *stack)."""
    shape = (2, 1, *stack)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def su2_generators(rng, *stack):
    """Random A = i f.sigma, matrix-major (*stack, 2, 2), f normal."""
    f = rng.normal(size=(*stack, 3))
    return 1j * np.einsum("...j,jab->...ab", f, np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4]),
       length=st.integers(1, 200), batch=st.sampled_from([(), (3,)]))
@example(seed=1, n=2, length=1, batch=())
@example(seed=2, n=4, length=97, batch=(3,))
@example(seed=3, n=2, length=50, batch=())
@example(seed=4, n=4, length=4096, batch=())
def test_blocked_scan_matches_sequential_and_tree(seed, n, length, batch):
    factors = unitary_stack(seed, n, length + 1, batch)
    u, factors = factors[0], factors[1:]
    # component-major with the steps last, (n, n, *batch, length), as
    # offsets from the identity
    algebra = matrix_algebra(n)
    x = np.moveaxis(factors, (-2, -1, 0), (0, 1, -1)) - algebra.unit((*batch, length))
    bound = EPS_BOUND * length

    p = _blocked_scan(np.ascontiguousarray(x), component_major(u), algebra)
    assert p.shape == (n, n, *batch, length)
    p = np.moveaxis(matrix_major(p), -3, 0)
    assert np.abs(p - sequential_products(factors, u)).max() <= bound
    assert np.abs(p[-1] - tree_product(factors) @ u).max() <= bound


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4]),
       steps=st.integers(1, 300), batch=st.sampled_from([(), (2,)]),
       dt=st.floats(1e-3, 0.3), component_major=st.booleans())
def test_step_maps_matches_matmul_reference(seed, n, steps, batch, dt,
                                            component_major):
    rng = np.random.default_rng(seed)
    shape = (3, steps, *batch, n, n)
    a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(n)
    if component_major:
        # each entry of each stage input is one contiguous vector
        a = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1))),
                        (0, 1), (-2, -1))
    m = np.eye(n) + step_maps(a[0], a[1], a[2], dt, matrix_algebra(n))
    ref = reference_step_maps(*(np.ascontiguousarray(x) for x in a), dt)
    assert m.shape == ref.shape
    assert np.abs(m - ref).max() <= EPS_BOUND * max(1.0, np.abs(ref).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 300),
       batch=st.sampled_from([(), (3,)]), broadcast=st.booleans())
@example(seed=1, steps=1, batch=(), broadcast=False)
def test_cayley_klein_product_matches_matmul(seed, steps, batch, broadcast):
    rng = np.random.default_rng(seed)
    a = complex_columns(rng, steps, *batch)
    # the scan multiplies every block's prefixes by one offset: a stack
    # axis of length 1 broadcasts
    b = complex_columns(rng, 1 if broadcast else steps, *batch)
    got = cayley_klein_matmul(a, b)
    want = cayley_klein_expand(a) @ cayley_klein_expand(b)
    assert got.shape == (2, 1, steps, *batch)
    assert np.abs(cayley_klein_expand(got) - want).max() <= EPS_BOUND * np.abs(want).max()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 300),
       batch=st.sampled_from([(), (2,)]), dt=st.floats(1e-3, 0.3))
@example(seed=2, steps=1, batch=(), dt=0.3)
def test_cayley_klein_step_maps_match_matmul_reference(seed, steps, batch, dt):
    rng = np.random.default_rng(seed)
    a = su2_generators(rng, 3, steps, *batch)
    # the first columns, as the integrator reads them from its samples
    m = step_maps(a[0][..., :1], a[1][..., :1], a[2][..., :1], dt, CAYLEY_KLEIN)
    ref = reference_step_maps(a[0], a[1], a[2], dt)
    assert m.shape == (steps, *batch, 2, 1)
    got = ID2 + cayley_klein_expand(component_major(m))
    assert np.abs(got - ref).max() <= EPS_BOUND * max(1.0, np.abs(ref).max())


def test_cayley_klein_step_maps_take_three_products(monkeypatch):
    # the four products of the degree-5..7 completion are gone: only the
    # Runge-Kutta stages k2, k3 and k4 multiply, however the completion is
    # reached
    calls = []

    def counting(a, b):
        calls.append(1)
        return cayley_klein_matmul(a, b)

    monkeypatch.setattr(propagate, "cayley_klein_matmul", counting)
    algebra = dataclasses.replace(CAYLEY_KLEIN, product=counting)
    a = su2_generators(np.random.default_rng(5), 3, 50)
    step_maps(a[0][..., :1], a[1][..., :1], a[2][..., :1], 0.1, algebra)
    assert len(calls) == 3


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), broadcast=st.booleans())
def test_cayley_klein_product_of_bare_elements(seed, broadcast):
    # (2, 1) first columns without stack axes, alone or against a stack
    rng = np.random.default_rng(seed)
    a = complex_columns(rng)
    b = complex_columns(rng, 4) if broadcast else complex_columns(rng)
    got = cayley_klein_matmul(a, b)
    want = cayley_klein_expand(a) @ cayley_klein_expand(b)
    assert got.shape == b.shape
    assert np.abs(cayley_klein_expand(got) - want).max() <= EPS_BOUND * np.abs(want).max()


def unit_columns(rng, *stack):
    """Random first columns of unitaries, |alpha|² + |beta|² = 1."""
    cols = complex_columns(rng, *stack)
    return cols / np.sqrt((np.abs(cols) ** 2).sum(axis=0))


# the scan's recursion boundaries, for W = SCAN_WIDTH: the @ chain below
# 2 W factors, narrow blocks below W², full-width blocks with and without
# padding, one more level of recursion, and a chunk
_W = SCAN_WIDTH
SCAN_LENGTHS = (1, _W - 1, _W, _W + 1, 2 * _W - 1, 2 * _W, _W**2 - 1, _W**2,
                _W**2 + 1, _W**3 - 1, _W**3 + 1, CHUNK, CHUNK + 1)


def scan_algebra(n):
    """CAYLEY_KLEIN for n = 2 (first columns), whole matrices for 4x4."""
    return CAYLEY_KLEIN if n == 2 else matrix_algebra(n)


def check_scan(n, length):
    """One stack of unitaries, with a batch of three members ahead of the
    steps, given to the scan as offsets from the identity."""
    rng = np.random.default_rng(length)
    algebra = scan_algebra(n)
    if n == 2:
        x = unit_columns(rng, 3, length + 1)
        mats = cayley_klein_expand(x)                   # (3, length + 1, 2, 2)
    else:
        mats = unitary_stack(length, n, length + 1, (3,)).swapaxes(0, 1)
        x = component_major(mats)
    u, x = np.ascontiguousarray(x[..., 0]), x[..., 1:]
    x = np.ascontiguousarray(x - algebra.unit(x.shape[2:]))
    p = _blocked_scan(x, u, algebra)
    assert p.shape == (n, u.shape[1], 3, length)
    got = np.moveaxis(algebra.expand(p), -3, 0)         # (length, 3, n, n)
    want = sequential_products(mats[:, 1:].swapaxes(0, 1), mats[:, 0])
    assert np.abs(got - want).max() <= EPS_BOUND * length
    # each member scanned alone has the batch member's bits
    for b in range(3):
        alone = _blocked_scan(np.ascontiguousarray(x[:, :, b]), u[:, :, b], algebra)
        assert np.array_equal(alone, p[:, :, b])


@pytest.mark.parametrize("length", SCAN_LENGTHS)
@pytest.mark.parametrize("n", [2, 4])
def test_scan_at_recursion_boundaries(n, length):
    check_scan(n, length)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="the long-double reference product would round as float64")
@pytest.mark.parametrize("length", SCAN_LENGTHS)
@pytest.mark.parametrize("n", [2, 4])
def test_shifted_scan_at_recursion_boundaries(n, length):
    # factors near the identity, as a fine grid's step maps are, shifted to
    # their offsets X = M - I of about 1e-3: the partial products round
    # relative to the offsets, so against a long-double product of the
    # I + X the error stays within 4 eps at every length (it reads 1.5 eps at
    # most).  Factors rounded to whole matrices I + X first err by 2e-15 to
    # 4e-15 at 511 steps and up to 1e-14 at 4097.
    rng = np.random.default_rng(length)
    algebra = scan_algebra(n)
    if n == 2:
        a = su2_generators(rng, 3, length + 1)
    else:
        shape = (3, length + 1, n, n)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = (g - np.conj(np.swapaxes(g, -1, -2))) / 2.0
    a = 1e-3 * np.ascontiguousarray(component_major(a))[:, :algebra.identity.shape[1]]
    x = algebra.expm1(a)                                # (n, k, 3, length + 1)
    u = algebra.unit((3,)) + x[..., 0]
    x = np.ascontiguousarray(x[..., 1:])
    p = _blocked_scan(x, u, algebra)
    factors = np.eye(n) + algebra.expand(x).astype(np.clongdouble)
    want = sequential_products(np.moveaxis(factors, -3, 0),
                               algebra.expand(u).astype(np.clongdouble))
    got = np.moveaxis(algebra.expand(p), -3, 0)
    assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 200),
       batch=st.sampled_from([(), (3,)]))
@example(seed=3, length=1, batch=())
@example(seed=4, length=4096, batch=())
def test_cayley_klein_scan_matches_sequential(seed, length, batch):
    rng = np.random.default_rng(seed)
    # steps last, (2, 1, *batch, length + 1)
    cols = complex_columns(rng, *batch, length + 1)
    cols /= np.sqrt((np.abs(cols) ** 2).sum(axis=0))      # |alpha|² + |beta|² = 1
    mats = np.moveaxis(cayley_klein_expand(cols), -3, 0)
    x = cols[..., 1:] - CAYLEY_KLEIN.unit((*batch, length))
    p = _blocked_scan(np.ascontiguousarray(x), cols[..., 0], CAYLEY_KLEIN)
    assert p.shape == (2, 1, *batch, length)
    want = sequential_products(mats[1:], mats[0])
    got = np.moveaxis(cayley_klein_expand(p), -3, 0)
    assert np.abs(got - want).max() <= EPS_BOUND * length


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 300),
       log_z=st.floats(-4.0, 0.0))
@example(seed=5, steps=1, log_z=-4.0)
@example(seed=6, steps=2, log_z=0.0)
def test_feedback_maps_match_matmul_reference(seed, steps, log_z):
    # random drive samples, with h ||G G†|| = 10^log_z at the largest sample
    rng = np.random.default_rng(seed)
    shape = (2 * steps + 1, 16, 3)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = -(g @ np.conj(np.swapaxes(g, -1, -2)))
    h = 10.0**log_z / np.linalg.norm(b, ord=2, axis=(-2, -1)).max()
    m = feedback_maps(g, h)
    ref = reference_step_maps(b[0:-1:2], b[1::2], b[2::2], h)
    assert m.shape == ref.shape == (steps, 16, 16)
    assert np.abs(m - ref).max() <= 1e-14 * np.abs(ref).max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 300),
       log_z=st.floats(-4.0, 0.0))
@example(seed=3, steps=1, log_z=0.0)
def test_feedback_on_real_samples_stays_real(seed, steps, log_z):
    # real samples (Pauli coordinates) take the complex path's arithmetic in
    # real dtype: the same maps, and states that follow the complex maps to
    # roundoff at every step (the two runs then drift apart by about 1e-16
    # per step, the roundoff of one matrix-vector product)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2 * steps + 1, 16, 3))
    b = -(g @ np.swapaxes(g, -1, -2))
    h = 10.0**log_z / np.linalg.norm(b, ord=2, axis=(-2, -1)).max()
    y0 = rng.normal(size=16)
    y0 /= np.linalg.norm(y0)
    m, m_c = feedback_maps(g, h), feedback_maps(g.astype(complex), h)
    y, y_c = integrate_delta_y(g, y0, h), integrate_delta_y(g.astype(complex), y0, h)
    assert m.dtype == y.dtype == np.float64
    assert m_c.dtype == y_c.dtype == np.complex128
    assert np.abs(m - m_c).max() <= 1e-15
    assert np.array_equal(y[0], y_c[0])
    assert np.abs(y[1:] - np.einsum("kij,kj->ki", m_c, y[:-1])).max() <= 1e-15


def su2_matrices(w):
    """i w.sigma for coordinates w = (w1, w2, w3), shape (3, *stack)."""
    w1, w2, w3 = (x[..., None, None] for x in w)
    return 1j * (w1 * SIGMA_X + w2 * SIGMA_Y + w3 * SIGMA_Z)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40),
       scale=st.sampled_from([1e-3, 0.1, 1.0, 3.0]))
def test_su2_exponential_matches_expm(seed, steps, scale):
    # the closed form of exp - I of generators i w.sigma, read from their
    # first columns, against scipy's expm; the exponential is unitary
    rng = np.random.default_rng(seed)
    w = scale * rng.normal(size=(3, steps))
    a = su2_matrices(w)

    def element(m):
        return np.ascontiguousarray(component_major(m))[:, :1]

    got = cayley_klein_expand(CAYLEY_KLEIN.expm1(element(a))) + ID2
    want = np.stack([expm(x) for x in a])
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
    # the offset exp - I keeps its relative accuracy where it is small:
    # against its series, whose fourth-order term is below 1e-22
    small = su2_matrices(1e-6 * w)
    series = small + small @ small / 2 + small @ small @ small / 6
    offsets = cayley_klein_expand(CAYLEY_KLEIN.expm1(element(small)))
    assert np.abs(offsets - series).max() <= 1e-15 * np.abs(series).max()
    gram = np.conj(np.swapaxes(got, -1, -2)) @ got
    assert np.abs(gram - np.eye(2)).max() <= 1e-15
    # a commutator is the matrices' own
    b = su2_matrices(rng.normal(size=(3, steps)))
    bracket = cayley_klein_expand(CAYLEY_KLEIN.commutator(element(a), element(b)))
    assert np.abs(bracket - (a @ b - b @ a)).max() <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30))
def test_matrix_exponential_matches_expm_with_and_without_scaling(seed, steps):
    # anti-Hermitian 4x4 stacks as the Magnus steps give them, and general
    # complex ones; the first half within TAYLOR_NORM (no scaling), the
    # second half 2 to 40 times larger, which takes s > 0 squarings
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(steps, 4, 4)) + 1j * rng.normal(size=(steps, 4, 4))
    omegas = [g - np.conj(np.swapaxes(g, -1, -2)), g]
    for omega in omegas:
        norms = np.abs(omega).sum(axis=-2).max(axis=-1)
        target = np.where(np.arange(steps) < steps // 2, 0.9 * TAYLOR_NORM,
                          rng.uniform(2.0, 40.0, steps) * TAYLOR_NORM)
        omega = omega * (target / norms)[:, None, None]
        got = matrix_major(matrix_algebra(4).expm1(
            np.ascontiguousarray(component_major(omega)))) + np.eye(4)
        want = np.stack([expm(x) for x in omega])
        scale = np.abs(want).max(axis=(-2, -1))[:, None, None]
        assert np.all(np.abs(got - want) <= 2e-14 * np.maximum(scale, 1.0))


def test_matrix_exponential_scales_each_matrix_alone():
    # a matrix's exponential does not depend on the others in its stack, so
    # a batch member's Magnus maps are its one-member run's bit for bit
    rng = np.random.default_rng(3)
    g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    omega = np.ascontiguousarray(component_major(g - np.conj(np.swapaxes(g, -1, -2))))
    omega[..., :3] *= 0.02
    alone = matrix_algebra(4).expm1(np.ascontiguousarray(omega[..., :3]))
    assert np.array_equal(matrix_algebra(4).expm1(omega)[..., :3], alone)


@pytest.mark.parametrize("n", [2, 4])
def test_magnus_maps_of_a_constant_generator_are_its_exponential(n):
    # Omega is dt A when A does not change over the step: every commutator
    # vanishes and b3 is 0
    rng = np.random.default_rng(n)
    h = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    if n == 2:
        a = su2_matrices(rng.normal(size=(3, 5)))
        algebra, k = CAYLEY_KLEIN, 1
    else:
        a = -1j * (h + np.conj(np.swapaxes(h, -1, -2)))
        algebra, k = matrix_algebra(4), 4
    dt = 0.03
    x = np.ascontiguousarray(component_major(a))[:, :k]
    m = algebra.expand(magnus_maps(x, x, x, dt, algebra)) + np.eye(n)
    want = np.stack([expm(dt * y) for y in a])
    assert np.abs(m - want).max() <= 1e-15


def test_gauss_nodes():
    # the three-point Gauss-Legendre rule on [0, 1] integrates degree 5
    weights = np.array([5.0, 8.0, 5.0]) / 18.0
    for degree in range(6):
        assert weights @ GAUSS**degree == pytest.approx(1.0 / (degree + 1), abs=1e-15)
