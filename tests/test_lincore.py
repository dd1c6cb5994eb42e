import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocgf.lincore import (
    ID2,
    PAULI_PRODUCTS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    cayley_klein_expand,
    hermitize,
    pauli_coordinates,
    unitarity_defect,
    vectorize,
)


def test_vectorize_column_stacking():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vectorize(m), [1, 2, 3, 4])
    assert np.array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])


def test_vectorize_roundtrip(rng):
    # a batch: every matrix's columns, stacked, and rebuilt by transposing
    m = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    v = vectorize(m)
    assert v.shape == (3, 16)
    assert np.array_equal(np.swapaxes(v.reshape(3, 4, 4), -1, -2), m)


def test_hermitize():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    assert np.allclose(hermitize(h), h)
    m = np.array([[0.0, 1j], [0.0, 0.0]])
    assert np.allclose(hermitize(m), [[0, 0.5j], [-0.5j, 0]])


def test_hermitize_distance_bound(rng):
    for _ in range(50):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = np.abs(hermitize(m) - m).max()
        rhs = np.abs(m - m.conj().T).max() / 2
        assert lhs <= rhs + 1e-14


def test_unitarity_defect(rng):
    assert unitarity_defect(np.eye(3)) == 0.0
    assert unitarity_defect(2 * np.eye(2)) == pytest.approx(3.0)
    h = hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)) @ v.conj().T
    assert unitarity_defect(u) < 1e-12


def matmul_defect(u):
    """max-norm of U†U - I with batched `@`, the reference formula."""
    g = np.conj(np.swapaxes(u, -1, -2)) @ u
    idx = np.arange(u.shape[-1])
    g[..., idx, idx] -= 1.0
    return float(np.abs(g).max())


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
def test_unitarity_defect_matches_matmul_formula(rng, n, batch):
    shape = (*batch, n, n)
    for scale in (1e-9, 0.3):
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        q = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
        u = q + scale * z
        assert unitarity_defect(u) == pytest.approx(matmul_defect(u),
                                                    rel=1e-12, abs=1e-15)
    u = np.array(q)
    u[(0,) * len(batch) + (n - 1, 0)] = np.nan
    assert np.isnan(unitarity_defect(u))


# the orthonormal Pauli bases: s_a / sqrt(2) of the 2x2 matrices, P_a / 2
# of the 4x4 ones
PAULI_BASES = {2: np.stack([ID2, SIGMA_X, SIGMA_Y, SIGMA_Z]) / np.sqrt(2.0),
               4: PAULI_PRODUCTS / 2.0}


def _from_pauli(x, n):
    """Column-stacked vec(X) of X = sum_a x_a B_a on the n x n basis B_a."""
    return vectorize(np.einsum("...a,aij->...ij", x, PAULI_BASES[n]))


def test_pauli_products_are_an_orthogonal_hermitian_basis():
    gram = np.einsum("aji,bjk->abik", PAULI_PRODUCTS.conj(), PAULI_PRODUCTS)
    assert np.array_equal(np.trace(gram, axis1=-2, axis2=-1), 4.0 * np.eye(16))
    assert np.array_equal(PAULI_PRODUCTS, hermitize(PAULI_PRODUCTS))
    # every product has four nonzero entries, each +-1 or +-i
    nonzero = PAULI_PRODUCTS[PAULI_PRODUCTS != 0]
    assert nonzero.size == 64 and np.all(np.abs(nonzero) == 1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       batch=st.sampled_from([(), (1,), (5,), (3, 7)]),
       n=st.sampled_from([2, 4]))
def test_pauli_coordinates_isometry_and_roundtrip(seed, batch, n):
    rng = np.random.default_rng(seed)
    shape = (*batch, 2, n, n)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v = vectorize(hermitize(z))
    a, b = v[..., 0, :], v[..., 1, :]
    x, residue = pauli_coordinates(a)
    y, _ = pauli_coordinates(b)
    assert x.shape == a.shape and x.dtype == np.float64
    assert residue <= 1e-15
    # a unitary change of basis: norms and inner products are kept
    assert np.allclose(np.linalg.norm(x, axis=-1), np.linalg.norm(a, axis=-1),
                       rtol=1e-15, atol=0.0)
    assert np.abs(np.sum(x * y, axis=-1)
                  - np.sum(a.conj() * b, axis=-1)).max(initial=0.0) <= 1e-14
    # Roundtrip bound, with u = eps / 2 and M = max|a| per vector (every
    # real and imaginary part of a is at most M), to first order in u.
    # Projection (one real product with the table of lincore._pauli_table):
    #   n = 2: x_a = c (t1 +- t2), t real or imaginary parts of a and
    #     c = fl(1 / fl(sqrt 2)); c (2u), the products (u) and the sum (u)
    #     err by 4u c (|t1| + |t2|) <= 4 sqrt2 u M, and |x_a| <= sqrt2 M.
    #   n = 4: x_a = (t1 +- t2 +- t3 +- t4) / 2, exact halves, three sums:
    #     3u 2M = 6u M, and |x_a| <= 2M.
    # Rebuild (_from_pauli): each real or imaginary part of an entry sums
    # at most k terms x_a b, each |x_a b| <= M:
    #   n = 2: k = 2, b = fl(1 / fl(sqrt 2)) (2u), the products (u), one sum
    #     (u 2M): 8u M, plus the coordinates' 2 (4 sqrt2 u M) / sqrt2 = 8u M.
    #   n = 4: k = 4, b = +-1/2 or +-i/2 exact, three sums (3u 4M): 12u M,
    #     plus the coordinates' 4 (6u M) / 2 = 12u M.
    # A complex entry errs by at most sqrt2 times its parts: 8 sqrt2 eps M
    # (n = 2) and 12 sqrt2 eps M (n = 4).  Seeds 0..3999 of every draw
    # reach 2.1 eps M.
    bound = {2: 8.0, 4: 12.0}[n] * np.sqrt(2.0) * np.finfo(float).eps
    err = np.abs(_from_pauli(x, n) - a)
    assert np.all(err <= bound * np.abs(a).max(axis=-1, keepdims=True))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 0.0),
       n=st.sampled_from([2, 4]))
def test_pauli_coordinates_report_an_anti_hermitian_part(seed, log_scale, n):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    h, k = hermitize(z[:3]), hermitize(z[3:]) * 10.0**log_scale
    x, residue = pauli_coordinates(vectorize(h + 1j * k))
    # the coordinates of H + iK are x_H + i x_K: K is what is discarded
    x_k, _ = pauli_coordinates(vectorize(k))
    x_h, _ = pauli_coordinates(vectorize(h))
    assert residue == pytest.approx(np.abs(x_k).max(), rel=1e-12, abs=1e-15)
    assert np.abs(x - x_h).max() <= 1e-15


def test_pauli_coordinates_reject_other_lengths():
    with pytest.raises(ValueError, match="4x4"):
        pauli_coordinates(np.zeros((3, 9), dtype=complex))


@pytest.mark.parametrize("stride", range(1, 9))
def test_cayley_klein_expand_of_strided_first_columns(stride):
    # first columns whose elements lie `stride` complex entries apart, as
    # the last column p[..., -1] of a scan over `stride` steps is; numpy
    # 2.4.6's float64 np.negative writes wrong values to the strided
    # output for an input stride of 8 doubles (stride 4 here)
    rng = np.random.default_rng(stride)
    shape = (2, 1, 3, stride)
    p = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    columns = p[..., -1]
    want = cayley_klein_expand(np.ascontiguousarray(columns))
    assert np.array_equal(cayley_klein_expand(columns), want)
    out = np.empty_like(want)
    assert cayley_klein_expand(columns, out) is out and np.array_equal(out, want)
    alpha, beta = np.ascontiguousarray(columns)[:, 0]
    assert np.array_equal(want, np.stack([np.stack([alpha, -np.conj(beta)], -1),
                                          np.stack([beta, np.conj(alpha)], -1)], -2))
