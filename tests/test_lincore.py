import numpy as np
import pytest

from nocgf.lincore import (
    devectorize,
    hermitize,
    max_norm,
    unitarity_defect,
    vectorize,
)


def test_vectorize_column_stacking():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vectorize(m), [1, 2, 3, 4])
    assert np.array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])


def test_devectorize_examples():
    assert np.array_equal(devectorize(np.array([1.0, 2, 3, 4]), 2),
                          [[1, 3], [2, 4]])
    assert np.array_equal(devectorize(np.zeros(4), 2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        devectorize(np.zeros(5), 2)


def test_vectorize_roundtrip(rng):
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.array_equal(vectorize(devectorize(v, 4)), v)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(devectorize(vectorize(m), 4), m)


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


def test_max_norm(rng):
    assert max_norm(np.zeros((2, 2))) == 0.0
    assert max_norm(np.array([[1, -3j], [2, 0]])) == 3.0
    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert max_norm(a + b) <= max_norm(a) + max_norm(b) + 1e-14


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
