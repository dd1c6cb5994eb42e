"""Shared fixtures.

The full-resolution improve-gate runs are expensive (seconds for one-qubit
gates, tens of seconds for the two-qubit gate), so they are computed once
per session and shared by the unit and acceptance tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from nocgf import NOMINAL_PARAMS, gate_target, improve_gate
from nocgf.config import default_config
from nocgf.metrics import GATE_ORDER

ACCEPTANCE_SEED = 20260808


@pytest.fixture(scope="session")
def improved_all():
    """Full-resolution ImprovedGateResult for every gate in the set, on the
    default config's grids."""
    grid_for = default_config().grid_for
    return {
        name: improve_gate(gate_target(name), NOMINAL_PARAMS[name],
                           grid_for(NOMINAL_PARAMS[name]))
        for name in GATE_ORDER
    }


@pytest.fixture(scope="session")
def improved_1q(improved_all):
    return {k: v for k, v in improved_all.items() if v.gate.qubits == 1}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def random_unitary(rng, n):
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def contracted_drive(couplings_bar: np.ndarray, g: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Sum_j Gbar_j (G† w)_j for a single qubit.

    For any unitary conjugation of the Pauli couplings this contraction
    collapses to [[w1 - w4, 2 w3], [2 w2, w4 - w1]].
    """
    couplings_bar = np.asarray(couplings_bar)
    if couplings_bar.shape != (3, 2, 2):
        raise ValueError("contracted_drive expects the three 2x2 conjugated couplings")
    coeff = np.conj(g.T) @ np.asarray(w)
    return np.einsum("j,jab->ab", coeff, couplings_bar)
