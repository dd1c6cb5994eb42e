import numpy as np
import pytest

from nocgf.noc import ControlModification
from nocgf.propagate import TimeGrid
from nocgf.spectral import (
    BandwidthUndefinedError,
    bandwidth_w01,
    control_spectrum,
    export_spectrum,
    smooth_length,
    to_dimensionful,
)


def _ctrl(grid, x):
    samples = np.zeros((grid.steps + 1, 3))
    samples[:, 0] = x
    return ControlModification(grid=grid, samples=samples)


def _is_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_smooth_length():
    hand_checked = {1: 1, 2: 2, 7: 8, 11: 12, 13: 15, 17: 18, 31: 32, 97: 100,
                    121: 125, 1_280_008: 1_296_000}
    for n, want in hand_checked.items():
        assert smooth_length(n) == want
    for n in range(1, 2000):
        got = smooth_length(n)
        assert got >= n and _is_smooth(got)
        assert not any(_is_smooth(m) for m in range(n, got))
    with pytest.raises(ValueError):
        smooth_length(0)


def test_constant_signal_is_dc_dominated():
    grid = TimeGrid(160.0, 4000)
    s = control_spectrum(_ctrl(grid, np.ones(grid.steps + 1)))
    assert s.magnitude[0] == s.magnitude.max()
    w01 = bandwidth_w01(s)
    # the boxcar transform has sidelobes at 22% and 13% of the DC value, so
    # the last up-crossing sits just past the second sidelobe (under 3 bins)
    assert w01 < 3 * 2 * np.pi / grid.tau0


def test_single_cosine_peaks_at_its_frequency():
    grid = TimeGrid(160.0, 8000)
    taus = grid.points()
    wc = 2.0
    s = control_spectrum(_ctrl(grid, np.cos(wc * taus)))
    peak = s.omega[np.argmax(s.magnitude)]
    bin_width = 2 * np.pi / grid.tau0
    assert abs(peak - wc) < bin_width


def test_bandwidth_scale_invariance():
    grid = TimeGrid(160.0, 4000)
    taus = grid.points()
    x = np.exp(-((taus + 40) / 30.0) ** 2) * (1 + 0.3 * np.cos(0.7 * taus))
    w1 = bandwidth_w01(control_spectrum(_ctrl(grid, x)))
    w2 = bandwidth_w01(control_spectrum(_ctrl(grid, 7.3 * x)))
    assert w1 == pytest.approx(w2, rel=1e-12)


def test_padding_stability():
    import nocgf.spectral as spectral
    grid = TimeGrid(160.0, 4000)
    taus = grid.points()
    x = np.exp(-((taus + 40) / 30.0) ** 2) * (1 + 0.3 * np.cos(0.7 * taus))
    w8 = bandwidth_w01(control_spectrum(_ctrl(grid, x)))
    old = spectral.PAD_FACTOR
    try:
        spectral.PAD_FACTOR = 16
        w16 = bandwidth_w01(control_spectrum(_ctrl(grid, x)))
    finally:
        spectral.PAD_FACTOR = old
    assert abs(w8 - w16) < 2 * np.pi / grid.tau0


def test_parseval_consistency(rng):
    grid = TimeGrid(10.0, 512)
    x = rng.normal(size=grid.steps + 1)
    full = np.fft.fft(x)
    assert np.sum(np.abs(full) ** 2) == pytest.approx(
        len(x) * np.sum(x**2), rel=1e-10
    )


def test_bandwidth_undefined():
    grid = TimeGrid(160.0, 256)
    taus = grid.points()
    # white-ish signal whose spectrum never dips below 10% of its DC value
    rng = np.random.default_rng(0)
    x = rng.normal(size=grid.steps + 1) + 0.05
    s = control_spectrum(_ctrl(grid, x))
    if (s.magnitude >= 0.1 * s.magnitude[0]).all() or np.flatnonzero(
        s.magnitude >= 0.1 * s.magnitude[0]
    )[-1] == len(s.magnitude) - 1:
        with pytest.raises(BandwidthUndefinedError):
            bandwidth_w01(s)
    else:
        pytest.skip("random draw produced a decaying spectrum")


def test_to_dimensionful_examples():
    assert to_dimensionful(4.0, 160.0, 1e-6) == pytest.approx(640.0)
    assert to_dimensionful(34.0, 120.0, 5e-6) == pytest.approx(816.0)
    assert to_dimensionful(0.0, 160.0, 1e-6) == 0.0
    with pytest.raises(ValueError):
        to_dimensionful(1.0, 160.0, 0.0)


def test_export_spectrum(tmp_path):
    grid = TimeGrid(16.0, 64)
    s = control_spectrum(_ctrl(grid, np.ones(grid.steps + 1)))
    path = tmp_path / "spec.csv"
    export_spectrum(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega,magnitude"
    assert len(lines) == len(s.omega) + 1
