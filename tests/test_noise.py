import numpy as np
import pytest

from nocgf.noise import (
    DegenerateRealizationError,
    NoiseParams,
    default_noise_params,
    jitter_report,
    realized_power,
    sample_realization,
)


def test_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(mean_power=-1.0)
    with pytest.raises(ValueError):
        NoiseParams(mean_power=1e-3, sigma=0.0)
    p = NoiseParams(mean_power=1e-3, sigma=0.1, tau_f=0.3)
    assert p.rate == pytest.approx(1.0 / 6.0, rel=1e-12)


@pytest.mark.parametrize("power", [float("nan"), float("inf"), -1.0])
def test_mean_power_must_be_finite_and_nonnegative(power):
    with pytest.raises(ValueError, match="mean_power"):
        NoiseParams(mean_power=power)


def test_default_tau_f_per_system():
    assert default_noise_params(1, 1e-3).tau_f == 0.3
    assert default_noise_params(2, 1e-3).tau_f == 0.1


def test_expected_fluctuation_counts():
    # nbar tau0: about 27 pulses for the one-qubit sweep, 60 for two-qubit
    p1 = default_noise_params(1, 1e-3)
    assert p1.rate * 160.0 == pytest.approx(26.7, abs=0.1)
    p2 = default_noise_params(2, 1e-3)
    assert p2.rate * 120.0 == pytest.approx(60.0, abs=0.1)


def test_zero_power_realization():
    r = sample_realization(NoiseParams(mean_power=0.0, seed=1), 160.0)
    assert r.count == 0
    taus = np.linspace(-80, 80, 11)
    assert np.abs(r.evaluate(taus)).max() == 0.0


def test_determinism_bit_identical():
    p = NoiseParams(mean_power=1e-3, seed=42)
    a = sample_realization(p, 160.0, trial=3)
    b = sample_realization(p, 160.0, trial=3)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.scale == b.scale
    c = sample_realization(p, 160.0, trial=4)
    assert not np.array_equal(a.centers, c.centers)


def test_power_normalization_exact():
    for seed in range(100):
        p = NoiseParams(mean_power=1e-3, seed=seed)
        r = sample_realization(p, 160.0)
        assert realized_power(r) == pytest.approx(1e-3, rel=1e-12)


def test_single_pulse_evaluation():
    from nocgf.noise import NoiseRealization
    r = NoiseRealization(centers=np.array([5.0]), amplitudes=np.array([0.2]),
                         scale=1.5, tau_f=0.3, tau0=160.0, mean_power=1.0)
    assert r.evaluate(5.0) == pytest.approx(1.5 * 0.2)
    assert r.evaluate(5.0 + 0.31) == 0.0
    assert r.evaluate(-40.0) == 0.0


def test_overlapping_pulses_sum():
    from nocgf.noise import NoiseRealization
    r = NoiseRealization(centers=np.array([0.0, 0.1]),
                         amplitudes=np.array([0.2, -0.05]),
                         scale=2.0, tau_f=0.3, tau0=160.0, mean_power=1.0)
    assert r.evaluate(0.05) == pytest.approx(2.0 * (0.2 - 0.05))


def test_degenerate_realization():
    # vanishing rate: Poisson(0) pulses every retry, power cannot normalize
    p = NoiseParams(mean_power=1e-12, sigma=100.0, tau_f=10.0, seed=7)
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateRealizationError):
            sample_realization(p, 160.0)


def test_jitter_report_values():
    assert jitter_report(0.008, 1e9).sigma_t * 1e12 == pytest.approx(14.2, abs=0.05)
    assert jitter_report(0.001, 1e9).sigma_t * 1e12 == pytest.approx(5.03, abs=0.005)
    assert jitter_report(6.25e-5, 1e9).sigma_t * 1e12 == pytest.approx(1.26, abs=0.005)
    assert jitter_report(0.005, 1e9).sigma_t * 1e12 == pytest.approx(11.3, abs=0.05)
    assert jitter_report(0.0, 1e9).sigma_t == 0.0
    with pytest.raises(ValueError):
        jitter_report(1e-3, 0.0)


def test_ensemble_statistics_moments():
    # over many realizations the pre-rescale statistics recover the model:
    # Poisson counts with mean nbar tau0 and Gaussian amplitude variance sigma^2
    p = NoiseParams(mean_power=1e-3, sigma=0.1, tau_f=0.3, seed=99)
    tau0 = 160.0
    n = 10_000
    counts = np.empty(n)
    amp_sq = []
    for k in range(n):
        r = sample_realization(p, tau0, trial=k)
        counts[k] = r.count
        amp_sq.extend(r.amplitudes**2)
    lam = p.rate * tau0
    se_counts = np.sqrt(lam / n)
    assert abs(counts.mean() - lam) < 3 * se_counts
    amp_sq = np.asarray(amp_sq)
    se_var = p.sigma**2 * np.sqrt(2.0 / len(amp_sq))
    assert abs(amp_sq.mean() - p.sigma**2) < 3 * se_var
