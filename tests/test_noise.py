import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocgf import noise
from nocgf.config import ConfigError
from nocgf.noise import (
    MAX_PULSES,
    DegenerateRealizationError,
    NoiseParams,
    NoiseRealization,
    default_noise_params,
    realized_power,
    sample_realization,
    timing_jitter,
)

# the configuration's noise defaults: sigma 0.1, the one-qubit tau_f 0.3
PARAMS = dict(mean_power=1e-3, sigma=0.1, tau_f=0.3, seed=0)


def test_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(**{**PARAMS, "mean_power": -1.0})
    with pytest.raises(ValueError):
        NoiseParams(**{**PARAMS, "sigma": 0.0})
    p = NoiseParams(**PARAMS)
    assert p.rate == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_sample_realization_rejects_more_pulses_than_the_limit():
    # rate * tau0 = MAX_PULSES at this power; rng.poisson fails far above it
    at_limit = MAX_PULSES / 160.0 * 2.0 * 0.1**2 * 0.3
    with pytest.raises(ConfigError, match="noise pulses per sweep"):
        sample_realization(NoiseParams(**{**PARAMS, "mean_power": 1.01 * at_limit}),
                           160.0, trial=0)
    with pytest.raises(ConfigError, match="expects 2.67e[+]24 noise pulses"):
        sample_realization(NoiseParams(**{**PARAMS, "mean_power": 1e20}), 160.0, trial=0)


@pytest.mark.parametrize("power", [float("nan"), float("inf"), -1.0])
def test_mean_power_must_be_finite_and_nonnegative(power):
    with pytest.raises(ValueError, match="mean_power"):
        NoiseParams(**{**PARAMS, "mean_power": power})


@pytest.mark.parametrize("name", ["sigma", "tau_f"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_sigma_and_tau_f_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=name):
        NoiseParams(**{**PARAMS, name: value})


def test_default_tau_f_per_system():
    assert default_noise_params(1, 1e-3, seed=0, sigma=0.1, tau_f=None).tau_f == 0.3
    assert default_noise_params(2, 1e-3, seed=0, sigma=0.1, tau_f=None).tau_f == 0.1
    assert default_noise_params(2, 1e-3, seed=0, sigma=0.1, tau_f=0.25).tau_f == 0.25


def test_expected_fluctuation_counts():
    # nbar tau0: about 27 pulses for the one-qubit sweep, 60 for two-qubit
    p1 = default_noise_params(1, 1e-3, seed=0, sigma=0.1, tau_f=None)
    assert p1.rate * 160.0 == pytest.approx(26.7, abs=0.1)
    p2 = default_noise_params(2, 1e-3, seed=0, sigma=0.1, tau_f=None)
    assert p2.rate * 120.0 == pytest.approx(60.0, abs=0.1)


def test_zero_power_realization():
    r = sample_realization(NoiseParams(**{**PARAMS, "mean_power": 0.0, "seed": 1}),
                           160.0, trial=0)
    assert r.count == 0 and r.scale == 0.0
    taus = np.linspace(-80, 80, 11)
    assert np.abs(r.evaluate(taus)).max() == 0.0
    # without pulses the level table is [0]: exact zeros in the shape of tau
    grid = taus.reshape(1, 11) + np.arange(3.0)[:, None]
    got = r.evaluate(grid)
    assert got.shape == (3, 11) and np.array_equal(got, np.zeros((3, 11)))
    assert realized_power(r) == 0.0


def test_determinism_bit_identical():
    p = NoiseParams(**{**PARAMS, "seed": 42})
    a = sample_realization(p, 160.0, trial=3)
    b = sample_realization(p, 160.0, trial=3)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.scale == b.scale
    c = sample_realization(p, 160.0, trial=4)
    assert not np.array_equal(a.centers, c.centers)


def test_power_normalization_exact():
    for seed in range(100):
        p = NoiseParams(**{**PARAMS, "seed": seed})
        r = sample_realization(p, 160.0, trial=0)
        assert realized_power(r) == pytest.approx(1e-3, rel=1e-12)


def test_single_pulse_evaluation():
    from nocgf.noise import NoiseRealization
    r = NoiseRealization(centers=np.array([5.0]), amplitudes=np.array([0.2]),
                         scale=1.5, tau_f=0.3, tau0=160.0)
    assert r.evaluate(5.0) == pytest.approx(1.5 * 0.2)
    assert r.evaluate(5.0 + 0.31) == 0.0
    assert r.evaluate(-40.0) == 0.0


def test_overlapping_pulses_sum():
    from nocgf.noise import NoiseRealization
    r = NoiseRealization(centers=np.array([0.0, 0.1]),
                         amplitudes=np.array([0.2, -0.05]),
                         scale=2.0, tau_f=0.3, tau0=160.0)
    assert r.evaluate(0.05) == pytest.approx(2.0 * (0.2 - 0.05))


def test_degenerate_realization():
    # vanishing rate: Poisson(0) pulses every retry, power cannot normalize
    p = NoiseParams(mean_power=1e-12, sigma=100.0, tau_f=10.0, seed=7)
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateRealizationError):
            sample_realization(p, 160.0, trial=0)


def test_timing_jitter_values():
    assert timing_jitter(0.008, 1e9) * 1e12 == pytest.approx(14.2, abs=0.05)
    assert timing_jitter(0.001, 1e9) * 1e12 == pytest.approx(5.03, abs=0.005)
    assert timing_jitter(6.25e-5, 1e9) * 1e12 == pytest.approx(1.26, abs=0.005)
    assert timing_jitter(0.005, 1e9) * 1e12 == pytest.approx(11.3, abs=0.05)
    assert timing_jitter(0.0, 1e9) == 0.0
    with pytest.raises(ValueError):
        timing_jitter(1e-3, 0.0)


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


def sign_sum(r, tau):
    """scale * sum_i x_i [sgn(tau - l_i) - sgn(tau - r_i)] / 2, pulse by pulse."""
    tau = np.asarray(tau, dtype=float)[..., None]
    left, right = r.centers - r.tau_f, r.centers + r.tau_f
    pulses = 0.5 * (np.sign(tau - left) - np.sign(tau - right))
    return r.scale * np.sum(pulses * r.amplitudes, axis=-1)


# centers and half widths on a 1/8 lattice, so pulses often share edges
eighths = st.integers(-400, 400).map(lambda k: k / 8.0)


@settings(max_examples=60, deadline=None)
@given(centers=st.lists(eighths, min_size=1, max_size=30),
       tau_f=st.integers(1, 16).map(lambda k: k / 8.0),
       seed=st.integers(0, 2**32 - 1))
@example(centers=[0.0, 0.5], tau_f=0.25, seed=0)      # r_0 == l_1
@example(centers=[3.0, 3.0], tau_f=0.125, seed=1)     # identical pulses
def test_evaluate_matches_sign_sum(centers, tau_f, seed):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers)
    amplitudes = rng.normal(size=len(centers))
    r = NoiseRealization(centers=centers, amplitudes=amplitudes, scale=1.7,
                         tau_f=tau_f, tau0=120.0)
    edges = np.concatenate([centers - tau_f, centers + tau_f])
    tau = np.concatenate([rng.uniform(-60.0, 60.0, 500), edges,
                          np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    got = r.evaluate(tau)
    assert got.shape == tau.shape
    bound = 1e-14 * r.scale * np.sum(np.abs(amplitudes))
    assert np.abs(got - sign_sum(r, tau)).max() <= bound
    assert r.evaluate(float(edges[0])) == pytest.approx(sign_sum(r, edges[0]),
                                                        abs=bound)


def test_evaluate_on_a_shared_edge_is_the_half_values():
    # pulse 0 ends where pulse 1 starts: each contributes half its amplitude
    r = NoiseRealization(centers=np.array([0.0, 0.5]),
                         amplitudes=np.array([0.2, -0.6]),
                         scale=1.0, tau_f=0.25, tau0=120.0)
    assert r.evaluate(0.25) == pytest.approx(0.5 * (0.2 - 0.6), abs=1e-16)
    assert r.evaluate(-0.25) == pytest.approx(0.1, abs=1e-16)
    assert np.allclose(r.evaluate([0.1, 0.4, 0.75, 1.0]), [0.2, -0.6, -0.3, 0.0],
                       atol=1e-16)


def test_evaluate_sorts_the_edges_once_per_realization(monkeypatch):
    # a noisy integration evaluates chunk by chunk; each call reads the
    # realization's sorted edges and levels instead of sorting them again
    r = sample_realization(NoiseParams(**PARAMS), 160.0, trial=0)
    calls = []
    edge_levels = noise._edge_levels

    def counted(*args):
        calls.append(1)
        return edge_levels(*args)

    monkeypatch.setattr(noise, "_edge_levels", counted)
    tau = np.linspace(-80.0, 80.0, 4097)
    first = r.evaluate(tau)
    for _ in range(3):
        assert np.array_equal(r.evaluate(tau), first)
    assert len(calls) == 1
