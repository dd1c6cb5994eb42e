"""Shot-noise model of clock phase jitter: seeded piecewise-constant phase
noise, exact power normalization, and the timing jitter of a noise power.

A realization is a Poisson number of square fluctuation pulses with Gaussian
amplitudes, uniformly placed over the sweep and rescaled so the interval-
averaged power equals the requested mean power exactly.

The experiment's noise defaults (pulse amplitude std, realizations, seed)
live in the configuration; this module holds only the per-system half
lifetimes that stand for an unset tau_f (default_noise_params).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import metrics, noc, propagate
from .config import ConfigError

DEFAULT_TAU_F_1Q = 0.3
DEFAULT_TAU_F_2Q = 0.1
MAX_RESAMPLE = 8
# Largest expected pulse count rate * tau0 of a realization: a draw peaks
# at 128 bytes per pulse (tracemalloc), 128 MiB at the limit.
MAX_PULSES = 2**20


class DegenerateRealizationError(RuntimeError):
    """Raw noise power was zero for every retry; cannot normalize."""


@dataclass(frozen=True)
class NoiseParams:
    """Shot-noise parameters: mean power, pulse amplitude std, half lifetime."""

    mean_power: float
    sigma: float
    tau_f: float
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.mean_power) and self.mean_power >= 0):
            raise ValueError(f"mean_power must be finite and >= 0, got {self.mean_power}")
        for name in ("sigma", "tau_f"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")

    @property
    def rate(self) -> float:
        """Mean fluctuation rate nbar = P / (2 sigma^2 tau_f)."""
        return self.mean_power / (2.0 * self.sigma**2 * self.tau_f)


def default_noise_params(qubits: int, mean_power: float, seed: int,
                         sigma: float, tau_f: float | None) -> NoiseParams:
    """NoiseParams with the per-system half lifetime when tau_f is None:
    DEFAULT_TAU_F_1Q for one qubit, DEFAULT_TAU_F_2Q for two."""
    if tau_f is None:
        tau_f = DEFAULT_TAU_F_1Q if qubits == 1 else DEFAULT_TAU_F_2Q
    return NoiseParams(mean_power=mean_power, sigma=sigma, tau_f=tau_f, seed=seed)


@dataclass(frozen=True)
class NoiseRealization:
    """One sampled phase-noise record delta_phi(tau), exactly power-normalized."""

    centers: np.ndarray
    amplitudes: np.ndarray
    scale: float
    tau_f: float
    tau0: float

    def __post_init__(self):
        # every pulse is 2 tau_f wide, so centers in ascending order put the
        # left edges and the right edges in order too (_edge_levels,
        # propagate.noisy_segments)
        if np.any(np.diff(self.centers) < 0):
            raise ValueError("pulse centers must be in ascending order")

    @property
    def count(self) -> int:
        return len(self.centers)

    def edges(self) -> np.ndarray:
        """The 2 count pulse edges (left edges first), where the noise jumps."""
        return np.concatenate([self.centers - self.tau_f, self.centers + self.tau_f])

    @cached_property
    def _sorted_levels(self):
        """The edges in time order and their levels (_edge_levels), merged
        once per realization rather than on every evaluate call."""
        return _edge_levels(self.centers - self.tau_f, self.centers + self.tau_f,
                            self.amplitudes)

    def evaluate(self, tau) -> np.ndarray:
        """delta_phi at tau: scale * sum_i x_i [sgn(tau-l_i) - sgn(tau-r_i)]/2.

        The pulse sum is piecewise constant between the sorted edges, so it
        is the cumulative level over the edges below tau, found by binary
        search.  A sample exactly on an edge takes the mean of the levels
        just below and just above it, which is the sgn(0) = 0 half value.
        Without pulses the only level is 0, so every sample is 0.
        """
        tau = np.asarray(tau, dtype=float)
        edges, levels = self._sorted_levels
        below = levels[np.searchsorted(edges, tau, side="left")]
        above = levels[np.searchsorted(edges, tau, side="right")]
        return self.scale * (0.5 * (below + above))


def _edge_levels(left, right, amplitudes):
    """Pulse edges in time order and the pulse-sum level after each:
    levels[k] is the sum over the first k edges of +x_i (left edge) or -x_i
    (right edge), so levels[0] = 0 lies before every edge.

    left and right are each in ascending order, as the edges of pulses
    sorted by center are, so they are merged with no sort: an edge's place
    is its index plus the number of the other kind's edges before it, a
    left edge ahead of a right edge at the same time.
    """
    n = len(left)
    at_left = np.arange(n) + np.searchsorted(right, left, side="left")
    at_right = np.arange(n) + np.searchsorted(left, right, side="right")
    edges, deltas = np.empty(2 * n), np.empty(2 * n)
    edges[at_left], edges[at_right] = left, right
    deltas[at_left], deltas[at_right] = amplitudes, -amplitudes
    return edges, np.concatenate([[0.0], np.cumsum(deltas)])


def _raw_power(centers, amplitudes, tau_f, tau0) -> float:
    """Interval-averaged power of the raw pulse sum, pulses clipped to the sweep."""
    lo, hi = -tau0 / 2.0, tau0 / 2.0
    edges, levels = _edge_levels(np.clip(centers - tau_f, lo, hi),
                                 np.clip(centers + tau_f, lo, hi), amplitudes)
    points = np.concatenate([[lo], edges, [hi]])
    seg = np.diff(points)
    return float(np.sum(levels**2 * seg) / tau0)


def check_pulse_count(p: NoiseParams, tau0: float) -> None:
    """ConfigError above MAX_PULSES expected pulses in a sweep of tau0."""
    expected = p.rate * tau0
    if not expected <= MAX_PULSES:
        raise ConfigError(
            f"mean power {p.mean_power:g} expects {expected:.3g} noise pulses "
            f"per sweep, more than the limit of {MAX_PULSES:,}")


def sample_realization(p: NoiseParams, tau0: float, trial: int) -> NoiseRealization:
    """Draw one seeded realization; deterministic in (seed, trial)."""
    check_pulse_count(p, tau0)
    if 2.0 * p.tau_f > tau0 / 10.0:
        warnings.warn(
            "fluctuation lifetime is not small compared to the sweep "
            f"(2 tau_f = {2 * p.tau_f:g}, tau0 = {tau0:g})",
            stacklevel=2,
        )
    if p.mean_power == 0.0:
        return NoiseRealization(
            centers=np.empty(0), amplitudes=np.empty(0), scale=0.0,
            tau_f=p.tau_f, tau0=tau0,
        )
    for retry in range(MAX_RESAMPLE):
        rng = np.random.default_rng((int(p.seed), int(trial), retry))
        count = int(rng.poisson(p.rate * tau0))
        centers = rng.uniform(-tau0 / 2.0, tau0 / 2.0, size=count)
        amplitudes = rng.normal(0.0, p.sigma, size=count)
        # the one sort of a realization: its pulses in order of their centers
        order = np.argsort(centers, kind="stable")
        centers, amplitudes = centers[order], amplitudes[order]
        raw = _raw_power(centers, amplitudes, p.tau_f, tau0)
        if raw > 0.0:
            return NoiseRealization(
                centers=centers, amplitudes=amplitudes,
                scale=float(np.sqrt(p.mean_power / raw)),
                tau_f=p.tau_f, tau0=tau0,
            )
    raise DegenerateRealizationError(
        f"zero raw power after {MAX_RESAMPLE} retries (seed {p.seed}, trial {trial})"
    )


def realized_power(r: NoiseRealization) -> float:
    """Interval-averaged power of a realization (the mean power it was drawn for)."""
    return r.scale**2 * _raw_power(r.centers, r.amplitudes, r.tau_f, r.tau0)


def timing_jitter(mean_power: float, f_clock: float) -> float:
    """Timing jitter sigma_t = sqrt(P) / (2 pi f_clock) in seconds: the phase
    jitter sqrt(P) of a clock at f_clock."""
    if mean_power < 0:
        raise ValueError("mean_power must be >= 0")
    if f_clock <= 0:
        raise ValueError("f_clock must be > 0")
    return float(np.sqrt(mean_power)) / (2.0 * np.pi * f_clock)


def noise_ensemble(improved: noc.ImprovedGateResult, noise_params: NoiseParams,
                   realizations: int):
    """Mean and std of Tr P over seeded noise trials with the frozen control.

    The gate, sweep parameters and control modification are the ones
    `improved` used for the jitter-free sweep, on its grid; each trial adds
    an independent phase-noise realization to the twist phase.  All trials are one
    propagate_modified_batch call on the improved trajectory: each trial is
    integrated only over its noisy segments, which snap to the trajectory's
    Magnus nodes (every m-th grid point), on the grid points plus its pulse
    edges, so the noise is constant inside each step, and the improved
    trajectory's node samples supply the steps between them.  It fails with
    AccuracyError unless its step-doubling error estimate (refine 2 against
    refine 1 on the noisy segments) and the unitarity defect stay within
    budget.  A trial without pulses (zero power) is the improved gate
    itself.  Returns (mean, std, per-trial list); std uses divisor count-1.
    """
    gate, p = improved.gate, improved.params
    samples = [
        sample_realization(noise_params, p.tau0, trial=k) for k in range(realizations)
    ]
    finals = propagate.propagate_modified_batch(
        p, improved.improved_trajectory, improved.control.samples, samples)
    values = np.array([metrics.trace_p(u, gate.sweep_unitary) for u in finals.unitaries])
    # moments of the offsets from the first trial: equal trials (zero power)
    # give that trial's value and a spread of exactly 0
    offsets = values - values[0]
    mean = float(values[0] + offsets.mean())
    std = float(offsets.std(ddof=1)) if realizations > 1 else 0.0
    return mean, std, values.tolist()
