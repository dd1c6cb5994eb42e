"""Fourier analysis of control modifications and bandwidth estimation.

The bandwidth measure is the frequency beyond which the transform magnitude
stays under 10% of its zero-frequency value; the crossing is located from
the high-frequency side so ripple inside the main lobe does not truncate it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .noc import ControlModification

PAD_FACTOR = 8
COMPONENTS = {"x": 0, "y": 1, "z": 2}


class BandwidthUndefinedError(ValueError):
    """The spectrum never falls below the 10% threshold."""


@dataclass(frozen=True)
class Spectrum:
    omega: np.ndarray
    magnitude: np.ndarray


def smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1).

    The FFT of such a length runs on small radices; a length with a large
    prime factor falls back to Bluestein's algorithm.  For the one-qubit
    control, 8 x 160,001 points (160,001 is prime) took 0.59 s and 221 MiB
    peak RSS in a bare process, against 0.043 s and 65 MiB at 1,296,000.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def control_spectrum(ctrl: ControlModification, component: str = "x") -> Spectrum:
    """DFT magnitude of one control component, omega >= 0; n samples are
    zero-padded to smooth_length(8 n) points, at least 8x.

    omega is the dimensionless angular frequency 2 pi f; the absolute
    normalization is arbitrary but fixed (the bandwidth uses only ratios).
    """
    if component not in COMPONENTS:
        raise ValueError(f"component must be one of {sorted(COMPONENTS)}")
    samples = np.asarray(ctrl.samples)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError("control samples must have shape (steps+1, 3)")
    if samples.shape[0] != ctrl.grid.steps + 1:
        raise ValueError("control samples do not match their grid")
    x = samples[:, COMPONENTS[component]]
    n = len(x)
    nfft = smooth_length(PAD_FACTOR * n)
    mag = np.abs(np.fft.rfft(x, n=nfft))
    omega = 2.0 * np.pi * np.fft.rfftfreq(nfft, d=ctrl.grid.h)
    return Spectrum(omega=omega, magnitude=mag)


def bandwidth_w01(s: Spectrum) -> float:
    """Smallest omega beyond which the magnitude stays below 10% of its DC value.

    Located by scanning from high frequency down to the last up-crossing of
    the threshold, with linear interpolation between bins.
    """
    mag = s.magnitude
    if mag[0] <= 0.0:
        raise ValueError("spectrum has no zero-frequency content")
    thr = 0.1 * mag[0]
    above = np.flatnonzero(mag >= thr)
    i = int(above[-1])
    if i + 1 >= len(mag):
        raise BandwidthUndefinedError(
            "the spectrum is above its 10% threshold at the Nyquist frequency; "
            "increase the step count")
    om0, om1 = s.omega[i], s.omega[i + 1]
    return float(om0 + (om1 - om0) * (mag[i] - thr) / (mag[i] - mag[i + 1]))


def to_dimensionful(omega01: float, tau0: float, t_phys: float) -> float:
    """Convert a dimensionless bandwidth to MHz for a physical gate time.

    The sweep maps tau0 dimensionless units onto t_phys seconds, so
    dimensionful omega = omega01 * tau0 / t_phys; reported in MHz.
    """
    if t_phys <= 0:
        raise ValueError("t_phys must be > 0")
    return omega01 * (tau0 / t_phys) / 1e6


def export_spectrum(s: Spectrum, path) -> None:
    """Write a two-column CSV omega,magnitude for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "magnitude"])
        for om, mg in zip(s.omega, s.magnitude):
            writer.writerow([f"{om:.9g}", f"{mg:.9g}"])
