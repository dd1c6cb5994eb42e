"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria and tolerances are fixed here; nothing is deferred to calibration.
Every check runs the production pipeline at its default resolution with the
committed seed.
"""

import time

import numpy as np

from nocgf import NOMINAL_PARAMS
from nocgf.config import default_config
from nocgf.control import coupling_matrices, drive_matrix
from nocgf.lincore import unitarity_defect
from nocgf.metrics import GATE_ORDER, trace_p
from nocgf.noc import ENERGY_BALANCE_BUDGET
from nocgf.noise import (
    NoiseParams,
    default_noise_params,
    noise_ensemble,
    realized_power,
    sample_realization,
    timing_jitter,
)
from nocgf.propagate import TimeGrid, _integrate
from nocgf.sensitivity import run_sensitivity
from nocgf.spectral import bandwidth_w01, control_spectrum, to_dimensionful
from tests.conftest import ACCEPTANCE_SEED, contracted_drive, random_unitary
from tests.dense_model import sweep_hamiltonian

NOMINAL_TRP = {"not": 6.27e-5, "hadamard": 1.12e-4, "pi8": 2.13e-4,
               "phase": 4.62e-4, "cphase": 1.27e-3}
IMPROVED_TRP = {"not": 8.58e-9, "hadamard": 1.04e-8, "pi8": 1.06e-8,
                "phase": 1.08e-8, "cphase": 5.21e-5}
BANDWIDTH_W01 = {"not": 0.80, "pi8": 1.3, "phase": 1.9, "hadamard": 4.0,
                 "cphase": 34.0}
SENSITIVITY_TABLES = {
    # (gate, parameter): {value: (trp_with, trp_without)}
    ("hadamard", "lam"): {7.819: (2.62e-4, 8.15e-4), 7.821: (4.44e-4, 2.07e-3)},
    ("hadamard", "eta4"): {1.791e-4: (5.75e-3, 2.86e-2),
                           1.793e-4: (7.76e-3, 3.11e-2)},
    ("not", "eta4"): {2.188e-4: (6.50e-3, 1.55e-2), 2.190e-4: (9.80e-3, 3.28e-2)},
    ("pi8", "eta4"): {1.674e-4: (7.10e-3, 4.99e-2), 1.676e-4: (7.30e-3, 3.90e-2)},
    ("phase", "eta4"): {1.665e-4: (1.20e-3, 4.42e-2), 1.667e-4: (6.10e-3, 5.74e-2)},
    ("cphase", "d1"): {11.701: (1.16e-3, 3.36e-3), 11.703: (1.16e-3, 1.43e-3)},
}
JITTER_MEANS = {
    1e-3: {"not": 2.11e-5, "hadamard": 2.04e-5, "pi8": 2.92e-5, "phase": 3.04e-5},
    6.25e-5: {"not": 1.82e-6, "hadamard": 9.59e-7, "pi8": 1.24e-6,
              "phase": 1.92e-6},
}


def _report(criterion, checks):
    failures = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for ok, msg in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {msg}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def test_criterion_1_nominal_reproduction(improved_all):
    checks = []
    for name in GATE_ORDER:
        got = improved_all[name].nominal_report.trace_p
        want = NOMINAL_TRP[name]
        tol = 0.05 if name != "cphase" else 0.10
        rel = abs(got - want) / want
        checks.append((rel <= tol,
                       f"{name}: nominal TrP {got:.3e} vs {want:.3e} "
                       f"(rel {rel:.3f}, tol {tol})"))
    _report("1 nominal-gate reproduction", checks)


def test_criterion_2_ideal_improvement(improved_all):
    checks = []
    for name in GATE_ORDER:
        got = improved_all[name].improved_report.trace_p
        want = IMPROVED_TRP[name]
        factor = max(got / want, want / got)
        if name == "cphase":
            checks.append((factor <= 2.0 and got < 1e-4,
                           f"cphase: improved TrP {got:.3e} vs {want:.3e} "
                           f"(factor {factor:.2f} <= 2, < 1e-4)"))
        else:
            checks.append((factor <= 5.0 and got < 1e-7,
                           f"{name}: improved TrP {got:.3e} vs {want:.3e} "
                           f"(factor {factor:.2f} <= 5, < 1e-7)"))
    _report("2 ideal improvement", checks)


def test_criterion_3_contraction_identity(rng):
    couplings = coupling_matrices(NOMINAL_PARAMS["hadamard"], 0.0)
    worst = 0.0
    for _ in range(10_000):
        u = random_unitary(rng, 2)
        gbar = np.einsum("ba,jbc,cd->jad", u.conj(), couplings, u)
        g = drive_matrix(u, NOMINAL_PARAMS["hadamard"], 0.0)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = contracted_drive(gbar, g, w)
        want = np.array([[w[0] - w[3], 2 * w[2]], [2 * w[1], w[3] - w[0]]])
        worst = max(worst, float(np.abs(got - want).max()))
    _report("3 contraction identity", [
        (worst <= 1e-12, f"max closed-form deviation over 1e4 pairs: {worst:.2e}")
    ])


def test_criterion_4_riccati_consistency(improved_all):
    fb = improved_all["cphase"].feedback
    checks = [
        (fb.energy_balance_max <= ENERGY_BALANCE_BUDGET,
         f"closed-loop energy balance {fb.energy_balance_max:.2e} <= "
         f"{ENERGY_BALANCE_BUDGET:.0e} of ||delta_y(0)||^2 over every step pair"),
        (fb.norm_increase_max <= 1e-12,
         "||delta_y|| non-increasing along the trajectory"),
    ]
    _report("4 Riccati consistency", checks)


def test_criterion_5_unitarity_and_convergence(improved_all):
    from nocgf.propagate import propagate_sweep

    cfg = default_config()
    checks = []
    worst = 0.0
    for name in GATE_ORDER:
        p = NOMINAL_PARAMS[name]
        traj = propagate_sweep(p, cfg.grid_for(p))   # budget enforced inside
        worst = max(worst, traj.defect,
                    unitarity_defect(improved_all[name].improved_unitary))
    checks.append((worst <= 1e-10,
                   f"max unitarity defect over all stored propagators: {worst:.2e}"))

    p = NOMINAL_PARAMS["hadamard"]

    def final_at(steps):
        grid = TimeGrid(p.tau0, steps)

        def afun(taus, c0):
            return -1j * sweep_hamiltonian(taus, p)

        _, u, _ = _integrate(afun, grid, 2, refine=1, store="final")
        return u

    ref = final_at(320000)
    e1 = np.abs(final_at(10000) - ref).max()
    e2 = np.abs(final_at(20000) - ref).max()
    order = float(np.log2(e1 / e2))
    checks.append((order >= 3.5,
                   f"halving h: error {e1:.2e} -> {e2:.2e}, observed order "
                   f"{order:.2f} >= 3.5"))
    _report("5 unitarity and convergence", checks)


def test_criterion_6_bandwidth_table(improved_all):
    checks = []
    for name in GATE_ORDER:
        w01 = bandwidth_w01(control_spectrum(improved_all[name].control))
        want = BANDWIDTH_W01[name]
        rel = abs(w01 - want) / want
        checks.append((rel <= 0.15,
                       f"{name}: omega01 {w01:.3g} vs {want:.3g} "
                       f"(rel {rel:.2f}, tol 0.15)"))
    mhz = to_dimensionful(4.0, 160.0, 1e-6)
    checks.append((abs(mhz - 640.0) < 1e-9,
                   f"hadamard MHz conversion at T=1us: {mhz:.6g} == 640"))
    mhz2 = to_dimensionful(34.0, 120.0, 5e-6)
    checks.append((abs(mhz2 - 816.0) < 1e-9,
                   f"cphase MHz conversion at T=5us: {mhz2:.6g} == 816"))
    _report("6 bandwidth table", checks)


def test_criterion_7_sensitivity(improved_all):
    checks = []
    t0 = time.perf_counter()
    for (gname, par), table in SENSITIVITY_TABLES.items():
        rows = run_sensitivity(improved_all[gname], par)
        for row in rows:
            if row.trp_with_noc > row.trp_without_noc + 1e-15:
                checks.append((False,
                               f"{gname} {par}={row.value:.6g}: with-correction "
                               f"{row.trp_with_noc:.2e} exceeds without "
                               f"{row.trp_without_noc:.2e}"))
        for value, (want_with, want_without) in table.items():
            row = min(rows, key=lambda r: abs(r.value - value))
            fw = max(row.trp_with_noc / want_with, want_with / row.trp_with_noc)
            fo = max(row.trp_without_noc / want_without,
                     want_without / row.trp_without_noc)
            checks.append((fw <= 2.0,
                           f"{gname} {par}={value:.6g}: with-correction TrP "
                           f"{row.trp_with_noc:.2e} vs {want_with:.2e} "
                           f"(factor {fw:.2f})"))
            checks.append((fo <= 2.0,
                           f"{gname} {par}={value:.6g}: without TrP "
                           f"{row.trp_without_noc:.2e} vs {want_without:.2e} "
                           f"(factor {fo:.2f})"))
    checks.append((time.perf_counter() - t0 < 180.0, "runtime under 3 minutes"))
    _report("7 finite-precision sensitivity", checks)


def test_criterion_8_jitter(improved_all):
    checks = []
    t0 = time.perf_counter()
    for power, table in JITTER_MEANS.items():
        for name, want in table.items():
            np_ = default_noise_params(1, power, seed=ACCEPTANCE_SEED, sigma=0.1,
                                       tau_f=None)
            mean, std, _ = noise_ensemble(improved_all[name], np_, 10)
            factor = max(mean / want, want / mean)
            checks.append((factor <= 3.0,
                           f"{name} P={power:g}: <TrP> {mean:.3e} vs {want:.2e} "
                           f"(factor {factor:.1f})"))
    np2 = default_noise_params(2, 1e-3, seed=ACCEPTANCE_SEED, sigma=0.1, tau_f=None)
    mean, std, _ = noise_ensemble(improved_all["cphase"], np2, 10)
    rel = abs(mean - 5.21e-5) / 5.21e-5
    checks.append((rel <= 0.05,
                   f"cphase P=1e-3: <TrP> {mean:.3e} vs 5.21e-5 (rel {rel:.2f})"))
    checks.append((std < 1e-8, f"cphase P=1e-3: std {std:.2e} < 1e-8"))
    for power, want_ps in ((1e-3, 5.03), (5e-3, 11.3), (8e-3, 14.2),
                           (6.25e-5, 1.26)):
        got = timing_jitter(power, 1e9) * 1e12
        checks.append((abs(got - want_ps) / want_ps < 5e-3,
                       f"sigma_t({power:g}) = {got:.3g} ps vs {want_ps} ps"))
    checks.append((time.perf_counter() - t0 < 600.0, "runtime under 10 minutes"))
    _report("8 phase jitter", checks)


def test_criterion_9_noise_statistics():
    checks = []
    p = NoiseParams(mean_power=1e-3, sigma=0.1, tau_f=0.3, seed=ACCEPTANCE_SEED)
    a = sample_realization(p, 160.0, trial=5)
    b = sample_realization(p, 160.0, trial=5)
    checks.append((np.array_equal(a.centers, b.centers)
                   and np.array_equal(a.amplitudes, b.amplitudes)
                   and a.scale == b.scale,
                   "identical (seed, trial) give bit-identical realizations"))
    worst = 0.0
    for k in range(200):
        r = sample_realization(p, 160.0, trial=k)
        worst = max(worst, abs(realized_power(r) - p.mean_power) / p.mean_power)
    checks.append((worst <= 1e-12,
                   f"per-realization power normalization residual {worst:.1e}"))
    n = 10_000
    counts = np.empty(n)
    amp_sq = []
    for k in range(n):
        r = sample_realization(p, 160.0, trial=k)
        counts[k] = r.count
        amp_sq.extend(r.amplitudes**2)
    lam = p.rate * 160.0
    dev_counts = abs(counts.mean() - lam) / np.sqrt(lam / n)
    amp_sq = np.asarray(amp_sq)
    dev_var = abs(amp_sq.mean() - p.sigma**2) / (
        p.sigma**2 * np.sqrt(2.0 / len(amp_sq)))
    checks.append((dev_counts < 3.0,
                   f"fluctuation-count mean within {dev_counts:.2f} SE of "
                   f"{lam:.2f}"))
    checks.append((dev_var < 3.0,
                   f"amplitude variance within {dev_var:.2f} SE of sigma^2"))
    _report("9 noise-model statistics", checks)
