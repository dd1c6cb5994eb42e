"""Experiment orchestration and CSV persistence.

Every CSV row carries its own provenance (seed, grid steps, code version) so
it can be re-derived from the row alone.  Output is deterministic for a
fixed config and seed, except for the leading '#' comment line which holds
the timestamp.
"""

from __future__ import annotations

import io
import math
import time

from . import __version__, metrics, noc, noise, sensitivity, spectral
from .config import ExperimentConfig


def format_value(v) -> str:
    """Floats at 6 significant digits, scientific below 1e-3."""
    if isinstance(v, bool) or not isinstance(v, float):
        return str(v)
    if v != 0.0 and abs(v) < 1e-3:
        return f"{v:.5e}"
    return f"{v:.6g}"


def render_csv(header, rows, meta: str = "") -> str:
    out = io.StringIO()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    out.write(f"# nocgf {__version__} {stamp} {meta}".rstrip() + "\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(format_value(v) for v in row) + "\n")
    return out.getvalue()


def write_csv(path, header, rows, meta: str = "") -> str:
    text = render_csv(header, rows, meta)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def improve_for(cfg: ExperimentConfig, gate_name: str) -> noc.ImprovedGateResult:
    gate = metrics.gate_target(gate_name)
    p = cfg.params_for(gate_name)
    return noc.improve_gate(gate, p, cfg.grid_for(p))


def _improved(cfg: ExperimentConfig, results, gate_name: str) -> noc.ImprovedGateResult:
    """The caller's improve result for a gate (results maps gate names to
    them), else a new improve_for run."""
    return (results or {}).get(gate_name) or improve_for(cfg, gate_name)


IDEAL_HEADER = (
    "gate", "trp_with_noc", "trp_without_noc", "dstar_with_noc",
    "fidelity_with_noc", "fidelity_without_noc", "steps", "seed", "version",
)


def run_ideal_table(cfg: ExperimentConfig):
    """One row per configured gate: Tr P with and without the correction."""

    def one(name):
        res = improve_for(cfg, name)
        return (
            name,
            res.improved_report.trace_p,
            res.nominal_report.trace_p,
            res.improved_report.d_star,
            res.improved_report.fidelity,
            res.nominal_report.fidelity,
            res.control.grid.steps,
            cfg.seed,
            __version__,
        )

    rows = [one(name) for name in cfg.gates]
    return sorted(rows, key=lambda r: metrics.GATE_ORDER.index(r[0]))


BANDWIDTH_HEADER = ("gate", "omega01", "omega01_mhz", "t_phys_us", "steps",
                    "seed", "version")


def run_bandwidth_table(cfg: ExperimentConfig, results=None):
    """Per-gate 10%-threshold bandwidth of the control modification."""

    def one(name):
        res = _improved(cfg, results, name)
        rep = spectral.bandwidth_report(res.control, cfg.t_phys_for(res.params))
        key = "one_qubit" if res.params.qubits == 1 else "two_qubit"
        return (
            name, rep.omega01, rep.omega01_mhz, cfg.t_phys_us[key],
            res.control.grid.steps, cfg.seed, __version__,
        )

    rows = [one(name) for name in cfg.gates]
    return sorted(rows, key=lambda r: metrics.GATE_ORDER.index(r[0]))


JITTER_HEADER = ("gate", "power", "sigma_t_ps", "mean_trp", "std_trp", "sem_trp",
                 "realizations", "steps", "seed", "version")


def run_jitter_sweep(cfg: ExperimentConfig, powers, results=None):
    """Noise-averaged Tr P per (gate, mean power), with the std of the
    trials and the standard error std / sqrt(realizations) of their mean.

    Every power is validated before any gate is improved, and each gate is
    improved once and shared by all its powers.
    """
    nz = cfg.noise
    jobs = [
        (g, noise.default_noise_params(
            cfg.params_for(g).qubits, float(pw), seed=cfg.noise_seed(),
            sigma=nz["sigma"], tau_f=nz["tau_f"]))
        for g in cfg.gates for pw in powers
    ]
    names = list(dict.fromkeys(name for name, _ in jobs))
    improved = {g: _improved(cfg, results, g) for g in names}

    def one(job):
        name, np_ = job
        res = improved[name]
        mean, std, _ = noise.noise_ensemble(res, np_, nz["realizations"])
        power = np_.mean_power
        sigma_t_ps = noise.timing_jitter(power, nz["f_clock_hz"]) * 1e12
        sem = std / math.sqrt(nz["realizations"])
        return (
            name, power, sigma_t_ps, mean, std, sem, nz["realizations"],
            res.control.grid.steps, cfg.noise_seed(), __version__,
        )

    rows = [one(job) for job in jobs]
    return sorted(rows, key=lambda r: (metrics.GATE_ORDER.index(r[0]), r[1]))


SWEEP_HEADER = ("parameter", "value", "trp_with_noc", "trp_without_noc")


def run_sweep(cfg: ExperimentConfig, parameter: str, gate_name: str,
              results=None):
    """Finite-precision sensitivity rows for one gate and parameter."""
    sensitivity.parameter_ulp(gate_name, parameter)   # fails before improving
    rows = sensitivity.run_sensitivity(_improved(cfg, results, gate_name), parameter)
    return [(r.parameter, r.value, r.trp_with_noc, r.trp_without_noc) for r in rows]


def run_spectrum(cfg: ExperimentConfig, gate_name: str, out, component: str):
    """Export the control-modification spectrum of one gate to CSV."""
    s = spectral.control_spectrum(improve_for(cfg, gate_name).control, component)
    spectral.export_spectrum(s, out)
    return s
