"""The benchmark workloads, driven through nocgf's public API.

Each workload builds an ExperimentConfig from the benchmark seed (the seed
reaches the program only through the config), runs one iteration, and
reduces the result to named output arrays that the fingerprint check
compares.  All grids are the package's production defaults unless
`steps_scale` asks for a finer reference run.
"""

from __future__ import annotations

import numpy as np

from nocgf import experiments
from nocgf.config import config_from_dict
from nocgf.propagate import DEFAULT_STEPS_1Q, DEFAULT_STEPS_2Q

JITTER_POWERS = (1e-3, 6.25e-5)
# one trial per power: a trial is a 120,000-step refine-8 batch propagation
# (about 8 s on the machine in README.md), and with one trial the row's mean
# is the per-trial Tr P.
JITTER_REALIZATIONS = 1


def _config(gate: str, seed: int, steps_scale: int):
    return config_from_dict({
        "gates": [gate],
        "seed": seed,
        "steps": {"one_qubit": DEFAULT_STEPS_1Q * steps_scale,
                  "two_qubit": DEFAULT_STEPS_2Q * steps_scale},
        "noise": {"realizations": JITTER_REALIZATIONS},
    })


def _improve_outputs(res) -> dict:
    return {
        "nominal_unitary": res.nominal_unitary,
        "improved_unitary": res.improved_unitary,
        "nominal_trace_p": res.nominal_report.trace_p,
        "improved_trace_p": res.improved_report.trace_p,
        "nominal_d_star": res.nominal_report.d_star,
        "improved_d_star": res.improved_report.d_star,
    }


def pipeline_1q(cfg) -> dict:
    res = experiments.improve_for(cfg, "hadamard")
    results = {"hadamard": res}
    (bw,) = experiments.run_bandwidth_table(cfg, results)
    rows = experiments.run_sweep(cfg, "eta4", "hadamard", results)
    return {
        **_improve_outputs(res),
        "omega01": bw[1],
        "sweep_value": [r[1] for r in rows],
        "sweep_trp_with_noc": [r[2] for r in rows],
        "sweep_trp_without_noc": [r[3] for r in rows],
    }


def jitter_outputs(rows) -> dict:
    return {
        "jitter_power": [r[1] for r in rows],
        "jitter_trace_p": [r[3] for r in rows],
    }


def jitter_2q(cfg) -> dict:
    return jitter_outputs(experiments.run_jitter_sweep(cfg, JITTER_POWERS))


# name -> (gate, iteration function)
WORKLOADS = {
    "pipeline-1q": ("hadamard", pipeline_1q),
    "jitter-2q": ("cphase", jitter_2q),
}


def make(name: str, seed: int, steps_scale: int = 1):
    """(config, iteration function) of a workload at a seed."""
    gate, fn = WORKLOADS[name]
    return _config(gate, seed, steps_scale), fn


def as_array(value) -> np.ndarray:
    """Flat float view of an output: complex entries become (re, im) pairs."""
    a = np.asarray(value)
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a, dtype=complex).view(float)
    return np.asarray(a, dtype=float).ravel()
