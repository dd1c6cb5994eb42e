"""Result fingerprints: recorded outputs with tolerances from measured
discretization error, plus the reference-free checks used at other seeds.

Check:   imported by worker.py.
Record:  PYTHONPATH=src python3 perfbench/fingerprints.py
         (from the repository root; about 8 minutes on one core).

A fingerprint's tolerance is TOL_FACTOR times the difference between the
production run and the same workload at twice the grid steps, floored at
roundoff.  A roundoff-level refactor or a more accurate integrator then
stays inside it, while a defect that moves a result by more than the
scheme's own error does not.  For jitter seeds recorded without a fine run,
the tolerance scales the largest relative discretization error measured on
the fine-run seeds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import workloads
from nocgf import experiments, noise
from nocgf.propagate import UNITARITY_BUDGET

PATH = Path(__file__).with_name("fingerprints.json")
TOL_FACTOR = 4.0
ABS_FLOOR = 1e-12
REL_FLOOR = 1e-9
JITTER_SEEDS = range(13)
JITTER_FINE_SEEDS = (0, 1, 2)
ANY_SEED = "*"


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def _unitary_defect(u) -> float:
    u = np.asarray(u)
    g = np.conj(u.T) @ u - np.eye(u.shape[0])
    return float(np.abs(g).max())


def reference_free(workload: str, cfg, outputs: dict) -> list:
    """Checks that need no recorded values; returns a list of problems."""
    problems = []
    for name, value in outputs.items():
        if not np.all(np.isfinite(workloads.as_array(value))):
            problems.append(f"{name} is not finite")
        if name.endswith("trace_p") and np.any(np.asarray(value) < 0):
            problems.append(f"{name} is negative")
        if name.endswith("_unitary"):
            defect = _unitary_defect(value)
            if not defect <= UNITARITY_BUDGET:
                problems.append(f"{name} unitarity defect {defect:.3e} over budget")
    if workload == "jitter-2q":
        p = cfg.params_for(cfg.gates[0])
        for power in outputs["jitter_power"]:
            params = noise.default_noise_params(
                p.qubits, power, seed=cfg.noise_seed(), sigma=cfg.noise["sigma"],
                tau_f=cfg.noise["tau_f"])
            for trial in range(cfg.noise["realizations"]):
                r = noise.sample_realization(params, p.tau0, trial=trial)
                got = noise.realized_power(r)
                if not abs(got - power) <= 1e-9 * power:
                    problems.append(
                        f"realized power {got:.9e} != requested {power:.9e}")
    return problems


def compare(outputs: dict, reference: dict) -> list:
    """Problems where an output leaves its fingerprint's tolerance."""
    problems = []
    for name, ref in reference.items():
        if name not in outputs:
            problems.append(f"{name} missing from outputs")
            continue
        got = workloads.as_array(outputs[name])
        want = np.asarray(ref["value"])
        tol = np.asarray(ref["tol"])
        if got.shape != want.shape:
            problems.append(f"{name} shape {got.shape} != {want.shape}")
            continue
        err = np.abs(got - want)
        if not np.all(err <= tol):
            worst = int(np.argmax(err - tol))
            problems.append(
                f"{name}[{worst}] off by {err[worst]:.3e} > tol {tol[worst]:.3e}")
    return problems


def check(fingerprints: dict, workload: str, seed: int, cfg, outputs: dict):
    """(problems, whether a recorded fingerprint was compared)."""
    problems = reference_free(workload, cfg, outputs)
    recorded = fingerprints[workload]
    ref = recorded.get(ANY_SEED) or recorded.get(str(seed))
    if ref is not None:
        problems += compare(outputs, ref)
    return problems, ref is not None


def _tolerance(name, prod, diff) -> np.ndarray:
    """Elementwise tolerance; matrices share their max-norm error."""
    if name.endswith("_unitary"):
        diff = np.full_like(diff, diff.max())
    return TOL_FACTOR * diff + ABS_FLOOR + REL_FLOOR * np.abs(prod)


def _entry(prod, tol) -> dict:
    return {"value": prod.tolist(), "tol": tol.tolist()}


def _fingerprint(prod: dict, fine: dict) -> dict:
    out = {}
    for name in prod:
        p, f = workloads.as_array(prod[name]), workloads.as_array(fine[name])
        out[name] = _entry(p, _tolerance(name, p, np.abs(p - f)))
    return out


def _jitter_rows(cfg, res):
    rows = experiments.run_jitter_sweep(cfg, workloads.JITTER_POWERS,
                                        results={"cphase": res})
    return workloads.jitter_outputs(rows)


def record() -> dict:
    result = {}
    runs = []
    for scale in (1, 2):
        cfg, fn = workloads.make("pipeline-1q", 0, steps_scale=scale)
        runs.append(fn(cfg))
        print(f"pipeline-1q x{scale} done", file=sys.stderr, flush=True)
    result["pipeline-1q"] = {ANY_SEED: _fingerprint(*runs)}

    # improve_gate does not depend on the seed: compute it once per grid and
    # feed it to run_jitter_sweep, which yields the same rows as the workload
    improved = {}
    for scale in (1, 2):
        cfg, _ = workloads.make("jitter-2q", 0, steps_scale=scale)
        improved[scale] = experiments.improve_for(cfg, "cphase")
        improved[scale].feedback = None     # the jitter sweep does not read it
    per_seed, rel_err = {}, {}
    for seed in JITTER_SEEDS:
        prod = _jitter_rows(workloads.make("jitter-2q", seed)[0], improved[1])
        per_seed[seed] = prod
        if seed in JITTER_FINE_SEEDS:
            fine = _jitter_rows(workloads.make("jitter-2q", seed, 2)[0], improved[2])
            for name in prod:
                p, f = workloads.as_array(prod[name]), workloads.as_array(fine[name])
                rel = np.abs(p - f) / np.maximum(np.abs(p), 1e-300)
                rel_err[name] = np.maximum(rel_err.get(name, 0.0), rel)
        print(f"jitter-2q seed {seed} done", file=sys.stderr, flush=True)
    result["jitter-2q"] = {}
    for seed, prod in per_seed.items():
        entries = {}
        for name, value in prod.items():
            p = workloads.as_array(value)
            entries[name] = _entry(p, _tolerance(name, p, rel_err[name] * np.abs(p)))
        result["jitter-2q"][str(seed)] = entries
    return result


if __name__ == "__main__":
    data = record()
    data["recorded_with"] = {
        "numpy": np.__version__,
        "tol_factor": TOL_FACTOR,
        "fine_run": "twice the grid steps, same refine",
        "jitter_fine_seeds": list(JITTER_FINE_SEEDS),
    }
    with open(PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
