"""Span tracer that instruments nocgf from outside the package.

Each traced function is replaced at the binding its caller looks up (a
module attribute, a copied `from .x import f` name, or a class attribute),
so nothing under src/ changes.  Spans are kept in memory with parent links
and the work done at that boundary (points, maps, propagations, pulses);
per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import time

from nocgf import (control, experiments, lincore, metrics, noc, noise, propagate,
                   sensitivity, spectral)


class Tracer:
    def __init__(self):
        # one record per call: [name, start, end, parent index, iteration, work]
        self.spans = []
        self.iteration = -1
        self._stack = []
        self._originals = []

    def wrap(self, name, fn, work=None):
        """Return fn recording a span; work(args, kwargs, result) -> dict of counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, tracer.iteration, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        return traced

    def replace(self, owner, attr, fn):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def patch(self, owner, attr, name, work=None):
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), work))

    def restore(self):
        """Put every original binding back."""
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)


def _points(args, kwargs, result):
    return {"points": int(math.prod(getattr(args[0], "shape", ())))}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every nocgf layer at their call bindings."""
    for fn in ("improve_for", "run_bandwidth_table", "run_sweep", "run_jitter_sweep"):
        tracer.patch(experiments, fn, f"experiments.{fn}")

    tracer.patch(noc, "improve_gate", "noc.improve_gate",
                 lambda a, k, r: {"gate": (k.get("gate") or a[0]).name})
    tracer.patch(noc, "strategy2_solve", "noc.strategy2_solve")

    # the integrator entry: wrap its generator callback too, so the span's
    # self time is the per-step product loop alone
    integrate = propagate._integrate
    signature = inspect.signature(integrate)

    def traced_integrate(afun, *args, **kwargs):
        bound = signature.bind(afun, *args, **kwargs)
        bound.apply_defaults()
        bound.arguments["afun"] = tracer.wrap("propagate.generator", afun)
        return integrate(*bound.args, **bound.kwargs)

    def integrate_work(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        b = bound.arguments
        batch = math.prod(b["batch"])
        return {"propagations": batch,
                "substeps": b["grid"].steps * b["refine"] * batch}

    tracer.replace(propagate, "_integrate", tracer.wrap(
        "propagate.integrate", traced_integrate, integrate_work))
    tracer.patch(propagate, "step_maps", "propagate.step_maps",
                 lambda a, k, r: {"maps": int(math.prod(r.shape[:-2]))})
    tracer.patch(propagate, "integrate_delta_y", "propagate.integrate_delta_y")

    tracer.patch(control, "sweep_hamiltonian", "control.sweep_hamiltonian", _points)
    tracer.patch(control, "coupling_matrices", "control.coupling_matrices")
    tracer.patch(control, "drive_matrix", "control.drive_matrix")

    # unitarity_defect is imported by name into propagate, control and metrics
    for mod in (lincore, propagate, control, metrics):
        tracer.patch(mod, "unitarity_defect", "lincore.unitarity_defect")

    for fn in ("target_offset", "error_report", "trace_p", "d_star"):
        tracer.patch(metrics, fn, f"metrics.{fn}")

    tracer.patch(noise.NoiseRealization, "evaluate", "noise.evaluate",
                 lambda a, k, r: {"points": int(r.size)})
    tracer.patch(noise, "sample_realization", "noise.sample_realization",
                 lambda a, k, r: {"pulses": r.count})

    tracer.patch(spectral, "control_spectrum", "spectral.control_spectrum")
    tracer.patch(sensitivity, "run_sensitivity", "sensitivity.run_sensitivity",
                 lambda a, k, r: {"rows": len(r)})


def layer_metrics(spans, iteration: int) -> dict:
    """Per-layer metrics of one traced iteration.

    Names ending in `_self_s` are self times (span minus the spans it
    caused); other `_s` names are whole-span times.
    """
    idx = [i for i, s in enumerate(spans) if s[4] == iteration]
    child_time = dict.fromkeys(idx, 0.0)
    for i in idx:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] += spans[i][2] - spans[i][1]

    total, self_time, work, calls = {}, {}, {}, {}
    sensitivity_propagations = 0
    for i in idx:
        name, t0, t1, parent, _, w = spans[i]
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (w or {}).items():
            if isinstance(value, (int, float)):
                work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + value
        if name == "propagate.integrate" and _has_ancestor(
                spans, parent, "sensitivity.run_sensitivity"):
            sensitivity_propagations += w["propagations"]

    gates = {spans[i][5]["gate"] for i in idx if spans[i][0] == "noc.improve_gate"}
    rows = work.get("sensitivity.run_sensitivity.rows", 0)

    def t(name):
        return total.get(name, 0.0)

    def selft(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix))

    return {
        "control.sweep_hamiltonian_s": t("control.sweep_hamiltonian"),
        "control.hamiltonian_points": work.get("control.sweep_hamiltonian.points", 0),
        "control.coupling_matrices_s": t("control.coupling_matrices"),
        "control.drive_matrix_s": t("control.drive_matrix"),
        "propagate.step_maps_s": t("propagate.step_maps"),
        "propagate.step_maps": work.get("propagate.step_maps.maps", 0),
        "propagate.product_self_s": self_time.get("propagate.integrate", 0.0),
        "propagate.generator_self_s": self_time.get("propagate.generator", 0.0),
        "propagate.integrate_delta_y_s": t("propagate.integrate_delta_y"),
        "propagate.propagations": work.get("propagate.integrate.propagations", 0),
        "propagate.substeps": work.get("propagate.integrate.substeps", 0),
        "lincore.unitarity_defect_s": t("lincore.unitarity_defect"),
        "metrics.self_s": selft("metrics."),
        "noc.improve_gate_s": t("noc.improve_gate"),
        "noc.improve_calls_per_gate": (
            calls.get("noc.improve_gate", 0) / len(gates) if gates else 0.0),
        "noc.strategy2_solve_self_s": self_time.get("noc.strategy2_solve", 0.0),
        "noise.evaluate_s": t("noise.evaluate"),
        "noise.evaluate_points": work.get("noise.evaluate.points", 0),
        "noise.pulses": work.get("noise.sample_realization.pulses", 0),
        "spectral.control_spectrum_s": t("spectral.control_spectrum"),
        "sensitivity.run_sensitivity_s": t("sensitivity.run_sensitivity"),
        "sensitivity.propagations_per_row": (
            sensitivity_propagations / rows if rows else 0.0),
        "experiments.self_s": selft("experiments."),
    }


def _has_ancestor(spans, i, name) -> bool:
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False
