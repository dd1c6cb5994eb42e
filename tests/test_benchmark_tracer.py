"""The benchmark's span tracer (perfbench/tracer.py) wraps nocgf functions at
the bindings their callers look up, by name.  A renamed or deleted binding
breaks a traced benchmark run, so this runs a small traced pipeline (a
one-qubit improve and a noisy propagation, then a two-qubit improve as an
iteration of its own) and checks that the layers it counts recorded work."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from nocgf import noc, propagate
from nocgf.control import NOMINAL_PARAMS
from nocgf.metrics import gate_target
from nocgf.noise import default_noise_params, sample_realization
from nocgf.propagate import TimeGrid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_record_every_layer():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.iteration = 0
        p = dataclasses.replace(NOMINAL_PARAMS["hadamard"], tau0=20.0)
        noc.improve_gate(gate_target("hadamard"), p, TimeGrid(p.tau0, 10_000))
        grid = TimeGrid(p.tau0, 400)
        delta_f = np.zeros((grid.steps + 1, 3))
        improved = propagate.propagate_sweep(p, grid, delta_f)
        trial = sample_realization(default_noise_params(1, 1e-3, seed=3, sigma=0.1,
                                                        tau_f=None), p.tau0, trial=0)
        propagate.propagate_modified_batch(p, improved, delta_f, [trial])
        # the two-qubit improve alone: a nominal sweep on twice the steps
        # at one substep each, and Strategy 2, whose drive samples and
        # feedback integration must pass through the traced bindings
        tracer.iteration = 1
        p2 = dataclasses.replace(NOMINAL_PARAMS["cphase"], tau0=20.0)
        noc.improve_gate(gate_target("cphase"), p2, TimeGrid(p2.tau0, 5_000))
    finally:
        tracer.restore()
    segments = len(propagate.noisy_segments(grid, trial.edges()))
    assert segments > 0
    metrics = tracing.layer_metrics(tracer.spans, 0)
    # the improve run's nominal and improved sweeps, the improved sweep the
    # noisy run reuses, and one integration per noisy segment
    assert metrics["propagate.propagations"] == 2 + 1 + segments
    assert metrics["propagate.step_maps"] > 0
    assert metrics["noise.evaluate_points"] > 0
    assert metrics["noc.improve_calls_per_gate"] == 1.0
    assert metrics["control.drive_matrix_s"] > 0.0
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["propagate.propagations"] == 2
    assert metrics["noc.improve_calls_per_gate"] == 1.0
    assert metrics["control.drive_matrix_s"] > 0.0
    assert metrics["propagate.integrate_delta_y_s"] > 0.0
    assert metrics["noc.strategy2_solve_self_s"] > 0.0
