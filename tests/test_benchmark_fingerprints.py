"""The benchmark's output check (perfbench/fingerprints.py) on one
iteration of each workload: the hadamard improve, bandwidth and eta4
sensitivity outputs of `pipeline-1q`, and the cphase Tr P under noise of
`jitter-2q`, must stay within their recorded tolerances, so a change to the
one-qubit kernels or to the noisy path is checked against the recorded
results here and not only in a benchmark run.  The modules are loaded from
their files, as the benchmark's worker imports them, without changing
perfbench/."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # fingerprints.py imports its sibling as the top-level module `workloads`
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _check(monkeypatch, workload, seed):
    workloads = _load("workloads", monkeypatch)
    fingerprints = _load("fingerprints", monkeypatch)
    cfg, iteration = workloads.make(workload, seed)
    problems, checked = fingerprints.check(
        fingerprints.load(), workload, seed, cfg, iteration(cfg))
    assert problems == []
    assert checked


def test_pipeline_1q_matches_its_fingerprint(monkeypatch):
    _check(monkeypatch, "pipeline-1q", 3)


def test_jitter_2q_matches_its_fingerprint(monkeypatch):
    _check(monkeypatch, "jitter-2q", 7)
