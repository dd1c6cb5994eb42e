"""One benchmark process: set up, run workload iterations, check outputs.

Started by run.py with PYTHONPATH pointing at the checkout's src/, once per
set-up probe (--setup-only) and once for the measured run, so set-up time
and peak memory belong to this process alone.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# set-up starts here: interpreter is up, now import nocgf and build the config
import numpy as np

import nocgf
import workloads


def run_iteration(fn, cfg):
    """Run one iteration; returns (wall s, cpu s, outputs or None, error or None)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        outputs, error = fn(cfg), None
    except Exception as exc:  # a failed iteration is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        outputs, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, time.process_time() - c0, outputs, error


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if Path(nocgf.__file__).resolve().parent != (src / "nocgf").resolve():
        print(f"nocgf imported from {nocgf.__file__}, not {src}", file=sys.stderr)
        return 2
    cfg, fn = workloads.make(args.workload, args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import fingerprints
    import tracer as tracing
    reference = fingerprints.load()

    tracer = tracing.Tracer() if args.trace else None
    walls, cpus, errors = [], [], []
    checked = False
    start = time.perf_counter()
    i = 0
    # trace mode alternates untraced and traced iterations, so the overhead
    # ratio compares like with like; the first (cold) iteration is untraced
    while True:
        traced = args.trace and i % 2 == 1
        if traced:
            tracer.iteration = i
            tracing.install(tracer)
        wall, cpu, outputs, error = run_iteration(fn, cfg)
        if traced:
            tracer.restore()
        walls.append(wall)
        cpus.append(cpu)
        if error is not None:
            errors.append(error)
        else:
            found, checked = fingerprints.check(
                reference, args.workload, args.seed, cfg, outputs)
            if found:
                errors.append("; ".join(found))
        del outputs                     # keep the next iteration's peak its own
        i += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or i >= 2):
            break

    report = {
        "ready": ready,
        "walls": walls,
        "cpus": cpus,
        "attempted": len(walls),
        "failed": len(errors),
        "errors": errors,
        "fingerprint_compared": checked,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
    }
    if tracer is not None:
        per_iter = [tracing.layer_metrics(tracer.spans, it)
                    for it in range(1, len(walls), 2)]
        layers = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
        layers["process.cpu_s"] = statistics.median(cpus[1::2])
        layers["trace.overhead_ratio"] = (statistics.median(walls[1::2])
                                          / statistics.median(walls[0::2]))
        report["layers"] = layers
        out = Path(__file__).parent / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "columns": ["name", "start", "end", "parent",
                                   "iteration", "work"],
                       "spans": tracer.spans, "layers": layers}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
