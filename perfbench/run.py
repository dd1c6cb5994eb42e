"""nocgf benchmark entry point.

    python3 perfbench/run.py --workload pipeline-1q --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each run starts fresh worker processes that
import nocgf from ./src: SETUP_PROBES that only set up (for setup_s), then
one that runs the workload for --seconds, checks every output against the
recorded fingerprints, and reports peak memory.  With --trace 1 the worker
alternates untraced and traced iterations, and per-layer metrics are
reported instead of end-to-end ones.  The last stdout line is the JSON
result; human-readable lines, with quartiles and sample counts, come first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
# at most nproc threads; one, because the matrices are 2x2..16x16 and a
# single thread keeps the timings steady
THREAD_VARS = ("NOCGF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args, env, deadline):
    """Start a worker, wait for it, return (spawn time, its JSON report)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return t0, json.loads(lines[-1])


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "nocgf" / "__init__.py").is_file():
        print("run from the repository root: src/nocgf not found", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    environment = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "threads": {var: env[var] for var in THREAD_VARS},
    }

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            t0, probe = spawn([*common, "--setup-only"], env, deadline)
            setups.append(probe["ready"] - t0)
        t0, rep = spawn(common, env, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(rep["ready"] - t0)
    environment["numpy"] = rep["numpy"]

    walls = rep["walls"][1::2] if args.trace else rep["walls"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment {json.dumps(environment)}")
    for name, values in (("wall_s", walls), ("setup_s", setups)):
        q1, q3 = quartiles(values)
        print(f"{name} median {statistics.median(values):.4f} s q1 {q1:.4f} "
              f"q3 {q3:.4f} n {len(values)}"
              + (" (traced iterations)" if args.trace and name == "wall_s" else ""))
    print(f"peak_rss_mb {rep['peak_rss_kib'] / 1024:.1f} MiB")
    reference = ("fingerprint compared" if rep["fingerprint_compared"]
                 else "no fingerprint at this seed, reference-free checks only")
    print(f"error_rate {rep['failed'] / rep['attempted']:.4f} "
          f"({rep['failed']} failed of {rep['attempted']} iterations; {reference})")
    for err in rep["errors"]:
        print(f"error: {err}")

    if args.trace:
        values = rep["layers"]
        for m in spec["per_layer"]:
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rep["peak_rss_kib"] / 1024,
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
