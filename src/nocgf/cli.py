"""Command-line interface.

Subcommands: improve (one gate, prints the error report), table
ideal|bandwidth, sweep --param, jitter --powers, spectrum --gate --out.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import experiments
from .config import ConfigError, apply_overrides, default_config, load_config
from .noc import ConsistencyError
from .noise import DegenerateRealizationError
from .propagate import AccuracyError
from .sensitivity import ULP
from .spectral import BandwidthUndefinedError


def _base_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    return apply_overrides(
        cfg,
        gate=[args.gate] if getattr(args, "gate", None) else None,
        steps=getattr(args, "steps", None),
        seed=getattr(args, "seed", None),
        realizations=getattr(args, "realizations", None),
        out=getattr(args, "out", None),
    )


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--gate", help="restrict to one gate")
    p.add_argument("--steps", type=int, help="grid steps for both systems")
    p.add_argument("--seed", type=int, help="master seed")


def _parse_powers(text: str):
    """Comma-separated distinct finite powers >= 0 (compared as floats, so
    1e-3 and 0.001 repeat each other)."""
    try:
        powers = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        powers = []
    if not powers or not all(math.isfinite(pw) and pw >= 0 for pw in powers):
        raise ConfigError(f"--powers must list finite mean powers >= 0, got {text!r}")
    if len(set(powers)) != len(powers):
        raise ConfigError(f"--powers lists a power more than once: {text!r}")
    return powers


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nocgf",
        description="Refine rapid-passage quantum gates with neighboring "
                    "optimal control.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("improve", help="improve one gate and print its report")
    _add_common(p)

    p = sub.add_parser("table", help="emit a results table as CSV")
    p.add_argument("kind", choices=["ideal", "bandwidth"])
    _add_common(p)

    p = sub.add_parser("sweep", help="finite-precision sensitivity sweep")
    params = dict.fromkeys(name for ulps in ULP.values() for name in ulps)
    p.add_argument("--param", required=True,
                   help=f"sweep parameter name ({', '.join(params)})")
    _add_common(p)

    p = sub.add_parser("jitter", help="phase-jitter ensemble sweep")
    p.add_argument("--powers", required=True,
                   help="comma-separated mean noise powers")
    p.add_argument("--realizations", type=int, help="trials per power")
    _add_common(p)

    p = sub.add_parser("spectrum", help="export a control-modification spectrum")
    _add_common(p)
    p.add_argument("--component", default="x", choices=["x", "y", "z"])

    # improve only prints its report; every other command writes --out
    for name in ("table", "sweep", "jitter", "spectrum"):
        sub.choices[name].add_argument("--out", help="output CSV path")
    return ap


# run-time errors reported as one line on stderr with exit code 2
USER_ERRORS = (ConfigError, AccuracyError, ConsistencyError,
               DegenerateRealizationError, BandwidthUndefinedError)


@contextlib.contextmanager
def _writing(path):
    """Report a failed write to the configured output path as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_out(path) -> None:
    """Reject an output path that cannot be written, before any computation:
    it must not be a directory, and its directory must exist and be writable."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(parent):
        reason = "No such file or directory"
    elif not os.access(parent, os.W_OK):
        reason = "Permission denied"
    else:
        return
    raise ConfigError(f"cannot write {path}: {reason}")


def _emit(cfg, header, rows, meta: str) -> int:
    """Write the rows as CSV to cfg.out, or print them when it is unset."""
    text = experiments.render_csv(header, rows, meta)
    if cfg.out:
        with _writing(cfg.out), open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except USER_ERRORS as exc:
        print(f"nocgf: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    cfg = _base_config(args)
    if cfg.out and args.command != "improve":
        _check_out(cfg.out)

    if args.command == "improve":
        if len(cfg.gates) != 1:
            raise ConfigError("improve requires a single --gate")
        name = cfg.gates[0]
        res = experiments.improve_for(cfg, name)
        nom, imp = res.nominal_report, res.improved_report
        print(f"gate: {name} (strategy {res.strategy})")
        print(f"  nominal : TrP = {nom.trace_p:.6e}  d* = {nom.d_star:.6e}  "
              f"fidelity = {nom.fidelity:.6f}")
        print(f"  improved: TrP = {imp.trace_p:.6e}  d* = {imp.d_star:.6e}  "
              f"fidelity = {imp.fidelity:.6f}")
        return 0

    if args.command == "table":
        if args.kind == "ideal":
            return _emit(cfg, experiments.IDEAL_HEADER,
                         experiments.run_ideal_table(cfg), "table ideal")
        return _emit(cfg, experiments.BANDWIDTH_HEADER,
                     experiments.run_bandwidth_table(cfg), "table bandwidth")

    if args.command == "sweep":
        all_rows = []
        for g in cfg.gates:
            if hasattr(cfg.params_for(g), args.param):
                all_rows.extend(experiments.run_sweep(cfg, args.param, g))
        if not all_rows:
            raise ConfigError(f"parameter {args.param!r} applies to none of the gates")
        return _emit(cfg, experiments.SWEEP_HEADER, all_rows, f"sweep {args.param}")

    if args.command == "jitter":
        powers = _parse_powers(args.powers)
        return _emit(cfg, experiments.JITTER_HEADER,
                     experiments.run_jitter_sweep(cfg, powers), "jitter")

    if args.command == "spectrum":
        if len(cfg.gates) != 1:
            raise ConfigError("spectrum requires a single --gate")
        if not cfg.out:
            raise ConfigError("spectrum requires --out")
        with _writing(cfg.out):
            experiments.run_spectrum(cfg, cfg.gates[0], cfg.out, args.component)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
