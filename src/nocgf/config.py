"""Experiment configuration: JSON ingestion, validation and defaults.

Precedence is CLI flags > config file > built-in defaults.  Unknown keys are
rejected so typos fail loudly.  `_defaults` is the one home of every
experiment default, the noise model's included (an unset noise.tau_f is the
per-system lifetime of noise.default_noise_params).  The ExperimentConfig
fields are its keys, so a new key needs only `_defaults` and the dataclass.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass

from .control import NOMINAL_PARAMS
from .metrics import GATE_ORDER
from .propagate import DEFAULT_STEPS_1Q, DEFAULT_STEPS_2Q, TimeGrid

DEFAULT_SEED = 20260808


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


def _defaults() -> dict:
    return {
        "gates": list(GATE_ORDER),
        "steps": {"one_qubit": DEFAULT_STEPS_1Q, "two_qubit": DEFAULT_STEPS_2Q},
        "sweep_overrides": {},
        "t_phys_us": {"one_qubit": 1.0, "two_qubit": 5.0},
        "noise": {
            "sigma": 0.1,
            "tau_f": None,          # None -> per system, see noise.default_noise_params
            "realizations": 10,
            "seed": None,           # None -> master seed
            "f_clock_hz": 1.0e9,
        },
        "seed": DEFAULT_SEED,
        "out": None,
    }


def _check_keys(section: dict, allowed, path: str = ""):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        names = ", ".join(f"{path}.{key}" if path else key for key in unknown)
        raise ConfigError(f"unknown key(s) {names}")


def _merged(raw: dict) -> dict:
    cfg = _defaults()
    _check_keys(raw, cfg)
    for key, value in raw.items():
        if isinstance(cfg[key], dict) and key != "sweep_overrides":
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object")
            _check_keys(value, cfg[key], key)
            cfg[key].update(value)
        else:
            cfg[key] = copy.deepcopy(value)
    return cfg


def _is_real(value) -> bool:
    """A finite int or float; bools and strings are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_number(value, path: str, allow_zero: bool = False):
    if not (_is_real(value) and (value >= 0 if allow_zero else value > 0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ConfigError(f"{path} must be a finite number {bound}, got {value!r}")


def _check_int(value, path: str, minimum: int):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{path} must be an integer >= {minimum}, got {value!r}")


def _validate(cfg: dict) -> None:
    if not isinstance(cfg["gates"], (list, tuple)):
        raise ConfigError("gates must be a list of gate names")
    for k, g in enumerate(cfg["gates"]):
        if g not in GATE_ORDER:
            raise ConfigError(f"unknown gate {g!r} in gates")
        if g in cfg["gates"][:k]:
            raise ConfigError(f"gate {g!r} is repeated in gates")
    for key in ("one_qubit", "two_qubit"):
        _check_int(cfg["steps"][key], f"steps.{key}", 1)
        _check_number(cfg["t_phys_us"][key], f"t_phys_us.{key}")
    nz = cfg["noise"]
    _check_number(nz["sigma"], "noise.sigma")
    if nz["tau_f"] is not None:
        _check_number(nz["tau_f"], "noise.tau_f")
    _check_int(nz["realizations"], "noise.realizations", 1)
    if nz["seed"] is not None:
        _check_int(nz["seed"], "noise.seed", 0)
    _check_number(nz["f_clock_hz"], "noise.f_clock_hz")
    _check_int(cfg["seed"], "seed", 0)
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path string or null, got {cfg['out']!r}")
    if not isinstance(cfg["sweep_overrides"], dict):
        raise ConfigError("sweep_overrides must be an object")
    for gname, over in cfg["sweep_overrides"].items():
        if gname not in GATE_ORDER:
            raise ConfigError(f"sweep_overrides for unknown gate {gname!r}")
        path = f"sweep_overrides.{gname}"
        if not isinstance(over, dict):
            raise ConfigError(f"{path} must be an object")
        base = NOMINAL_PARAMS[gname]
        _check_keys(over, [f.name for f in dataclasses.fields(base)], path)
        for key, value in over.items():
            if not _is_real(value):
                raise ConfigError(f"{path}.{key} must be a finite number, got {value!r}")
        # the SweepParams constructor checks the ranges
        try:
            dataclasses.replace(base, **over)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    gates: tuple
    steps: dict
    sweep_overrides: dict
    t_phys_us: dict
    noise: dict
    seed: int
    out: str | None

    def params_for(self, gate_name: str):
        base = NOMINAL_PARAMS[gate_name]
        over = self.sweep_overrides.get(gate_name, {})
        return dataclasses.replace(base, **over) if over else base

    def grid_for(self, p) -> TimeGrid:
        steps = self.steps["one_qubit"] if p.qubits == 1 else self.steps["two_qubit"]
        return TimeGrid(p.tau0, steps)

    def t_phys_for(self, p) -> float:
        key = "one_qubit" if p.qubits == 1 else "two_qubit"
        return self.t_phys_us[key] * 1e-6

    def noise_seed(self) -> int:
        return self.seed if self.noise["seed"] is None else self.noise["seed"]


def config_from_dict(raw: dict) -> ExperimentConfig:
    cfg = _merged(raw)
    _validate(cfg)
    return ExperimentConfig(**{**cfg, "gates": tuple(cfg["gates"])})


def default_config() -> ExperimentConfig:
    return config_from_dict({})


def load_config(path) -> ExperimentConfig:
    """Parse, default and validate a UTF-8 JSON config file; empty = defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if not text.strip():
        return default_config()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(raw)


def apply_overrides(cfg: ExperimentConfig, *, gate=None, steps=None, seed=None,
                    realizations=None, out=None) -> ExperimentConfig:
    """Fold CLI flag values over a loaded config; cfg itself is not changed."""
    raw = dataclasses.asdict(cfg)     # deep copies of the dict fields
    if gate is not None:
        raw["gates"] = [g.strip().lower() for g in gate]
    if steps is not None:
        raw["steps"] = {"one_qubit": steps, "two_qubit": steps}
    if seed is not None:
        raw["seed"] = seed
    if realizations is not None:
        raw["noise"]["realizations"] = realizations
    if out is not None:
        raw["out"] = out
    return config_from_dict(raw)
