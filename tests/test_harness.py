import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from nocgf import cli, experiments, noc, propagate
from nocgf.config import (
    ConfigError,
    apply_overrides,
    config_from_dict,
    default_config,
    load_config,
)


def test_every_public_export_resolves():
    import nocgf

    # a stale name in __all__ raises AttributeError here
    assert len(set(nocgf.__all__)) == len(nocgf.__all__)
    for name in nocgf.__all__:
        getattr(nocgf, name)


def test_default_config_roundtrip():
    cfg = default_config()
    again = config_from_dict(dataclasses.asdict(cfg))
    assert again == cfg
    assert cfg.gates == ("not", "hadamard", "pi8", "phase", "cphase")
    assert cfg.steps == {"one_qubit": 160000, "two_qubit": 120000}
    assert cfg.t_phys_us == {"one_qubit": 1.0, "two_qubit": 5.0}
    assert "power" not in cfg.noise      # jitter takes its powers from --powers
    assert cfg.noise["f_clock_hz"] == 1.0e9


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("")
    assert load_config(path) == default_config()


def test_apply_overrides_leaves_the_original_config_unchanged():
    cfg = config_from_dict({"sweep_overrides": {"hadamard": {"lam": 2.0}},
                            "noise": {"sigma": 0.2}})
    before = dataclasses.asdict(cfg)
    new = apply_overrides(cfg, realizations=3)
    assert new.noise["realizations"] == 3 and cfg.noise["realizations"] == 10
    new.noise["sigma"] = 0.5
    new.sweep_overrides["hadamard"]["lam"] = 3.0
    new.sweep_overrides["not"] = {"lam": 4.0}
    assert dataclasses.asdict(cfg) == before
    assert cfg.params_for("hadamard").lam == 2.0


def test_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "gates": [}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"gatez": []})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"noise": {"powerr": 1.0}})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) noise\.power$"):
        config_from_dict({"noise": {"power": 0.001}})
    with pytest.raises(ConfigError):
        config_from_dict({"sweep_overrides": {"hadamard": {"d9": 1.0}}})
    # the allowed keys are the fields of the gate's sweep parameters: a
    # two-qubit field is unknown for a one-qubit gate
    with pytest.raises(ConfigError, match=r"^unknown key\(s\) sweep_overrides\.hadamard\.c4, "
                                          r"sweep_overrides\.hadamard\.d1$"):
        config_from_dict({"sweep_overrides": {"hadamard": {"d1": 1.0, "c4": 0.0}}})
    cfg = config_from_dict({"sweep_overrides": {"cphase": {"d1": 1.0, "c4": 0.0}}})
    assert cfg.params_for("cphase").d1 == 1.0


def test_range_validation():
    with pytest.raises(ConfigError, match="steps"):
        config_from_dict({"steps": {"one_qubit": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"gates": ["toffoli"]})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("raw,path", [
    ({"sweep_overrides": {"hadamard": {"lam": -1}}}, "sweep_overrides.hadamard"),
    ({"sweep_overrides": {"hadamard": {"lam": "x"}}}, "sweep_overrides.hadamard"),
    ({"sweep_overrides": {"hadamard": {"tau0": True}}}, "sweep_overrides.hadamard"),
    ({"sweep_overrides": {"cphase": {"d1": NAN}}}, "sweep_overrides.cphase"),
    ({"sweep_overrides": {"cphase": {"eta4": 0.0}}}, "sweep_overrides.cphase"),
    ({"sweep_overrides": {"cphase": {"d3": 1.0}}}, "sweep_overrides.cphase"),
    ({"sweep_overrides": {"not": [1.0]}}, "sweep_overrides.not"),
    ({"sweep_overrides": []}, "sweep_overrides"),
    ({"noise": {"sigma": "x"}}, "noise.sigma"),
    ({"noise": {"sigma": NAN}}, "noise.sigma"),
    ({"noise": {"tau_f": INF}}, "noise.tau_f"),
    ({"noise": {"tau_f": 0}}, "noise.tau_f"),
    ({"noise": {"power": 0.001}}, "noise.power"),     # no longer a key
    ({"noise": {"f_clock_hz": None}}, "noise.f_clock_hz"),
    ({"noise": {"realizations": "3"}}, "noise.realizations"),
    ({"noise": {"realizations": True}}, "noise.realizations"),
    ({"noise": {"seed": 1.5}}, "noise.seed"),
    ({"t_phys_us": {"one_qubit": "1"}}, "t_phys_us.one_qubit"),
    ({"t_phys_us": {"two_qubit": -INF}}, "t_phys_us.two_qubit"),
    ({"steps": {"two_qubit": 1.5}}, "steps.two_qubit"),
    ({"steps": {"one_qubit": True}}, "steps.one_qubit"),
    ({"seed": "7"}, "seed"),
    ({"seed": False}, "seed"),
    ({"gates": "hadamard"}, "gates"),
    ({"out": 5}, "out"),
    ({"gates": ["not", "hadamard", "not"]}, "gate 'not' is repeated"),
])
def test_config_values_are_validated_at_load(raw, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_dict(raw)


def test_valid_numbers_pass_validation():
    cfg = config_from_dict({
        "sweep_overrides": {"cphase": {"d1": -3, "c4": 0.0}},
        "noise": {"sigma": 1, "tau_f": 0.2, "seed": 0},
        "t_phys_us": {"one_qubit": 2},
        "seed": 0,
    })
    assert cfg.params_for("cphase").d1 == -3
    assert cfg.noise_seed() == 0


@pytest.mark.parametrize("text", [
    '{"sweep_overrides": {"hadamard": {"lam": -1}}}',
    '{"noise": {"sigma": "x"}}',
    '{"noise": {"sigma": NaN}}',
    '{"out": 5}',
    '{"gates": ["not", "not"]}',
])
def test_cli_reports_a_bad_config_value_in_one_line(tmp_path, capsys, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    rc = cli.main(["improve", "--gate", "hadamard", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: ") and err.count("\n") == 1


@pytest.mark.parametrize("case,message", [
    ("missing config", "cannot read config"),
    ("non-UTF-8 config", "not UTF-8"),
    ("unwritable --out", "cannot write"),
])
def test_cli_file_errors_are_one_line_with_exit_code_2(tmp_path, capsys, case,
                                                       message):
    path = tmp_path / {"missing config": "missing.json",
                       "non-UTF-8 config": "latin1.json",
                       "unwritable --out": "nodir/x.csv"}[case]
    if case == "unwritable --out":
        argv = ["table", "ideal", "--gate", "not", "--steps", "40000",
                "--out", str(path)]
    else:
        if case == "non-UTF-8 config":
            path.write_bytes('{"gates": ["caf\u00e9"]}'.encode("latin-1"))
        argv = ["improve", "--gate", "hadamard", "--config", str(path)]
    rc = cli.main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: ") and err.count("\n") == 1
    assert message in err and str(path) in err


def test_sweep_override_changes_params():
    cfg = config_from_dict({"sweep_overrides": {"hadamard": {"lam": 7.821}}})
    assert cfg.params_for("hadamard").lam == 7.821
    assert cfg.params_for("not").lam == 6.965


def test_format_value():
    assert experiments.format_value(0.000123456789) == "1.23457e-04"
    assert experiments.format_value(1.23456789) == "1.23457"
    assert experiments.format_value(0.0) == "0"
    assert experiments.format_value(5) == "5"


def _coarse_cfg(**kw):
    raw = {"steps": {"one_qubit": 40000, "two_qubit": 60000}}
    raw.update(kw)
    return config_from_dict(raw)


def test_ideal_table_rows_and_gate_filter():
    cfg = _coarse_cfg(gates=["hadamard"])
    rows = experiments.run_ideal_table(cfg)
    assert len(rows) == 1
    assert rows[0][0] == "hadamard"
    full = experiments.run_ideal_table(_coarse_cfg(gates=["not", "hadamard"]))
    row_h = [r for r in full if r[0] == "hadamard"][0]
    assert row_h == rows[0]   # filtered run equals the matching row of a full run


def test_csv_determinism_excluding_timestamp():
    cfg = _coarse_cfg(gates=["not"])
    rows1 = experiments.run_ideal_table(cfg)
    rows2 = experiments.run_ideal_table(cfg)
    t1 = experiments.render_csv(experiments.IDEAL_HEADER, rows1)
    t2 = experiments.render_csv(experiments.IDEAL_HEADER, rows2)
    assert t1.splitlines()[1:] == t2.splitlines()[1:]


def test_bandwidth_mhz_halves_when_gate_time_doubles():
    cfg1 = _coarse_cfg(gates=["hadamard"])
    res = {"hadamard": experiments.improve_for(cfg1, "hadamard")}
    rows1 = experiments.run_bandwidth_table(cfg1, results=res)
    cfg2 = config_from_dict({
        "steps": {"one_qubit": 40000, "two_qubit": 60000},
        "gates": ["hadamard"],
        "t_phys_us": {"one_qubit": 2.0, "two_qubit": 5.0},
    })
    rows2 = experiments.run_bandwidth_table(cfg2, results=res)
    assert rows1[0][1] == pytest.approx(rows2[0][1])          # omega01 unchanged
    assert rows2[0][2] == pytest.approx(rows1[0][2] / 2.0)    # MHz halves


def test_jitter_zero_power_rows():
    cfg = config_from_dict({
        "steps": {"one_qubit": 40000, "two_qubit": 60000},
        "gates": ["hadamard"],
        "noise": {"realizations": 3},
    })
    rows = experiments.run_jitter_sweep(cfg, [0.0])
    _, power, sigma_t, mean, std, sem, nreal, *_ = rows[0]
    res = experiments.improve_for(cfg, "hadamard")
    assert power == 0.0 and sigma_t == 0.0 and nreal == 3
    # every trial is the improved gate itself
    assert mean == res.improved_report.trace_p
    assert std == 0.0 and sem == 0.0


def test_jitter_rows_carry_the_standard_error_of_the_mean():
    cfg = config_from_dict({
        "steps": {"one_qubit": 40000, "two_qubit": 60000},
        "gates": ["hadamard"],
        "noise": {"realizations": 4},
    })
    (row,) = experiments.run_jitter_sweep(cfg, [1e-3])
    assert len(row) == len(experiments.JITTER_HEADER)
    named = dict(zip(experiments.JITTER_HEADER, row))
    assert named["std_trp"] > 0.0
    assert named["sem_trp"] == named["std_trp"] / 2.0
    assert named["realizations"] == 4


def _count_improve_calls(monkeypatch, fail=False):
    calls = []
    real = experiments.improve_for

    def counting(cfg, name):
        calls.append(name)
        if fail:
            raise AssertionError("improve_for must not run")
        return real(cfg, name)

    monkeypatch.setattr(experiments, "improve_for", counting)
    return calls


def test_jitter_improves_once_per_gate(monkeypatch):
    cfg = config_from_dict({
        "steps": {"one_qubit": 40000, "two_qubit": 60000},
        "gates": ["hadamard"],
        "noise": {"realizations": 1},
    })
    calls = _count_improve_calls(monkeypatch)
    rows = experiments.run_jitter_sweep(cfg, [0.0, 6.25e-5])
    assert calls == ["hadamard"]
    assert [r[1] for r in rows] == [0.0, 6.25e-5]


@pytest.mark.parametrize("power", [float("nan"), float("inf"), -1.0])
def test_jitter_rejects_bad_power_before_improving(monkeypatch, power):
    cfg = config_from_dict({"gates": ["hadamard"]})
    calls = _count_improve_calls(monkeypatch, fail=True)
    with pytest.raises(ValueError, match="mean_power"):
        experiments.run_jitter_sweep(cfg, [1e-3, power])
    assert calls == []


# a repeated power, compared as a float, would print a duplicate row
@pytest.mark.parametrize("powers", [",", "", "x", "1e-3,abc", "nan", "inf", "-1",
                                    "0,0", "1e-3,6.25e-5,0.001"])
def test_cli_jitter_rejects_bad_powers(monkeypatch, capsys, powers):
    calls = _count_improve_calls(monkeypatch, fail=True)
    rc = cli.main(["jitter", "--powers", powers, "--gate", "hadamard"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: --powers") and err.count("\n") == 1
    assert calls == []


def test_cli_improve_and_tables(tmp_path, capsys):
    rc = cli.main(["improve", "--gate", "hadamard", "--steps", "40000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "improved: TrP" in out

    out_csv = tmp_path / "ideal.csv"
    rc = cli.main(["table", "ideal", "--gate", "not", "--steps", "40000",
                   "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# nocgf")
    assert lines[1].split(",")[0] == "gate"
    assert lines[2].split(",")[0] == "not"


def test_cli_improve_rejects_out(tmp_path, capsys):
    # improve prints its report and writes no file, so --out is a usage error
    out_csv = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["improve", "--gate", "hadamard", "--out", str(out_csv)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cli_sweep_and_spectrum(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--param", "lam", "--gate", "hadamard",
                   "--steps", "40000", "--out", str(sweep_csv)])
    assert rc == 0
    lines = sweep_csv.read_text().splitlines()
    assert lines[1] == "parameter,value,trp_with_noc,trp_without_noc"
    assert len(lines) == 5

    spec_csv = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--gate", "hadamard", "--steps", "40000",
                   "--out", str(spec_csv)])
    assert rc == 0
    assert spec_csv.read_text().splitlines()[0] == "omega,magnitude"


def test_cli_jitter(tmp_path):
    out_csv = tmp_path / "jitter.csv"
    rc = cli.main(["jitter", "--powers", "0", "--gate", "hadamard",
                   "--steps", "40000", "--realizations", "2",
                   "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[1] == ("gate,power,sigma_t_ps,mean_trp,std_trp,sem_trp,"
                        "realizations,steps,seed,version")
    assert len(lines) == 3
    row = lines[2].split(",")
    assert row[0] == "hadamard" and row[5] == "0" and row[6] == "2"


@pytest.mark.parametrize("argv", [
    ["table", "ideal"],
    ["table", "bandwidth"],
    ["sweep", "--param", "lam"],
    ["jitter", "--powers", "1e-3"],
    ["spectrum"],
])
@pytest.mark.parametrize("out", ["nodir/x.csv", "."])
def test_cli_rejects_an_unwritable_out_before_computing(tmp_path, monkeypatch,
                                                         capsys, argv, out):
    def fail(*args, **kwargs):
        raise AssertionError("improve_gate must not run")

    monkeypatch.setattr(noc, "improve_gate", fail)
    monkeypatch.chdir(tmp_path)
    rc = cli.main([*argv, "--gate", "hadamard", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nocgf: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["improve", "--gate", "nope"], "unknown gate"),
    (["improve", "--gate", "hadamard", "--steps", "0"], "steps"),
    (["jitter", "--powers", "1e-3", "--gate", "hadamard", "--realizations", "0"],
     "realizations"),
    (["improve", "--gate", "hadamard", "--steps", "500"], "unitarity defect"),
    (["sweep", "--param", "tau0", "--gate", "hadamard", "--steps", "40000"],
     "no printed-precision entry"),
    (["improve"], "improve requires a single --gate"),
    (["spectrum"], "spectrum requires a single --gate"),
    (["spectrum", "--gate", "hadamard"], "spectrum requires --out"),
    (["sweep", "--param", "d1", "--gate", "hadamard"], "applies to none"),
    # 50 steps overflow the step maps to inf and NaN
    (["improve", "--gate", "hadamard", "--steps", "50"], "unitarity defect inf"),
    (["improve", "--gate", "cphase", "--steps", "50"], "unitarity defect nan"),
])
def test_cli_errors_are_one_line_with_exit_code_2(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: ") and err.count("\n") == 1
    assert message in err
    assert [str(w.message) for w in caught] == []     # numpy prints none either


def test_python_m_nocgf_runs_the_cli_from_a_checkout():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "nocgf", "improve", "--gate", "nope"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("nocgf: ") and run.stderr.count("\n") == 1
    assert "unknown gate" in run.stderr and run.stdout == ""


def test_cli_jitter_reports_an_exceeded_step_doubling_budget(capsys, monkeypatch):
    monkeypatch.setattr(propagate, "DOUBLING_BUDGET", 0.0)
    rc = cli.main(["jitter", "--powers", "1e-3", "--gate", "hadamard",
                   "--steps", "40000", "--realizations", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: step-doubling error estimate ")
    assert err.count("\n") == 1 and "exceeds budget 0.000e+00" in err


def test_cli_improve_reports_an_exceeded_energy_balance(capsys, monkeypatch):
    monkeypatch.setattr(noc, "ENERGY_BALANCE_BUDGET", 0.0)
    rc = cli.main(["improve", "--gate", "cphase", "--steps", "60000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: Riccati energy balance ")
    assert err.count("\n") == 1 and "exceeds budget 0.000e+00" in err


def test_cli_sweep_skips_only_gates_without_the_parameter(capsys):
    rc = cli.main(["sweep", "--param", "d1", "--gate", "hadamard"])
    assert rc == 2
    assert "applies to none" in capsys.readouterr().err


def test_cli_sweep_takes_the_gate_as_improve_does(monkeypatch):
    gates = []

    def recording(cfg, parameter, gate_name, results=None):
        gates.append(gate_name)
        return [(parameter, 0.0, 0.0, 0.0)]

    monkeypatch.setattr(experiments, "run_sweep", recording)
    assert cli.main(["sweep", "--param", "eta4", "--gate", " Hadamard"]) == 0
    assert gates == ["hadamard"]


def test_cli_sweep_does_not_hide_other_errors(monkeypatch):
    def failing(cfg, parameter, gate_name, results=None):
        raise ValueError("boom")

    monkeypatch.setattr(experiments, "run_sweep", failing)
    with pytest.raises(ValueError, match="boom"):
        cli.main(["sweep", "--param", "lam", "--gate", "hadamard"])


def test_cli_sweep_rejects_a_parameter_without_a_ulp_before_improving(monkeypatch, capsys):
    # tau0 is a cphase sweep parameter without a printed-precision entry
    calls = _count_improve_calls(monkeypatch, fail=True)
    rc = cli.main(["sweep", "--param", "tau0", "--gate", "cphase"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: no printed-precision entry for 'tau0'")
    assert err.count("\n") == 1
    assert calls == []


def test_cli_reports_an_undefined_bandwidth_in_one_line(capsys):
    # at 40,000 steps the not gate's spectrum is still above its 10%
    # threshold at the Nyquist frequency
    rc = cli.main(["table", "bandwidth", "--gate", "not", "--steps", "40000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nocgf: ") and captured.err.count("\n") == 1
    assert "Nyquist frequency" in captured.err and captured.out == ""


def test_cli_rejects_a_one_step_two_qubit_grid_before_integrating(tmp_path, capsys,
                                                                  monkeypatch):
    # a sweep this short keeps a one-step grid unitary, so nothing but the
    # step count stops the run
    path = tmp_path / "short.json"
    path.write_text('{"sweep_overrides": {"cphase": {"tau0": 0.001}}}')
    # an integration would fail with a TypeError, not a one-line error
    monkeypatch.setattr(propagate, "_integrate", None)
    rc = cli.main(["improve", "--gate", "cphase", "--steps", "1",
                   "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nocgf: ") and err.count("\n") == 1
    assert "at least 2 steps, got 1" in err
