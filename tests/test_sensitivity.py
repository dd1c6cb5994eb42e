import pytest

from nocgf import sensitivity
from nocgf.control import NOMINAL_PARAMS
from nocgf.metrics import gate_target
from nocgf.noc import improve_gate
from nocgf.propagate import TimeGrid
from nocgf.sensitivity import parameter_ulp, run_sensitivity


def test_ulp_table():
    assert parameter_ulp("hadamard", "lam") == 1e-3
    assert parameter_ulp("hadamard", "eta4") == 1e-7
    assert parameter_ulp("cphase", "d1") == 1e-3
    assert parameter_ulp("cphase", "d4") == 1e-4
    assert parameter_ulp("cphase", "c4") == 1e-4
    with pytest.raises(ValueError):
        parameter_ulp("hadamard", "d1")


def test_perturbed_values_and_zero_row():
    p = NOMINAL_PARAMS["hadamard"]
    gate = gate_target("hadamard")
    grid = TimeGrid(p.tau0, 40000)
    res = improve_gate(gate, p, grid)
    rows = run_sensitivity(gate, p, "lam", grid, improved=res)
    values = [r.value for r in rows]
    assert values == pytest.approx([7.819, 7.820, 7.821], abs=1e-12)
    # the unperturbed row reproduces the ideal pipeline bit for bit
    assert rows[1].trp_with_noc == res.improved_report.trace_p
    assert rows[1].trp_without_noc == res.nominal_report.trace_p
    # perturbations swamp the corrected gate error
    assert rows[0].trp_with_noc > 10 * rows[1].trp_with_noc
    assert rows[2].trp_with_noc > 10 * rows[1].trp_with_noc


def test_unknown_parameter_rejected():
    p = NOMINAL_PARAMS["hadamard"]
    with pytest.raises(ValueError):
        run_sensitivity(gate_target("hadamard"), p, "zeta", TimeGrid(p.tau0, 100))


@pytest.mark.parametrize("same_grid", [True, False])
def test_zero_row_reuses_improve_result_on_its_grid(monkeypatch, same_grid):
    p = NOMINAL_PARAMS["hadamard"]
    gate = gate_target("hadamard")
    grid = TimeGrid(p.tau0, 40000)
    res = improve_gate(gate, p, grid)
    # same step count, so the frozen control still fits the other grid
    sweep_grid = grid if same_grid else TimeGrid(p.tau0 - 1.0, grid.steps)
    propagated = []

    def counting(fn):
        def wrapped(pp, *args, **kwargs):
            propagated.append(pp.lam)
            return fn(pp, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(sensitivity.propagate, "propagate_sweep",
                        counting(sensitivity.propagate.propagate_sweep))
    rows = run_sensitivity(gate, p, "lam", sweep_grid, improved=res)
    assert [r.value for r in rows] == pytest.approx([7.819, 7.820, 7.821], abs=1e-12)
    assert propagated.count(p.lam) == (0 if same_grid else 2)
    assert len(propagated) == (4 if same_grid else 6)
