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


@pytest.fixture(scope="module")
def hadamard_40k():
    p = NOMINAL_PARAMS["hadamard"]
    return improve_gate(gate_target("hadamard"), p, TimeGrid(p.tau0, 40000))


def test_perturbed_values_and_zero_row(hadamard_40k):
    res = hadamard_40k
    rows = run_sensitivity(res, "lam")
    values = [r.value for r in rows]
    assert values == pytest.approx([7.819, 7.820, 7.821], abs=1e-12)
    # the unperturbed row reproduces the ideal pipeline bit for bit
    assert rows[1].trp_with_noc == res.improved_report.trace_p
    assert rows[1].trp_without_noc == res.nominal_report.trace_p
    # perturbations swamp the corrected gate error
    assert rows[0].trp_with_noc > 10 * rows[1].trp_with_noc
    assert rows[2].trp_with_noc > 10 * rows[1].trp_with_noc


def test_unknown_parameter_rejected(hadamard_40k):
    res = hadamard_40k
    with pytest.raises(ValueError):
        run_sensitivity(res, "zeta")


def test_zero_row_reuses_improve_result_on_its_grid(monkeypatch, hadamard_40k):
    res = hadamard_40k
    propagated = []

    def counting(fn):
        def wrapped(pp, grid, *args, **kwargs):
            propagated.append((pp.lam, grid))
            return fn(pp, grid, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(sensitivity.propagate, "propagate_sweep",
                        counting(sensitivity.propagate.propagate_sweep))
    rows = run_sensitivity(res, "lam")
    assert [r.value for r in rows] == pytest.approx([7.819, 7.820, 7.821], abs=1e-12)
    # two sweeps per perturbed row, all on the improve result's grid
    assert [lam for lam, _ in propagated].count(res.params.lam) == 0
    assert len(propagated) == 4
    assert all(grid == res.control.grid for _, grid in propagated)
