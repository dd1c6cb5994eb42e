from dataclasses import replace

import pytest

from nocgf import sensitivity
from nocgf.control import NOMINAL_PARAMS
from nocgf.metrics import gate_target, trace_p
from nocgf.noc import improve_gate
from nocgf.propagate import TimeGrid, propagate_sweep
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
    finals, integrations = [], []
    propagate = sensitivity.propagate

    def counting_finals(members, grid, delta_f):
        finals.append((members, grid, delta_f))
        return propagate_finals(members, grid, delta_f)

    def counting_integrate(afun, grid, dim, batch=(), *args, **kwargs):
        integrations.append((grid, batch, kwargs.get("store")))
        return integrate(afun, grid, dim, batch, *args, **kwargs)

    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sensitivity integrates no single sweep")

    propagate_finals, integrate = propagate.propagate_finals, propagate._integrate
    monkeypatch.setattr(propagate, "propagate_finals", counting_finals)
    monkeypatch.setattr(propagate, "_integrate", counting_integrate)
    monkeypatch.setattr(propagate, "propagate_sweep", no_sweep)
    rows = run_sensitivity(res, "lam")
    assert [r.value for r in rows] == pytest.approx([7.819, 7.820, 7.821], abs=1e-12)
    # one final-only integration of 4 members, (-1, +1 ULP) x (with, without
    # the correction), on the improve result's grid; none at the unperturbed
    # value, whose row is the improve result's own
    assert integrations == [(res.control.grid, (4,), "final")]
    ((members, grid, delta_f),) = finals
    assert grid == res.control.grid and delta_f is res.control.samples
    assert [controlled for _, controlled in members] == [True, False, True, False]
    lams = [p.lam for p, _ in members]
    assert lams == [rows[0].value] * 2 + [rows[2].value] * 2
    assert res.params.lam not in lams
    assert all(replace(p, lam=res.params.lam) == res.params for p, _ in members)


def test_perturbed_rows_match_separate_sweeps(hadamard_40k):
    # the batched finals are those of the four separate grid-stored sweeps
    res = hadamard_40k
    rows = run_sensitivity(res, "eta4")
    grid, delta_f = res.control.grid, res.control.samples
    target = res.gate.sweep_unitary
    for row in (rows[0], rows[2]):
        pp = replace(res.params, eta4=row.value)
        with_noc = propagate_sweep(pp, grid, delta_f).final
        without = propagate_sweep(pp, grid).final
        assert row.trp_with_noc == trace_p(with_noc, target)
        assert row.trp_without_noc == trace_p(without, target)
