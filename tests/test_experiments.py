"""Experiment drivers, configs, and CSV emission."""

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperwedge
from hyperwedge.euler import GasParams
from hyperwedge.experiments import (
    CoefficientRow,
    ConfigError,
    ExperimentConfig,
    RateFit,
    fan_l1_distance,
    run_convergence,
    run_special_solution,
    run_stability,
    special_pair,
    write_coeffs_csv,
    write_rate_csv,
    write_stability_csv,
)
from hyperwedge.riemann import sample_riemann_fan, solve_riemann


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "wedge",
        "gamma": 1.4,
        "a_inf": 2.0,
        "tau_grid": [0.1, 0.05],
        "wedge_angle": 0.01,
        "data_amplitude": 0.0005,
        "engine": {"nu": 9, "h": 0.0625, "seed": 5},
        "x_station": 0.75,
    }))
    cfg = ExperimentConfig.from_json(str(path))
    assert cfg.scenario == "wedge"
    assert cfg.tau_grid == (0.1, 0.05)
    assert cfg.engine.nu == 9 and cfg.engine.seed == 5
    assert cfg.x_station == 0.75
    assert cfg.gas(0.05) == GasParams(gamma=1.4, a_inf=2.0, tau=0.05)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "wedge", "wedge_slope": 0.01}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(path))
    path.write_text(json.dumps({"scenario": "wedge",
                                "engine": {"n_events": 3}}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(path))
    path.write_text(json.dumps(["scenario"]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(path))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="vortex")
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="wedge", tau_grid=(2.5,))
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="wedge", data_amplitude=0.2)
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="wedge", x_station=5.0)


def test_rate_fit_recovers_power_law():
    taus = (0.1, 0.05, 0.025)
    errors = tuple(3.0 * t * t for t in taus)
    fit = RateFit.from_errors(taus, errors, eps=1e-3, x=1.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ConfigError):
        RateFit.from_errors((0.1, 0.05), (1e-4, 2.5e-5), 1e-3, 1.0)


def test_coefficient_row_rel_err():
    assert CoefficientRow("x", 1.05, 1.0).rel_err == pytest.approx(0.05)
    # absolute error when the closed form is zero
    assert CoefficientRow("y", 1e-4, 0.0).rel_err == pytest.approx(1e-4)


# ---------------------------------------------------------------------------
# the exact two-state comparison
# ---------------------------------------------------------------------------

def test_special_pair_pins_density_jump(gas0):
    eps = 1e-3
    U_b, U_a, sigma = special_pair(eps, gas0)
    assert U_a.rho - U_b.rho == pytest.approx(gas0.a_inf * eps, abs=1e-14)
    assert sigma == pytest.approx(-1.2 * eps, rel=0.01)
    assert special_pair(0.0, gas0)[2] == 0.0


def test_special_pair_strength_converges_with_eps(gas0):
    gaps = []
    for eps in (1e-3, 1e-4):
        sigma = special_pair(eps, gas0)[2]
        gaps.append(abs(sigma / eps + 1.2))
    assert gaps[1] < gaps[0] * 0.2  # linear-in-eps defect


def test_fan_l1_matches_dense_quadrature(gas0):
    eps, tau, x = 1e-3, 0.1, 1.0
    gas_t = gas0.with_tau(tau)
    U_b, U_a, _ = special_pair(eps, gas0)
    solA = solve_riemann(U_b, U_a, gas_t)
    solB = solve_riemann(U_b, U_a, gas0)
    got = fan_l1_distance(solA, gas_t, solB, gas0, U_b, x)

    cuts = {-0.8, 0.8}
    for sol in (solA, solB):
        for j in (1, 2, 3, 4):
            cuts.update(sol.speed_span(j))
    cuts = sorted(cuts)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        # Sample at cell midpoints: the fan sampler is right-continuous, so an
        # endpoint-inclusive rule would pick up the post-jump state exactly at
        # each wave speed and smear the jump into adjacent constant segments.
        edges = np.linspace(a, b, 4097)
        mids = 0.5 * (edges[:-1] + edges[1:])
        vals = [float(np.sum(np.abs(
            sample_riemann_fan(solA, U_b, z, gas_t)
            - sample_riemann_fan(solB, U_b, z, gas0)))) for z in mids]
        total += float(np.sum(vals)) * (b - a) / 4096.0
    assert got == pytest.approx(total * x, rel=1e-8)


def test_run_special_solution_report():
    cfg = ExperimentConfig(scenario="special", tau_grid=(0.1, 0.05, 0.025))
    rep = run_special_solution(cfg)
    assert 1.9 < rep.fit.slope < 2.1
    assert rep.coeff_tau == 0.05
    rows = {r.name: r for r in rep.coefficients}
    assert rows["sigma_a1_over_eps"].rel_err < 0.01
    assert rows["beta1_correction"].rel_err < 0.10
    assert rows["beta4_correction"].rel_err < 0.10
    assert rows["beta2_correction"].rel_err < 1e-3
    # scaled errors are tau-stable: pure quadratic decay
    coeffs = rep.fit.coefficients
    assert max(coeffs) / min(coeffs) < 1.01


def test_special_report_deterministic():
    cfg = ExperimentConfig(scenario="special", tau_grid=(0.1, 0.05, 0.025))
    a = run_special_solution(cfg)
    b = run_special_solution(cfg)
    assert a.fit.errors == b.fit.errors
    assert [r.measured for r in a.coefficients] == [r.measured for r in b.coefficients]


_IMPORT_BUDGET_CHILD = """
import pickle, sys
import hyperwedge, hyperwedge.cli, hyperwedge.experiments, hyperwedge.functionals
loaded = [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]
from hyperwedge.experiments import ExperimentConfig, run_special_solution
report = run_special_solution(ExperimentConfig(scenario="special"))
sys.stdout.buffer.write(pickle.dumps((loaded, report)))
"""


def test_only_the_special_solution_loads_scipy():
    # a fresh interpreter: collecting the acceptance tests has already
    # imported scipy.integrate into this one
    src = str(Path(hyperwedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_CHILD], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    loaded, report = pickle.loads(out)
    # the tracked drivers and the CLI import no scipy solver or quadrature
    assert loaded == []
    # the special solution's function-local imports resolve, to the same report
    assert report == run_special_solution(ExperimentConfig(scenario="special"))


# ---------------------------------------------------------------------------
# tracked sweeps
# ---------------------------------------------------------------------------

def test_run_convergence_wedge_rate():
    cfg = ExperimentConfig(scenario="wedge", tau_grid=(0.1, 0.05, 0.025),
                           wedge_angle=0.01, data_amplitude=1e-3)
    fit = run_convergence(cfg)
    assert 1.9 < fit.slope < 2.1
    assert all(e > 0 for e in fit.errors)
    # errors listed against the descending tau grid
    assert fit.taus == (0.1, 0.05, 0.025)
    assert fit.errors[0] > fit.errors[1] > fit.errors[2]


def test_run_stability_rows():
    from hyperwedge.tracking import EngineConfig
    cfg = ExperimentConfig(scenario="stability", tau_grid=(0.1,),
                           data_perturbation=1e-3, boundary_perturbation=1e-3,
                           engine=EngineConfig(nu=8))
    rep = run_stability(cfg)
    assert [r.case for r in rep.rows] == ["data", "boundary", "both"]
    for r in rep.rows:
        assert r.input_delta > 0 and r.output_delta > 0
        assert r.ratio == r.output_delta / r.input_delta
    assert rep.max_ratio == max(r.ratio for r in rep.rows)
    assert rep.max_ratio < 50.0


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_csv_formats(tmp_path):
    cfg = ExperimentConfig(scenario="special", tau_grid=(0.1, 0.05, 0.025))
    rep = run_special_solution(cfg)
    rate = tmp_path / "rate.csv"
    coeffs = tmp_path / "coeffs.csv"
    write_rate_csv(rep.fit, str(rate))
    write_coeffs_csv(rep.coefficients, str(coeffs))
    rl = rate.read_text().splitlines()
    assert rl[0] == "tau,E,E_over_eps_x_tau2"
    assert len(rl) == 4
    tau0, e0, c0 = rl[1].split(",")
    assert float(tau0) == 0.1 and float(e0) == rep.fit.errors[0]
    cl = coeffs.read_text().splitlines()
    assert cl[0] == "name,measured,closed_form,rel_err"
    assert [ln.split(",")[0] for ln in cl[1:]] == [r.name for r in rep.coefficients]

    # byte-identical on re-run
    write_rate_csv(run_special_solution(cfg).fit, str(tmp_path / "rate2.csv"))
    assert (tmp_path / "rate2.csv").read_text() == rate.read_text()


def test_stability_csv(tmp_path):
    from hyperwedge.tracking import EngineConfig
    cfg = ExperimentConfig(scenario="stability", tau_grid=(0.1,),
                           engine=EngineConfig(nu=8))
    rep = run_stability(cfg)
    out = tmp_path / "stability.csv"
    write_stability_csv(rep, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "case,input_delta,output_delta,ratio"
    assert len(lines) == 4
    for ln, row in zip(lines[1:], rep.rows):
        name, i, o, r = ln.split(",")
        assert name == row.case
        assert float(i) == row.input_delta and float(o) == row.output_delta
