"""Experiment drivers, configs, and CSV emission."""

import builtins
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import hyperwedge
import hyperwedge.experiments as experiments
from hyperwedge.curves import wave_curve
from hyperwedge.euler import GasParams, State
from hyperwedge.experiments import (
    _WG,
    _XGK,
    CoefficientRow,
    ConfigError,
    ExperimentConfig,
    QuadratureWarning,
    RateFit,
    _brentq,
    _qk21,
    _quad,
    fan_l1_distance,
    run_convergence,
    run_special_solution,
    run_stability,
    special_pair,
    wedge_problem,
    write_coeffs_csv,
    write_rate_csv,
    write_stability_csv,
)
from hyperwedge.riemann import sample_riemann_fan, solve_riemann
from hyperwedge.tracking import run


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
    # the last three are retired keys: the carrier slope and the event
    # budget are fixed, not set, and the wall always absorbs a carrier
    for engine in ({"n_events": 3}, {"lambda_hat": 2.0}, {"max_events": 10},
                   {"np_boundary": "absorb"}):
        path.write_text(json.dumps({"scenario": "wedge", "engine": engine}))
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
    with pytest.raises(ConfigError, match="^tau_grid=.* repeats a value$"):
        ExperimentConfig(scenario="wedge", tau_grid=(0.1, 0.05, 0.1))


def test_rate_fit_recovers_power_law():
    taus = (0.1, 0.05, 0.025)
    errors = tuple(3.0 * t * t for t in taus)
    fit = RateFit.from_errors(taus, errors, eps=1e-3, x=1.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ConfigError):
        RateFit.from_errors((0.1, 0.05), (1e-4, 2.5e-5), 1e-3, 1.0)
    # three points on two abscissae are not three grid points
    with pytest.raises(ConfigError, match="distinct"):
        RateFit.from_errors((0.1, 0.1, 0.05), (1e-4, 1e-4, 2.5e-5), 1e-3, 1.0)


@pytest.mark.parametrize("driver, scenario", [(run_convergence, "wedge"),
                                              (run_special_solution, "special")])
def test_rate_drivers_reject_a_short_grid_before_any_solve(monkeypatch, driver, scenario):
    calls = []
    monkeypatch.setattr(experiments, "run", lambda *a, **k: calls.append("run"))
    monkeypatch.setattr(experiments, "_newton_riemann",
                        lambda *a, **k: calls.append("_newton_riemann"))
    cfg = ExperimentConfig(scenario=scenario, tau_grid=(0.1, 0.05))
    with pytest.raises(ConfigError, match="^tau_grid needs >= 3 values for a rate fit, got 2$"):
        driver(cfg)
    assert calls == []


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


def test_special_pair_rejects_a_strength_beyond_the_trust_radius():
    # at gamma=5 the pinning strength, about -3*eps, lies beyond -DELTA_TRUST
    gas5 = GasParams(gamma=5.0, a_inf=1.2, tau=0.0)
    with pytest.raises(ConfigError, match=r"^eps=0\.04 .*trust radius 0\.1"):
        special_pair(0.04, gas5)


def test_special_pair_strength_converges_with_eps(gas0):
    gaps = []
    for eps in (1e-3, 1e-4):
        sigma = special_pair(eps, gas0)[2]
        gaps.append(abs(sigma / eps + 1.2))
    assert gaps[1] < gaps[0] * 0.2  # linear-in-eps defect


def test_special_solution_solves_no_shock_twice(monkeypatch):
    # the fan sampler takes the family-4 wave its Riemann solution holds,
    # and special_pair the state its root finder evaluated at the root
    import hyperwedge.curves as curves
    shock_solve, calls = curves._shock_solve, []

    def counted(U, gas, family, sigma, near=None):
        calls.append((U, gas, family, sigma))
        return shock_solve(U, gas, family, sigma, near)

    monkeypatch.setattr(curves, "_shock_solve", counted)
    for eps in (1e-3, 1e-4):
        calls.clear()
        run_special_solution(ExperimentConfig(scenario="special", eps=eps))
        assert calls and len(set(calls)) == len(calls)


def test_fan_l1_matches_dense_quadrature(gas0):
    eps, tau, x = 1e-3, 0.1, 1.0
    gas_t = gas0.with_tau(tau)
    U_b, U_a, _ = special_pair(eps, gas0)
    solA = solve_riemann(U_b, U_a, gas_t)
    solB = solve_riemann(U_b, U_a, gas0)
    got = fan_l1_distance(solA, gas_t, solB, gas0, U_b, x)

    cuts = {-0.8, 0.8}
    for sol in (solA, solB):
        for span in sol.speeds:
            cuts.update(span)
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


_NO_SCIPY_CHILD = """
import pickle, sys
import hyperwedge, hyperwedge.cli, hyperwedge.experiments, hyperwedge.functionals
from hyperwedge.experiments import ExperimentConfig, run_special_solution
report = run_special_solution(ExperimentConfig(scenario="special"))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
sys.stdout.buffer.write(pickle.dumps((loaded, report)))
"""


def test_nothing_loads_scipy():
    # a fresh interpreter: the oracle tests below import scipy into this one
    src = str(Path(hyperwedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    loaded, report = pickle.loads(out)
    # not even the special solution's root finder and quadrature
    assert loaded == []
    assert report == run_special_solution(ExperimentConfig(scenario="special"))


# ---------------------------------------------------------------------------
# root finder and quadrature
# ---------------------------------------------------------------------------

def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("xtol", [1.0e-16, 1.0e-15])
def test_brentq_matches_scipy_bit_for_bit(xtol):
    from scipy.optimize import brentq
    rng = np.random.default_rng(20)
    families = (lambda x, c: x**3 - c,
                lambda x, c: math.tan(x) - c,
                lambda x, c: math.expm1(x) - c,
                lambda x, c: (x - c)**5)
    for i in range(400):
        c = float(rng.uniform(-1.0, 1.0))
        a, b = float(rng.uniform(-1.5, 0.0)), float(rng.uniform(0.01, 1.5))
        f = (lambda fam: lambda x: fam(x, c))(families[i % len(families)])
        # same-sign brackets and spent iteration budgets must fail alike
        assert (_outcome(_brentq, f, a, b, xtol)
                == _outcome(lambda *args: brentq(*args, xtol=xtol), f, a, b))


def test_brentq_special_pair_brackets():
    from scipy.optimize import brentq
    for gamma, a_inf, eps in ((1.4, 2.0, 1.0e-3), (5.0 / 3.0, 3.0, 1.0e-3),
                              (1.2, 1.5, 1.0e-4)):
        gas0 = GasParams(gamma=gamma, a_inf=a_inf, tau=0.0)
        U_b = State(1.0, 0.0, eps, gas0.p_background)
        target = 1.0 + a_inf * eps
        guess = -(gamma + 1.0) / 2.0 * eps

        def density_miss(sig):
            return wave_curve(U_b, 1, sig, gas0).rho - target

        root = _brentq(density_miss, 3.0 * guess, 0.3 * guess, 1.0e-16)
        assert root == brentq(density_miss, 3.0 * guess, 0.3 * guess, xtol=1.0e-16)
        assert root == special_pair(eps, gas0)[2]


def test_brentq_endpoints_and_sign_check():
    # a zero value at either end is the root, before any sign test
    assert _brentq(lambda x: x - 1.0, 1.0, 3.0, 1.0e-15) == 1.0
    assert _brentq(lambda x: x - 3.0, 1.0, 3.0, 1.0e-15) == 3.0
    assert _brentq(lambda x: -0.0 if x < 0.5 else 1.0, 0.0, 1.0, 1.0e-15) == 0.0
    for f in (lambda x: x * x + 1.0, lambda x: -x * x - 1.0):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, -1.0, 1.0, 1.0e-15)


def test_qk21_tables():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    # the Gauss half of the Kronrod abscissae, positive nodes descending
    assert np.max(np.abs(np.array(_XGK[1::2]) - nodes[5:][::-1])) <= 1.0e-15
    assert np.max(np.abs(np.array(_WG) - weights[5:][::-1])) <= 1.0e-15
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        k21, gauss_gap = _qk21(lambda x: x**k, -1.0, 1.0)
        assert abs(k21 - exact) <= 1.0e-14
        if k < 20:  # the 10-point Gauss rule is exact to degree 19 as well
            assert gauss_gap <= 1.0e-14


@pytest.mark.parametrize("f, a, b, exact", [
    (math.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / x, 1.0, 2.0, math.log(2.0)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
], ids=["exp", "reciprocal", "arctan"])
def test_quad_reaches_relative_tolerance(f, a, b, exact):
    # a smooth integrand meets the bound on one panel, returned unchanged
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        val = _quad(f, a, b)
    assert val == _qk21(f, a, b)[0]
    assert val == pytest.approx(exact, rel=1.0e-12, abs=0.0)


def test_qk21_panel_matches_scipy():
    # where QUADPACK stops after its first panel, it returns that panel's
    # value, which _qk21 must reproduce to the bit
    from scipy.integrate import quad
    rng = np.random.default_rng(21)
    compared = 0
    for _ in range(100):
        k = float(rng.uniform(0.1, 5.0))
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.01, 2.0))
        for f in (lambda x: math.exp(k * x), lambda x: 1.0 / (1.0 + k * x * x)):
            val, _, info = quad(f, a, b, epsabs=1.0e-17, epsrel=1.0e-12,
                                limit=200, full_output=1)
            if info["neval"] == 21:
                compared += 1
                assert _qk21(f, a, b)[0] == val
    assert compared >= 100


def test_quad_warns_once_naming_the_interval():
    # sqrt's kink at 0 leaves the panel's Kronrod-Gauss gap above the bound
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = _quad(math.sqrt, 0.0, 1.0)
    assert [w.category for w in caught] == [QuadratureWarning]
    assert re.search(r"panel on \[0\.0, 1\.0\] misses its error bound: estimate \S+",
                     str(caught[0].message))
    assert val == _qk21(math.sqrt, 0.0, 1.0)[0]
    assert val == pytest.approx(2.0 / 3.0, rel=1.0e-4)


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


def test_wedge_run_carries_plain_floats():
    # numpy scalars in the inflow data or in a shock's post state would
    # carry into every front, slope and station built from them
    cfg = ExperimentConfig(scenario="wedge")
    boundary, data = wedge_problem(cfg)
    traj = run(data, boundary, cfg.engine, cfg.gas(cfg.tau_grid[0]))
    assert len(traj.records) == 44
    assert all(type(r.x) is float for r in traj.records)
    fronts = [f for s in traj.slices for f in s.fronts]
    assert fronts
    for f in fronts:
        values = (f.sigma, f.x0, f.y0, f.speed, *astuple(f.below), *astuple(f.above))
        assert all(type(v) is float for v in values), f


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


def test_zero_boundary_perturbation_keeps_the_wall():
    # the wall-only run then tracks the baseline wall itself: no input,
    # no output gap, and the joint run is the data-only run
    from hyperwedge.tracking import EngineConfig
    cfg = ExperimentConfig(scenario="stability", tau_grid=(0.1,),
                           boundary_perturbation=0.0, engine=EngineConfig(nu=8))
    data, boundary, both = run_stability(cfg).rows
    assert (boundary.input_delta, boundary.output_delta) == (0.0, 0.0)
    assert (both.input_delta, both.output_delta) == (data.input_delta, data.output_delta)


def test_readme_stability_rows_are_pinned(tmp_path):
    # the README's stability config, byte for byte the pinned stability.csv
    # that the CI job also diffs the installed command's output against
    from hyperwedge.tracking import EngineConfig
    cfg = ExperimentConfig(scenario="stability", tau_grid=(0.1,), engine=EngineConfig(nu=8))
    write_stability_csv(run_stability(cfg), str(tmp_path / "stability.csv"))
    pinned = Path(__file__).with_name("stability_rows.csv")
    assert (tmp_path / "stability.csv").read_bytes() == pinned.read_bytes()


def test_run_stability_slices_the_base_run_once_per_station(monkeypatch):
    # 4 stations: the base run is sliced once at each, each of the three
    # cases once at each
    from hyperwedge.tracking import EngineConfig, Trajectory
    calls = []
    slice_at = Trajectory.slice_at

    def counted(self, x):
        calls.append(x)
        return slice_at(self, x)

    monkeypatch.setattr(Trajectory, "slice_at", counted)
    run_stability(ExperimentConfig(scenario="stability", tau_grid=(0.1,),
                                   engine=EngineConfig(nu=8)))
    assert len(calls) == 16


def test_run_stability_uses_the_largest_tau():
    from hyperwedge.tracking import EngineConfig
    reports = [run_stability(ExperimentConfig(scenario="stability", tau_grid=grid,
                                              engine=EngineConfig(nu=8)))
               for grid in ((0.025, 0.1), (0.1, 0.025), (0.1,))]
    assert reports[0] == reports[1] == reports[2]


class _NumpyWithoutDot:
    """``numpy`` with ``dot`` raising: BLAS rounds ``np.dot`` by its core."""

    def __getattr__(self, name):
        if name == "dot":
            raise AssertionError("np.dot called on a per-wave path")
        return getattr(np, name)


def test_default_drivers_run_without_np_dot(monkeypatch):
    # the acoustic field, the carrier gap and the L1 sums are plain-float
    # sums, so their rounding does not depend on the BLAS core
    import hyperwedge.euler
    import hyperwedge.functionals
    import hyperwedge.tracking
    for module in (hyperwedge.euler, hyperwedge.tracking, hyperwedge.functionals):
        monkeypatch.setattr(module, "np", _NumpyWithoutDot())
    assert run_convergence(ExperimentConfig(scenario="wedge")).errors
    assert run_stability(ExperimentConfig(scenario="stability")).rows


def _sum_without_floats(iterable, start=0):
    """Builtin ``sum``, raising on a float item: from Python 3.12 it
    compensates float sums, so a run's floats would follow the version."""
    items = list(iterable)
    if any(isinstance(a, float) for a in items):
        raise AssertionError("builtin sum of floats")
    return builtins.sum(items, start)


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    # the ARS/SRS threshold, the corner tail and the Lyapunov weights add
    # their strengths left to right, not by builtin sum
    import hyperwedge.functionals as functionals
    import hyperwedge.tracking as tracking
    from test_tracking import _curved_case
    for module in (tracking, functionals):
        monkeypatch.setattr(module, "sum", _sum_without_floats, raising=False)
    assert run_convergence(ExperimentConfig(scenario="wedge")).errors
    assert run_stability(ExperimentConfig(scenario="stability")).rows
    data, wall, cfg, gas = _curved_case()
    traj = tracking.run(data, wall, cfg, gas)
    assert functionals.glimm_trace(traj, functionals.GlimmWeights.from_background(gas)).values
    states = tuple(State(s.rho, s.u, s.v + 5e-4, s.p) for s in data.states)
    twin = tracking.run(tracking.InitialData(data.breaks, states), wall, cfg, gas)
    value = functionals.lyapunov_functional(
        traj.slice_at(0.5), twin.slice_at(0.5), wall, wall,
        functionals.LyapunovWeights.from_background(gas), gas, x_horizon=2.0)
    assert value.interior > 0.0 and value.boundary_tail == 0.0


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
