"""End-to-end exercise of the command-line surface through click's runner."""

import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import hyperwedge.experiments as experiments
from hyperwedge.cli import main
from hyperwedge.tracking import EngineConfig

# Background free stream at gamma=1.4, a=2: rho=1, u=v=0, p = 1/(gamma a^2).
BG = "1,0,0,0.17857142857142858"

WEDGE_CFG = {
    "scenario": "wedge",
    "tau_grid": [0.1, 0.05, 0.025],
    "wedge_angle": 0.01,
    "data_amplitude": 1e-3,
    "engine": {"nu": 8, "h": 0.03125, "seed": 0, "x_end": 1.0},
    "x_station": 1.0,
}

STAB_CFG = {
    "scenario": "stability",
    "tau_grid": [0.1],
    "wedge_angle": 0.01,
    "data_amplitude": 1e-3,
    "data_perturbation": 1.5e-3,
    "boundary_perturbation": 1.5e-3,
    "engine": {"nu": 8, "h": 0.03125, "seed": 0, "x_end": 1.0},
    "x_station": 1.0,
}


@pytest.fixture()
def runner():
    return CliRunner()


def _cfg_file(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_riemann_prints_waves_and_middles(runner):
    # Pure density shift rides on the contact family alone.
    res = runner.invoke(main, ["riemann", "--below", BG,
                               "--above", "1.001,0,0,0.17857142857142858",
                               "--tau", "0.1"])
    assert res.exit_code == 0, res.output
    waves = re.findall(r"wave (\d): sigma=([^\s]+)", res.output)
    assert [w[0] for w in waves] == ["1", "2", "3", "4"]
    sigmas = [float(w[1]) for w in waves]
    assert sigmas[2] == pytest.approx(1e-3, rel=1e-6)
    for j in (0, 1, 3):
        assert abs(sigmas[j]) < 1e-12
    assert len(re.findall(r"middle \d: rho=", res.output)) == 3


def test_riemann_outside_trust_region_exits_3(runner):
    res = runner.invoke(main, ["riemann", "--below", BG,
                               "--above", "2,0,0,0.17857142857142858"])
    assert res.exit_code == 3
    assert "error:" in res.stderr


def test_riemann_malformed_state_exits_2(runner):
    res = runner.invoke(main, ["riemann", "--below", "1,2,3", "--above", BG])
    assert res.exit_code == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("side", ["--below", "--above"])
def test_riemann_nonfinite_state_exits_2(runner, side, k, value):
    parts = BG.split(",")
    parts[k] = value
    states = {"--below": BG, "--above": BG, side: ",".join(parts)}
    res = runner.invoke(main, ["riemann", "--below", states["--below"],
                               "--above", states["--above"]])
    assert res.exit_code == 2
    assert "must be finite" in res.stderr


def test_riemann_bad_gas_exits_2(runner):
    # tau must stay below the inverse-slope parameter.
    res = runner.invoke(main, ["riemann", "--below", BG, "--above", BG,
                               "--tau", "3.0"])
    assert res.exit_code == 2


@pytest.mark.parametrize("option, key", [("--a", "a_inf"), ("--gamma", "gamma")])
def test_riemann_nonfinite_gas_exits_2(runner, option, key):
    res = runner.invoke(main, ["riemann", "--below", BG, "--above", BG, option, "inf"])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {key} must")
    assert len(res.stderr.splitlines()) == 1


def test_special_writes_rate_and_coeffs(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(main, ["special", "--eps", "1e-3",
                               "--tau", "0.1,0.05,0.025",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "fitted slope" in res.output
    rate = (out / "rate.csv").read_text().splitlines()
    assert rate[0] == "tau,E,E_over_eps_x_tau2"
    assert len(rate) == 4
    coeffs = (out / "coeffs.csv").read_text().splitlines()
    assert coeffs[0] == "name,measured,closed_form,rel_err"
    assert len(coeffs) > 1


def test_special_large_eps_stays_in_the_trust_radius(runner, tmp_path):
    # the pinning strength, near -0.048, lies inside DELTA_TRUST although
    # three times the linear guess does not
    out = tmp_path / "out"
    res = runner.invoke(main, ["special", "--eps", "0.04", "--a", "1.2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len((out / "rate.csv").read_text().splitlines()) == 4
    assert (out / "coeffs.csv").read_text().startswith("name,measured,closed_form,rel_err\n")


def test_special_density_rise_outside_the_trust_box_exits_2(runner, tmp_path, monkeypatch):
    # a_inf*eps = 0.06: the pinned upper state leaves the trust box
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before eps was checked")

    monkeypatch.setattr(experiments, "wave_curve", no_solve)
    monkeypatch.setattr(experiments, "_newton_riemann", no_solve)
    res = runner.invoke(main, ["special", "--eps", "0.02", "--a", "3",
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: eps=0.02 ")
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_special_upper_state_outside_the_trust_box_exits_2(runner, tmp_path):
    # a_inf*eps = 0.015 passes the density check, but at a_inf < 1 the
    # pinned upper state's pressure and u move by about eps/a_inf
    res = runner.invoke(main, ["special", "--eps", "0.03", "--a", "0.5",
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: eps=0.03 pins an upper state 0.0602 from background")
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_converge_writes_rate_csv(runner, tmp_path):
    cfg = _cfg_file(tmp_path, WEDGE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["converge", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "fitted slope" in res.output
    rate = (out / "rate.csv").read_text().splitlines()
    assert rate[0] == "tau,E,E_over_eps_x_tau2"
    assert len(rate) == 4


def test_converge_rejects_wrong_scenario(runner, tmp_path):
    cfg = _cfg_file(tmp_path, STAB_CFG)
    res = runner.invoke(main, ["converge", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "scenario" in res.stderr


def test_stability_writes_csv(runner, tmp_path):
    cfg = _cfg_file(tmp_path, STAB_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["stability", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = (out / "stability.csv").read_text().splitlines()
    assert rows[0] == "case,input_delta,output_delta,ratio"
    assert [r.split(",")[0] for r in rows[1:]] == ["data", "boundary", "both"]


def test_unknown_config_key_exits_2(runner, tmp_path):
    bad = dict(WEDGE_CFG)
    bad["bogus"] = 1
    cfg = _cfg_file(tmp_path, bad)
    res = runner.invoke(main, ["converge", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize("key, value", [("h", 0), ("nu", -3),
                                        ("seed", -1), ("seed", 1.5),
                                        ("rho_threshold", "abc"), ("x_end", "a"),
                                        ("h", True), ("x_end", True),
                                        ("h", float("inf")), ("x_end", float("inf")),
                                        pytest.param("h", 10**400, id="h-401-digits"),
                                        pytest.param("x_end", 10**400, id="x_end-401-digits"),
                                        ("nu", 1001),
                                        pytest.param("nu", 10**400, id="nu-401-digits"),
                                        # more corners than the event budget; the
                                        # wall's arrays are never allocated
                                        pytest.param("h", 1e-300, id="h-1e-300"),
                                        pytest.param("x_end", 1e300, id="x_end-1e300")])
def test_bad_engine_value_exits_2(runner, tmp_path, key, value):
    # the engine rejects the value itself; the CLI names the key on one line
    engine = {key: value}
    with pytest.raises(ValueError, match=key):
        EngineConfig(**engine)
    cfg = _cfg_file(tmp_path, {"scenario": "wedge", "engine": engine})
    res = runner.invoke(main, ["converge", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and key in res.stderr
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("command, payload, key", [
    ("simulate", {"scenario": "wedge", "tau_grid": []}, "tau_grid"),
    ("converge", {"scenario": "wedge", "tau_grid": []}, "tau_grid"),
    ("stability", {"scenario": "stability", "tau_grid": []}, "tau_grid"),
    ("simulate", {"scenario": "wedge", "engine": {"np_boundary": "absorb"}}, "np_boundary"),
    ("converge", {"scenario": "wedge", "tau_grid": [0.1, 0.1, 0.1]}, "tau_grid"),
    ("simulate", {"scenario": "wedge", "tau_grid": [0.1, 0.05, 0.1]}, "tau_grid"),
    ("converge", {"scenario": "wedge", "tau_grid": [0.1, 0.05]}, "tau_grid"),
], ids=["simulate-empty-grid", "converge-empty-grid", "stability-empty-grid",
        "retired-np-boundary", "converge-repeated-grid", "simulate-repeated-grid",
        "converge-two-value-grid"])
def test_config_rejected_before_any_run_exits_2(runner, tmp_path, command, payload, key):
    cfg = _cfg_file(tmp_path, payload)
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error:") and key in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("converge", "data_amplitude"), ("special", "eps")])
def test_zero_rate_scale_rejected_before_any_solve(runner, tmp_path, monkeypatch, command, key):
    # a rate fit divides its errors by the data amplitude or eps: zero is
    # a config error before any run or solve, not a crash after them
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(experiments, "run", no_solve)
    monkeypatch.setattr(experiments, "_newton_riemann", no_solve)
    if command == "converge":
        args = ["--config", _cfg_file(tmp_path, {"scenario": "wedge", "data_amplitude": 0.0})]
    else:
        args = ["--eps", "0"]
    res = runner.invoke(main, [command, *args, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: {key}=0 ")
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_zero_amplitude_still_simulates_and_checks_stability(runner, tmp_path):
    # only the rate fits divide by the amplitude
    for command, payload in (("simulate", {"scenario": "wedge", "data_amplitude": 0.0}),
                             ("stability", dict(STAB_CFG, data_amplitude=0.0))):
        cfg = _cfg_file(tmp_path, payload, name=f"{command}.json")
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / command)])
        assert res.exit_code == 0, res.output


@pytest.mark.parametrize("key, value", [("engine", 5), ("tau_grid", 0.1),
                                        ("tau_grid", ["x"]), ("gamma", "x"),
                                        ("wedge_angle", float("nan")),
                                        # an int too large for a float
                                        pytest.param("tau_grid", [0.1, 0.05, 10**400],
                                                     id="tau_grid-401-digits"),
                                        pytest.param("wedge_angle", 10**400,
                                                     id="wedge_angle-401-digits"),
                                        pytest.param("data_amplitude", 10**400,
                                                     id="data_amplitude-401-digits")])
def test_wrongly_shaped_config_value_exits_2(runner, tmp_path, key, value):
    cfg = _cfg_file(tmp_path, {"scenario": "wedge", key: value})
    res = runner.invoke(main, ["converge", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and key in res.stderr
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("key, value", [("gamma", 0.5), ("a_inf", -1),
                                        ("a_inf", float("inf"))])
def test_bad_gas_in_config_exits_2(runner, tmp_path, key, value):
    # the config builds the gas, so the error names the gas key, not the
    # tau grid, and comes before any run
    cfg = _cfg_file(tmp_path, {"scenario": "wedge", key: value})
    res = runner.invoke(main, ["converge", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {key} must")
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("option, value, key", [("--gamma", "0.5", "gamma"),
                                                ("--a", "-1", "a_inf"),
                                                ("--gamma", "inf", "gamma"),
                                                ("--a", "inf", "a_inf")])
def test_special_bad_gas_exits_2(runner, tmp_path, option, value, key):
    res = runner.invoke(main, ["special", option, value,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {key} must")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["0.1,0.1,0.1", "0.1,0.05"])
def test_special_bad_grid_exits_2(runner, tmp_path, grid):
    # a repeated value or fewer than three: no fit, and nothing solved
    res = runner.invoke(main, ["special", "--tau", grid, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: tau_grid")
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["converge", "--config",
                               str(tmp_path / "nope.json"),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2


@pytest.mark.parametrize("payload, events", [
    (WEDGE_CFG, 44),
    ({"scenario": "riemann-pair", "tau_grid": [0.1]}, 6),
], ids=["wedge", "riemann-pair"])
def test_simulate_writes_trajectory_and_trace(runner, tmp_path, payload, events):
    cfg = _cfg_file(tmp_path, payload)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert f"tracked {events} events" in res.output
    traj = (out / "trajectory.txt").read_text()
    assert traj.startswith("x_end,h,nu,tau,gamma,a_inf,seed")
    assert "SLICE x=" in traj
    trace = (out / "glimm.csv").read_text().splitlines()
    assert trace[0] == "x,value,event_kind"
    assert len(trace) > 2


#: the CI job's simulate configs, by the directory it writes each run to
CI_SIMULATE = {
    "simulate": {"scenario": "wedge"},
    "small": {"scenario": "wedge", "data_amplitude": 0.01,
              "engine": {"h": 0.015625, "nu": 16}},
}


def test_ci_simulate_trajectories_are_pinned(runner, tmp_path):
    # byte for byte the trajectory.txt digests that the CI job also checks
    # its installed command's outputs against, in sha256sum's format
    lines = Path(__file__).with_name("trajectory_sha256.txt").read_text().splitlines()
    pinned = {path: digest for digest, path in (line.split() for line in lines)}
    assert pinned.keys() == {f"{out}/trajectory.txt" for out in CI_SIMULATE}
    for out, payload in CI_SIMULATE.items():
        cfg = _cfg_file(tmp_path, payload, f"{out}.json")
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / out)])
        assert res.exit_code == 0, res.output
        text = (tmp_path / out / "trajectory.txt").read_bytes()
        assert hashlib.sha256(text).hexdigest() == pinned[f"{out}/trajectory.txt"], out


#: the special solution's CI commands: output directory and options
CI_SPECIAL = {
    "special": [],
    "special-gas": ["--eps", "1e-4", "--a", "1.5", "--gamma", "1.2"],
    "special-large": ["--eps", "0.04", "--a", "1.2"],
}


def test_ci_special_csvs_are_pinned(runner, tmp_path):
    # the special solution keeps the Newton interior solve only so that
    # these bytes stay what the benchmark reference holds; the CI job
    # checks its installed command's outputs against the same digests
    lines = Path(__file__).with_name("special_sha256.txt").read_text().splitlines()
    pinned = {path: digest for digest, path in (line.split() for line in lines)}
    assert pinned.keys() == {f"{out}/{name}.csv" for out in CI_SPECIAL
                             for name in ("rate", "coeffs")}
    for out, options in CI_SPECIAL.items():
        res = runner.invoke(main, ["special", *options, "--out", str(tmp_path / out)])
        assert res.exit_code == 0, res.output
        for name in ("rate", "coeffs"):
            text = (tmp_path / out / f"{name}.csv").read_bytes()
            assert hashlib.sha256(text).hexdigest() == pinned[f"{out}/{name}.csv"], (out, name)


def test_simulate_rejects_special_scenario(runner, tmp_path):
    cfg = _cfg_file(tmp_path, {"scenario": "special",
                               "tau_grid": [0.1, 0.05, 0.025]})
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "scenario" in res.stderr
