"""Command-line entry points.

Five subcommands: ``simulate`` (one tracked run, trajectory + functional
trace), ``riemann`` (a single two-state solve, printed), ``special``
(exact two-system comparison sweep), ``converge`` (wedge-flow rate
sweep), and ``stability`` (paired perturbed runs).  Config-file commands
read the JSON layout of :class:`~hyperwedge.experiments.ExperimentConfig`.

Exit codes: 0 on success, 2 on configuration errors, 3 on solver
failures.
"""

from __future__ import annotations

import math
import os
import sys

import click

from .curves import CurveError
from .euler import DomainError, GasParams, State
from .experiments import (
    ConfigError,
    ExperimentConfig,
    run_convergence,
    run_special_solution,
    run_stability,
    wedge_problem,
    write_coeffs_csv,
    write_rate_csv,
    write_stability_csv,
)
from .functionals import GlimmWeights, glimm_trace
from .riemann import SolverError, solve_riemann
from .tracking import run, write_trajectory

_CONFIG_EXIT = 2
_SOLVER_EXIT = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    """Run `fn`, translating domain/solver failures into exit codes."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        _fail(_CONFIG_EXIT, str(exc))
    except (SolverError, CurveError, DomainError) as exc:
        _fail(_SOLVER_EXIT, str(exc))


def _load_config(path: str, scenario: str | None = None) -> ExperimentConfig:
    try:
        cfg = ExperimentConfig.from_json(path)
    except (ConfigError, OSError) as exc:
        _fail(_CONFIG_EXIT, str(exc))
    if scenario is not None and cfg.scenario != scenario:
        _fail(_CONFIG_EXIT,
              f"config scenario is {cfg.scenario!r}, this command needs {scenario!r}")
    return cfg


def _parse_state(text: str) -> State:
    parts = text.split(",")
    if len(parts) != 4:
        _fail(_CONFIG_EXIT, f"state must be rho,u,v,p — got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        _fail(_CONFIG_EXIT, f"bad state {text!r}: {exc}")
    if not all(math.isfinite(x) for x in values):
        _fail(_CONFIG_EXIT, f"bad state {text!r}: every component must be finite")
    return State(*values)


@click.group()
def main():
    """Wave-front tracking for steady wedge flows and their scaling limits."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def simulate(config_path, out_dir):
    """Track one run; write the trajectory and the functional trace."""
    cfg = _load_config(config_path)
    if cfg.scenario not in ("wedge", "riemann-pair"):
        _fail(_CONFIG_EXIT,
              f"simulate expects scenario 'wedge' or 'riemann-pair', "
              f"got {cfg.scenario!r}")
    tau = cfg.tau_grid[0]
    gas = cfg.gas(tau)

    def build_and_run():
        boundary, data = wedge_problem(cfg)
        return run(data, boundary, cfg.engine, gas)

    traj = _guard(build_and_run)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trajectory.txt"), "w") as fh:
        write_trajectory(traj, fh)
    weights = GlimmWeights.from_background(gas)
    with open(os.path.join(out_dir, "glimm.csv"), "w") as fh:
        fh.write(glimm_trace(traj, weights).to_csv())
    click.echo(f"tracked {len(traj.records)} events to x={cfg.engine.x_end} "
               f"(tau={tau}); wrote trajectory.txt, glimm.csv")


@main.command()
@click.option("--below", required=True, help="lower state as rho,u,v,p")
@click.option("--above", required=True, help="upper state as rho,u,v,p")
@click.option("--tau", type=float, default=0.0, show_default=True)
@click.option("--gamma", type=float, default=1.4, show_default=True)
@click.option("--a", "a_inf", type=float, default=2.0, show_default=True)
def riemann(below, above, tau, gamma, a_inf):
    """Solve one two-state problem; print strengths, speeds, middle states."""
    U_b = _parse_state(below)
    U_a = _parse_state(above)
    try:
        gas = GasParams(gamma=gamma, a_inf=a_inf, tau=tau)
    except ValueError as exc:
        _fail(_CONFIG_EXIT, str(exc))
    sol = _guard(solve_riemann, U_b, U_a, gas)
    for j, (lo, hi) in zip((1, 2, 3, 4), sol.speeds):
        span = f"{lo!r}" if lo == hi else f"{lo!r} .. {hi!r}"
        click.echo(f"wave {j}: sigma={sol.strengths[j - 1]!r}  speed={span}")
    for k, U in enumerate(sol.middle_states, start=1):
        click.echo(f"middle {k}: rho={U.rho!r} u={U.u!r} v={U.v!r} p={U.p!r}")


@main.command()
@click.option("--eps", type=float, default=1.0e-3, show_default=True)
@click.option("--tau", "tau_list", default="0.1,0.05,0.025", show_default=True,
              help="comma-separated scaling grid")
@click.option("--gamma", type=float, default=1.4, show_default=True)
@click.option("--a", "a_inf", type=float, default=2.0, show_default=True)
@click.option("--x", "x_station", type=float, default=1.0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def special(eps, tau_list, gamma, a_inf, x_station, out_dir):
    """Exact two-system comparison for the pinned two-state jump."""
    try:
        taus = tuple(float(t) for t in tau_list.split(","))
        cfg = ExperimentConfig(scenario="special", gamma=gamma, a_inf=a_inf,
                               tau_grid=taus, eps=eps, x_station=x_station)
    except (ValueError, ConfigError) as exc:
        _fail(_CONFIG_EXIT, str(exc))
    report = _guard(run_special_solution, cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_rate_csv(report.fit, os.path.join(out_dir, "rate.csv"))
    write_coeffs_csv(report.coefficients, os.path.join(out_dir, "coeffs.csv"))
    click.echo(f"fitted slope {report.fit.slope!r} over {len(taus)} grid points; "
               f"wrote rate.csv, coeffs.csv")
    for row in report.coefficients:
        click.echo(f"  {row.name}: measured {row.measured!r} "
                   f"vs closed form {row.closed_form!r} (rel err {row.rel_err:.3g})")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def converge(config_path, out_dir):
    """Wedge-flow error sweep against the zero-limit run."""
    cfg = _load_config(config_path, scenario="wedge")
    fit = _guard(run_convergence, cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_rate_csv(fit, os.path.join(out_dir, "rate.csv"))
    click.echo(f"fitted slope {fit.slope!r}; wrote rate.csv")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def stability(config_path, out_dir):
    """Paired perturbed runs; L1 output-to-input ratios."""
    cfg = _load_config(config_path, scenario="stability")
    report = _guard(run_stability, cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_stability_csv(report, os.path.join(out_dir, "stability.csv"))
    click.echo(f"max ratio {report.max_ratio!r}; wrote stability.csv")


if __name__ == "__main__":
    main()
