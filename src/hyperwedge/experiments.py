"""Experiment harness: rate sweeps, coefficient tables, stability runs.

Three experiment drivers built on the solver stack:

* ``run_special_solution`` — a two-state jump whose zero-limit solution
  is a single compressive acoustic front; both systems' exact
  self-similar solutions are compared in L1 and the strength-correction
  coefficients are extracted alongside the closed forms they approach;

* ``run_convergence`` — full wedge-flow runs at a grid of scaling
  parameters, each compared at a fixed station against the zero-limit
  run, with an ordinary-least-squares log-log rate fit;

* ``run_stability`` — paired runs with perturbed inflow data and/or a
  perturbed wall, reporting output-to-input L1 ratios.

The tracked scenarios build their wall and inflow data through one
public function, :func:`wedge_problem`, which the CLI uses as well.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cache
from numbers import Real

import numpy as np

from .curves import DELTA_TRUST, CurveError, damped_newton, wave_curve, wave_front
from .euler import DomainError, GasParams, State
from .functionals import l1_distance, wall_mismatch
from .riemann import (
    TRUST_RADIUS,
    RiemannSolution,
    SolverError,
    sample_riemann_fan,
    trust_deviation,
)
from .tracking import (
    BoundaryPolyline,
    EngineConfig,
    InitialData,
    approximate_boundary,
    run,
)

__all__ = [
    "ConfigError",
    "QuadratureWarning",
    "ExperimentConfig",
    "RateFit",
    "CoefficientRow",
    "SpecialReport",
    "StabilityRow",
    "StabilityReport",
    "special_pair",
    "fan_l1_distance",
    "wedge_problem",
    "run_special_solution",
    "run_convergence",
    "run_stability",
    "write_rate_csv",
    "write_coeffs_csv",
    "write_stability_csv",
]


class ConfigError(ValueError):
    """Raised for malformed or out-of-range experiment configuration."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SCENARIOS = ("special", "wedge", "riemann-pair", "stability")
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scenario, gas, scaling grid, engine knobs, outputs.

    ``tau_grid`` is the scaling-parameter sweep, at least one value and
    no value twice; the rate drivers need three.  The zero-limit system
    is always run/solved in addition where a comparison needs it.  Every
    float field must be finite.  Scenario parameters not used by the
    selected scenario are ignored.
    """

    scenario: str
    gamma: float = 1.4
    a_inf: float = 2.0
    tau_grid: tuple = (0.1, 0.05, 0.025)
    engine: EngineConfig = field(default_factory=EngineConfig)
    eps: float = 1.0e-3
    wedge_angle: float = 0.01
    data_amplitude: float = 1.0e-3
    data_perturbation: float = 1.0e-3
    boundary_perturbation: float = 1.0e-3
    x_station: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            # a comparison, not math.isfinite: that raises OverflowError
            # on an int too large for a float
            if f.type == "float" and (isinstance(val, bool) or not isinstance(val, Real)
                                      or not -_FLOAT_MAX <= val <= _FLOAT_MAX):
                raise ConfigError(f"{f.name} must be a finite number, got {val!r}")
        if self.scenario not in _SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {_SCENARIOS}")
        try:
            GasParams(self.gamma, self.a_inf)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.tau_grid:
            raise ConfigError("tau_grid is empty; it needs at least one value")
        if len(set(self.tau_grid)) < len(self.tau_grid):
            raise ConfigError(f"tau_grid={list(self.tau_grid)!r} repeats a value")
        for tau in self.tau_grid:
            if not 0.0 < tau < self.a_inf:
                raise ConfigError(
                    f"tau grid value {tau} outside (0, a_inf={self.a_inf})")
        for name in ("eps", "data_amplitude", "data_perturbation",
                     "boundary_perturbation"):
            val = getattr(self, name)
            if not 0.0 <= val <= TRUST_RADIUS:
                raise ConfigError(f"{name}={val} outside the trust region")
        if not 0.0 < self.x_station <= self.engine.x_end:
            raise ConfigError(
                f"x_station={self.x_station} outside (0, x_end={self.engine.x_end}]")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        """Load a config from a JSON object with snake_case field names.

        Unknown keys (top-level or inside ``engine``) are an error, so a
        typo cannot silently fall back to a default.
        """
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "engine" in raw:
            if not isinstance(raw["engine"], dict):
                raise ConfigError(f"engine={raw['engine']!r} must be an object")
            eng_known = {f.name for f in fields(EngineConfig)}
            eng_unknown = set(raw["engine"]) - eng_known
            if eng_unknown:
                raise ConfigError(f"unknown engine keys: {sorted(eng_unknown)}")
            try:
                raw = dict(raw, engine=EngineConfig(**raw["engine"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from exc
        if "tau_grid" in raw:
            grid = raw["tau_grid"]
            if not (isinstance(grid, list) and all(type(t) in (int, float) for t in grid)):
                raise ConfigError(f"tau_grid={grid!r} must be a list of numbers")
            try:
                raw = dict(raw, tau_grid=tuple(float(t) for t in grid))
            except OverflowError:
                raise ConfigError("tau_grid holds an integer too large for a float") from None
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def gas(self, tau: float) -> GasParams:
        return GasParams(gamma=self.gamma, a_inf=self.a_inf, tau=tau)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """A fitted error-versus-scaling law E ~ C * tau^slope."""

    taus: tuple
    errors: tuple
    slope: float
    coefficients: tuple  # E / (eps * x * tau^2) per grid point

    @classmethod
    def from_errors(cls, taus, errors, eps: float, x: float) -> "RateFit":
        taus = tuple(float(t) for t in taus)
        errors = tuple(float(e) for e in errors)
        if len(set(taus)) < 3:
            raise ConfigError(f"rate fit needs >= 3 distinct grid points, got {len(set(taus))}")
        if min(errors) <= 0.0:
            raise ConfigError("rate fit needs positive errors")
        slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
        coeffs = tuple(e / (eps * x * t * t) for t, e in zip(taus, errors))
        return cls(taus, errors, float(slope), coeffs)


@dataclass(frozen=True)
class CoefficientRow:
    name: str
    measured: float
    closed_form: float

    @property
    def rel_err(self) -> float:
        # absolute error for coefficients whose closed form is zero
        scale = abs(self.closed_form) if self.closed_form != 0.0 else 1.0
        return abs(self.measured - self.closed_form) / scale


@dataclass(frozen=True)
class SpecialReport:
    fit: RateFit
    coefficients: tuple  # CoefficientRow, measured at coeff_tau
    coeff_tau: float
    sigma_a1: float


@dataclass(frozen=True)
class StabilityRow:
    case: str
    input_delta: float
    output_delta: float

    @property
    def ratio(self) -> float:
        return self.output_delta / self.input_delta if self.input_delta else 0.0


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple
    max_ratio: float


# ---------------------------------------------------------------------------
# scalar root finding and quadrature
# ---------------------------------------------------------------------------

class QuadratureWarning(RuntimeWarning):
    """A quadrature panel missed its error bound."""


_BRENT_RTOL = 4.0 * 2.0**-52
_BRENT_MAXITER = 100


def _brentq(f, a: float, b: float, xtol: float):
    """Root of `f` in the sign-changing bracket ``[a, b]`` by Brent's method.

    A step-for-step port of the widely used C routine ``brentq`` (Brent
    1973, ch. 4) with its defaults ``rtol = 4*2**-52`` and 100
    iterations, so it returns that routine's float for the same bracket
    and tolerance; the tests compare the two bit for bit.  Raises
    ``ValueError`` when ``f(a)`` and ``f(b)`` have the same sign,
    ``RuntimeError`` when the iteration budget runs out.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(
        f"Brent's method did not converge in {_BRENT_MAXITER} iterations, "
        f"value is {xcur!r}")


# QUADPACK's qk21 tables: the nonnegative 21-point Kronrod abscissae on
# [-1, 1] in decreasing order (those at indices 1, 3, ..., 9 are the
# 10-point Gauss nodes), their Kronrod weights, and the Gauss weights of
# the nodes at indices 1, 3, ..., 9
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208031412651, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_QUAD_EPSABS = 1.0e-17
_QUAD_EPSREL = 1.0e-12


def _qk21(f, a: float, b: float):
    """QUADPACK's 21-point Gauss-Kronrod panel: ``(K21, |K21 - G10|*h)``.

    The nodes are visited and the sums accumulated in QUADPACK's order
    (centre, Gauss pairs, then the remaining Kronrod pairs), so the panel
    value is the float ``dqk21`` returns.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    resg = 0.0
    resk = _WGK[10] * f(centr)
    for j in (1, 3, 5, 7, 9):
        absc = hlgth * _XGK[j]
        fsum = f(centr - absc) + f(centr + absc)
        resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
    for j in (0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fsum = f(centr - absc) + f(centr + absc)
        resk += _WGK[j] * fsum
    return resk * hlgth, abs((resk - resg) * hlgth)


def _quad(f, a: float, b: float) -> float:
    """Integral of `f` over ``[a, b]``: one ``qk21`` panel, checked.

    The panel's Kronrod-Gauss gap must be at most ``max(1e-17,
    1e-12*|I|)``; a panel that misses it is still returned, with a
    :class:`QuadratureWarning` naming the interval and the estimate.  The
    gap is the raw estimate, without QUADPACK's rescaling, so a panel that
    QUADPACK accepts may still warn here.  Callers cut out jumps and kinks
    first.
    """
    val, err = _qk21(f, a, b)
    if not err <= max(_QUAD_EPSABS, _QUAD_EPSREL * abs(val)):  # NaN misses too
        warnings.warn(
            f"quadrature panel on [{a!r}, {b!r}] misses its error bound: "
            f"estimate {err:.3g}", QuadratureWarning, stacklevel=2)
    return val


# ---------------------------------------------------------------------------
# special-solution scenario
# ---------------------------------------------------------------------------

def special_pair(eps: float, gas0: GasParams):
    """Two-state data whose zero-limit solution is one compressive front.

    The lower state carries a transverse slope ``eps``; the upper state
    sits on the exact backward wave curve through it, pinned by the
    density jump ``a_inf * eps``.  Returns ``(U_b, U_a, sigma)`` with
    ``sigma`` the pinning strength (negative: compression).  Raises
    :class:`ConfigError` when the jump leaves the trust box: a density
    rise of at least ``TRUST_RADIUS``, checked before any solve, a
    strength beyond ``-DELTA_TRUST``, or an upper state with any component
    ``TRUST_RADIUS`` or more from the background (for ``a_inf < 1`` its
    ``u`` and ``p`` move by about ``eps/a_inf``, more than its density).
    """
    if gas0.tau != 0.0:
        raise ValueError("special_pair pins the jump in the zero-limit system")
    if not gas0.a_inf * eps < TRUST_RADIUS:
        raise ConfigError(
            f"eps={eps} pins a density rise a_inf*eps={gas0.a_inf * eps:.4g} "
            f"outside the trust radius {TRUST_RADIUS}")
    U_b = State(1.0, 0.0, eps, gas0.p_background)
    if eps == 0.0:
        return U_b, U_b, 0.0
    target = 1.0 + gas0.a_inf * eps
    guess = -(gas0.gamma + 1.0) / 2.0 * eps
    strong = max(3.0 * guess, -DELTA_TRUST)

    # the root is a point the bracket evaluated: keep its state
    curve = cache(lambda sig: wave_curve(U_b, 1, sig, gas0))
    if curve(strong).rho < target:
        raise ConfigError(
            f"eps={eps} pins a jump stronger than the trust radius {DELTA_TRUST} "
            f"of the wave strengths at gamma={gas0.gamma}")
    sigma = _brentq(lambda sig: curve(sig).rho - target, strong, 0.3 * guess,
                    xtol=1.0e-16)
    U_a = curve(sigma)
    dev = trust_deviation(U_a, gas0)
    if not dev < TRUST_RADIUS:
        raise ConfigError(
            f"eps={eps} pins an upper state {dev:.4f} from background, "
            f"outside the trust radius {TRUST_RADIUS}")
    return U_b, U_a, float(sigma)


def fan_l1_distance(solA: RiemannSolution, gasA: GasParams,
                    solB: RiemannSolution, gasB: GasParams,
                    U_b: State, x: float = 1.0) -> float:
    """Exact L1 distance at station `x` between two self-similar solutions.

    Both solutions start from the same lower state.  Constant-by-constant
    intervals are summed exactly; intervals meeting a rarefaction fan are
    integrated per component with a sign-change split so the absolute
    value stays smooth on each panel.  Both solutions are sampled once per
    slope, for all four components.
    """
    sample = cache(lambda z: (sample_riemann_fan(solA, U_b, z, gasA),
                              sample_riemann_fan(solB, U_b, z, gasB)))

    pts = sorted({s for sol in (solA, solB) for span in sol.speeds for s in span})
    fans = [(lo, hi) for sol in (solA, solB) for lo, hi in sol.speeds[::3] if lo < hi]
    grid = [pts[0] - 0.5, *pts, pts[-1] + 0.5]
    total = 0.0
    for zl, zr in zip(grid, grid[1:]):
        if zr - zl < 1.0e-300:
            continue
        zm = 0.5 * (zl + zr)
        if not any(lo <= zm <= hi for lo, hi in fans):
            UA, UB = sample(zm)
            total += UA.l1_gap(UB) * (zr - zl)
            continue
        shrink = 1.0e-12 * (zr - zl)
        zlo, zhi = zl + shrink, zr - shrink
        for name in ("rho", "u", "v", "p"):
            def diff(z):
                UA, UB = sample(z)
                return float(getattr(UA, name) - getattr(UB, name))
            cuts = [zlo]
            flo, fhi = diff(zlo), diff(zhi)
            if flo * fhi < 0.0:
                cuts.append(_brentq(diff, zlo, zhi, xtol=1.0e-15))
            cuts.append(zhi)
            for a_, b_ in zip(cuts, cuts[1:]):
                total += _quad(lambda z: abs(diff(z)), a_, b_)
    return total * x


def _rate_grid(cfg: ExperimentConfig, scale: str) -> tuple:
    """``tau_grid`` largest first, for a rate fit of errors divided by the
    field `scale`: it needs at least three values and a nonzero `scale`."""
    if len(cfg.tau_grid) < 3:
        raise ConfigError(
            f"tau_grid needs >= 3 values for a rate fit, got {len(cfg.tau_grid)}")
    if getattr(cfg, scale) == 0.0:
        raise ConfigError(f"{scale}=0 leaves no rate to fit; it must be positive")
    return tuple(sorted(cfg.tau_grid, reverse=True))


def _newton_riemann(U_b: State, U_a: State, gas: GasParams) -> RiemannSolution:
    """The interior Riemann solve as a damped Newton on the four strengths.

    Kept only for the frozen benchmark reference, and deleted with its
    re-record (ROADMAP item 1): the special solution's zero-closed-form
    coefficients (``beta2``, ``beta3``) are strengths near rounding
    level, so they carry this Newton's rounding, LAPACK's included, and
    the reference pins it.  :func:`hyperwedge.riemann.solve_riemann` is
    the slip-line pressure root.  Starts from zero strengths; each
    acoustic wave is evaluated once per strength it is asked for.
    `U_b` and `U_a` come from :func:`special_pair`, inside the trust box.
    """
    target = [U_a.rho, U_a.u, U_a.v, U_a.p]
    acoustic = cache(lambda U, family, sigma: wave_front(U, family, sigma, gas))

    def F(sig):  # compose_wave_curves(U_b, sig, gas) - U_a, through `acoustic`
        s1, s2, s3, s4 = sig
        m3 = wave_curve(wave_curve(acoustic(U_b, 1, s1)[0], 2, s2, gas), 3, s3, gas)
        W = acoustic(m3, 4, s4)[0]
        return [W.rho - target[0], W.u - target[1], W.v - target[2], W.p - target[3]]

    try:
        sig = damped_newton(F, [0.0, 0.0, 0.0, 0.0])
    except CurveError as exc:
        raise SolverError(f"interior Riemann solve failed: {exc}") from exc
    m1, slope1 = acoustic(U_b, 1, sig[0])
    m2 = wave_curve(m1, 2, sig[1], gas)
    m3 = wave_curve(m2, 3, sig[2], gas)
    top, slope4 = acoustic(m3, 4, sig[3])
    return RiemannSolution.of_waves(U_b, tuple(sig), (m1, m2, m3),
                                    ((U_b, m1, slope1), (m3, top, slope4)), gas)


def run_special_solution(cfg: ExperimentConfig) -> SpecialReport:
    """Exact two-system comparison for the pinned two-state jump.

    For each grid value, the jump is re-solved in the scaled system and
    compared against the zero-limit fan in L1 at ``x_station``; strength
    corrections are normalised by ``sigma * tau^2``.  Coefficients are
    reported at the grid point nearest 0.05 together with the closed
    forms they are tested against.

    Construction: the same primitive pair from :func:`special_pair` is
    re-solved at every ``tau``, so ``U_b = (1, 0, eps, p0)`` and
    ``U_a - U_b = eps*(a, -1/a, -1, 1/a) + O(eps^2)`` (``a = a_inf``).
    At the background, with ``mu = (1 - tau^2/a^2)^(-1/2)``, the raw
    acoustic eigenvectors are ``(-+(1 + tau^2 mu^2/a^2) a/mu, +-mu/a, 1,
    -+mu/a)`` (upper sign family 1), ``r2 = e_u`` and ``r3 = e_rho``;
    both acoustic normalisations are ``k = 2/(gamma+1) * (1 -
    2 tau^2/a^2) + O(tau^4)``.  Decomposing ``U_a - U_b`` on the raw
    vectors gives ``b1 + b4 = -eps``, ``b4 - b1 = eps/mu``, ``b2 = 0`` and
    ``b3 = eps*a*(1 - 1/mu^2 - tau^2/a^2) = 0`` exactly, for every
    ``tau``.  The closed forms follow:

    * ``sigma_a1/eps = -(gamma+1)/2``: ``beta1 = b1/k`` at ``tau = 0``;
    * ``beta1`` correction ``7/(4a^2)``: ``b1 = -eps(1 - tau^2/(4a^2))``
      divided by ``k``, whose ``tau^2`` term adds ``2/a^2``;
    * ``beta4`` correction ``1/(4a^2)``: ``b4 = -eps tau^2/(4a^2)``;
    * ``beta2 = beta3 = 0``: the data carry no contact part at any
      ``tau``, and beyond linear order ``p/rho^gamma`` jumps only by
      ``O(sigma^3)`` across a shock in both systems, so the measured
      ``beta3/(sigma tau^2)`` is ``O(eps^2)``;
    * ``E = (a^2+a+2)/a^4``, two equal halves: the 1-shock moves by
      ``-tau^2/(2a^3)`` across a jump of L1 size ``eps(a+1+2/a)``, and
      on the layer of width ``2/a`` between the 1-shock and the 4-wave
      the state is off by ``|b4| |r4|_1 = eps tau^2 (a+1+2/a)/(4a^2)``.
    """
    if cfg.scenario != "special":
        raise ConfigError(f"scenario {cfg.scenario!r} is not 'special'")
    taus = _rate_grid(cfg, "eps")
    gas0 = cfg.gas(0.0)
    U_b, U_a, _sigma_pin = special_pair(cfg.eps, gas0)
    sol0 = _newton_riemann(U_b, U_a, gas0)
    sigma_a1 = sol0.strengths[0]

    def one_tau(tau: float):
        gas = cfg.gas(tau)
        sol = _newton_riemann(U_b, U_a, gas)
        E = fan_l1_distance(sol, gas, sol0, gas0, U_b, cfg.x_station)
        return {"E": E, "betas": sol.strengths}

    results = {tau: one_tau(tau) for tau in cfg.tau_grid}
    errors = tuple(results[t]["E"] for t in taus)
    fit = RateFit.from_errors(taus, errors, cfg.eps, cfg.x_station)

    coeff_tau = min(taus, key=lambda t: abs(t - 0.05))
    betas = results[coeff_tau]["betas"]
    t2 = coeff_tau * coeff_tau
    a = cfg.a_inf
    gm = cfg.gamma
    deltas = [(b - b0) / (sigma_a1 * t2) for b, b0 in zip(betas, (sigma_a1, 0.0, 0.0, 0.0))]
    e_coeff = results[coeff_tau]["E"] / (cfg.eps * cfg.x_station * t2)
    rows = (
        CoefficientRow("sigma_a1_over_eps", sigma_a1 / cfg.eps, -(gm + 1.0) / 2.0),
        CoefficientRow("beta1_correction", deltas[0], 7.0 / (4.0 * a * a)),
        CoefficientRow("beta2_correction", deltas[1], 0.0),
        CoefficientRow("beta3_correction", deltas[2], 0.0),
        CoefficientRow("beta4_correction", deltas[3], 1.0 / (4.0 * a * a)),
        CoefficientRow("E_coefficient", float(e_coeff),
                       (a * a + a + 2.0) / a**4),
    )
    return SpecialReport(fit, rows, coeff_tau, sigma_a1)


# ---------------------------------------------------------------------------
# tracked scenarios: wall and inflow data
# ---------------------------------------------------------------------------

def wedge_problem(cfg: ExperimentConfig) -> tuple[BoundaryPolyline, InitialData]:
    """Sampled wall and inflow data of a tracked scenario.

    ``wedge`` and ``stability`` get the straight wall of angle
    ``wedge_angle`` and three inflow jumps; ``riemann-pair`` gets a flat
    wall and one jump.  The data are a deterministic piecewise-constant
    perturbation of the background: uniform steps in
    ``[-data_amplitude, data_amplitude]^4`` (relative in density and
    pressure) drawn from ``engine.seed``, at sorted heights in
    ``[-1.4, -0.2]``.  The background does not depend on the scaling
    parameter, so every member of a sweep sees identical physical data.
    """
    if cfg.scenario == "riemann-pair":
        slope, n_steps = 0.0, 1
    elif cfg.scenario in ("wedge", "stability"):
        slope, n_steps = -math.tan(cfg.wedge_angle), 3
    else:
        raise ConfigError(f"scenario {cfg.scenario!r} has no tracked wall")
    boundary = approximate_boundary(lambda x: slope * x, cfg.engine.h,
                                    x_max=2.0 * cfg.engine.x_end)
    rng = np.random.default_rng(cfg.engine.seed)
    amplitude = cfg.data_amplitude
    states = [cfg.gas(0.0).background()]
    for _ in range(n_steps):
        # plain floats: numpy scalars would carry into every front and station
        d = rng.uniform(-amplitude, amplitude, 4).tolist()
        prev = states[-1]
        states.append(State(prev.rho * (1.0 + d[0]), prev.u + d[1],
                            prev.v + d[2], prev.p * (1.0 + d[3])))
    breaks = np.sort(rng.uniform(-1.4, -0.2, n_steps))
    return boundary, InitialData(breaks, tuple(states))


# ---------------------------------------------------------------------------
# wedge convergence scenario
# ---------------------------------------------------------------------------

def _comparison_strip(boundary: BoundaryPolyline, x: float, lam_hat: float):
    g = boundary.g_at(x)
    return (g - 2.0 * lam_hat * x - 1.0, g)


def run_convergence(cfg: ExperimentConfig) -> RateFit:
    """Wedge-flow error sweep against the zero-limit run.

    Runs the tracker once per grid value plus once for the zero limit,
    all from identical data over the same sampled wedge, and measures
    the station-``x_station`` L1 gap over the strip where either
    solution can differ from the background.
    """
    if cfg.scenario != "wedge":
        raise ConfigError(f"scenario {cfg.scenario!r} is not 'wedge'")
    taus = _rate_grid(cfg, "data_amplitude")
    boundary, data = wedge_problem(cfg)
    trajs = {tau: run(data, boundary, cfg.engine, cfg.gas(tau))
             for tau in (0.0, *taus)}

    base = trajs[0.0]
    strip = _comparison_strip(boundary, cfg.x_station,
                              max(t.lambda_hat for t in trajs.values()))
    ref = base.slice_at(cfg.x_station)
    errors = tuple(
        l1_distance(trajs[t].slice_at(cfg.x_station), ref, strip) for t in taus)
    return RateFit.from_errors(taus, errors, cfg.data_amplitude, cfg.x_station)


# ---------------------------------------------------------------------------
# stability scenario
# ---------------------------------------------------------------------------

def _shifted_corner_wall(cfg: ExperimentConfig, dtheta: float) -> BoundaryPolyline:
    """Wedge wall whose slope turns by an extra `dtheta` at mid-domain."""
    x_c = 0.5 * cfg.engine.x_end
    base = -math.tan(cfg.wedge_angle)
    extra = -math.tan(cfg.wedge_angle + dtheta)

    def g(x):
        if x <= x_c:
            return base * x
        return base * x_c + extra * (x - x_c)

    return approximate_boundary(g, cfg.engine.h, x_max=2.0 * cfg.engine.x_end)


def _perturbed_data(data: InitialData, delta: float) -> InitialData:
    """Shift every inflow state's transverse slope by `delta`."""
    return InitialData(data.breaks,
                       tuple(replace(s, v=s.v + delta) for s in data.states))


def _data_l1_gap(dataU: InitialData, dataV: InitialData) -> float:
    if dataU.breaks != dataV.breaks:
        raise ValueError("paired data must share jump positions")
    edges = [-1.6, *dataU.breaks, 0.0]
    total = 0.0
    for (a, b), su, sv in zip(zip(edges, edges[1:]), dataU.states, dataV.states):
        total += su.l1_gap(sv) * (b - a)
    return total


def run_stability(cfg: ExperimentConfig) -> StabilityReport:
    """Paired-run L1 amplification for data-only, wall-only, and joint cases.

    Each case perturbs the baseline by the configured magnitudes, runs
    both trackers at the largest grid scaling, and reports the worst
    station ratio output-gap / input-gap, stations sampled at quarters
    of the domain.  The moved wall parts from the baseline wall at
    mid-domain, so the wall-only and joint runs take over the baseline
    and data-only runs up to there (``run``'s `prefix`).
    """
    if cfg.scenario != "stability":
        raise ConfigError(f"scenario {cfg.scenario!r} is not 'stability'")
    gas = cfg.gas(max(cfg.tau_grid))
    base_wall, base_data = wedge_problem(cfg)
    base_traj = run(base_data, base_wall, cfg.engine, gas)
    lam_hat = base_traj.lambda_hat
    stations = [(x, base_traj.slice_at(x), _comparison_strip(base_wall, x, lam_hat))
                for x in (cfg.engine.x_end * f for f in (0.25, 0.5, 0.75, 1.0))]
    moved_data = _perturbed_data(base_data, cfg.data_perturbation)
    # an unturned wall rebuilt in two pieces rounds apart from the base one
    moved_wall = (_shifted_corner_wall(cfg, cfg.boundary_perturbation)
                  if cfg.boundary_perturbation else base_wall)

    def one_case(name, traj):
        data, wall = traj.data, traj.boundary
        input_delta = (_data_l1_gap(base_data, data)
                       + wall_mismatch(base_wall, wall, 0.0, 2.0 * cfg.engine.x_end))
        out = 0.0
        for x, base_slice, (base_lo, base_hi) in stations:
            moved_lo, moved_hi = _comparison_strip(wall, x, lam_hat)
            strip = (min(base_lo, moved_lo), min(base_hi, moved_hi))
            out = max(out, l1_distance(base_slice, traj.slice_at(x), strip))
        return StabilityRow(name, float(input_delta), float(out))

    data_traj = run(moved_data, base_wall, cfg.engine, gas)
    rows = (one_case("data", data_traj),
            one_case("boundary", run(base_data, moved_wall, cfg.engine, gas, prefix=base_traj)),
            one_case("both", run(moved_data, moved_wall, cfg.engine, gas, prefix=data_traj)))
    return StabilityReport(rows, max(r.ratio for r in rows))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_rate_csv(fit: RateFit, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("tau,E,E_over_eps_x_tau2\n")
        for tau, err, coeff in zip(fit.taus, fit.errors, fit.coefficients):
            fh.write(f"{tau!r},{err!r},{coeff!r}\n")


def write_coeffs_csv(rows, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("name,measured,closed_form,rel_err\n")
        for row in rows:
            fh.write(f"{row.name},{row.measured!r},{row.closed_form!r},"
                     f"{row.rel_err!r}\n")


def write_stability_csv(report: StabilityReport, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("case,input_delta,output_delta,ratio\n")
        for row in report.rows:
            fh.write(f"{row.case},{row.input_delta!r},{row.output_delta!r},"
                     f"{row.ratio!r}\n")
