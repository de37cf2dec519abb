"""Elementary wave curves: rarefactions, shocks, contacts, and composites.

Every curve is parameterised by a signed strength ``sigma``.  For the
genuinely nonlinear families the parameter is the change of the family's
characteristic slope along the wave:

    rarefaction (sigma >= 0) : d(lam)/d(sigma) = 1 exactly (normalised field)
    shock       (sigma <  0) : lam_j(post) - lam_j(pre) = sigma, pinned by
                               the jump conditions plus this slope equation

so the two branches join with matching value, first and second derivative
at sigma = 0.  The degenerate families use closed-form parameterisations
(slope scaling for the shear field, a density shift for the entropy
field) for which curve and jump locus coincide.

Orientation: curves map the state *below* a wave (in y) to the state
*above* it.  ``compose_wave_curves`` applies families 1 through 4 in
order, which is the building block of the Riemann solvers one level up.
"""

from __future__ import annotations

import math

import numpy as np

from .euler import (
    CONTACT_FAMILIES,
    GENUINE_FAMILIES,
    DomainError,
    GasParams,
    State,
    acoustic_field,
    acoustic_slope,
    check_state,
    eigenvalue,
    flow_slope,
    flux_values,
)

__all__ = [
    "CurveError",
    "DELTA_TRUST",
    "wave_curve",
    "wave_front",
    "compose_wave_curves",
    "hugoniot_curve",
    "hugoniot_compose",
    "shock_speed",
    "fan_state",
    "damped_newton",
]

#: trust radius for wave strengths; curves are only evaluated for
#: |sigma| <= DELTA_TRUST
DELTA_TRUST = 0.1

#: |sigma| below which rarefaction integration switches to two fixed
#: fourth-order steps (error ~ sigma^5 << tolerances, ~30x faster)
_TINY_SIGMA = 1.0e-5

_NEWTON_TOL = 1.0e-12
_NEWTON_MAXIT = 50
_NEWTON_FD_STEP = 1.0e-7
_NEWTON_MAX_HALVINGS = 6


class CurveError(RuntimeError):
    """Wave-curve evaluation failed (out of trust region or no convergence)."""


# ---------------------------------------------------------------------------
# generic damped Newton with finite-difference Jacobian
# ---------------------------------------------------------------------------

def damped_newton(F, x0, tol=_NEWTON_TOL, max_iter=_NEWTON_MAXIT,
                  fd_step=_NEWTON_FD_STEP, max_halvings=_NEWTON_MAX_HALVINGS):
    """Solve F(x) = 0 by Newton iteration with step halving.

    The Jacobian is one-sided finite differences with per-component step
    ``fd_step * (1 + |x_k|)``.  A step is halved (at most `max_halvings`
    times) until the residual norm decreases.  Convergence is judged on
    the residual alone: ``max|F| <= tol``.

    Returns the solution array.  Raises :class:`CurveError` on failure.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    f = np.asarray(F(x), dtype=float)
    best_norm = np.max(np.abs(f))
    for _ in range(max_iter):
        if best_norm <= tol:
            return x
        J = np.empty((n, n))
        for k in range(n):
            h = fd_step * (1.0 + abs(x[k]))
            xp = x.copy()
            xp[k] += h
            J[:, k] = (np.asarray(F(xp)) - f) / h
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
            raise CurveError(f"singular Jacobian in Newton iteration: {exc}") from exc
        accepted = False
        for halving in range(max_halvings + 1):
            trial = x + step / (2.0 ** halving)
            try:
                ftrial = np.asarray(F(trial), dtype=float)
            except DomainError:
                continue
            norm = np.max(np.abs(ftrial))
            if norm < best_norm or norm <= tol:
                x, f, best_norm = trial, ftrial, norm
                accepted = True
                break
        if not accepted:
            raise CurveError(
                f"Newton line search stalled at residual {best_norm:.3e}"
            )
    if best_norm <= tol:
        return x
    raise CurveError(f"Newton failed to converge: residual {best_norm:.3e} after {max_iter} iterations")


# ---------------------------------------------------------------------------
# rarefaction integration
# ---------------------------------------------------------------------------

# Cash-Karp embedded Runge-Kutta 4(5) tableau
_CK_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0,
          277.0 / 14336.0, 1.0 / 4.0)

_ODE_RTOL = 1.0e-12
_ODE_ATOL = 1.0e-14


def _integrate_field(rhs, y0, length):
    """Integrate dy/ds = rhs(y) over s in [0, length], adaptive embedded 4(5).

    `y0` and the values of `rhs` are 4-lists; so is the result.  `length`
    may be negative.  Tolerances are fixed at the module level (rel
    1e-12, abs 1e-14); step size follows the usual 0.9*err^(-1/5)
    controller.
    """
    y = list(y0)
    if length == 0.0:
        return y
    s = 0.0
    h = length / 8.0
    direction = 1.0 if length > 0 else -1.0
    k = [None] * 6
    while direction * (length - s) > 1.0e-16 * abs(length):
        if direction * (s + h) > direction * length:
            h = length - s
        k[0] = rhs(y)
        for i in range(1, 6):
            k[i] = rhs(_stage(y, h, _CK_A[i], k))
        y5 = _stage(y, h, _CK_B5, k)
        y4 = _stage(y, h, _CK_B4, k)
        ratios = [abs(a - b) / (_ODE_ATOL + _ODE_RTOL * max(abs(c), abs(a)))
                  for a, b, c in zip(y5, y4, y)]
        # a NaN entry must make err NaN and reject the step; max() skips it
        err = math.nan if math.isnan(sum(ratios)) else max(ratios)
        if err <= 1.0:
            s += h
            y = y5
            h *= min(5.0, 0.9 * err ** -0.2 if err > 0 else 5.0)
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
        if abs(h) < 1.0e-15 * abs(length):
            raise CurveError("rarefaction step size underflow")
    return y


def _stage(y, h, coeffs, k):
    """``y + h * sum(c_j * k_j)`` on 4-lists.

    Summed term by term in tableau order from an integer 0, zero entries
    included, which rounds exactly as the same sum over numpy arrays.
    Written out rather than with ``sum()``: from Python 3.12 ``sum`` of
    floats is compensated and rounds differently.
    """
    a0 = a1 = a2 = a3 = 0
    for c, (k0, k1, k2, k3) in zip(coeffs, k):
        a0 += c * k0
        a1 += c * k1
        a2 += c * k2
        a3 += c * k3
    return [y[0] + h * a0, y[1] + h * a1, y[2] + h * a2, y[3] + h * a3]


def _rarefaction(U: State, gas: GasParams, family: int, sigma: float) -> State:
    """Integrate the normalised field of a genuinely nonlinear family."""

    def rhs(w):
        return acoustic_field(*w, gas, family)

    w = U.as_array().tolist()
    if abs(sigma) < _TINY_SIGMA:
        # two classic RK4 steps; local error ~ (sigma/2)^5 per step
        h = sigma / 2.0
        for _ in range(2):
            k1 = rhs(w)
            k2 = rhs([a + 0.5 * h * b for a, b in zip(w, k1)])
            k3 = rhs([a + 0.5 * h * b for a, b in zip(w, k2)])
            k4 = rhs([a + h * b for a, b in zip(w, k3)])
            w = [a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(w, k1, k2, k3, k4)]
        return State(*w)
    return State(*_integrate_field(rhs, w, sigma))


# ---------------------------------------------------------------------------
# contacts (closed forms)
# ---------------------------------------------------------------------------

def _contact(U: State, gas: GasParams, family: int, sigma: float) -> State:
    t2 = gas.t2
    if family == 2:
        scale = np.exp(t2 * sigma)
        if t2 == 0.0:
            u_out = U.u + sigma
        else:
            u_out = ((1.0 + t2 * U.u) * scale - 1.0) / t2
        return State(U.rho, float(u_out), float(U.v * scale), U.p)
    # family 3: pure density shift
    rho_out = U.rho + sigma
    if rho_out <= 0.0:
        raise CurveError(f"entropy-field shift {sigma} makes density nonpositive")
    return State(rho_out, U.u, U.v, U.p)


# ---------------------------------------------------------------------------
# shocks (jump conditions + slope pin)
# ---------------------------------------------------------------------------

def _shock_solve(U: State, gas: GasParams, family: int, sigma: float):
    """Solve the jump conditions for one acoustic family.

    Unknowns are the post state and the discontinuity slope,
    z = (rho, u, v, p, s).  Four equations impose
    ``s*(F_x(W) - F_x(U)) = F_y(W) - F_y(U)`` and the fifth pins the
    parameterisation, ``lam_j(W) - lam_j(U) = sigma``.
    """
    w = U.as_array().tolist()
    fxu, fyu = flux_values(*w, gas)
    lam0 = acoustic_slope(*w, gas, family)

    def F(z):
        rho, u, v, p, s = z.tolist()
        fxw, fyw = flux_values(rho, u, v, p, gas)
        out = [s * (a - b) - (c - d) for a, b, c, d in zip(fxw, fxu, fyw, fyu)]
        out.append(acoustic_slope(rho, u, v, p, gas, family) - lam0 - sigma)
        return np.array(out)

    r = acoustic_field(*w, gas, family)
    z0 = [a + sigma * b for a, b in zip(w, r)]
    z0.append(lam0 + 0.5 * sigma)
    z = damped_newton(F, z0)
    return State(z[0], z[1], z[2], z[3]), float(z[4])


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _check_strength(sigma: float) -> None:
    if abs(sigma) > DELTA_TRUST:
        raise CurveError(
            f"wave strength {sigma} outside trust radius {DELTA_TRUST}"
        )


def wave_curve(U: State, family: int, sigma: float, gas: GasParams) -> State:
    """State reached from `U` along one family's admissible wave curve.

    Genuinely nonlinear families take the rarefaction branch for
    ``sigma >= 0`` and the shock branch for ``sigma < 0``; degenerate
    families use their closed forms for either sign.  The result is the
    state on the other (upper) side of the wave.
    """
    _check_strength(sigma)
    check_state(U, gas, "wave_curve input")
    if sigma == 0.0:
        return U
    if family in CONTACT_FAMILIES:
        return _contact(U, gas, family, sigma)
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    if sigma > 0.0:
        return _rarefaction(U, gas, family, sigma)
    return _shock_solve(U, gas, family, sigma)[0]


def wave_front(U: State, family: int, sigma: float, gas: GasParams) -> tuple[State, float]:
    """Upper state and slope of the single front realising one wave.

    Runs the checks of :func:`wave_curve` and returns ``(state, slope)``
    from one evaluation of the curve: the jump-condition slope of a
    shock (both come out of the same Newton solve), the flow slope below
    a contact, and for a rarefaction the trailing-edge characteristic
    slope -- of the end state for family 1, of `U` for family 4.  The
    state equals ``wave_curve(U, family, sigma, gas)`` bit for bit.
    """
    _check_strength(sigma)
    check_state(U, gas, "wave_front input")
    if family in CONTACT_FAMILIES:
        W = U if sigma == 0.0 else _contact(U, gas, family, sigma)
        return W, flow_slope(U, gas)
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    if sigma < 0.0:
        return _shock_solve(U, gas, family, sigma)
    W = U if sigma == 0.0 else _rarefaction(U, gas, family, sigma)
    return W, eigenvalue(W if family == 1 else U, gas, family)


def compose_wave_curves(U: State, sigmas, gas: GasParams) -> State:
    """Apply the four family curves in order (1 lowest to 4 highest)."""
    W = U
    for family, s in zip((1, 2, 3, 4), sigmas):
        W = wave_curve(W, family, float(s), gas)
    return W


def hugoniot_curve(U: State, family: int, q: float, gas: GasParams) -> State:
    """State on the jump locus of one family, either sign of `q`.

    For the acoustic families this continues the shock branch through
    q = 0 to q > 0 (states that jump *down* in slope; not admissible as
    single waves but needed when decomposing an arbitrary nearby state
    into elementary jumps).  Degenerate families coincide with
    :func:`wave_curve`.
    """
    _check_strength(q)
    check_state(U, gas, "hugoniot_curve input")
    if q == 0.0:
        return U
    if family in CONTACT_FAMILIES:
        return _contact(U, gas, family, q)
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    return _shock_solve(U, gas, family, q)[0]


def hugoniot_compose(U: State, qs, gas: GasParams) -> State:
    """Apply the four jump loci in family order."""
    W = U
    for family, q in zip((1, 2, 3, 4), qs):
        W = hugoniot_curve(W, family, float(q), gas)
    return W


def shock_speed(U: State, family: int, sigma: float, gas: GasParams) -> float:
    """Slope of the discontinuity joining `U` to its family-`sigma` jump.

    Defined for the acoustic families at any admissible strength within
    the trust radius; tends to the characteristic slope as sigma -> 0
    with derivative 1/2.
    """
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"shock speed only defined for acoustic families, got {family}")
    _check_strength(sigma)
    if sigma == 0.0:
        return eigenvalue(U, gas, family)
    return _shock_solve(U, gas, family, sigma)[1]


def fan_state(U: State, family: int, sigma_total: float, zeta: float, gas: GasParams) -> State:
    """State inside a centred rarefaction at self-similar slope `zeta`.

    The fan spans slopes ``[lam_j(U), lam_j(U) + sigma_total]``; since the
    field is normalised the interior state at slope zeta is the curve
    point at parameter ``zeta - lam_j(U)``, and its family slope equals
    zeta exactly.
    """
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"rarefaction fans exist only for acoustic families, got {family}")
    if sigma_total < 0.0:
        raise CurveError("fan strength must be nonnegative")
    lam0 = eigenvalue(U, gas, family)
    s = zeta - lam0
    slack = 1.0e-12 * (1.0 + abs(lam0))
    if s < -slack or s > sigma_total + slack:
        raise CurveError(
            f"slope {zeta} outside fan [{lam0}, {lam0 + sigma_total}]"
        )
    s = min(max(s, 0.0), sigma_total)
    return wave_curve(U, family, s, gas)
