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
    bernoulli,
    check_state,
    eigenvalue,
    flow_slope,
    flux_and_slope,
)

__all__ = [
    "CurveError",
    "DELTA_TRUST",
    "wave_curve",
    "wave_front",
    "compose_wave_curves",
    "hugoniot_curve",
    "hugoniot_compose",
    "fan_state",
    "pressure_front",
    "secant_root",
    "damped_newton",
]

#: trust radius for wave strengths; curves are only evaluated for
#: |sigma| <= DELTA_TRUST
DELTA_TRUST = 0.1

#: |sigma| below which a rarefaction takes two classic RK4 steps along the
#: normalised field (error ~ sigma^5), not its invariants: the special
#: solution's floats run through them, and the benchmark's frozen
#: reference holds those floats until it is re-recorded
_TINY_SIGMA = 1.0e-5

#: cap on the secant steps of a rarefaction's end state and of a
#: warm-started shock's slope; in the trust box each stops after at most
#: 7 and 4 residuals (3 from a base state within 1e-4 of the front's),
#: once its step is at rounding level
_SECANT_MAXIT = 20
#: a secant that reaches its cap without a rounding-level step returns
#: the state of its least slope residual if that is at most this many
#: units of ``1 + |lam_j(U)|``: the residuals of a converged secant can
#: cycle at 3 to 5 such units and never give a rounding-level step
_SECANT_ROUNDING = 16.0 * 2.0 ** -52

_NEWTON_TOL = 1.0e-12
_NEWTON_MAXIT = 50
_NEWTON_FD_STEP = 1.0e-7
_NEWTON_MAX_HALVINGS = 6


class CurveError(RuntimeError):
    """Wave-curve evaluation failed (out of trust region or no convergence)."""


# ---------------------------------------------------------------------------
# generic damped Newton with finite-difference Jacobian
# ---------------------------------------------------------------------------

def damped_newton(F, x0):
    """Solve F(x) = 0 by Newton iteration with step halving.

    The Jacobian is one-sided finite differences with per-component step
    ``_NEWTON_FD_STEP * (1 + |x_k|)``.  A step is halved (at most
    ``_NEWTON_MAX_HALVINGS`` times) until the residual norm decreases.
    Convergence is judged on the residual alone:
    ``max|F| <= _NEWTON_TOL`` within ``_NEWTON_MAXIT`` iterations.

    List in, list out: `F` takes the iterate as a list of floats and
    returns its residual as a list of as many floats (any sequence
    works, a list is fastest).  `x0` may be any sequence.  The iteration
    runs on plain floats and only the linear solve goes through numpy,
    so every float is the one the same steps give on numpy arrays.  A
    :class:`DomainError` from a trial step halves it; one at `x0` or in
    a Jacobian column propagates.

    The linear solve stays ``np.linalg.solve``.  The special solution's
    ``beta3_correction`` (about -1.1e-10) is a strength of about 3e-17,
    rescaled, so it carries LAPACK's rounding of the solve: under a
    Python elimination it moved by a relative 8.9e-5, and that
    elimination was also slower at five unknowns.

    It solves the shocks that have no `near` front, the jump
    decompositions of :mod:`hyperwedge.riemann` and the special
    solution's interior solves; the Riemann and wall solves are secants
    on the slip-line pressure (:func:`pressure_front`).

    Returns the solution as a list of floats.  Raises
    :class:`CurveError` on failure.
    """
    x = [float(a) for a in x0]
    f = F(x)
    best_norm = _nan_max(list(map(abs, f)))
    for _ in range(_NEWTON_MAXIT):
        if best_norm <= _NEWTON_TOL:
            return x
        cols = []
        for k, xk in enumerate(x):
            h = _NEWTON_FD_STEP * (1.0 + abs(xk))
            xp = list(x)
            xp[k] = xk + h
            cols.append([(a - b) / h for a, b in zip(F(xp), f)])
        try:
            step = np.linalg.solve(np.array(cols).T, np.array([-b for b in f])).tolist()
        except np.linalg.LinAlgError as exc:
            raise CurveError(f"singular Jacobian in Newton iteration: {exc}") from exc
        accepted = False
        for halving in range(_NEWTON_MAX_HALVINGS + 1):
            scale = 2.0 ** halving
            trial = [a + b / scale for a, b in zip(x, step)]
            try:
                ftrial = F(trial)
            except DomainError:
                continue
            norm = _nan_max(list(map(abs, ftrial)))
            if norm < best_norm or norm <= _NEWTON_TOL:
                x, f, best_norm = trial, ftrial, norm
                accepted = True
                break
        if not accepted:
            raise CurveError(
                f"Newton line search stalled at residual {best_norm:.3e}"
            )
    if best_norm <= _NEWTON_TOL:
        return x
    raise CurveError(f"Newton failed to converge: residual {best_norm:.3e} "
                     f"after {_NEWTON_MAXIT} iterations")


def _nan_max(values: list) -> float:
    """``max(values)``, NaN if any value is NaN, as ``np.max`` gives it.

    ``max`` alone may skip a NaN, so a NaN residual would pass for a
    small one.
    """
    return math.nan if math.isnan(sum(values)) else max(values)


# ---------------------------------------------------------------------------
# rarefactions (simple-wave invariants)
# ---------------------------------------------------------------------------

def _simple_wave(w: list, gas: GasParams, family: int):
    """``(state, c0)``: the simple wave of one acoustic family through
    ``w = (rho, u, v, p)`` as a function of the sound speed, and the
    sound speed at `w` (see :func:`_rarefaction`).

    ``state(c)`` keeps the entropy, ``B`` and the family's angle
    invariant of `w`; it raises :class:`DomainError` where the wave
    leaves the hyperbolic region and :class:`CurveError` at ``c <= 0``.
    """
    rho0, u0, v0, p0 = w
    g, tau, t = gas.gamma, gas.tau, gas.t2
    gm = g - 1.0
    sk = math.sqrt((g + 1.0) / gm)
    sgn = -1.0 if family == 1 else 1.0
    B = bernoulli(State(*w), gas)
    c0 = math.sqrt(g * p0 / rho0)

    def angle(c):  # e, Q and G at sound speed c
        e = B - c * c / gm
        if t == 0.0:
            return e, 1.0, -2.0 * c / gm
        q2 = 1.0 + 2.0 * t * e
        if not q2 > t * c * c:
            raise DomainError(f"rarefaction leaves the hyperbolic region at sound speed {c}")
        a = c / math.sqrt(q2 - t * c * c)
        return e, math.sqrt(q2), (math.atan(tau * a) - sk * math.atan(tau * sk * a)) / tau

    invariant = (v0 if t == 0.0 else math.atan2(tau * v0, 1.0 + t * u0) / tau) + sgn * angle(c0)[2]

    def state(c):
        if not c > 0.0:
            raise CurveError(f"rarefaction reaches sound speed {c}")
        e, Q, G = angle(c)
        phi = invariant - sgn * G
        r = c / c0
        x = r ** (2.0 / gm)  # rho/rho0 at the entropy of U
        if t == 0.0:
            return State(rho0 * x, e - 0.5 * phi * phi, phi, p0 * x * r * r)
        half = math.sin(0.5 * tau * phi) / tau
        return State(rho0 * x, 2.0 * e / (Q + 1.0) - 2.0 * Q * half * half,
                     Q * math.sin(tau * phi) / tau, p0 * x * r * r)

    return state, c0


def _rarefaction(U: State, gas: GasParams, family: int, sigma: float) -> State:
    """End state of a rarefaction, from the simple-wave invariants.

    The entropy ``p/rho^gamma``, ``B``, and ``phi - G`` (family 1) or
    ``phi + G`` (family 4) stay constant across a simple wave (Courant &
    Friedrichs, ch. IV): ``phi = atan2(tau v, m)/tau`` is the scaled flow
    angle and ``G = f(a) - sqrt(K) f(sqrt(K) a)`` the scaled Prandtl-Meyer
    angle ``(nu(M) - nu_max)/tau``, with ``f(x) = atan(tau x)/tau``,
    ``K = (gamma+1)/(gamma-1)``, ``a = c/sqrt(Q^2 - tau^2 c^2)`` and
    ``Q^2 = m^2 + tau^2 v^2 = 1 + 2 tau^2 e``, ``e = B - c^2/(gamma-1)``.
    At ``tau = 0`` the last is ``v +/- 2c/(gamma-1)``.  Given ``c`` they
    fix the state, with ``u = 2e/(Q+1) - 2Q (sin(tau phi/2)/tau)^2`` free of
    cancellation, and ``c`` solves ``lam_j(W(c)) = lam_j(U) + sigma``:
    explicitly at ``tau = 0``, else by a secant from the field's linear
    step, stopped at rounding level; after ``_SECANT_MAXIT`` steps it
    returns its least-residual state if that residual is at rounding
    level (:func:`_check_secant_exit`).  A state leaving the hyperbolic
    region raises :class:`DomainError`, a secant that does not converge
    :class:`CurveError`.  Below ``_TINY_SIGMA``: two RK4 steps.
    """
    w = [float(U.rho), float(U.u), float(U.v), float(U.p)]
    if abs(sigma) < _TINY_SIGMA:
        def rhs(w):
            return acoustic_field(*w, gas, family)

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
    rho0, u0, v0, p0 = w
    g, t = gas.gamma, gas.t2
    sgn = -1.0 if family == 1 else 1.0
    state, c0 = _simple_wave(w, gas, family)
    if t == 0.0:  # lam_j = v -/+ c
        return state(c0 + sgn * sigma * (g - 1.0) / (g + 1.0))
    lam0 = acoustic_slope(rho0, u0, v0, p0, gas, family)
    field = acoustic_field(rho0, u0, v0, p0, gas, family)
    c_prev, res_prev = c0, -sigma
    c = c0 + sigma * 0.5 * c0 * (field[3] / p0 - field[0] / rho0)  # dc/dsigma along the field
    best = (math.inf, None)
    for _ in range(_SECANT_MAXIT):
        W = state(c)
        res = acoustic_slope(W.rho, W.u, W.v, W.p, gas, family) - lam0 - sigma
        # equal residuals: the secant is flat, at rounding level
        step = 0.0 if res == res_prev else res * (c - c_prev) / (res - res_prev)
        if abs(step) <= 2.0 ** -51 * c:
            return W
        if abs(res) < best[0]:
            best = (abs(res), W)
        c_prev, res_prev = c, res
        c -= step
    _check_secant_exit("rarefaction", best[0], lam0, res)
    return best[1]


def _check_secant_exit(wave: str, least: float, lam0: float, res: float) -> None:
    """Accept a secant that has made ``_SECANT_MAXIT`` steps if its least
    ``|residual|`` is within ``_SECANT_ROUNDING`` units of ``1 + |lam0|``;
    else raise :class:`CurveError` with `res`, its last residual.
    """
    if not least <= _SECANT_ROUNDING * (1.0 + abs(lam0)):
        raise CurveError(f"{wave} secant did not converge: residual {res:.3e} "
                         f"after {_SECANT_MAXIT} steps")


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

def _shock_solve(U: State, gas: GasParams, family: int, sigma: float, near=None):
    """Solve the jump conditions for one acoustic family.

    Without `near`, the unknowns are the post state and the discontinuity
    slope, z = (rho, u, v, p, s).  Four equations impose
    ``s*(F_x(W) - F_x(U)) = F_y(W) - F_y(U)`` and the fifth pins the
    parameterisation, ``lam_j(W) - lam_j(U) = sigma``.  Newton starts
    from the linear step along the field.

    With `near` (a front of this family and strength solved from a nearby
    base state), the post state comes from the explicit relation of
    :func:`_shock_secant` and only the slope is solved for.

    Returns the post state and the slope on plain floats: numpy scalars
    would carry into every front, slope and station built from them.
    """
    w = [float(U.rho), float(U.u), float(U.v), float(U.p)]
    if near is not None:
        return _shock_secant(w, gas, family, sigma, near)
    (X0, X1, X2, X3), (Y0, Y1, Y2, Y3), lam0 = flux_and_slope(*w, gas, family)

    def F(z):  # written out for speed: the same floats as a loop over components
        rho, u, v, p, s = z
        (a0, a1, a2, a3), (b0, b1, b2, b3), lam = flux_and_slope(rho, u, v, p, gas, family)
        return [s * (a0 - X0) - (b0 - Y0), s * (a1 - X1) - (b1 - Y1),
                s * (a2 - X2) - (b2 - Y2), s * (a3 - X3) - (b3 - Y3),
                lam - lam0 - sigma]

    r = acoustic_field(*w, gas, family)
    z0 = [a + sigma * b for a, b in zip(w, r)]
    z0.append(lam0 + 0.5 * sigma)
    rho, u, v, p, s = damped_newton(F, z0)
    return State(rho, u, v, p), s


def _shock_secant(w: list, gas: GasParams, family: int, sigma: float, near):
    """Post state and slope of a shock from the explicit oblique-shock
    relation, by a secant on the slope started from `near`.

    For a front of slope ``s`` above ``w = (rho, u, v, p)`` write
    ``m = 1 + tau^2 u``, ``k = 1 + tau^2 s^2`` and ``a = s m - v``: the
    mass flux ``j = rho a`` is the same on both sides, ``j [u] = -s [p]``,
    ``j [v] = [p]`` and ``B`` is continuous (Courant & Friedrichs,
    ch. IV).  Off the trivial root, ``q = [p]/j`` is then
    ``2/((gamma+1) k) * (a - gamma p k/(rho a))`` and the post state
    ``W(s) = (rho a/(a - k q), u - s q, v + q, p + rho a q)`` satisfies the
    four jump conditions to rounding.

    The secant solves ``lam_j(W(s)) - lam_j(U) = sigma``.  It starts from
    `near`'s slope shifted by the gap between the base states,
    ``near.speed + lam_j(U) - lam_j(near.below)``, which is
    ``O(|sigma| gap)`` off where an unshifted start would be about the gap
    off, and takes ``s0 - R0/2`` as its second point: a shock's slope is
    about the mean of ``lam_j`` on its two sides, so the pin residual
    grows about twice as fast as ``s``.  It stops once its step is at
    rounding level or the secant is flat (equal residuals, as at the
    tiny strengths the accurate solver emits), returning the last state
    it evaluated; after ``_SECANT_MAXIT`` steps it returns its
    least-residual state if that residual is at rounding level
    (:func:`_check_secant_exit`).  A zero mass flux or a secant that
    does not converge raises :class:`CurveError`, a state outside the
    hyperbolic region :class:`DomainError`.
    """
    lam0 = acoustic_slope(*w, gas, family)

    def pin(s):  # W(s) and its slope residual
        W = _oblique_shock(w, gas, s)
        return W, acoustic_slope(*W, gas, family) - lam0 - sigma

    b = near.below
    s_prev = near.speed + (lam0 - acoustic_slope(b.rho, b.u, b.v, b.p, gas, family))
    res_prev = pin(s_prev)[1]
    s = s_prev - 0.5 * res_prev
    best = (math.inf, None, None)
    for _ in range(_SECANT_MAXIT):
        W, res = pin(s)
        step = 0.0 if res == res_prev else res * (s - s_prev) / (res - res_prev)
        if abs(step) <= 2.0 ** -52 * (1.0 + abs(s)):
            return State(*W), s
        if abs(res) < best[0]:
            best = (abs(res), W, s)
        s_prev, res_prev = s, res
        s -= step
    _check_secant_exit("shock", best[0], lam0, res)
    return State(*best[1]), best[2]


def _oblique_shock(w: list, gas: GasParams, s: float) -> tuple:
    """``W(s)``, the state across a front of slope `s` from
    ``w = (rho, u, v, p)`` that meets the jump conditions (see
    :func:`_shock_secant`), as a 4-tuple.  Either side may be `w`: the
    relation is the same from below and from above.  A zero mass flux
    raises :class:`CurveError`.
    """
    rho, u, v, p = w
    g, t = gas.gamma, gas.t2
    k = 1.0 + t * s * s
    a = s * (1.0 + t * u) - v
    if a == 0.0:
        raise CurveError(f"zero mass flux across a shock of slope {s}")
    q = 2.0 / ((g + 1.0) * k) * (a - g * p * k / (rho * a))
    return (rho * a / (a - k * q), u - s * q, v + q, p + rho * a * q)


def pressure_front(U: State, family: int, p: float, gas: GasParams) -> tuple[State, float]:
    """State across the family-1 or family-4 wave from `U` whose other
    side has pressure `p`, and the slope of its front.

    A Riemann problem's acoustic waves meet at the slip line, where the
    pressure and the flow slope are continuous (Courant & Friedrichs,
    ch. IV).  Each acoustic wave curve has a closed form in the pressure
    there: from the lower state for family 1, and into the upper state
    for family 4 (the relations are the same from either side).  Let
    ``p0 = U.p``.

    * ``p > p0``, a shock.  With ``m = 1 + tau^2 u`` and
      ``C = gamma p0/rho + (gamma+1)(p - p0)/(2 rho)``, its slope is the
      characteristic slope with ``c^2`` replaced by ``C``:
      ``s = (m v -/+ sqrt(C) sqrt(m^2 + tau^2 (v^2 - C)))/(m^2 - tau^2 C)``,
      minus for family 1.  It follows from ``a^2 = k C`` (``a = s m - v``,
      ``k = 1 + tau^2 s^2``), which is :func:`_shock_secant`'s relation
      for ``q`` at the jump ``[p] = rho a q``.  The state is that
      relation's ``W(s)``.
    * ``p < p0``, a rarefaction.  The entropy fixes the sound speed at
      `p` and :func:`_simple_wave`'s invariants the state.  Its slope is
      the family's characteristic slope at that state: the head of a
      family-1 wave, the foot of a family-4 wave below `U`, as
      :func:`wave_front` gives them.
    * ``p == p0``: `U`, on plain floats, and its characteristic slope.

    The state's pressure is `p` to rounding.  Raises
    :class:`DomainError` at ``p <= 0`` and where the shock or the wave
    leaves the hyperbolic region, :class:`CurveError` as
    :func:`_simple_wave` and :func:`_oblique_shock` do.
    """
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    if not p > 0.0:
        raise DomainError(f"nonpositive pressure {p} at the slip line")
    w = [float(U.rho), float(U.u), float(U.v), float(U.p)]
    rho, u, v, p0 = w
    g, t = gas.gamma, gas.t2
    if p == p0:
        return State(*w), acoustic_slope(*w, gas, family)
    if p < p0:
        state, c0 = _simple_wave(w, gas, family)
        W = state(c0 * (p / p0) ** (0.5 * (g - 1.0) / g))
        return W, acoustic_slope(W.rho, W.u, W.v, W.p, gas, family)
    m = 1.0 + t * u
    C = g * p0 / rho + (g + 1.0) * (p - p0) / (2.0 * rho)
    den = m * m - t * C
    disc = m * m + t * (v * v - C)
    if not (den > 0.0 and disc > 0.0):
        raise DomainError(f"shock to pressure {p} leaves the hyperbolic region")
    sgn = -1.0 if family == 1 else 1.0
    s = (m * v + sgn * (math.sqrt(C) * math.sqrt(disc))) / den
    return State(*_oblique_shock(w, gas, s)), s


def secant_root(F, x0: float, x1: float, scale: float, what: str) -> float:
    """Root of the scalar function `F` by a secant from `x0` and `x1`.

    It stops once its step is at rounding level or the secant is flat
    (equal residuals), returning that point.  Rounding level is
    ``2^-49 |x|``: on the slip-line pressure the residual's own rounding
    (a few units of ``1e-16``) leaves the last few ulps of ``p``
    undetermined, and a tighter stop cycles there until its cap.  After
    ``_SECANT_MAXIT`` steps it returns its least-residual point if that
    residual is within ``_SECANT_ROUNDING`` units of ``1 + |scale|``
    (:func:`_check_secant_exit`); else it raises :class:`CurveError`
    naming the `what` secant.
    """
    r0 = F(x0)
    best = (abs(r0), x0)
    for _ in range(_SECANT_MAXIT):
        r1 = F(x1)
        step = 0.0 if r1 == r0 else r1 * (x1 - x0) / (r1 - r0)
        if abs(step) <= 2.0 ** -49 * abs(x1):
            return x1
        if abs(r1) < best[0]:
            best = (abs(r1), x1)
        x0, r0 = x1, r1
        x1 -= step
    _check_secant_exit(what, best[0], scale, r1)
    return best[1]


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


def wave_front(U: State, family: int, sigma: float, gas: GasParams,
               near=None) -> tuple[State, float]:
    """Upper state and slope of the single front realising one wave.

    Runs the checks of :func:`wave_curve` and returns ``(state, slope)``
    from one evaluation of the curve: the jump-condition slope of a
    shock (both come out of the same solve), the flow slope below a
    contact, and for a rarefaction the trailing-edge characteristic
    slope -- of the end state for family 1, of `U` for family 4.

    `near`, a front (``below``, ``above``, ``speed``) of the same family
    and strength from a nearby base state, starts a shock's slope secant
    on the explicit oblique-shock relation from its slope shifted to `U`
    (see :func:`_shock_secant`); rarefactions and contacts ignore it.
    That shock meets the jump conditions and the slope pin to rounding;
    the Newton from the linear step stops at a 1e-12 residual, and the
    two states agree to 1e-11 (tested).  Without `near` the state
    equals ``wave_curve(U, family, sigma, gas)`` bit for bit.
    """
    _check_strength(sigma)
    check_state(U, gas, "wave_front input")
    if family in CONTACT_FAMILIES:
        W = U if sigma == 0.0 else _contact(U, gas, family, sigma)
        return W, flow_slope(U, gas)
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    if sigma < 0.0:
        return _shock_solve(U, gas, family, sigma, near)
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
