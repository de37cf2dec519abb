"""The numpy formulations the float kernels of ``euler`` and ``curves`` replaced.

They are kept here, as they were, as oracles: the program's float-level
kernels must reproduce every bit of them (``test_euler``,
``test_curves``).  One thing changed with the kernels: the 4-term
normalisation ``grad(lam) . r~`` is summed left to right (``_dot4``), as
``euler.acoustic_field`` sums it, not by ``np.dot``, whose rounding
follows the BLAS core.  ``damped_newton`` is the Newton iteration on numpy
arrays that the program's plain-float one replaced; ``shock_solve`` and
the Riemann solvers here run their array residuals through it.  Where
the program keeps the Newton (cold shocks, ``hugoniot_decompose``,
``boundary_hugoniot_q1`` and the special solution's interior solve) it
must match them in every float and in the number of residual
evaluations (``test_curves``, ``test_riemann``); the program's
slip-line roots (``solve_riemann``, the wall solves) must agree with
them within the Newton's tolerance.  ``solve_riemann`` and
``emit_riemann`` are also the interior solve and its front emission as
they were before each acoustic wave was solved once per call.
``flux_and_slope`` and ``acoustic_field`` are the flat kernels of those
names as chains of steps: ``euler.flux_values`` and
``euler.acoustic_slope`` (themselves checked against :func:`fluxes` and
:func:`eigenvalue` here), then, for the field, this module's closed-form
gradient and raw eigenvector at that slope.  The flat kernels must match
them in every float, type and error text (``test_euler``).  ``euler``
keeps no second formulation of the gradient or the raw field, so the one
here is the only reference for them.  ``interaction_potential`` is the
pairwise double loop that ``functionals.interaction_potential`` replaced
with running sums; the two agree to rounding (``test_functionals``).
"""

import numpy as np

from hyperwedge.curves import (
    _NEWTON_FD_STEP,
    _NEWTON_MAX_HALVINGS,
    _NEWTON_MAXIT,
    _NEWTON_TOL,
    _TINY_SIGMA,
    CurveError,
    compose_wave_curves,
    hugoniot_compose,
    wave_curve,
    wave_front,
)
from hyperwedge import euler
from hyperwedge.euler import DomainError, State, bc_residual, check_state, flow_slope
from hyperwedge.riemann import _background_boundary_gain
from hyperwedge.tracking import _emit_wave, pair_potential


def damped_newton(F, x0, tol=_NEWTON_TOL, max_iter=_NEWTON_MAXIT,
                  fd_step=_NEWTON_FD_STEP, max_halvings=_NEWTON_MAX_HALVINGS):
    """``curves.damped_newton`` on numpy arrays: `F` maps an array to an array."""
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


def fluxes(U, gas):
    check_state(U, gas)
    rho, u, v, p = U.rho, U.u, U.v, U.p
    g = gas.gamma
    m = 1.0 + gas.t2 * u
    B = u + 0.5 * v * v + g * p / ((g - 1.0) * rho) + 0.5 * gas.t2 * u * u
    fx = np.array([rho * m, rho * u * m + p, rho * v * m, rho * m * B])
    fy = np.array([rho * v, rho * u * v, rho * v * v + p, rho * v * B])
    return fx, fy


def acoustic_ingredients(U, gas):
    check_state(U, gas)
    t = gas.t2
    m = 1.0 + t * U.u
    c2 = gas.gamma * U.p / U.rho
    den = m * m - t * c2
    if den <= 0.0:
        raise DomainError(f"acoustic denominator {den} <= 0")
    disc = m * m + t * (U.v * U.v - c2)
    if disc <= 0.0:
        raise DomainError(f"acoustic discriminant {disc} <= 0")
    return t, m, c2, den, disc


def eigenvalue(U, gas, family):
    t, m, c2, den, disc = acoustic_ingredients(U, gas)
    root = np.sqrt(c2) * np.sqrt(disc)
    sgn = -1.0 if family == 1 else 1.0
    return float((m * U.v + sgn * root) / den)


def eigenvalues(U, gas):
    t, m, c2, den, disc = acoustic_ingredients(U, gas)
    root = np.sqrt(c2) * np.sqrt(disc)
    mid = U.v / m
    return np.array([(m * U.v - root) / den, mid, mid, (m * U.v + root) / den])


def grad_eigenvalue(U, gas, family):
    """Gradient of an acoustic slope w.r.t. ``(rho, u, v, p)``, closed form."""
    return np.array(_gradient(U.rho, U.u, U.v, U.p, gas, family, eigenvalue(U, gas, family)))


def _gradient(rho, u, v, p, gas, family, lam):
    """:func:`grad_eigenvalue` given the slope `lam`, as a 4-list.

    Where ``Dp = 0`` it takes ``euler.grad_eigenvalue_fd``, looked up at
    call time, so a test that replaces it sees both kernels call it.
    """
    t = gas.t2
    m = 1.0 + t * u
    c2 = gas.gamma * p / rho
    D = m * lam - v
    Dp = (m * m - t * c2) * lam - m * v
    if Dp == 0.0:
        return euler.grad_eigenvalue_fd(State(rho, u, v, p), gas, family).tolist()
    one_tl2 = 1.0 + t * lam * lam
    return [
        -one_tl2 * c2 / (2.0 * Dp * rho),
        -t * D * lam / Dp,
        D / Dp,
        gas.gamma * one_tl2 / (2.0 * Dp * rho),
    ]


def eigenvector_raw(U, gas, family):
    t = gas.t2
    if family == 2:
        return np.array([0.0, 1.0 + t * U.u, t * U.v, 0.0])
    if family == 3:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.array(_raw(U.rho, U.u, U.v, U.p, gas, family, eigenvalue(U, gas, family)))


def _raw(rho, u, v, p, gas, family, lam):
    """The acoustic branch of :func:`eigenvector_raw` given the slope `lam`."""
    t = gas.t2
    D = (1.0 + t * u) * lam - v
    if D == 0.0:
        raise DomainError(f"degenerate acoustic direction (D=0) for family {family}")
    return [(1.0 + t * lam * lam) * rho / D, -lam, 1.0, D * rho]


def normalization_coefficient(U, gas, family):
    if family in (2, 3):
        return 1.0
    return 1.0 / _dot4(grad_eigenvalue(U, gas, family), eigenvector_raw(U, gas, family))


def _dot4(a, b):
    """The 4-term dot product summed left to right, as ``euler.acoustic_field`` sums it."""
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3])


def eigenvector(U, gas, family):
    return normalization_coefficient(U, gas, family) * eigenvector_raw(U, gas, family)


def flux_and_slope(rho, u, v, p, gas, family):
    """``euler.flux_and_slope`` as :func:`euler.flux_values` then
    :func:`euler.acoustic_slope`."""
    if family not in euler.GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    fx, fy = euler.flux_values(rho, u, v, p, gas)
    return fx, fy, euler.acoustic_slope(rho, u, v, p, gas, family)


def acoustic_field(rho, u, v, p, gas, family):
    """``euler.acoustic_field`` as :func:`euler.acoustic_slope`, then this
    module's gradient and raw field at that slope."""
    lam = euler.acoustic_slope(rho, u, v, p, gas, family)
    grad = _gradient(rho, u, v, p, gas, family, lam)
    raw = _raw(rho, u, v, p, gas, family, lam)
    slope = _dot4(grad, raw)
    if slope == 0.0:
        raise DomainError(f"family {family} loses genuine nonlinearity at this state")
    scale = 1.0 / slope
    return [scale * r for r in raw]


def shock_solve(U, gas, family, sigma):
    """``curves._shock_solve`` with numpy residual and set-up."""
    fxu, fyu = fluxes(U, gas)
    lam0 = eigenvalue(U, gas, family)

    def F(z):
        W = State(z[0], z[1], z[2], z[3])
        check_state(W, gas)
        s = z[4]
        fxw, fyw = fluxes(W, gas)
        out = np.empty(5)
        out[:4] = s * (fxw - fxu) - (fyw - fyu)
        out[4] = eigenvalue(W, gas, family) - lam0 - sigma
        return out

    r = eigenvector(U, gas, family)
    z0 = np.empty(5)
    z0[:4] = U.as_array() + sigma * r
    z0[4] = lam0 + 0.5 * sigma
    z = damped_newton(F, z0)
    return State(z[0], z[1], z[2], z[3]), float(z[4])


def rarefaction(U, gas, family, sigma):
    """``curves._rarefaction`` below ``_TINY_SIGMA`` (its two RK4 steps),
    with the numpy field."""
    if not abs(sigma) < _TINY_SIGMA:
        raise ValueError(f"the RK4 steps serve |sigma| < {_TINY_SIGMA}, got {sigma}")

    def rhs(w):
        return eigenvector(State.from_array(w), gas, family)

    w = U.as_array()
    h = sigma / 2.0
    for _ in range(2):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * h * k1)
        k3 = rhs(w + 0.5 * h * k2)
        k4 = rhs(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return State.from_array(w)


def solve_riemann(U_b, U_a, gas):
    """``riemann.solve_riemann`` recomputing every wave it needs.

    The Newton residual composes all four curves at every evaluation,
    and the reconstruction solves both acoustic waves again.  Returns
    ``(strengths, middle_states, speeds)``.
    """
    target = U_a.as_array()

    def F(sig):
        return compose_wave_curves(U_b, sig, gas).as_array() - target

    sig = damped_newton(F, np.zeros(4))
    m1, slope1 = wave_front(U_b, 1, sig[0], gas)
    m2 = wave_curve(m1, 2, sig[1], gas)
    m3 = wave_curve(m2, 3, sig[2], gas)

    def fan_span(pre, family, sigma):
        lam = euler.eigenvalue(pre, gas, family)
        return (lam, lam + sigma)

    speeds = (
        fan_span(U_b, 1, sig[0]) if sig[0] > 0.0 else slope1,
        flow_slope(m1, gas),
        flow_slope(m1, gas),
        fan_span(m3, 4, sig[3]) if sig[3] > 0.0 else wave_front(m3, 4, sig[3], gas)[1],
    )
    return sig, (m1, m2, m3), speeds


def emit_riemann(strengths, U_b, x, y, gas, nu):
    """``tracking._emit_riemann`` as the chain of ``_emit_wave`` it replaces."""
    fronts = []
    cur = U_b
    for j, sig in zip((1, 2, 3, 4), strengths):
        fr, cur = _emit_wave(cur, j, float(sig), x, y, gas, nu)
        fronts.extend(fr)
    return fronts, cur


def solve_boundary_riemann(U_b, theta_new, gas):
    """``riemann.solve_boundary_riemann`` with its array residual."""
    theta_old = float(np.arctan(flow_slope(U_b, gas)))

    def F(z):
        return np.array([bc_residual(wave_curve(U_b, 1, z[0], gas), theta_new, gas)])

    kb = _background_boundary_gain(gas)
    z = damped_newton(F, np.array([kb * (theta_new - theta_old)]))
    sigma1 = float(z[0])
    return sigma1, wave_curve(U_b, 1, sigma1, gas)


def reflect_at_boundary(U_b, incoming_family, sigma_in, theta, gas):
    """``riemann.reflect_at_boundary`` with its array residual."""

    def F(z):
        return np.array([bc_residual(wave_curve(U_b, 1, z[0], gas), theta, gas)])

    x0 = sigma_in if incoming_family == 4 else 0.0
    return float(damped_newton(F, np.array([x0]))[0])


def hugoniot_decompose(U, V, gas):
    """``riemann.hugoniot_decompose`` with its array residual."""
    target = V.as_array()

    def F(q):
        return hugoniot_compose(U, q, gas).as_array() - target

    q0 = np.linalg.solve(euler.eigenvector_matrix(U, gas), target - U.as_array())
    return damped_newton(F, q0)


def boundary_hugoniot_q1(q2, q3, q4, theta, theta_prime, U, gas):
    """``riemann.boundary_hugoniot_q1`` with its array residual."""

    def F(z):
        W = hugoniot_compose(U, (z[0], q2, q3, q4), gas)
        return np.array([bc_residual(W, theta_prime, gas)])

    x0 = -q4 + _background_boundary_gain(gas) * (theta_prime - theta)
    return float(damped_newton(F, np.array([x0]))[0])


def interaction_potential(fronts):
    """``functionals.interaction_potential`` as the sum of
    ``pair_potential`` over every ordered pair, O(n^2)."""
    total = 0.0
    for a in range(len(fronts)):
        for b in range(a + 1, len(fronts)):
            total += pair_potential(fronts[a], fronts[b])
    return total
