"""The numpy formulations the float kernels of ``euler`` and ``curves`` replaced.

They are kept here, as they were, as oracles: the program's float-level
kernels must reproduce every bit of them (``test_euler``,
``test_curves``).  ``damped_newton`` is the program's own: its iteration
did not change.
"""

import numpy as np

from hyperwedge.curves import _CK_A, _CK_B4, _CK_B5, _TINY_SIGMA, CurveError, damped_newton
from hyperwedge.euler import DomainError, State, check_state


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
    t = gas.t2
    lam = eigenvalue(U, gas, family)
    m = 1.0 + t * U.u
    c2 = gas.gamma * U.p / U.rho
    D = m * lam - U.v
    Dp = (m * m - t * c2) * lam - m * U.v
    one_tl2 = 1.0 + t * lam * lam
    return np.array([
        -one_tl2 * c2 / (2.0 * Dp * U.rho),
        -t * D * lam / Dp,
        D / Dp,
        gas.gamma * one_tl2 / (2.0 * Dp * U.rho),
    ])


def eigenvector_raw(U, gas, family):
    t = gas.t2
    if family == 2:
        return np.array([0.0, 1.0 + t * U.u, t * U.v, 0.0])
    if family == 3:
        return np.array([1.0, 0.0, 0.0, 0.0])
    lam = eigenvalue(U, gas, family)
    D = (1.0 + t * U.u) * lam - U.v
    return np.array([(1.0 + t * lam * lam) * U.rho / D, -lam, 1.0, D * U.rho])


def normalization_coefficient(U, gas, family):
    if family in (2, 3):
        return 1.0
    return 1.0 / float(np.dot(grad_eigenvalue(U, gas, family),
                              eigenvector_raw(U, gas, family)))


def eigenvector(U, gas, family):
    return normalization_coefficient(U, gas, family) * eigenvector_raw(U, gas, family)


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


def integrate_field(rhs, y0, length):
    """``curves._integrate_field`` on numpy arrays."""
    y = np.array(y0, dtype=float)
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
            yi = y + h * sum(a * k[j] for j, a in enumerate(_CK_A[i]))
            k[i] = rhs(yi)
        y5 = y + h * sum(b * ki for b, ki in zip(_CK_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(_CK_B4, k))
        err = np.max(np.abs(y5 - y4) / (1.0e-14 + 1.0e-12 * np.maximum(np.abs(y), np.abs(y5))))
        if err <= 1.0:
            s += h
            y = y5
            h *= min(5.0, 0.9 * err ** -0.2 if err > 0 else 5.0)
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
        if abs(h) < 1.0e-15 * abs(length):
            raise CurveError("rarefaction step size underflow")
    return y


def rarefaction(U, gas, family, sigma):
    """``curves._rarefaction`` with the numpy field."""

    def rhs(w):
        return eigenvector(State.from_array(w), gas, family)

    w0 = U.as_array()
    if abs(sigma) < _TINY_SIGMA:
        w = w0
        h = sigma / 2.0
        for _ in range(2):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * h * k1)
            k3 = rhs(w + 0.5 * h * k2)
            k4 = rhs(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return State.from_array(w)
    return State.from_array(integrate_field(rhs, w0, sigma))
