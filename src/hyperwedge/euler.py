"""Steady two-dimensional gas dynamics with a scaled streamwise velocity.

The state vector is primitive, ``W = (rho, u, v, p)``:

    rho : density
    u   : streamwise velocity disturbance
    v   : transverse velocity
    p   : pressure

The equations are written as a first-order system in the streamwise
coordinate x,

    d/dx F_x(W) + d/dy F_y(W) = 0,

where the streamwise mass-flux factor is ``m = 1 + tau^2 * u`` and

    F_x = (rho*m, rho*u*m + p, rho*v*m, rho*m*B)
    F_y = (rho*v, rho*u*v,     rho*v^2 + p, rho*v*B)

with the total-enthalpy-like invariant

    B = u + v^2/2 + gamma*p/((gamma-1)*rho) + tau^2*u^2/2.

Setting ``tau = 0`` gives the small-disturbance limit system: the same
expressions with ``m = 1`` and no quadratic streamwise correction in B.

Throughout, x plays the role of time.  The reference ("background")
state is ``(1, 0, 0, 1/(gamma*a_inf^2))``, a uniform stream whose sound
speed parameter is ``1/a_inf``.  All wave-by-wave machinery downstream
of this module is built on the characteristic fields computed here:

    family 1 : slow acoustic   (genuinely nonlinear, lambda < 0 near background)
    family 2 : shear/entropy   (linearly degenerate)
    family 3 : shear/entropy   (linearly degenerate, same speed as 2)
    family 4 : fast acoustic   (genuinely nonlinear, lambda > 0 near background)

Eigenvalues solve ``((m^2 - t*c^2)*lam^2 - 2*m*v*lam + (v^2 - c^2)) = 0``
for the acoustic pair (``t = tau^2``, ``c^2 = gamma*p/rho``) and equal the
flow slope ``v/m`` for the repeated middle pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "GasParams",
    "State",
    "FluxPair",
    "fluxes",
    "flux_values",
    "bernoulli",
    "mass_flux_factor",
    "sound_speed",
    "flow_slope",
    "bc_residual",
    "eigenvalues",
    "eigenvalue",
    "acoustic_slope",
    "char_residual",
    "grad_eigenvalue",
    "grad_eigenvalue_fd",
    "eigenvector_raw",
    "normalization_coefficient",
    "eigenvector",
    "acoustic_field",
    "eigenvector_matrix",
    "entropy_pair",
    "FAMILIES",
    "GENUINE_FAMILIES",
    "CONTACT_FAMILIES",
    "NP_FAMILY",
]

#: physical wave families, ordered by characteristic speed near background
FAMILIES = (1, 2, 3, 4)
#: genuinely nonlinear (acoustic) families
GENUINE_FAMILIES = (1, 4)
#: linearly degenerate (shear/entropy) families
CONTACT_FAMILIES = (2, 3)
#: marker for non-physical error-carrier fronts created by the simplified
#: interaction solver; not a characteristic family
NP_FAMILY = 5

#: finite-difference step scale for gradient fallbacks
_FD_STEP = 1.0e-6


class DomainError(ValueError):
    """State outside the hyperbolic/physical domain of the model."""


@dataclass(frozen=True)
class GasParams:
    """Gas and scaling parameters.

    Parameters
    ----------
    gamma : float
        Adiabatic exponent, > 1.
    a_inf : float
        Background speed parameter; the background sound speed is 1/a_inf.
    tau : float
        Scaling parameter in [0, a_inf).  ``tau = 0`` selects the
        small-disturbance limit system.
    """

    gamma: float = 1.4
    a_inf: float = 2.0
    tau: float = 0.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")
        if not self.a_inf > 0.0:
            raise DomainError(f"a_inf must be positive, got {self.a_inf}")
        if not (0.0 <= self.tau < self.a_inf):
            raise DomainError(
                f"tau must lie in [0, a_inf), got tau={self.tau}, a_inf={self.a_inf}"
            )

    @cached_property
    def t2(self) -> float:
        """Squared scaling parameter tau^2 (the combination the fluxes use)."""
        return self.tau * self.tau

    @property
    def p_background(self) -> float:
        """Background pressure 1/(gamma * a_inf^2)."""
        return 1.0 / (self.gamma * self.a_inf * self.a_inf)

    def background(self) -> "State":
        """Uniform background state (1, 0, 0, 1/(gamma*a_inf^2))."""
        return State(1.0, 0.0, 0.0, self.p_background)

    def with_tau(self, tau: float) -> "GasParams":
        """Copy of these parameters with a different scaling parameter."""
        return replace(self, tau=tau)


@dataclass(frozen=True)
class State:
    """Primitive state (rho, u, v, p).

    Density and pressure must be positive; when ``tau > 0`` the mass-flux
    factor ``1 + tau^2*u`` must also be positive for the state to be
    meaningful.  Validity against a particular ``GasParams`` is checked by
    :func:`check_state` (constructors stay cheap).
    """

    rho: float
    u: float
    v: float
    p: float

    def as_array(self) -> np.ndarray:
        return np.array([self.rho, self.u, self.v, self.p], dtype=float)

    @classmethod
    def from_array(cls, w) -> "State":
        rho, u, v, p = (float(x) for x in w)
        return cls(rho, u, v, p)

    def __sub__(self, other: "State") -> np.ndarray:
        return self.as_array() - other.as_array()


class FluxPair(NamedTuple):
    """Streamwise and transverse flux vectors at one state."""

    fx: np.ndarray
    fy: np.ndarray


def check_state(U: State, gas: GasParams, where: str = "") -> None:
    """Raise :class:`DomainError` if `U` is outside the physical domain."""
    _check_values(U.rho, U.u, U.p, gas, where)


def _check_values(rho: float, u: float, p: float, gas: GasParams, where: str = "") -> None:
    """:func:`check_state` on the components of a state."""
    tag = f" ({where})" if where else ""
    if not rho > 0.0:
        raise DomainError(f"nonpositive density {rho}{tag}")
    if not p > 0.0:
        raise DomainError(f"nonpositive pressure {p}{tag}")
    t = gas.t2
    if t > 0.0 and not 1.0 + t * u > 0.0:
        raise DomainError(f"nonpositive mass-flux factor at u={u}{tag}")


def mass_flux_factor(U: State, gas: GasParams) -> float:
    """Streamwise mass-flux factor ``m = 1 + tau^2 * u``."""
    return 1.0 + gas.t2 * U.u


def sound_speed(U: State, gas: GasParams) -> float:
    """Local sound speed ``c = sqrt(gamma*p/rho)``."""
    if U.p <= 0.0 or U.rho <= 0.0:
        raise DomainError(f"sound speed undefined at rho={U.rho}, p={U.p}")
    return float(np.sqrt(gas.gamma * U.p / U.rho))


def bernoulli(U: State, gas: GasParams) -> float:
    """Transported invariant ``B = u + v^2/2 + gamma*p/((gamma-1)rho) + tau^2*u^2/2``."""
    return _bernoulli(U.rho, U.u, U.v, U.p, gas)


def _bernoulli(rho: float, u: float, v: float, p: float, gas: GasParams) -> float:
    g = gas.gamma
    return u + 0.5 * v * v + g * p / ((g - 1.0) * rho) + 0.5 * gas.t2 * u * u


def flow_slope(U: State, gas: GasParams) -> float:
    """Slope ``v / (1 + tau^2*u)`` of the local stream direction."""
    m = mass_flux_factor(U, gas)
    if m <= 0.0:
        raise DomainError(f"flow slope undefined: mass-flux factor {m} <= 0")
    return U.v / m


def bc_residual(U: State, theta: float, gas: GasParams) -> float:
    """Slip-condition residual ``(1+tau^2*u)*sin(theta) - v*cos(theta)``.

    Zero exactly when the stream direction at `U` is parallel to a wall of
    inclination angle `theta`.
    """
    return mass_flux_factor(U, gas) * np.sin(theta) - U.v * np.cos(theta)


def fluxes(U: State, gas: GasParams) -> FluxPair:
    """Flux vectors (F_x, F_y) at a state.

    Returns
    -------
    FluxPair
        ``fx`` and ``fy`` as length-4 arrays ordered like the state
        components (mass, x-momentum, y-momentum, energy-like).
    """
    fx, fy = flux_values(U.rho, U.u, U.v, U.p, gas)
    return FluxPair(np.array(fx), np.array(fy))


def flux_values(rho: float, u: float, v: float, p: float,
                gas: GasParams) -> tuple[list, list]:
    """:func:`fluxes` on plain floats: ``(F_x, F_y)`` as two 4-lists.

    Raises :class:`DomainError` where :func:`check_state` does.
    """
    _check_values(rho, u, p, gas)
    m = 1.0 + gas.t2 * u
    B = _bernoulli(rho, u, v, p, gas)
    return ([rho * m, rho * u * m + p, rho * v * m, rho * m * B],
            [rho * v, rho * u * v, rho * v * v + p, rho * v * B])


# ---------------------------------------------------------------------------
# characteristic fields
# ---------------------------------------------------------------------------

def _acoustic_ingredients(rho: float, u: float, v: float, p: float, gas: GasParams):
    """Common quantities for the acoustic pair; raises outside hyperbolic domain."""
    _check_values(rho, u, p, gas)
    t = gas.t2
    m = 1.0 + t * u
    c2 = gas.gamma * p / rho
    den = m * m - t * c2
    if den <= 0.0:
        raise DomainError(
            f"acoustic denominator (1+t*u)^2 - t*c^2 = {den} <= 0; "
            "state outside hyperbolic region"
        )
    disc = m * m + t * (v * v - c2)
    if disc <= 0.0:
        raise DomainError(f"acoustic discriminant {disc} <= 0")
    return t, m, c2, den, disc


def _root_slope(v: float, m: float, c2: float, den: float, disc: float, family: int) -> float:
    """Root of the characteristic polynomial for family 1 (lower) or 4 (upper)."""
    root = math.sqrt(c2) * math.sqrt(disc)
    sgn = -1.0 if family == 1 else 1.0
    return (m * v + sgn * root) / den


def eigenvalues(U: State, gas: GasParams) -> np.ndarray:
    """All four characteristic slopes at a state, ordered by family.

    The middle pair (families 2 and 3) coincide at the flow slope; the
    acoustic pair brackets them.  Ordering ties are broken by family
    index, so the returned array is ``[lam1, lam2, lam3, lam4]`` with
    ``lam1 <= lam2 == lam3 <= lam4``.
    """
    t, m, c2, den, disc = _acoustic_ingredients(U.rho, U.u, U.v, U.p, gas)
    mid = U.v / m
    lam1 = _root_slope(U.v, m, c2, den, disc, 1)
    lam4 = _root_slope(U.v, m, c2, den, disc, 4)
    return np.array([lam1, mid, mid, lam4])


def eigenvalue(U: State, gas: GasParams, family: int) -> float:
    """Characteristic slope of one family at a state."""
    if family in CONTACT_FAMILIES:
        return flow_slope(U, gas)
    return float(acoustic_slope(U.rho, U.u, U.v, U.p, gas, family))


def acoustic_slope(rho: float, u: float, v: float, p: float,
                   gas: GasParams, family: int) -> float:
    """:func:`eigenvalue` of family 1 or 4 on plain floats.

    Raises :class:`DomainError` where :func:`check_state` or the
    hyperbolicity checks (``den > 0``, ``disc > 0``) fail, and
    ``ValueError`` for any other family.
    """
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    t, m, c2, den, disc = _acoustic_ingredients(rho, u, v, p, gas)
    return _root_slope(v, m, c2, den, disc, family)


def char_residual(U: State, gas: GasParams, lam: float) -> float:
    """Residual of the acoustic characteristic polynomial at slope `lam`.

    Vanishes when `lam` is an acoustic (family 1 or 4) slope at `U`:

        (m^2 - t*c^2)*lam^2 - 2*m*v*lam + (v^2 - c^2)
    """
    t, m, c2, den, _ = _acoustic_ingredients(U.rho, U.u, U.v, U.p, gas)
    return float(den * lam * lam - 2.0 * m * U.v * lam + (U.v * U.v - c2))


def grad_eigenvalue(U: State, gas: GasParams, family: int) -> np.ndarray:
    """Gradient of a family's characteristic slope w.r.t. (rho, u, v, p).

    Closed forms.  For the acoustic pair, with ``D = m*lam - v`` and
    ``Dp = (m^2 - t*c^2)*lam - m*v`` (= half the lam-derivative of the
    characteristic polynomial):

        d(lam)/d(rho) = -(1 + t*lam^2) * c^2 / (2 * Dp * rho)
        d(lam)/d(u)   = -t * D * lam / Dp
        d(lam)/d(v)   =  D / Dp
        d(lam)/d(p)   =  gamma * (1 + t*lam^2) / (2 * Dp * rho)

    For the degenerate pair the slope is v/m, hence
    ``(0, -t*v/m^2, 1/m, 0)``.
    """
    t = gas.t2
    if family in CONTACT_FAMILIES:
        m = mass_flux_factor(U, gas)
        return np.array([0.0, -t * U.v / (m * m), 1.0 / m, 0.0])
    lam = eigenvalue(U, gas, family)
    return np.array(_acoustic_gradient(U.rho, U.u, U.v, U.p, gas, family, lam))


def _acoustic_gradient(rho: float, u: float, v: float, p: float,
                       gas: GasParams, family: int, lam: float) -> list:
    """Acoustic branch of :func:`grad_eigenvalue`, given the slope `lam`."""
    t = gas.t2
    m = 1.0 + t * u
    c2 = gas.gamma * p / rho
    D = m * lam - v
    Dp = (m * m - t * c2) * lam - m * v
    if Dp == 0.0:
        # degenerate tangency; fall back to differencing
        return grad_eigenvalue_fd(State(rho, u, v, p), gas, family).tolist()
    one_tl2 = 1.0 + t * lam * lam
    return [
        -one_tl2 * c2 / (2.0 * Dp * rho),
        -t * D * lam / Dp,
        D / Dp,
        gas.gamma * one_tl2 / (2.0 * Dp * rho),
    ]


def grad_eigenvalue_fd(U: State, gas: GasParams, family: int) -> np.ndarray:
    """Centred finite-difference gradient of a characteristic slope.

    Step per component: ``1e-6 * (1 + |component|)``.  Used as a
    cross-check of :func:`grad_eigenvalue` and as its fallback at
    parameter degeneracies.
    """
    w = U.as_array()
    out = np.empty(4)
    for k in range(4):
        h = _FD_STEP * (1.0 + abs(w[k]))
        wp, wm = w.copy(), w.copy()
        wp[k] += h
        wm[k] -= h
        lp = eigenvalue(State.from_array(wp), gas, family)
        lm = eigenvalue(State.from_array(wm), gas, family)
        out[k] = (lp - lm) / (2.0 * h)
    return out


def eigenvector_raw(U: State, gas: GasParams, family: int) -> np.ndarray:
    """Unnormalised right eigenvector of one family.

    For the acoustic pair, with ``lam`` the family slope and
    ``D = m*lam - v``:

        r~ = ( (1 + t*lam^2)*rho/D,  -lam,  1,  D*rho )

    For the shear field (family 2): ``(0, m, t*v, 0)``; for the entropy
    field (family 3): ``(1, 0, 0, 0)``.
    """
    t = gas.t2
    if family == 2:
        return np.array([0.0, mass_flux_factor(U, gas), t * U.v, 0.0])
    if family == 3:
        return np.array([1.0, 0.0, 0.0, 0.0])
    lam = eigenvalue(U, gas, family)
    return np.array(_acoustic_raw(U.rho, U.u, U.v, U.p, gas, family, lam))


def _acoustic_raw(rho: float, u: float, v: float, p: float,
                  gas: GasParams, family: int, lam: float) -> list:
    """Acoustic branch of :func:`eigenvector_raw`, given the slope `lam`."""
    t = gas.t2
    D = (1.0 + t * u) * lam - v
    if D == 0.0:
        raise DomainError(f"degenerate acoustic direction (D=0) for family {family}")
    return [(1.0 + t * lam * lam) * rho / D, -lam, 1.0, D * rho]


def normalization_coefficient(U: State, gas: GasParams, family: int) -> float:
    """Scale factor applied to the raw eigenvector of a family.

    Genuinely nonlinear families are normalised so the directional
    derivative of their slope equals one, ``grad(lam) . r = 1``; the
    degenerate families keep coefficient 1 (their slope derivative along
    the field vanishes identically).
    """
    if family in CONTACT_FAMILIES:
        return 1.0
    return _acoustic_scale(U.rho, U.u, U.v, U.p, gas, family)[0]


def _acoustic_scale(rho: float, u: float, v: float, p: float,
                    gas: GasParams, family: int) -> tuple[float, list]:
    """``(1 / (grad(lam) . r~), r~)`` for family 1 or 4."""
    lam = acoustic_slope(rho, u, v, p, gas, family)
    grad = _acoustic_gradient(rho, u, v, p, gas, family, lam)
    raw = _acoustic_raw(rho, u, v, p, gas, family, lam)
    # np.dot, not a Python sum: BLAS rounds the 4-term sum its own way
    slope = float(np.dot(grad, raw))
    if slope == 0.0:
        raise DomainError(f"family {family} loses genuine nonlinearity at this state")
    return 1.0 / slope, raw


def eigenvector(U: State, gas: GasParams, family: int) -> np.ndarray:
    """Normalised right eigenvector (see :func:`normalization_coefficient`)."""
    if family in CONTACT_FAMILIES:
        return eigenvector_raw(U, gas, family)
    return np.array(acoustic_field(U.rho, U.u, U.v, U.p, gas, family))


def acoustic_field(rho: float, u: float, v: float, p: float,
                   gas: GasParams, family: int) -> list:
    """:func:`eigenvector` of family 1 or 4 on plain floats, as a 4-list.

    Raises what :func:`acoustic_slope` raises, and :class:`DomainError`
    where the field degenerates (``D = 0`` or ``grad(lam) . r~ = 0``).
    """
    scale, raw = _acoustic_scale(rho, u, v, p, gas, family)
    return [scale * r for r in raw]


def eigenvector_matrix(U: State, gas: GasParams) -> np.ndarray:
    """Column matrix of the four normalised eigenvectors, family order."""
    return np.column_stack([eigenvector(U, gas, j) for j in FAMILIES])


def entropy_pair(U: State, gas: GasParams) -> tuple[float, float]:
    """Entropy flux pair (eta_x, eta_y) for admissibility checks.

        eta_x = rho^(1-gamma) * p * (1 + tau^2*u)
        eta_y = rho^(1-gamma) * p * v

    For smooth solutions ``d/dx eta_x + d/dy eta_y = 0``; admissible
    discontinuities with slope s satisfy

        s * [eta_x] - [eta_y] <= 0,

    brackets denoting (above - below) jumps in y.
    """
    check_state(U, gas)
    base = U.rho ** (1.0 - gas.gamma) * U.p
    return base * mass_flux_factor(U, gas), base * U.v
