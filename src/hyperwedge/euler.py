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
    "flux_and_slope",
    "bernoulli",
    "mass_flux_factor",
    "flow_slope",
    "bc_residual",
    "eigenvalues",
    "eigenvalue",
    "acoustic_slope",
    "grad_eigenvalue_fd",
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
        Adiabatic exponent, finite and > 1.
    a_inf : float
        Background speed parameter, finite and > 0; the background sound
        speed is 1/a_inf.
    tau : float
        Scaling parameter in [0, a_inf).  ``tau = 0`` selects the
        small-disturbance limit system.
    """

    gamma: float = 1.4
    a_inf: float = 2.0
    tau: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise DomainError(f"gamma must be finite and exceed 1, got {self.gamma}")
        if not 0.0 < self.a_inf < math.inf:
            raise DomainError(f"a_inf must be positive and finite, got {self.a_inf}")
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


@dataclass(slots=True, unsafe_hash=True)
class State:
    """Primitive state (rho, u, v, p).

    Density and pressure must be positive; when ``tau > 0`` the mass-flux
    factor ``1 + tau^2*u`` must also be positive for the state to be
    meaningful.  Validity against a particular ``GasParams`` is checked by
    :func:`check_state` (constructors stay cheap).

    A value: it compares and hashes by its fields and serves as a cache
    key, so nothing assigns to one; a changed state comes from
    ``dataclasses.replace``.  The class is not ``frozen``, whose
    ``object.__setattr__`` per field made every construction several
    times dearer; a test parses the package for assignments instead.
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

    def l1_gap(self, other: "State") -> float:
        """``float(np.abs(self - other).sum())`` on plain floats.

        The same float: numpy sums four elements left to right, as here.
        """
        return float(abs(self.rho - other.rho) + abs(self.u - other.u)
                     + abs(self.v - other.v) + abs(self.p - other.p))


class FluxPair(NamedTuple):
    """Streamwise and transverse flux vectors at one state."""

    fx: np.ndarray
    fy: np.ndarray


def check_state(U: State, gas: GasParams, where: str = "") -> None:
    """Raise :class:`DomainError` if `U` is outside the physical domain.

    A NaN or infinite component is named here; the flat kernels skip
    this test, so a non-finite input must be caught before them.
    """
    if not math.isfinite(U.rho + U.u + U.v + U.p):  # one test on the common path
        for name in ("rho", "u", "v", "p"):
            value = getattr(U, name)
            if not math.isfinite(value):
                raise DomainError(f"non-finite {name} {value}{_tag(where)}")
    _check_values(U.rho, U.u, U.p, gas, where)


def _check_values(rho: float, u: float, p: float, gas: GasParams, where: str = "") -> None:
    """:func:`check_state` on the components of a state."""
    if not rho > 0.0:
        raise DomainError(f"nonpositive density {rho}{_tag(where)}")
    if not p > 0.0:
        raise DomainError(f"nonpositive pressure {p}{_tag(where)}")
    t = gas.t2
    if t > 0.0 and not 1.0 + t * u > 0.0:
        raise DomainError(f"nonpositive mass-flux factor at u={u}{_tag(where)}")


def _tag(where: str) -> str:
    """The `` (where)`` suffix of a domain error, empty without `where`."""
    return f" ({where})" if where else ""


def mass_flux_factor(U: State, gas: GasParams) -> float:
    """Streamwise mass-flux factor ``m = 1 + tau^2 * u``."""
    return 1.0 + gas.t2 * U.u


def bernoulli(U: State, gas: GasParams) -> float:
    """Transported invariant ``B = u + v^2/2 + gamma*p/((gamma-1)rho) + tau^2*u^2/2``."""
    return _bernoulli(U.rho, U.u, U.v, U.p, gas)


def _bernoulli(rho: float, u: float, v: float, p: float, gas: GasParams) -> float:
    g = gas.gamma
    # float(rho): a numpy scalar would warn as the quotient overflows
    den = (g - 1.0) * float(rho)
    if den == 0.0:  # rounds to 0 at the smallest subnormal densities
        raise DomainError(f"enthalpy term undefined at density {rho}")
    h = g * p / den
    if h == math.inf:  # overflows at densities below about 1e-308
        raise DomainError(f"enthalpy term overflows at density {rho}")
    return u + 0.5 * v * v + h + 0.5 * gas.t2 * u * u


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
    return float(mass_flux_factor(U, gas) * np.sin(theta) - U.v * np.cos(theta))


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

    Raises :class:`DomainError` where :func:`check_state` does, and at a
    density so small that ``(gamma - 1) * rho`` rounds to 0.
    """
    _check_values(rho, u, p, gas)
    m = 1.0 + gas.t2 * u
    B = _bernoulli(rho, u, v, p, gas)
    return ([rho * m, rho * u * m + p, rho * v * m, rho * m * B],
            [rho * v, rho * u * v, rho * v * v + p, rho * v * B])


def flux_and_slope(rho: float, u: float, v: float, p: float,
                   gas: GasParams, family: int) -> tuple[list, list, float]:
    """``(F_x, F_y, lam)``: :func:`flux_values` and :func:`acoustic_slope`
    of family 1 or 4 from one domain check.

    The jump-condition residual of a shock needs both at every Newton
    iterate.  Equal to the two separate calls bit for bit, and raises
    what either of them raises, first what :func:`flux_values` raises.
    Written out flat, with no further Python call, for speed: the
    operations and their order are those of :func:`flux_values`, then
    :func:`acoustic_slope` past its state checks, with the common terms
    (``m``, ``gamma*p``, ``m*m``) formed once.
    """
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    if not rho > 0.0:
        raise DomainError(f"nonpositive density {rho}")
    if not p > 0.0:
        raise DomainError(f"nonpositive pressure {p}")
    t = gas.t2
    m = 1.0 + t * u
    if t > 0.0 and not m > 0.0:
        raise DomainError(f"nonpositive mass-flux factor at u={u}")
    g = gas.gamma
    # float(rho): a numpy scalar would warn as the quotients overflow
    r = float(rho)
    den = (g - 1.0) * r
    if den == 0.0:
        raise DomainError(f"enthalpy term undefined at density {rho}")
    gp = g * p
    h = gp / den
    if h == math.inf:
        raise DomainError(f"enthalpy term overflows at density {rho}")
    B = u + 0.5 * v * v + h + 0.5 * t * u * u
    c2 = gp / r
    if c2 == math.inf:
        raise DomainError(f"sound speed overflows at density {rho}")
    mm = m * m
    den = mm - t * c2
    if den <= 0.0:
        raise DomainError(
            f"acoustic denominator (1+t*u)^2 - t*c^2 = {den} <= 0; "
            "state outside hyperbolic region"
        )
    disc = mm + t * (v * v - c2)
    if disc <= 0.0:
        raise DomainError(f"acoustic discriminant {disc} <= 0")
    sgn = -1.0 if family == 1 else 1.0
    lam = (m * v + sgn * (math.sqrt(c2) * math.sqrt(disc))) / den
    return ([rho * m, rho * u * m + p, rho * v * m, rho * m * B],
            [rho * v, rho * u * v, rho * v * v + p, rho * v * B], lam)


# ---------------------------------------------------------------------------
# characteristic fields
# ---------------------------------------------------------------------------

def eigenvalues(U: State, gas: GasParams) -> np.ndarray:
    """All four characteristic slopes at a state, ordered by family.

    The middle pair (families 2 and 3) coincide at the flow slope; the
    acoustic pair brackets them.  Ordering ties are broken by family
    index, so the returned array is ``[lam1, lam2, lam3, lam4]`` with
    ``lam1 <= lam2 == lam3 <= lam4``.
    """
    lam1 = acoustic_slope(U.rho, U.u, U.v, U.p, gas, 1)
    lam4 = acoustic_slope(U.rho, U.u, U.v, U.p, gas, 4)
    mid = U.v / (1.0 + gas.t2 * U.u)
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
    ``ValueError`` for any other family.  The state checks are those of
    :func:`_check_values`, in its order and with its messages, written
    out on purpose, with no further Python call, for speed: a shock's
    slope secant runs this kernel four times or more per front.
    """
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    if not rho > 0.0:
        raise DomainError(f"nonpositive density {rho}")
    if not p > 0.0:
        raise DomainError(f"nonpositive pressure {p}")
    t = gas.t2
    m = 1.0 + t * u
    if t > 0.0 and not m > 0.0:
        raise DomainError(f"nonpositive mass-flux factor at u={u}")
    # float(rho): a numpy scalar would warn as the quotient overflows
    c2 = gas.gamma * p / float(rho)
    if c2 == math.inf:
        raise DomainError(f"sound speed overflows at density {rho}")
    den = m * m - t * c2
    if den <= 0.0:
        raise DomainError(
            f"acoustic denominator (1+t*u)^2 - t*c^2 = {den} <= 0; "
            "state outside hyperbolic region"
        )
    disc = m * m + t * (v * v - c2)
    if disc <= 0.0:
        raise DomainError(f"acoustic discriminant {disc} <= 0")
    sgn = -1.0 if family == 1 else 1.0
    return (m * v + sgn * (math.sqrt(c2) * math.sqrt(disc))) / den


def grad_eigenvalue_fd(U: State, gas: GasParams, family: int) -> np.ndarray:
    """Centred finite-difference gradient of a characteristic slope.

    Step per component: ``1e-6 * (1 + |component|)``.
    :func:`acoustic_field` falls back to it where its closed-form
    gradient degenerates (``Dp = 0``).
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


def normalization_coefficient(U: State, gas: GasParams, family: int) -> float:
    """Scale factor applied to the raw eigenvector of a family.

    Genuinely nonlinear families are normalised so the directional
    derivative of their slope equals one, ``grad(lam) . r = 1``; the
    degenerate families keep coefficient 1 (their slope derivative along
    the field vanishes identically).
    """
    if family in CONTACT_FAMILIES:
        return 1.0
    # the raw field's third component is 1.0, so the scaled one is the scale
    return acoustic_field(U.rho, U.u, U.v, U.p, gas, family)[2]


def eigenvector(U: State, gas: GasParams, family: int) -> np.ndarray:
    """Normalised right eigenvector (see :func:`normalization_coefficient`).

    The shear field (family 2) is ``(0, m, t*v, 0)`` and the entropy
    field (family 3) is ``e_rho = (1, 0, 0, 0)``.  Their common slope
    ``v/m`` has the gradient ``(0, -t*v/m^2, 1/m, 0)``, orthogonal to
    both; the acoustic pair is :func:`acoustic_field`.
    """
    if family == 2:
        return np.array([0.0, mass_flux_factor(U, gas), gas.t2 * U.v, 0.0])
    if family == 3:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.array(acoustic_field(U.rho, U.u, U.v, U.p, gas, family))


def acoustic_field(rho: float, u: float, v: float, p: float,
                   gas: GasParams, family: int) -> list:
    """:func:`eigenvector` of family 1 or 4 on plain floats, as a 4-list.

    Closed forms.  With ``lam`` the family slope, ``D = m*lam - v`` and
    ``Dp = (m^2 - t*c^2)*lam - m*v`` (= half the lam-derivative of the
    characteristic polynomial), the gradient of the slope with respect
    to ``(rho, u, v, p)`` is

        d(lam)/d(rho) = -(1 + t*lam^2) * c^2 / (2 * Dp * rho)
        d(lam)/d(u)   = -t * D * lam / Dp
        d(lam)/d(v)   =  D / Dp
        d(lam)/d(p)   =  gamma * (1 + t*lam^2) / (2 * Dp * rho)

    (:func:`grad_eigenvalue_fd` where ``Dp = 0``), the unnormalised right
    eigenvector is

        r~ = ( (1 + t*lam^2)*rho/D,  -lam,  1,  D*rho ),

    and the field is ``r~ / (grad(lam) . r~)``, so ``grad(lam) . r = 1``.

    Raises what :func:`acoustic_slope` raises, and :class:`DomainError`
    where the field degenerates (``D = 0`` or ``grad(lam) . r~ = 0``).

    Written out flat, with no further Python call but the differencing
    fallback at ``Dp = 0``, for speed: the slope takes the operations of
    :func:`acoustic_slope` in their order, with the common terms (``m``,
    ``m*m``, ``den``, ``D``, ``1 + t*lam^2``) formed once.  The dot
    product is the plain left-to-right sum of the four products, not
    ``np.dot``: that costs more than the rest of the kernel, and its
    rounding follows the BLAS core (an FMA chain on some, this sum on
    others).
    """
    if family not in GENUINE_FAMILIES:
        raise ValueError(f"unknown family {family}")
    if not rho > 0.0:
        raise DomainError(f"nonpositive density {rho}")
    if not p > 0.0:
        raise DomainError(f"nonpositive pressure {p}")
    t = gas.t2
    m = 1.0 + t * u
    if t > 0.0 and not m > 0.0:
        raise DomainError(f"nonpositive mass-flux factor at u={u}")
    # float(rho): a numpy scalar would warn as the quotient overflows
    c2 = gas.gamma * p / float(rho)
    if c2 == math.inf:
        raise DomainError(f"sound speed overflows at density {rho}")
    mm = m * m
    den = mm - t * c2
    if den <= 0.0:
        raise DomainError(
            f"acoustic denominator (1+t*u)^2 - t*c^2 = {den} <= 0; "
            "state outside hyperbolic region"
        )
    disc = mm + t * (v * v - c2)
    if disc <= 0.0:
        raise DomainError(f"acoustic discriminant {disc} <= 0")
    sgn = -1.0 if family == 1 else 1.0
    lam = (m * v + sgn * (math.sqrt(c2) * math.sqrt(disc))) / den
    D = m * lam - v
    Dp = den * lam - m * v
    one_tl2 = 1.0 + t * lam * lam
    if Dp == 0.0:
        # degenerate tangency; fall back to differencing
        grad = grad_eigenvalue_fd(State(rho, u, v, p), gas, family).tolist()
    else:
        grad = [
            -one_tl2 * c2 / (2.0 * Dp * rho),
            -t * D * lam / Dp,
            D / Dp,
            gas.gamma * one_tl2 / (2.0 * Dp * rho),
        ]
    if D == 0.0:
        raise DomainError(f"degenerate acoustic direction (D=0) for family {family}")
    raw = [one_tl2 * rho / D, -lam, 1.0, D * rho]
    # float(): numpy-scalar inputs give a numpy-scalar sum
    slope = float(grad[0] * raw[0] + grad[1] * raw[1] + grad[2] * raw[2] + grad[3] * raw[3])
    if slope == 0.0:
        raise DomainError(f"family {family} loses genuine nonlinearity at this state")
    scale = 1.0 / slope
    return [scale * raw[0], scale * -lam, scale, scale * raw[3]]


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
