"""Interior and boundary Riemann solvers built on the wave curves.

An interior solve connects a lower state to an upper state through four
elementary waves (plus three middle states); a boundary solve connects a
state under the wall to the wall's slip condition through a single
family-1 wave.  Both are one secant on the pressure at the slip line,
where each acoustic wave has a closed form (Courant & Friedrichs,
ch. IV), stopped at rounding level.  The jump decompositions
(:func:`hugoniot_decompose`, :func:`boundary_hugoniot_q1`) are small
Newton iterations on jump strengths, started from the linearised
decomposition.

All solves are local: states must lie within a componentwise trust
radius of the background, strengths within the wave-curve trust radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .curves import (
    DELTA_TRUST,
    CurveError,
    damped_newton,
    fan_state,
    hugoniot_compose,
    pressure_front,
    secant_root,
    wave_curve,
)
from .euler import (
    DomainError,
    GasParams,
    State,
    bc_residual,
    check_state,
    eigenvalue,
    eigenvector_matrix,
    flow_slope,
)

__all__ = [
    "SolverError",
    "TRUST_RADIUS",
    "RiemannSolution",
    "solve_riemann",
    "solve_boundary_riemann",
    "reflect_at_boundary",
    "hugoniot_decompose",
    "boundary_hugoniot_q1",
    "sample_riemann_fan",
    "boundary_response",
    "trust_deviation",
]

#: componentwise trust radius around the background state for all solves
TRUST_RADIUS = 0.05
#: wave strength and wall angle of the probes in :func:`boundary_response`
_PROBE = 1.0e-5
#: states this close in every component are one state to the interior
#: solve, which gives them zero strengths: the root would resolve their
#: gap into fronts of about 1e-13, above the tracker's 1e-14 emission
#: cut-off, where a coincidence of such fronts can stop a run
_SAME_STATE = 1.0e-12


class SolverError(RuntimeError):
    """Riemann solve failed or was requested outside its trust region."""


def trust_deviation(U: State, gas: GasParams) -> float:
    """Largest componentwise distance of `U` from the background state.

    NaN if any component is NaN, as ``np.max`` gives it: ``max`` alone
    may skip a NaN, so a NaN state would pass for a near one.
    """
    bg = gas.background()
    d = [abs(U.rho - bg.rho), abs(U.u - bg.u), abs(U.v - bg.v), abs(U.p - bg.p)]
    return math.nan if math.isnan(sum(d)) else float(max(d))


def _check_trust(U: State, gas: GasParams, label: str) -> None:
    dev = trust_deviation(U, gas)
    if not dev < TRUST_RADIUS:  # a NaN component fails too
        raise SolverError(
            f"{label} deviates {dev:.4f} from background, outside trust radius {TRUST_RADIUS}"
        )


@dataclass(frozen=True)
class RiemannSolution:
    """Four-wave decomposition of a lower/upper state pair.

    Attributes
    ----------
    strengths : tuple
        Signed strengths (sigma_1 .. sigma_4), as floats.
    middle_states : tuple[State, State, State]
        States between consecutive waves, bottom to top.
    speeds : tuple
        One ``(low, high)`` slope pair per family: a rarefaction fan's
        foot and head, or a shock's, contact's or zero-strength wave's
        single slope twice.  The slopes are non-decreasing; families 2
        and 3 share a single slope.
    acoustic : tuple
        ``(below, top, slope)`` of the family-1 wave and of the family-4
        wave, as :func:`hyperwedge.curves.wave_front` gives them for a
        single front: the jump slope of a shock, else the trailing-edge
        characteristic slope (of `top` for family 1, of `below` for
        family 4).
    """

    strengths: tuple
    middle_states: tuple
    speeds: tuple
    acoustic: tuple

    @classmethod
    def of_waves(cls, U_b: State, strengths: tuple, middle_states: tuple, acoustic: tuple,
                 gas: GasParams) -> "RiemannSolution":
        """The solution with these waves, its `speeds` taken from them.

        Raises :class:`SolverError` when the slopes are out of order by
        more than 1e-9.
        """
        sig1, sig4 = strengths[0], strengths[3]
        slope1, slope4 = acoustic[0][2], acoustic[1][2]
        # a 1-fan's front slope is its head; its foot is the characteristic below
        foot1 = eigenvalue(U_b, gas, 1) if sig1 > 0.0 else slope1
        mid = flow_slope(middle_states[0], gas)
        speeds = (
            (foot1, foot1 + sig1) if sig1 > 0.0 else (foot1, foot1),
            (mid, mid),
            (mid, mid),
            (slope4, slope4 + sig4) if sig4 > 0.0 else (slope4, slope4),
        )
        flat = [x for pair in speeds for x in pair]
        if any(b - a < -1.0e-9 for a, b in zip(flat, flat[1:])):
            raise SolverError(f"wave slopes not ordered: {speeds}")
        return cls(tuple(strengths), tuple(middle_states), speeds, tuple(acoustic))


def _minus(W: State, target: list) -> list:
    """``W.as_array() - target`` as a list, for a Newton residual."""
    rho, u, v, p = target
    return [W.rho - rho, W.u - u, W.v - v, W.p - p]


def _plain(U: State) -> State:
    """`U` on plain floats: numpy scalars would carry into the strengths."""
    return State(float(U.rho), float(U.u), float(U.v), float(U.p))


def solve_riemann(U_b: State, U_a: State, gas: GasParams) -> RiemannSolution:
    """Resolve the jump from a lower state `U_b` to an upper state `U_a`.

    One scalar root in the pressure ``p`` at the slip line: the family-1
    wave from `U_b` and the family-4 wave into `U_a` each have a closed
    form in ``p`` (:func:`hyperwedge.curves.pressure_front`), and the
    flow slopes of their two states ``m1(p)`` and ``m3(p)`` must agree.
    A secant from ``p_b`` and ``p_a`` stops at rounding level
    (:func:`hyperwedge.curves.secant_root`).  The strengths are

    * ``sigma1 = lam1(m1) - lam1(U_b)``;
    * ``sigma2 = log1p(tau^2 (u3 - u1)/(1 + tau^2 u1))/tau^2``
      (``u3 - u1`` at ``tau = 0``), the shear scaling that takes ``m1``'s
      mass-flux factor to ``m3``'s without the rounding of a ratio
      divided by ``tau^2``;
    * ``sigma3 = rho3 - rho1``;
    * ``sigma4 = lam4(U_a) - lam4(m3)``.

    ``m2`` and ``m3`` are built from ``m1`` through the contact curves,
    so the solved family-4 front starts from the very state that
    emitting waves 1 to 3 reaches.  States at most ``_SAME_STATE``
    (1e-12) apart in every component give zero strengths and ``U_b``
    everywhere.

    Raises :class:`SolverError` outside the trust region, for a strength
    beyond ``DELTA_TRUST``, outside the hyperbolic region, when the
    secant does not converge, or when the wave slopes are out of order.
    """
    _check_trust(U_b, gas, "lower state")
    _check_trust(U_a, gas, "upper state")
    Ub, Ua = _plain(U_b), _plain(U_a)
    try:
        check_state(Ub, gas, "lower state")
        check_state(Ua, gas, "upper state")
        if max(map(abs, _minus(Ub, [Ua.rho, Ua.u, Ua.v, Ua.p]))) <= _SAME_STATE:
            lam1, lam4 = eigenvalue(Ub, gas, 1), eigenvalue(Ub, gas, 4)
            return RiemannSolution.of_waves(U_b, (0.0, 0.0, 0.0, 0.0), (U_b, U_b, U_b),
                                            ((U_b, U_b, lam1), (U_b, U_b, lam4)), gas)
        lower = cache(lambda p: pressure_front(Ub, 1, p, gas))
        upper = cache(lambda p: pressure_front(Ua, 4, p, gas))

        def mismatch(p):
            return flow_slope(lower(p)[0], gas) - flow_slope(upper(p)[0], gas)

        p = secant_root(mismatch, Ub.p, _second_pressure(Ub, Ua, gas), flow_slope(Ub, gas),
                        "slip-line pressure")
        m1, slope1 = lower(p)
        below4, slope4 = upper(p)
        t = gas.t2
        du = below4.u - m1.u
        sig = (eigenvalue(m1, gas, 1) - eigenvalue(Ub, gas, 1),
               du if t == 0.0 else math.log1p(t * du / (1.0 + t * m1.u)) / t,
               below4.rho - m1.rho)
        _check_strengths(sig)
        m2 = wave_curve(m1, 2, sig[1], gas)
        m3 = wave_curve(m2, 3, sig[2], gas)
        lam4 = eigenvalue(m3, gas, 4)
        sig += (eigenvalue(Ua, gas, 4) - lam4,)
        _check_strengths(sig[3:])
    except (CurveError, DomainError) as exc:
        raise SolverError(f"interior Riemann solve failed: {exc}") from exc
    # a 4-fan's front slope is its foot, the characteristic of m3 itself
    slope4 = slope4 if p > Ua.p else lam4
    return RiemannSolution.of_waves(U_b, sig, (m1, m2, m3),
                                    ((U_b, m1, slope1), (m3, Ua, slope4)), gas)


def _second_pressure(U_b: State, U_a: State, gas: GasParams) -> float:
    """``p_a``, the secant's second point; for ``p_a == p_b`` the root of
    the linearised slip condition, each side's flow slope moving by
    ``-/+ dp/(rho c)`` as at ``tau = 0``."""
    if U_a.p != U_b.p:
        return U_a.p
    zb = math.sqrt(gas.gamma * U_b.p * U_b.rho)
    za = math.sqrt(gas.gamma * U_a.p * U_a.rho)
    return U_b.p + (flow_slope(U_b, gas) - flow_slope(U_a, gas)) / (1.0 / zb + 1.0 / za)


def _check_strengths(sig) -> None:
    for sigma in sig:
        if abs(sigma) > DELTA_TRUST:
            raise CurveError(f"wave strength {sigma} outside trust radius {DELTA_TRUST}")


def solve_boundary_riemann(U_b: State, theta_new: float, gas: GasParams) -> tuple:
    """Family-1 wave bringing a state under the wall onto a new wall angle.

    Parameters
    ----------
    U_b : State
        State currently adjacent to (below) the wall.
    theta_new : float
        Wall inclination angle downstream of the turn.

    Returns
    -------
    sigma1 : float
        Strength of the emitted family-1 wave, whose post state
        ``wave_curve(U_b, 1, sigma1)`` satisfies the slip condition at
        `theta_new` to solver tolerance.
    wave : tuple
        ``(U_b, top, slope)``, its front as ``RiemannSolution.acoustic``
        holds one: the state whose flow slope is ``tan(theta_new)``.
    """
    _check_trust(U_b, gas, "boundary state")
    theta_old = float(np.arctan(flow_slope(U_b, gas)))
    if abs(theta_old) + abs(theta_new - theta_old) >= 0.1:
        raise SolverError(
            f"boundary turn too large: |{theta_old:.4f}| + |{theta_new - theta_old:.4f}| >= 0.1"
        )
    return _slip_wave(U_b, theta_new, gas, "boundary Riemann solve")


def _slip_wave(U_b: State, theta: float, gas: GasParams, label: str) -> tuple:
    """``(sigma1, (U_b, top, slope))``: the family-1 wave from `U_b` onto
    a wall at angle `theta`, and its front.

    One secant on the pressure behind the wave, as in
    :func:`solve_riemann`: the top state's flow slope is ``tan(theta)``.
    It starts from ``p_b`` and the linearised root, the flow slope
    moving by ``-dp/(rho c)`` as at ``tau = 0``.
    """
    Ub = _plain(U_b)
    target = math.tan(theta)
    try:
        check_state(Ub, gas, "boundary state")
        front = cache(lambda p: pressure_front(Ub, 1, p, gas))
        slope_b = flow_slope(Ub, gas)
        p1 = Ub.p - (target - slope_b) * math.sqrt(gas.gamma * Ub.p * Ub.rho)
        p = secant_root(lambda p: flow_slope(front(p)[0], gas) - target, Ub.p, p1,
                        slope_b, "wall pressure")
        top, slope = front(p)
        sigma1 = eigenvalue(top, gas, 1) - eigenvalue(Ub, gas, 1)
        _check_strengths((sigma1,))
    except (CurveError, DomainError) as exc:
        raise SolverError(f"{label} failed: {exc}") from exc
    return sigma1, (U_b, top, slope)


def _background_boundary_gain(gas: GasParams) -> float:
    """Linearised d(sigma1)/d(angle) at the background state.

    The slip residual changes at rate -r_1^(3) per unit strength and at
    rate ~1 per unit angle near the background, giving gain
    ``(gamma+1)*a^4 / (2*(a^2 - tau^2)^2)``.
    """
    a2 = gas.a_inf * gas.a_inf
    return (gas.gamma + 1.0) * a2 * a2 / (2.0 * (a2 - gas.tau * gas.tau) ** 2)


def reflect_at_boundary(U_b: State, incoming_family: int, theta: float,
                        gas: GasParams) -> tuple:
    """Family-1 wave reflected when a wave meets the wall.

    `U_b` is the state below the incoming wave (families 2, 3 or 4);
    after the interaction the incoming wave is replaced by a family-1
    wave from `U_b` whose post state satisfies the slip condition at the
    unchanged wall angle `theta`.  Shear and entropy waves preserve the
    flow direction, so their reflection strength is zero to rounding; a
    family-4 wave reflects with about its own strength.  Returns
    ``(sigma1, wave)`` as :func:`solve_boundary_riemann` does.
    """
    if incoming_family not in (2, 3, 4):
        raise SolverError(f"only families 2-4 can reach the wall, got {incoming_family}")
    _check_trust(U_b, gas, "below-wave state")
    return _slip_wave(U_b, theta, gas, "wall reflection solve")


def hugoniot_decompose(U: State, V: State, gas: GasParams) -> tuple:
    """Jump strengths (q1..q4) connecting `U` to `V` through the four loci.

    Inverse of :func:`hyperwedge.curves.hugoniot_compose`, as a tuple of
    floats.  The Newton start is the linearised decomposition of V - U
    in the eigenbasis at `U`, so nearby states converge in one or two
    steps.
    """
    _check_trust(U, gas, "decomposition base state")
    _check_trust(V, gas, "decomposition target state")
    target = V.as_array()
    goal = target.tolist()

    def F(q):
        return _minus(hugoniot_compose(U, q, gas), goal)

    q0 = np.linalg.solve(eigenvector_matrix(U, gas), target - U.as_array())
    try:
        return tuple(damped_newton(F, q0))
    except CurveError as exc:
        raise SolverError(f"jump decomposition failed: {exc}") from exc


def boundary_hugoniot_q1(q2: float, q3: float, q4: float, theta: float,
                         theta_prime: float, U: State, gas: GasParams) -> float:
    """Family-1 jump strength restoring the slip condition at a new angle.

    Given a state `U` satisfying the slip condition at angle `theta`,
    and jump strengths q2..q4 applied above a free family-1 jump, returns
    the q1 for which the fully composed state satisfies the slip
    condition at `theta_prime`.  Near the background the linearisation is
    ``q1 = -q4 + gain*(theta_prime - theta)`` with the same gain as the
    boundary Riemann solve.
    """
    _check_trust(U, gas, "boundary decomposition state")

    def F(z):  # the slip residual of the composed state
        return [bc_residual(hugoniot_compose(U, (z[0], q2, q3, q4), gas), theta_prime, gas)]

    try:
        return damped_newton(F, [-q4 + _background_boundary_gain(gas) * (theta_prime - theta)])[0]
    except CurveError as exc:
        raise SolverError(f"boundary jump decomposition failed: {exc}") from exc


def sample_riemann_fan(sol: RiemannSolution, U_b: State, zeta: float,
                       gas: GasParams) -> State:
    """Self-similar solution of a resolved Riemann problem at slope `zeta`.

    Pointwise exact: constant states between waves, curve states inside
    rarefaction fans (family slope pinned to `zeta`).  At a discontinuity
    slope the state above is returned, so the map is right-continuous in
    `zeta`.
    """
    states = [U_b, *sol.middle_states]
    for j, (lo, hi) in zip((1, 2, 3, 4), sol.speeds):
        if zeta < lo:
            return states[j - 1]
        if zeta < hi or (zeta == hi and hi > lo):
            return fan_state(states[j - 1], j, sol.strengths[j - 1], zeta, gas)
    return sol.acoustic[1][1]


def boundary_response(gas: GasParams) -> dict:
    """Measured small-wave boundary coefficients at the background state.

    Returns the centred-difference gain d(sigma1)/d(angle) of
    :func:`solve_boundary_riemann` and the per-family reflection ratios
    sigma_out/sigma_in of :func:`reflect_at_boundary`, all probed with
    waves/angles of size ``_PROBE`` around the flat wall.
    """
    Ub = gas.background()
    sp, _ = solve_boundary_riemann(Ub, _PROBE, gas)
    sm, _ = solve_boundary_riemann(Ub, -_PROBE, gas)
    gain = (sp - sm) / (2.0 * _PROBE)
    refl = {}
    for fam in (2, 3, 4):
        # wall angle consistent with the incoming top state, as in a run
        top = wave_curve(Ub, fam, _PROBE, gas)
        theta = float(np.arctan(flow_slope(top, gas)))
        refl[fam] = reflect_at_boundary(Ub, fam, theta, gas)[0] / _PROBE
    return {"boundary_gain": float(gain), "reflection": refl}
