"""Interior and boundary Riemann solvers built on the wave curves.

An interior solve connects a lower state to an upper state through four
elementary waves (plus three middle states); a boundary solve connects a
state under the wall to the wall's slip condition through a single
family-1 wave.  Both are small Newton iterations on wave strengths,
started from zero (interior) or from the linearised boundary response.

All solves are local: states must lie within a componentwise trust
radius of the background, strengths within the wave-curve trust radius.
Convergence is judged purely on residuals; the tolerances here set the
floor for every jump-condition and slip-condition residual quoted by the
tracking engine above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .curves import (
    CurveError,
    damped_newton,
    fan_state,
    hugoniot_compose,
    wave_curve,
    wave_front,
)
from .euler import (
    GasParams,
    State,
    bc_residual,
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


def _minus(W: State, target: list) -> list:
    """``W.as_array() - target`` as a list, for a Newton residual."""
    rho, u, v, p = target
    return [W.rho - rho, W.u - u, W.v - v, W.p - p]


def solve_riemann(U_b: State, U_a: State, gas: GasParams) -> RiemannSolution:
    """Resolve the jump from a lower state `U_b` to an upper state `U_a`.

    Newton iteration on the four strengths, initial guess zero; the
    middle states and wave slopes are reconstructed once the strengths
    converge.  Raises :class:`SolverError` outside the trust region or
    on convergence failure.

    Each acoustic wave is evaluated once per call: the finite-difference
    columns of strengths 2-4 reuse the family-1 wave of the iterate, and
    the reconstruction reuses both acoustic waves of the last iterate.
    """
    _check_trust(U_b, gas, "lower state")
    _check_trust(U_a, gas, "upper state")
    target = U_a.as_array().tolist()
    acoustic = cache(lambda U, family, sigma: wave_front(U, family, sigma, gas))

    def F(sig):  # compose_wave_curves(U_b, sig, gas), through `acoustic`
        s1, s2, s3, s4 = sig
        m3 = wave_curve(wave_curve(acoustic(U_b, 1, s1)[0], 2, s2, gas), 3, s3, gas)
        return _minus(acoustic(m3, 4, s4)[0], target)

    try:
        sig = damped_newton(F, [0.0, 0.0, 0.0, 0.0])
    except CurveError as exc:
        raise SolverError(f"interior Riemann solve failed: {exc}") from exc

    m1, slope1 = acoustic(U_b, 1, sig[0])
    m2 = wave_curve(m1, 2, sig[1], gas)
    m3 = wave_curve(m2, 3, sig[2], gas)
    top, slope4 = acoustic(m3, 4, sig[3])
    # a 1-fan's front slope is its head; its foot is the characteristic below
    foot1 = eigenvalue(U_b, gas, 1) if sig[0] > 0.0 else slope1
    mid = flow_slope(m1, gas)
    speeds = (
        (foot1, foot1 + sig[0]) if sig[0] > 0.0 else (foot1, foot1),
        (mid, mid),
        (mid, mid),
        (slope4, slope4 + sig[3]) if sig[3] > 0.0 else (slope4, slope4),
    )
    flat = [x for pair in speeds for x in pair]
    if any(b - a < -1.0e-9 for a, b in zip(flat, flat[1:])):
        raise SolverError(f"wave slopes not ordered: {speeds}")
    return RiemannSolution(tuple(sig), (m1, m2, m3), speeds,
                           ((U_b, m1, slope1), (m3, top, slope4)))


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
        holds one: the last one the slip residual solved.
    """
    _check_trust(U_b, gas, "boundary state")
    theta_old = float(np.arctan(flow_slope(U_b, gas)))
    if abs(theta_old) + abs(theta_new - theta_old) >= 0.1:
        raise SolverError(
            f"boundary turn too large: |{theta_old:.4f}| + |{theta_new - theta_old:.4f}| >= 0.1"
        )
    kb = _background_boundary_gain(gas)
    return _slip_wave(U_b, theta_new, kb * (theta_new - theta_old), gas,
                      "boundary Riemann solve")


def _slip_wave(U_b: State, theta: float, start: float, gas: GasParams, label: str) -> tuple:
    """``(sigma1, (U_b, top, slope))``: the family-1 wave from `U_b` onto
    a wall at angle `theta`, Newton from `start`, and its front."""
    front = cache(lambda s: wave_front(U_b, 1, s, gas))
    sigma1 = _slip_strength(lambda s: front(s)[0], theta, start, gas, label)
    return sigma1, (U_b, *front(sigma1))


def _slip_strength(post, theta: float, start: float, gas: GasParams, label: str) -> float:
    """The strength z, Newton from `start`, at which the state ``post(z)``
    satisfies the slip condition along a wall at angle `theta`."""

    def F(z):
        return [bc_residual(post(z[0]), theta, gas)]

    try:
        return damped_newton(F, [start])[0]
    except CurveError as exc:
        raise SolverError(f"{label} failed: {exc}") from exc


def _background_boundary_gain(gas: GasParams) -> float:
    """Linearised d(sigma1)/d(angle) at the background state.

    The slip residual changes at rate -r_1^(3) per unit strength and at
    rate ~1 per unit angle near the background, giving gain
    ``(gamma+1)*a^4 / (2*(a^2 - tau^2)^2)``.
    """
    a2 = gas.a_inf * gas.a_inf
    return (gas.gamma + 1.0) * a2 * a2 / (2.0 * (a2 - gas.tau * gas.tau) ** 2)


def reflect_at_boundary(U_b: State, incoming_family: int, sigma_in: float,
                        theta: float, gas: GasParams) -> tuple:
    """Family-1 wave reflected when a wave meets the wall.

    `U_b` is the state below the incoming wave (families 2, 3 or 4);
    after the interaction the incoming wave is replaced by a family-1
    wave from `U_b` whose post state satisfies the slip condition at the
    unchanged wall angle `theta`.  Shear and entropy waves preserve the
    flow direction, so their reflection strength is exactly zero; a
    family-4 wave reflects with strength close to `sigma_in`.  Returns
    ``(sigma1, wave)`` as :func:`solve_boundary_riemann` does.
    """
    if incoming_family not in (2, 3, 4):
        raise SolverError(f"only families 2-4 can reach the wall, got {incoming_family}")
    _check_trust(U_b, gas, "below-wave state")
    start = sigma_in if incoming_family == 4 else 0.0
    return _slip_wave(U_b, theta, start, gas, "wall reflection solve")


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
    kb = _background_boundary_gain(gas)
    return _slip_strength(lambda q1: hugoniot_compose(U, (q1, q2, q3, q4), gas), theta_prime,
                          -q4 + kb * (theta_prime - theta), gas, "boundary jump decomposition")


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
        refl[fam] = reflect_at_boundary(Ub, fam, _PROBE, theta, gas)[0] / _PROBE
    return {"boundary_gain": float(gain), "reflection": refl}
