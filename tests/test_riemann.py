"""Interior and boundary Riemann solvers."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, seed
from hypothesis import strategies as st

import hyperwedge.experiments as experiments
import hyperwedge.riemann as riemann
import hyperwedge.tracking as tracking
from hyperwedge.euler import GasParams, State, bc_residual, flow_slope, flux_values
from hyperwedge.curves import CurveError, compose_wave_curves, hugoniot_compose, wave_curve
from hyperwedge.experiments import _newton_riemann
from hyperwedge.tracking import Front
from hyperwedge.riemann import (
    SolverError,
    boundary_hugoniot_q1,
    boundary_response,
    hugoniot_decompose,
    sample_riemann_fan,
    solve_boundary_riemann,
    solve_riemann,
    reflect_at_boundary,
)

import numpy_oracles as oracle
from conftest import count_residuals, state_box, trust_box_states

_GAS = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)


def small_strengths(scale=5e-3):
    f = st.floats(min_value=-scale, max_value=scale, allow_nan=False, width=64)
    return st.tuples(f, f, f, f)


def test_equal_states_zero_strengths(gas, bg):
    sol = solve_riemann(bg, bg, gas)
    np.testing.assert_allclose(sol.strengths, 0.0, atol=1e-14)


@given(sig=small_strengths())
def test_roundtrip_compose_then_solve(sig):
    gas = _GAS
    U_a = compose_wave_curves(gas.background(), sig, gas)
    sol = solve_riemann(gas.background(), U_a, gas)
    np.testing.assert_allclose(sol.strengths, sig, atol=1e-10)


def test_middle_states_lie_on_the_composition(gas, bg):
    sig = (-3e-3, 2e-3, 1e-3, 4e-3)
    sol = solve_riemann(bg, compose_wave_curves(bg, sig, gas), gas)
    m1 = wave_curve(bg, 1, float(sol.strengths[0]), gas)
    assert np.max(np.abs(sol.middle_states[0] - m1)) < 1e-12
    m2 = wave_curve(m1, 2, float(sol.strengths[1]), gas)
    assert np.max(np.abs(sol.middle_states[1] - m2)) < 1e-12


def test_wave_slopes_ordered(gas, bg):
    sig = (-4e-3, -2e-3, 3e-3, 5e-3)
    sol = solve_riemann(bg, compose_wave_curves(bg, sig, gas), gas)
    flat = []
    for span in sol.speeds:
        flat.extend(span)
    assert all(b - a >= -1e-12 for a, b in zip(flat, flat[1:]))
    assert sol.speeds[1] == sol.speeds[2]


def test_special_data_strengths(gas0):
    # the single-shock comparison data: a compressive 1-wave lifting the
    # density by a*eps; leading strength -(gamma+1)/2 * eps
    from hyperwedge.experiments import special_pair

    eps = 1e-3
    a = gas0.a_inf
    U_b, U_a, sigma_a1 = special_pair(eps, gas0)
    sol = solve_riemann(U_b, U_a, gas0)
    assert float(sol.strengths[0]) == pytest.approx(sigma_a1, abs=1e-12)
    assert float(sol.strengths[0]) / eps == pytest.approx(-1.2, rel=0.01)

    gas_t = gas0.with_tau(0.1)
    sol_t = solve_riemann(U_b, U_a, gas_t)
    ratio = float(sol_t.strengths[3] / sol_t.strengths[0])
    assert ratio == pytest.approx(gas_t.t2 / (4.0 * a * a), rel=0.10)


def test_trust_region_enforced(gas, bg):
    far = State(1.2, 0.0, 0.0, bg.p)
    with pytest.raises(SolverError):
        solve_riemann(bg, far, gas)
    with pytest.raises(SolverError):
        hugoniot_decompose(far, bg, gas)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(4))
def test_trust_check_rejects_nonfinite_components(gas, bg, k, value):
    # a NaN deviation compares false with the radius, so it must fail the
    # check by not being inside it, not by exceeding it
    w = [bg.rho, bg.u, bg.v, bg.p]
    w[k] = value
    bad = State(*w)
    for U_b, U_a, label in ((bad, bg, "lower state"), (bg, bad, "upper state")):
        with pytest.raises(SolverError, match=f"{label} deviates .* outside trust radius"):
            solve_riemann(U_b, U_a, gas)
    with pytest.raises(SolverError, match="boundary state deviates .* outside trust radius"):
        solve_boundary_riemann(bad, 0.0, gas)


def test_trust_deviation_is_the_array_max(gas, bg):
    # the plain-float deviation is np.max(np.abs(U - bg)), NaN included,
    # and the check's message prints it as before
    rng = np.random.default_rng(41)
    w = bg.as_array()
    states = [State(*(w + rng.uniform(-0.08, 0.08, size=4))) for _ in range(40)]
    states += [State(*(w + rng.uniform(-0.08, 0.08, size=4)).tolist()) for _ in range(40)]
    states += [State(math.nan, bg.u, bg.v, bg.p), State(bg.rho, bg.u, 1.0, math.nan)]
    outside = 0
    for U in states:
        want = np.max(np.abs(U.as_array() - w))
        dev = riemann.trust_deviation(U, gas)
        assert type(dev) is float
        assert dev == want or (math.isnan(dev) and math.isnan(want)), U
        if not want < riemann.TRUST_RADIUS:
            outside += 1
            with pytest.raises(SolverError) as err:
                solve_boundary_riemann(U, 0.0, gas)
            assert str(err.value) == (f"boundary state deviates {want:.4f} from background, "
                                      f"outside trust radius {riemann.TRUST_RADIUS}")
    assert 2 < outside < len(states)


def test_boundary_solve_trivial_and_slip(gas, bg):
    assert abs(solve_boundary_riemann(bg, 0.0, gas)[0]) < 1e-12
    theta = -8e-3
    sig, _ = solve_boundary_riemann(bg, theta, gas)
    post = wave_curve(bg, 1, sig, gas)
    assert sig < 0.0  # compressive turn emits a shock
    assert abs(bc_residual(post, theta, gas)) < 1e-12
    assert math.tan(theta) == pytest.approx(flow_slope(post, gas), abs=1e-12)


def test_boundary_gain_zero_tau(gas0, bg0):
    resp = boundary_response(gas0)
    assert resp["boundary_gain"] == pytest.approx(1.2, abs=1e-4)
    assert resp["reflection"][4] == pytest.approx(1.0, abs=1e-3)
    assert abs(resp["reflection"][2]) < 1e-3
    assert abs(resp["reflection"][3]) < 1e-3


def test_boundary_response_is_made_of_the_returned_strengths(gas, bg):
    # the wall solvers return (sigma1, wave): the ratios take the strengths
    resp = boundary_response(gas)
    p = riemann._PROBE
    sp, _ = solve_boundary_riemann(bg, p, gas)
    sm, _ = solve_boundary_riemann(bg, -p, gas)
    assert resp["boundary_gain"] == (sp - sm) / (2.0 * p)
    for fam in (2, 3, 4):
        theta = float(np.arctan(flow_slope(wave_curve(bg, fam, p, gas), gas)))
        assert resp["reflection"][fam] == reflect_at_boundary(bg, fam, theta, gas)[0] / p


def test_reflection_zero_strength(gas, bg):
    assert reflect_at_boundary(bg, 4, 0.0, gas)[0] == pytest.approx(0.0, abs=1e-12)
    # contact hitting the wall at the angle it itself carries: nothing reflects
    top = wave_curve(bg, 2, 1e-4, gas)
    theta = float(np.arctan(flow_slope(top, gas)))
    assert abs(reflect_at_boundary(bg, 2, theta, gas)[0]) < 1e-7


@given(q=small_strengths())
def test_hugoniot_decompose_roundtrip(q):
    gas = _GAS
    V = hugoniot_compose(gas.background(), q, gas)
    got = hugoniot_decompose(gas.background(), V, gas)
    np.testing.assert_allclose(got, q, atol=1e-10)


def test_hugoniot_decompose_contact_shift(gas, bg):
    V = State(1.04, 0.0, 0.0, bg.p)
    np.testing.assert_allclose(hugoniot_decompose(bg, V, gas),
                               [0.0, 0.0, 0.04, 0.0], atol=1e-12)


def test_boundary_jump_strength_coefficients(gas0, bg0):
    assert boundary_hugoniot_q1(0.0, 0.0, 0.0, 0.0, 0.0, bg0, gas0) == pytest.approx(
        0.0, abs=1e-12)
    h = 1e-4
    # response to a family-4 jump at fixed angle
    kb = boundary_hugoniot_q1(0.0, 0.0, h, 0.0, 0.0, bg0, gas0) / h
    assert kb == pytest.approx(-1.0, abs=1e-3)
    # response to an angle change with no incoming jumps
    kt = boundary_hugoniot_q1(0.0, 0.0, 0.0, 0.0, h, bg0, gas0) / h
    assert kt == pytest.approx(1.2, abs=1e-3)


def test_sample_riemann_fan_far_field(gas, bg):
    sig = (-3e-3, 1e-3, -2e-3, 4e-3)
    U_a = compose_wave_curves(bg, sig, gas)
    sol = solve_riemann(bg, U_a, gas)
    lo = sol.speeds[0][0]
    hi = sol.speeds[3][1]
    assert sample_riemann_fan(sol, bg, lo - 0.1, gas) == bg
    got = sample_riemann_fan(sol, bg, hi + 0.1, gas)
    assert np.max(np.abs(got - U_a)) < 1e-10
    # inside the family-4 fan the family slope matches the ray slope
    from hyperwedge.euler import eigenvalue
    zlo, zhi = sol.speeds[3]
    mid = sample_riemann_fan(sol, bg, 0.5 * (zlo + zhi), gas)
    assert eigenvalue(mid, gas, 4) == pytest.approx(0.5 * (zlo + zhi), abs=1e-10)


# ---------------------------------------------------------------------------
# one solve per acoustic wave, against the recompute-everything oracle
# ---------------------------------------------------------------------------

#: composed strengths: both signs of sigma1 and sigma4, rarefactions that
#: split at fine sampling, and a contact or family-1 wave that comes out
#: at or below the emission cut-off of 1e-14
_ORACLE_CASES = [
    (-3e-3, 1e-3, -2e-3, 4e-3),
    (3e-3, -1e-3, 2e-3, -4e-3),
    (-3e-3, 1e-3, 2e-3, -4e-3),
    (4e-3, 1e-3, -2e-3, 3e-3),
    (-1e-3, 0.0, 1e-3, 1e-3),
    (2e-3, 0.0, 1e-3, -3e-3),
    (0.0, 1e-3, 2e-3, -4e-3),
]

#: the array Newton stops at a 1e-12 state residual, and the strengths
#: move by at most 6.5 per unit of it (the largest row sum of the inverse
#: eigenvector matrix over the trust box, at every tau tested)
_NEWTON_BOUND = 1.0e-11


@pytest.mark.parametrize("tau", [0.0, 0.1])
@pytest.mark.parametrize("sig", _ORACLE_CASES)
def test_solve_riemann_matches_recomputing_oracle(tau, sig):
    # the special solution's kept Newton is the oracle's solve bit for bit,
    # and its solved waves emit the oracle's fronts; the slip-line root
    # agrees with the oracle to the Newton's tolerance, and the emission
    # takes the family-4 front it solved once waves 1-3 reach its foot
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    U_b = compose_wave_curves(gas.background(), (1e-3, -5e-4, 2e-3, -1e-3), gas)
    U_a = compose_wave_curves(U_b, sig, gas)
    strengths, middles, speeds = oracle.solve_riemann(U_b, U_a, gas)
    kept = _newton_riemann(U_b, U_a, gas)
    assert np.array_equal(kept.strengths, strengths)
    assert kept.middle_states == middles
    # the oracle keeps a single slope for a jump, the solver a pair
    assert kept.speeds == tuple((s, s) if np.isscalar(s) else s for s in speeds)
    for j, sigma in zip((1, 2, 3, 4), sig):
        if sigma == 0.0:
            assert abs(kept.strengths[j - 1]) <= tracking._ZERO_STRENGTH
    # U_a carries the 1e-12 residual of the Newton shocks that composed
    # it, so the root resolves it into waves of up to about 5e-13
    sol = solve_riemann(U_b, U_a, gas)
    assert max(abs(a - b) for a, b in zip(sol.strengths, strengths)) <= _NEWTON_BOUND
    # at nu = 1000 each rarefaction splits into sigma*nu > 1 pieces
    for nu in (10, 1000):
        got = tracking._emit_riemann(kept, U_b, 0.4, -0.2, gas, nu)
        want = oracle.emit_riemann(kept.strengths, U_b, 0.4, -0.2, gas, nu)
        assert got == want
        fronts, top = tracking._emit_riemann(sol, U_b, 0.4, -0.2, gas, nu)
        assert fronts[0].below == U_b
        assert all(a.above == b.below for a, b in zip(fronts, fronts[1:]))
        assert max(map(abs, top - U_a)) <= 1e-12
        if nu == 10 and all(sig):  # every wave one front: the chain reaches m3
            m3, _, slope4 = sol.acoustic[1]
            assert fronts[-1] == Front(4, sol.strengths[3], 0.4, -0.2, slope4, m3, U_a)


# ---------------------------------------------------------------------------
# the Newtons left: every one bit for bit its array residual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_riemann_solvers_match_array_newton(tau, monkeypatch):
    # special's kept interior solve and the two jump decompositions keep
    # the Newton (the slip-line roots are checked against it below)
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    got, want = [], []
    newton = count_residuals(riemann.damped_newton, got)
    monkeypatch.setattr(riemann, "damped_newton", newton)
    monkeypatch.setattr(experiments, "damped_newton", newton)
    monkeypatch.setattr(oracle, "damped_newton", count_residuals(oracle.damped_newton, want))
    rng = np.random.default_rng(17)
    for U in trust_box_states(gas, 6, seed=13):
        sig = rng.uniform(-3e-3, 3e-3, size=4)
        V = compose_wave_curves(U, sig, gas)
        sol = _newton_riemann(U, V, gas)
        strengths, middles, _ = oracle.solve_riemann(U, V, gas)
        assert np.array_equal(sol.strengths, strengths) and sol.middle_states == middles

        q = hugoniot_decompose(U, hugoniot_compose(U, sig, gas), gas)
        assert np.array_equal(q, oracle.hugoniot_decompose(U, hugoniot_compose(U, sig, gas), gas))

        theta = math.atan(flow_slope(U, gas))
        for turn in (-2e-3, 3e-3):
            args = (sig[1], sig[2], sig[3], theta, theta + turn, U, gas)
            assert boundary_hugoniot_q1(*args) == oracle.boundary_hugoniot_q1(*args)
    # per state: one interior solve, one decomposition, two boundary
    # decompositions
    assert got == want and len(got) == 6 * 4


# ---------------------------------------------------------------------------
# the slip-line roots: jump, slip and wall conditions at rounding level
# ---------------------------------------------------------------------------

_ULP = 2.0 ** -52
_TAUS = [0.0, 0.05, 0.1, 0.4]


def _strengths():
    """Four signed strengths of 1e-16 to 3e-2, log-uniform: both branches
    of each acoustic side, and contacts at rounding level and above."""
    size = st.floats(min_value=-16.0, max_value=math.log10(3e-2))
    return st.tuples(*[st.tuples(st.sampled_from((-1.0, 1.0)), size)] * 4).map(
        lambda pairs: tuple(sign * 10.0 ** e for sign, e in pairs))


def _jump_ulps(below, top, slope, gas):
    """Largest jump-condition residual ``s [F_x] - [F_y]`` of a front, in
    units of 2^-52."""
    fxb, fyb = flux_values(below.rho, below.u, below.v, below.p, gas)
    fxt, fyt = flux_values(top.rho, top.u, top.v, top.p, gas)
    return max(abs(slope * (a - b) - (c - d)) for a, b, c, d in zip(fxt, fxb, fyt, fyb)) / _ULP


def _solved_pair(gas, U_b, sig):
    V = compose_wave_curves(U_b, sig, gas)
    assume(riemann.trust_deviation(V, gas) < riemann.TRUST_RADIUS)
    return V, solve_riemann(U_b, V, gas)


@pytest.mark.parametrize("tau", _TAUS)
@seed(35)
@given(data=st.data(), sig=_strengths())
def test_slip_root_meets_the_jump_and_slip_conditions(tau, data, sig):
    # the family-1 shock is its own closed form: 8 ulps.  The family-4
    # front sits on m3, built from m1 through the contact curves, whose u
    # carries about one ulp of the mass-flux factor, 2^-52/tau^2 in u; so
    # its bound adds 1/tau^2 ulps (0 at tau = 0, where u shifts exactly)
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    U_b = data.draw(state_box(gas, spread=0.04))
    _, sol = _solved_pair(gas, U_b, sig)
    m1, m2, m3 = sol.middle_states
    assert m1.p == m2.p == m3.p
    assert abs(flow_slope(m1, gas) - flow_slope(m3, gas)) <= 4 * _ULP
    bounds = (8.0, 8.0 + (1.0 / gas.t2 if tau else 0.0))
    for strength, front, bound in zip(sol.strengths[::3], sol.acoustic, bounds):
        if strength < 0.0:
            assert _jump_ulps(*front, gas) <= bound


@pytest.mark.parametrize("tau", _TAUS)
@seed(36)
@given(data=st.data(), turn=st.floats(min_value=-0.02, max_value=0.02))
def test_wall_root_meets_the_wall_slope(tau, data, turn):
    # the secant stops once its pressure step is within 2^-49 p, where
    # the slope's own rounding decides: at most 7 ulps over 3,000 seeded
    # walls at each tau tested
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    U_b = data.draw(state_box(gas, spread=0.04))
    theta = math.atan(flow_slope(U_b, gas)) + turn
    for sigma, (below, top, slope) in (solve_boundary_riemann(U_b, theta, gas),
                                       reflect_at_boundary(U_b, 4, theta, gas)):
        assert below is U_b
        assert abs(flow_slope(top, gas) - math.tan(theta)) <= 16 * _ULP
        if sigma < 0.0:
            assert _jump_ulps(below, top, slope, gas) <= 8.0


@pytest.mark.parametrize("tau", _TAUS)
@seed(37)
@given(data=st.data(), sig=_strengths(), turn=st.floats(min_value=-0.02, max_value=0.02))
def test_slip_roots_agree_with_the_array_newton(tau, data, sig, turn):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    U_b = data.draw(state_box(gas, spread=0.04))
    V, sol = _solved_pair(gas, U_b, sig)
    strengths, middles, _ = oracle.solve_riemann(U_b, V, gas)
    assert max(abs(a - b) for a, b in zip(sol.strengths, strengths)) <= _NEWTON_BOUND
    for got, want in zip(sol.middle_states, middles):
        assert max(map(abs, got - want)) <= _NEWTON_BOUND
    theta = math.atan(flow_slope(U_b, gas)) + turn
    want = oracle.solve_boundary_riemann(U_b, theta, gas)[0]
    assert abs(solve_boundary_riemann(U_b, theta, gas)[0] - want) <= _NEWTON_BOUND
    assert abs(reflect_at_boundary(U_b, 4, theta, gas)[0] - want) <= _NEWTON_BOUND


@pytest.mark.parametrize("tau", _TAUS)
def test_states_within_the_newton_tolerance_give_zero_strengths(tau):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    for U in trust_box_states(gas, 6, seed=29):
        near = State(U.rho + 9e-13, U.u - 9e-13, U.v + 5e-13, U.p - 9e-13)
        for V in (U, near):
            sol = solve_riemann(U, V, gas)
            assert sol.strengths == (0.0, 0.0, 0.0, 0.0)
            assert sol.middle_states == (U, U, U)
        # one component past the tolerance resolves into waves
        assert solve_riemann(U, State(U.rho, U.u, U.v, U.p + 3e-12), gas).strengths != (0.0,) * 4


@pytest.mark.parametrize("tau", _TAUS)
def test_slip_roots_return_plain_floats(tau):
    # numpy-scalar inputs, as Newton iterates and the benchmark's walks
    # give them, leave no numpy scalar in a strength, state or slope
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    states = trust_box_states(gas, 6, seed=31)
    for U, V in zip(states[::2], states[1::2]):
        V = State(*(0.9 * U.as_array() + 0.1 * V.as_array()))
        assert type(V.rho) is np.float64
        sol = solve_riemann(V, U, gas)
        floats = [*sol.strengths, *(x for span in sol.speeds for x in span)]
        floats += [x for W in (*sol.middle_states, sol.acoustic[1][1]) for x in astuple(W)]
        floats += [sol.acoustic[0][2], sol.acoustic[1][2]]
        theta = math.atan(float(flow_slope(V, gas))) + 1e-3
        for sigma, (_, top, slope) in (solve_boundary_riemann(V, theta, gas),
                                       reflect_at_boundary(V, 3, theta, gas)):
            floats += [sigma, slope, *astuple(top)]
        assert all(type(x) is float for x in floats)


def test_strength_checks_reject_a_nan(gas, bg, monkeypatch):
    # abs(nan) > DELTA_TRUST is false, so a NaN strength once passed the
    # check; here the family-1 slope behind the wave reads NaN
    with pytest.raises(CurveError, match=r"^wave strength nan outside trust radius"):
        riemann._check_strengths((1e-3, math.nan))
    lam = riemann.eigenvalue
    monkeypatch.setattr(riemann, "eigenvalue",
                        lambda U, g, j: math.nan if j == 1 and U != bg else lam(U, g, j))
    above = State(bg.rho + 1e-3, bg.u, bg.v, bg.p + 1e-3)
    with pytest.raises(SolverError, match=r"^interior Riemann solve failed: wave strength nan "
                                          r"outside trust radius 0\.1$"):
        solve_riemann(bg, above, gas)
    with pytest.raises(SolverError, match=r"^boundary Riemann solve failed: wave strength nan "
                                          r"outside trust radius 0\.1$"):
        solve_boundary_riemann(bg, -0.01, gas)


def test_slip_roots_outside_the_trust_box_or_the_hyperbolic_region_raise(gas, bg):
    far = State(bg.rho, bg.u, bg.v, bg.p + 0.06)
    with pytest.raises(SolverError, match="upper state deviates"):
        solve_riemann(bg, far, gas)
    with pytest.raises(SolverError, match="below-wave state deviates"):
        reflect_at_boundary(far, 4, 0.0, gas)
    # at tau = 1.9 and a_inf = 2 the background is barely hyperbolic:
    # m^2 - tau^2 c^2 = 0.0975, and a pressure rise of 0.04 closes it
    edge = GasParams(gamma=1.4, a_inf=2.0, tau=1.9)
    base = edge.background()
    with pytest.raises(SolverError, match="^interior Riemann solve failed: .*hyperbolic"):
        solve_riemann(base, State(base.rho, base.u, base.v, base.p + 0.04), edge)
    with pytest.raises(SolverError, match="^boundary Riemann solve failed: .*hyperbolic"):
        solve_boundary_riemann(base, -0.09, edge)
    # strengths past DELTA_TRUST inside the box: this pressure jump makes a
    # family-1 shock of about -0.109 (and a contact of -0.377, which
    # wave_curve would refuse on its own), a turn of -0.095 one of -0.115
    low = State(bg.rho, bg.u, bg.v, bg.p - 0.045)
    high = State(bg.rho, bg.u, bg.v, bg.p + 0.045)
    with pytest.raises(SolverError, match=r"^interior Riemann solve failed: wave strength "
                                          r"-0\.10\d* outside trust radius 0\.1$"):
        solve_riemann(low, high, gas)
    with pytest.raises(SolverError, match=r"^boundary Riemann solve failed: wave strength "
                                          r"-0\.11\d* outside trust radius 0\.1$"):
        solve_boundary_riemann(bg, -0.095, gas)
