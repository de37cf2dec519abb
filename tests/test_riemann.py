"""Interior and boundary Riemann solvers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperwedge.riemann as riemann
import hyperwedge.tracking as tracking
from hyperwedge.euler import GasParams, State, bc_residual, flow_slope
from hyperwedge.curves import compose_wave_curves, hugoniot_compose, wave_curve
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
from conftest import count_residuals, trust_box_states

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
        assert resp["reflection"][fam] == reflect_at_boundary(bg, fam, p, theta, gas)[0] / p


def test_reflection_zero_strength(gas, bg):
    assert reflect_at_boundary(bg, 4, 0.0, 0.0, gas)[0] == pytest.approx(0.0, abs=1e-12)
    # contact hitting the wall at the angle it itself carries: nothing reflects
    top = wave_curve(bg, 2, 1e-4, gas)
    theta = float(np.arctan(flow_slope(top, gas)))
    assert abs(reflect_at_boundary(bg, 2, 1e-4, theta, gas)[0]) < 1e-7


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


@pytest.mark.parametrize("tau", [0.0, 0.1])
@pytest.mark.parametrize("sig", _ORACLE_CASES)
def test_solve_riemann_matches_recomputing_oracle(tau, sig):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    U_b = compose_wave_curves(gas.background(), (1e-3, -5e-4, 2e-3, -1e-3), gas)
    U_a = compose_wave_curves(U_b, sig, gas)
    sol = solve_riemann(U_b, U_a, gas)
    strengths, middles, speeds = oracle.solve_riemann(U_b, U_a, gas)
    assert np.array_equal(sol.strengths, strengths)
    assert sol.middle_states == middles
    # the oracle keeps a single slope for a jump, the solver a pair
    assert sol.speeds == tuple((s, s) if np.isscalar(s) else s for s in speeds)
    for j, sigma in zip((1, 2, 3, 4), sig):
        if sigma == 0.0:
            assert abs(sol.strengths[j - 1]) <= tracking._ZERO_STRENGTH
    # at nu = 1000 each rarefaction splits into sigma*nu > 1 pieces
    for nu in (10, 1000):
        got = tracking._emit_riemann(sol, U_b, 0.4, -0.2, gas, nu)
        want = oracle.emit_riemann(sol.strengths, U_b, 0.4, -0.2, gas, nu)
        assert got == want


# ---------------------------------------------------------------------------
# Newton on plain floats: every solver bit for bit its array residual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_riemann_solvers_match_array_newton(tau, monkeypatch):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    got, want = [], []
    monkeypatch.setattr(riemann, "damped_newton", count_residuals(riemann.damped_newton, got))
    monkeypatch.setattr(oracle, "damped_newton", count_residuals(oracle.damped_newton, want))
    rng = np.random.default_rng(17)
    for U in trust_box_states(gas, 6, seed=13):
        sig = rng.uniform(-3e-3, 3e-3, size=4)
        V = compose_wave_curves(U, sig, gas)
        sol = solve_riemann(U, V, gas)
        strengths, middles, _ = oracle.solve_riemann(U, V, gas)
        assert np.array_equal(sol.strengths, strengths) and sol.middle_states == middles

        q = hugoniot_decompose(U, hugoniot_compose(U, sig, gas), gas)
        assert np.array_equal(q, oracle.hugoniot_decompose(U, hugoniot_compose(U, sig, gas), gas))

        theta = math.atan(flow_slope(U, gas))
        for turn in (-2e-3, 3e-3):
            assert (solve_boundary_riemann(U, theta + turn, gas)[0]
                    == oracle.solve_boundary_riemann(U, theta + turn, gas)[0])
            args = (sig[1], sig[2], sig[3], theta, theta + turn, U, gas)
            assert boundary_hugoniot_q1(*args) == oracle.boundary_hugoniot_q1(*args)

        for fam in (2, 3, 4):
            top = wave_curve(U, fam, sig[3], gas)
            theta_top = math.atan(flow_slope(top, gas))
            assert (reflect_at_boundary(U, fam, sig[3], theta_top, gas)[0]
                    == oracle.reflect_at_boundary(U, fam, sig[3], theta_top, gas))
    # per state: one interior solve, one decomposition, two boundary
    # solves, two boundary decompositions, three reflections
    assert got == want and len(got) == 6 * 9
