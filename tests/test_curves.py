"""Wave curves, Hugoniot loci, and branch regularity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperwedge.curves as curves
from hyperwedge.euler import (
    GENUINE_FAMILIES,
    DomainError,
    GasParams,
    State,
    acoustic_field,
    acoustic_slope,
    eigenvalue,
    eigenvector,
    flow_slope,
    fluxes,
)
from hyperwedge.curves import (
    CurveError,
    compose_wave_curves,
    damped_newton,
    fan_state,
    hugoniot_curve,
    hugoniot_compose,
    shock_speed,
    wave_curve,
    wave_front,
)
from hyperwedge.tracking import _emit_wave

import numpy_oracles as oracle
from conftest import state_box, trust_box_states

_SIGMAS = (-8e-3, -1e-3, 1e-3, 8e-3)


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       j=st.sampled_from((1, 2, 3, 4)))
def test_zero_strength_is_identity(U, j):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    assert wave_curve(U, j, 0.0, gas) == U
    assert hugoniot_curve(U, j, 0.0, gas) == U


def test_family3_is_density_shift(gas, bg):
    got = wave_curve(bg, 3, 0.1, gas)
    assert got == State(1.1, 0.0, 0.0, bg.p)
    assert hugoniot_curve(bg, 3, 0.05, gas) == State(1.05, 0.0, 0.0, bg.p)


def test_tangent_is_normalized_eigenvector(gas, bg):
    h = 1e-4
    for j in (1, 2, 3, 4):
        fd = (wave_curve(bg, j, h, gas) - wave_curve(bg, j, -h, gas)) / (2.0 * h)
        np.testing.assert_allclose(fd, eigenvector(bg, gas, j), rtol=1e-6, atol=1e-9)


def test_rarefaction_branch_shifts_eigenvalue_exactly(gas, bg):
    # the curve parameter is the change of the family's characteristic slope
    for j in GENUINE_FAMILIES:
        sig = 5e-3
        V = wave_curve(bg, j, sig, gas)
        assert eigenvalue(V, gas, j) - eigenvalue(bg, gas, j) == pytest.approx(
            sig, abs=1e-12)


def test_shock_branch_pins_eigenvalue(gas, bg):
    for j in GENUINE_FAMILIES:
        V = wave_curve(bg, j, -5e-3, gas)
        assert eigenvalue(V, gas, j) - eigenvalue(bg, gas, j) == pytest.approx(
            -5e-3, abs=1e-10)


def test_lax_inequalities_on_shocks(gas, bg):
    for j in GENUINE_FAMILIES:
        sig = -4e-3
        V = wave_curve(bg, j, sig, gas)
        s = shock_speed(bg, j, sig, gas)
        assert eigenvalue(V, gas, j) < s < eigenvalue(bg, gas, j)


def test_shock_speed_limits(gas, gas0, bg, bg0):
    # vanishing strength recovers the characteristic slope
    assert shock_speed(bg, 1, -1e-9, gas) == pytest.approx(
        eigenvalue(bg, gas, 1), abs=1e-8)
    # half-strength drift of the slope at leading order
    s = shock_speed(bg0, 1, -0.01, gas0)
    assert s == pytest.approx(-0.505, abs=2e-4)
    fd = (shock_speed(bg, 4, 1e-4, gas) - shock_speed(bg, 4, -1e-4, gas)) / 2e-4
    assert fd == pytest.approx(0.5, abs=1e-5)


def test_rankine_hugoniot_residual_on_hugoniot_locus(gas, bg):
    for j in (1, 4):
        for q in (-0.01, -0.002, 0.002, 0.01):
            V = hugoniot_curve(bg, j, q, gas)
            dfx = fluxes(V, gas).fx - fluxes(bg, gas).fx
            dfy = fluxes(V, gas).fy - fluxes(bg, gas).fy
            # slope solving the mass row must satisfy the remaining rows
            s = dfy[0] / dfx[0]
            assert np.max(np.abs(s * dfx - dfy)) < 1e-10


def test_shock_branch_satisfies_rankine_hugoniot(gas, bg):
    for j in GENUINE_FAMILIES:
        V = wave_curve(bg, j, -6e-3, gas)
        s = shock_speed(bg, j, -6e-3, gas)
        dfx = fluxes(V, gas).fx - fluxes(bg, gas).fx
        dfy = fluxes(V, gas).fy - fluxes(bg, gas).fy
        assert np.max(np.abs(s * dfx - dfy)) < 1e-10


def test_branch_junction_first_derivative(gas, bg):
    # one-sided tangents at zero strength agree to 1e-5 relative
    h = 1e-5
    for j in GENUINE_FAMILIES:
        fwd = (wave_curve(bg, j, h, gas) - bg) / h
        bwd = (bg - wave_curve(bg, j, -h, gas)) / h
        np.testing.assert_allclose(fwd, bwd, rtol=1e-4, atol=1e-7)


def test_branch_junction_second_derivative(gas, bg):
    # central second difference across the junction stays stable as h shrinks,
    # so the two branches meet with matching curvature
    for j in GENUINE_FAMILIES:
        d2 = []
        for h in (2e-3, 1e-3):
            arr = (wave_curve(bg, j, h, gas).as_array()
                   - 2.0 * bg.as_array()
                   + wave_curve(bg, j, -h, gas).as_array()) / (h * h)
            d2.append(arr)
        np.testing.assert_allclose(d2[0], d2[1], rtol=0.02, atol=5e-3)


def test_contact_maps_commute(gas, bg):
    s2, s3 = 7e-3, -4e-3
    one = wave_curve(wave_curve(bg, 2, s2, gas), 3, s3, gas)
    two = wave_curve(wave_curve(bg, 3, s3, gas), 2, s2, gas)
    # the two maps touch disjoint components, so this is exact
    assert one == two


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       sig=st.sampled_from(_SIGMAS))
def test_flow_slope_invariant_across_family2(U, sig):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    V = wave_curve(U, 2, sig, gas)
    assert abs(flow_slope(V, gas) - flow_slope(U, gas)) < 1e-12
    # density and pressure ride along unchanged
    assert V.rho == U.rho and V.p == U.p


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       sig=st.sampled_from(_SIGMAS))
def test_family3_leaves_velocity_and_pressure(U, sig):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    V = wave_curve(U, 3, sig, gas)
    assert (V.u, V.v, V.p) == (U.u, U.v, U.p)


def test_compose_identity_and_tau_zero_path(gas0, bg0):
    assert compose_wave_curves(bg0, (0.0, 0.0, 0.0, 0.0), gas0) == bg0
    assert hugoniot_compose(bg0, (0.0, 0.0, 0.0, 0.0), gas0) == bg0
    # the scaled system evaluated at tau=0 IS the limit system
    gz = GasParams(gamma=1.4, a_inf=2.0, tau=0.1).with_tau(0.0)
    sig = (-2e-3, 1e-3, 4e-3, 3e-3)
    a = compose_wave_curves(bg0, sig, gz)
    b = compose_wave_curves(bg0, sig, gas0)
    assert a == b


def test_hugoniot_compose_contact_leg(gas, bg):
    got = hugoniot_compose(bg, (0.0, 0.0, 0.05, 0.0), gas)
    assert got == State(1.05, 0.0, 0.0, bg.p)


def test_fan_state_foot_head_interior(gas, bg):
    sig = 6e-3
    for j in GENUINE_FAMILIES:
        head = wave_curve(bg, j, sig, gas)
        lam0 = eigenvalue(bg, gas, j)
        lam1 = eigenvalue(head, gas, j)
        assert fan_state(bg, j, sig, lam0, gas) == bg
        np.testing.assert_allclose(fan_state(bg, j, sig, lam1, gas).as_array(),
                                   head.as_array(), atol=1e-12)
        zeta = 0.5 * (lam0 + lam1)
        mid = fan_state(bg, j, sig, zeta, gas)
        assert eigenvalue(mid, gas, j) == pytest.approx(zeta, abs=1e-10)


def test_strength_cap_raises(gas, bg):
    with pytest.raises(CurveError):
        wave_curve(bg, 1, 0.2, gas)


def test_tau_continuity_scaling(gas0, bg0):
    # |curve(tau) - curve(0)| = O(|sigma| * tau^2), family by family
    sig = 1e-3
    for j in (1, 2, 4):
        ratios = []
        for tau in (0.1, 0.05):
            g = gas0.with_tau(tau)
            gap = np.abs(wave_curve(bg0, j, sig, g) - wave_curve(bg0, j, sig, gas0))
            ratios.append(np.max(gap) / (sig * tau * tau))
        assert 0.0 < ratios[0] < 10.0
        # the normalized gap is tau-stable, i.e. the tau^2 power is right
        assert 0.25 < ratios[1] / ratios[0] < 4.0


def test_wave_front_state_and_slope_pinned(gas, bg):
    # one evaluation gives the curve state and the exact front slope, bit
    # for bit what the separate curve and slope functions return
    U = wave_curve(wave_curve(bg, 2, 3e-3, gas), 4, -2e-3, gas)  # v != 0
    for j in (1, 2, 3, 4):
        for sig in _SIGMAS + (0.0,):
            W, slope = wave_front(U, j, sig, gas)
            assert W == wave_curve(U, j, sig, gas)
            if j in (2, 3):
                assert slope == flow_slope(U, gas)
            elif sig < 0.0:
                assert slope == shock_speed(U, j, sig, gas)
            elif j == 1:
                assert slope == eigenvalue(wave_curve(U, 1, sig, gas), gas, 1)
            else:
                assert slope == eigenvalue(U, gas, 4)


def test_wave_front_runs_wave_curve_checks(gas, bg):
    with pytest.raises(CurveError):
        wave_front(bg, 1, -0.2, gas)
    with pytest.raises(DomainError):
        wave_front(State(-1.0, 0.0, 0.0, bg.p), 2, 1e-3, gas)
    with pytest.raises(ValueError):
        wave_front(bg, 5, 1e-3, gas)


def test_emit_wave_solves_each_shock_once(gas, bg, monkeypatch):
    calls = []
    solve = curves._shock_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(curves, "_shock_solve", counted)
    fronts, top = _emit_wave(bg, 1, -5e-3, 0.0, 0.0, 1, gas, 10)
    assert len(fronts) == 1 and len(calls) == 1
    assert top == fronts[0].above == wave_curve(bg, 1, -5e-3, gas)
    assert fronts[0].speed == shock_speed(bg, 1, -5e-3, gas)


# ---------------------------------------------------------------------------
# float kernels: bit for bit the numpy formulations
# ---------------------------------------------------------------------------

#: both signs, below and above _TINY_SIGMA (2e-6 and 8e-6 take the fixed
#: RK4 steps, the others the adaptive Cash-Karp integration)
_KERNEL_SIGMAS = (-3e-2, -4e-3, -8e-6, -2e-6, 2e-6, 8e-6, 4e-3, 3e-2)


@pytest.mark.parametrize("tau", (0.0, 0.1))
def test_wave_curves_match_numpy_formulation(tau):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    assert min(abs(s) for s in _KERNEL_SIGMAS) < curves._TINY_SIGMA < 4e-3
    for U in trust_box_states(gas, 4, seed=5):
        for j in GENUINE_FAMILIES:
            for sig in _KERNEL_SIGMAS:
                jump, slope = oracle.shock_solve(U, gas, j, sig)
                assert hugoniot_curve(U, j, sig, gas) == jump
                if sig < 0.0:
                    want = (jump, slope)
                    assert shock_speed(U, j, sig, gas) == slope
                else:
                    W = oracle.rarefaction(U, gas, j, sig)
                    want = (W, oracle.eigenvalue(W if j == 1 else U, gas, j))
                assert wave_curve(U, j, sig, gas) == want[0]
                assert wave_front(U, j, sig, gas) == want


def test_integrate_field_matches_numpy_formulation(gas, bg):
    U = wave_curve(bg, 2, 3e-3, gas)
    for j in GENUINE_FAMILIES:
        def field(w):
            return acoustic_field(*w, gas, j)

        def np_field(w):
            return oracle.eigenvector(State.from_array(w), gas, j)

        for length in (-2e-2, -1e-4, 1e-4, 2e-2):
            got = curves._integrate_field(field, U.as_array().tolist(), length)
            assert got == oracle.integrate_field(np_field, U.as_array(), length).tolist()


def test_damped_newton_halves_past_domain_errors(gas0):
    # solve lam_4(rho) = 1/2 from rho = 4: the lam_4 curve is convex in
    # rho, so the full Newton step lands near rho = -4 and the first
    # halving near rho = 0; both trials must raise DomainError (not
    # ZeroDivisionError or ValueError) for the line search to reject them
    p = gas0.p_background
    rejected = []

    def F(z):
        try:
            return np.array([acoustic_slope(z[0], 0.0, 0.0, p, gas0, 4) - 0.5])
        except DomainError:
            rejected.append(float(z[0]))
            raise

    z = damped_newton(F, [4.0])
    assert z[0] == pytest.approx(1.0, abs=1e-10)
    assert len(rejected) == 2 and all(r <= 0.0 for r in rejected)
