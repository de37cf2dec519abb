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
    bernoulli,
    eigenvalue,
    eigenvector,
    flow_slope,
    flux_and_slope,
    fluxes,
)
from hyperwedge.curves import (
    DELTA_TRUST,
    CurveError,
    compose_wave_curves,
    damped_newton,
    fan_state,
    hugoniot_curve,
    hugoniot_compose,
    wave_curve,
    wave_front,
)
from hyperwedge.tracking import Front, _emit_wave

import numpy_oracles as oracle
from conftest import count_residuals, state_box, trust_box_states

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
        s = wave_front(bg, j, sig, gas)[1]
        assert eigenvalue(V, gas, j) < s < eigenvalue(bg, gas, j)


def test_shock_speed_limits(gas, gas0, bg, bg0):
    # vanishing strength recovers the characteristic slope
    assert wave_front(bg, 1, -1e-9, gas)[1] == pytest.approx(
        eigenvalue(bg, gas, 1), abs=1e-8)
    # half-strength drift of the slope at leading order
    s = wave_front(bg0, 1, -0.01, gas0)[1]
    assert s == pytest.approx(-0.505, abs=2e-4)
    # across zero along the jump locus, whose positive side is no wave
    fd = (curves._shock_solve(bg, gas, 4, 1e-4)[1]
          - curves._shock_solve(bg, gas, 4, -1e-4)[1]) / 2e-4
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
        s = wave_front(bg, j, -6e-3, gas)[1]
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
                assert slope == oracle.shock_solve(U, gas, j, sig)[1]
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
    fronts, top = _emit_wave(bg, 1, -5e-3, 0.0, 0.0, gas, 10)
    assert len(fronts) == 1 and len(calls) == 1
    assert top == fronts[0].above == wave_curve(bg, 1, -5e-3, gas)
    assert fronts[0].speed == solve(bg, gas, 1, -5e-3)[1]


# ---------------------------------------------------------------------------
# warm-started shocks: the explicit relation, a secant started from a front
# solved from a nearby base state
# ---------------------------------------------------------------------------

#: the largest speed perturbation next_event gives a front, 2^-(nu+2), at
#: the smallest nu of the test and driver configs
_PERTURBATION = 2.0 ** -(8 + 2)


def _jump_residual(U, W, s, gas, j, sigma):
    """max |F| of the shock Newton's residual at (W, s): the jump
    conditions and the slope pin, on the same floats as ``_shock_solve``."""
    X, Y, lam0 = flux_and_slope(U.rho, U.u, U.v, U.p, gas, j)
    A, B, lam = flux_and_slope(W.rho, W.u, W.v, W.p, gas, j)
    return max([abs(s * (a - x) - (b - y)) for a, x, b, y in zip(A, X, B, Y)]
               + [abs(lam - lam0 - sigma)])


def _assert_explicit_shock(U, W, s, gas, j, sigma, where):
    """The jump rows of the residual at (W, s) at rounding level relative
    to the flux scale, and the slope pin within a few ulps of the slope."""
    X, Y, lam0 = flux_and_slope(U.rho, U.u, U.v, U.p, gas, j)
    A, B, lam = flux_and_slope(W.rho, W.u, W.v, W.p, gas, j)
    jump = max(abs(s * (a - x) - (b - y)) for a, x, b, y in zip(A, X, B, Y))
    assert jump <= 1e-15 * max(map(abs, X + Y)), where
    assert abs(lam - lam0 - sigma) <= 4 * 2.0 ** -52 * (1.0 + abs(lam)), where


@pytest.mark.parametrize("tau", (0.0, 0.1, 0.4))
def test_warm_started_shock_matches_cold_start(tau):
    # the front a carrier crossed, solved from a base state `gap` away,
    # starts the solve; the answer is the cold solve's to the Newton's
    # own tolerance: states to 1e-11, slopes to 1e-12/|sigma| (the
    # residual sees a slope error only through the O(sigma) flux jump)
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    rng = np.random.default_rng(29)
    for U in trust_box_states(gas, 4, seed=23):
        w = [float(a) for a in (U.rho, U.u, U.v, U.p)]
        for j in GENUINE_FAMILIES:
            for sigma in (-1e-9, -1e-6, -1e-4, -1e-2):
                W0, s0 = wave_front(U, j, sigma, gas)
                for gap in (0.0, 1e-12, 1e-8, 1e-4):
                    d = rng.normal(size=4)
                    V = State(*(a - b for a, b in zip(w, (gap / np.linalg.norm(d) * d).tolist())))
                    Wn, sn = wave_front(V, j, sigma, gas)
                    for perturbation in (0.0, _PERTURBATION):
                        near = Front(j, sigma, 0.0, 0.0, sn - perturbation, V, Wn)
                        W, s = wave_front(U, j, sigma, gas, near)
                        where = (U, j, sigma, gap, perturbation)
                        assert _jump_residual(U, W, s, gas, j, sigma) <= 1e-12, where
                        assert max(map(abs, W - W0)) <= 1e-11, where
                        assert abs(s - s0) <= 1e-12 / abs(sigma), where
                        assert all(type(a) is float for a in (W.rho, W.u, W.v, W.p, s)), where
                        if perturbation == 0.0 and abs(sigma) <= 1e-6:
                            # the Newton's residual is this blind to the
                            # slope; lam_j's shift keeps the warm one
                            # O(sigma*gap) from the cold one, not O(gap)
                            assert abs(s - s0) <= abs(sigma) * gap + 1e-12, where
                        _assert_explicit_shock(U, W, s, gas, j, sigma, where)


def _record_slopes(monkeypatch):
    """The list of every value ``curves.acoustic_slope`` returns; the
    cold Newton calls ``flux_and_slope`` instead and adds none."""
    slopes = []

    def recorded(*args):
        slopes.append(acoustic_slope(*args))
        return slopes[-1]

    monkeypatch.setattr(curves, "acoustic_slope", recorded)
    return slopes


@pytest.mark.parametrize("tau", (0.0, 0.05, 0.1, 0.4))
def test_explicit_shock_relation_against_the_cold_newton(tau, monkeypatch):
    # both families, |sigma| from the accurate solver's emission cut-off
    # to the strongest shocks of the drivers, bases 0 to 2.5e-2 from the
    # front: a carrier moves a shock's base by its own tiny gap, a crossed
    # physical front by its strength (up to 2.4e-2 on the sweep pool).
    # The secant makes 2 or 3 pin residuals, 4 only at |sigma * gap| past
    # 2.5e-5 (sigma -3e-2 from 2.5e-3 away), each one slope evaluation past
    # lam_j(U) and lam_j(near.below)
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    slopes = _record_slopes(monkeypatch)
    rng = np.random.default_rng(31)
    for U in trust_box_states(gas, 3, seed=37):
        w = [float(a) for a in (U.rho, U.u, U.v, U.p)]
        for j in GENUINE_FAMILIES:
            for sigma in (-1e-16, -1e-14, -1e-9, -1e-6, -1e-3, -3e-2):
                W0, s0 = wave_front(U, j, sigma, gas)
                for gap in (0.0, 1e-12, 1e-6, 1e-4, 2.5e-3, 2.5e-2):
                    d = rng.normal(size=4)
                    V = State(*(a - b for a, b in zip(w, (gap / np.linalg.norm(d) * d).tolist())))
                    Wn, sn = wave_front(V, j, sigma, gas)
                    slopes.clear()
                    W, s = wave_front(U, j, sigma, gas, Front(j, sigma, 0.0, 0.0, sn, V, Wn))
                    where = (U, j, sigma, gap)
                    assert 2 <= len(slopes) - 2 <= (3 if abs(sigma) * gap <= 2.5e-5 else 4), where
                    _assert_explicit_shock(U, W, s, gas, j, sigma, where)
                    assert max(map(abs, W - W0)) <= 1e-11, where
                    assert all(type(a) is float for a in (W.rho, W.u, W.v, W.p, s)), where


def test_explicit_shock_stops_on_a_flat_secant(gas0, monkeypatch):
    # at sigma = -1e-16 from the front's own base state the two pin
    # residuals are equal: the secant returns there, not dividing by zero
    U = gas0.background()
    Wn, sn = wave_front(U, 1, -1e-16, gas0)
    slopes = _record_slopes(monkeypatch)
    W, s = wave_front(U, 1, -1e-16, gas0, Front(1, -1e-16, 0.0, 0.0, sn, U, Wn))
    assert len(slopes) == 4 and slopes[2] == slopes[3]
    _assert_explicit_shock(U, W, s, gas0, 1, -1e-16, U)


def test_explicit_shock_failures(gas, monkeypatch):
    U = gas.background()
    # near's slope, shifted, makes the mass flux s*m - v zero at v = 0
    with pytest.raises(CurveError, match="zero mass flux"):
        wave_front(U, 1, -1e-3, gas, Front(1, -1e-3, 0.0, 0.0, 0.0, U, U))
    # a slope just off it: the pressure jump exceeds the pressure
    with pytest.raises(DomainError, match="nonpositive pressure"):
        wave_front(U, 1, -1e-3, gas, Front(1, -1e-3, 0.0, 0.0, 1e-3, U, U))
    Wn, sn = wave_front(U, 4, -1e-3, gas)
    far = State(U.rho + 1e-4, U.u, U.v, U.p)
    monkeypatch.setattr(curves, "_SECANT_MAXIT", 1)
    with pytest.raises(CurveError, match="shock secant did not converge"):
        wave_front(far, 4, -1e-3, gas, Front(4, -1e-3, 0.0, 0.0, sn, U, Wn))


def test_secants_accept_residuals_cycling_at_rounding_level(monkeypatch):
    # a rarefaction that a wall-reflection Newton reached: its secant's
    # residuals cycle through -1.58e-15, -1.03e-15, 1.64e-15 and 1.08e-15,
    # 3 to 5 units of 1 + |lam_1|, and no step is at rounding level. The
    # secant returns the state of its least residual; with no rounding
    # bound it raises as it used to
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    U = State(1.0223249993689307, -0.0058756213219976865, -0.011266887329546754,
              0.1843889713208706)
    sigma = 0.0003221599768175318
    slopes = _record_slopes(monkeypatch)
    W = curves._rarefaction(U, gas, 1, sigma)
    lam0, *lams = slopes
    res = [lam - lam0 - sigma for lam in lams]
    assert len(res) == curves._SECANT_MAXIT
    assert acoustic_slope(W.rho, W.u, W.v, W.p, gas, 1) - lam0 - sigma == min(res, key=abs)
    assert 0.0 < min(map(abs, res)) <= curves._SECANT_ROUNDING * (1.0 + abs(lam0))
    assert all(type(a) is float for a in (W.rho, W.u, W.v, W.p))
    monkeypatch.setattr(curves, "_SECANT_ROUNDING", 0.0)
    with pytest.raises(CurveError, match=r"rarefaction secant did not converge: "
                                         r"residual 1\.638e-15 after 20 steps"):
        curves._rarefaction(U, gas, 1, sigma)


def test_shock_secant_takes_the_same_rounding_exit(gas, monkeypatch):
    # cut to one step, this secant's residual is at rounding level and its
    # step is not: it returns the state it evaluated there, not an error
    U = gas.background()
    V = State(U.rho + 2.5e-3, U.u, U.v, U.p)
    Wn, sn = wave_front(V, 1, -1e-4, gas)
    near = Front(1, -1e-4, 0.0, 0.0, sn, V, Wn)
    W0, s0 = wave_front(U, 1, -1e-4, gas, near)
    monkeypatch.setattr(curves, "_SECANT_MAXIT", 1)
    W, s = wave_front(U, 1, -1e-4, gas, near)
    assert (W, s) != (W0, s0)
    assert max(map(abs, W - W0)) <= 1e-14 and abs(s - s0) <= 1e-14
    assert _jump_residual(U, W, s, gas, 1, -1e-4) <= curves._SECANT_ROUNDING * (1.0 + abs(s))
    monkeypatch.setattr(curves, "_SECANT_ROUNDING", 0.0)
    with pytest.raises(CurveError, match="shock secant did not converge"):
        wave_front(U, 1, -1e-4, gas, near)


def test_warm_start_leaves_rarefactions_and_contacts(gas, bg):
    near = Front(1, -1e-3, 0.0, 0.0, 5.0, bg, State(2.0, 1.0, 1.0, 1.0))
    for j, sigma in ((1, 1e-3), (4, 1e-3), (2, -1e-3), (3, 1e-3), (4, 0.0)):
        assert wave_front(bg, j, sigma, gas, near) == wave_front(bg, j, sigma, gas)


# ---------------------------------------------------------------------------
# float kernels: bit for bit the numpy formulations
# ---------------------------------------------------------------------------

#: both signs, below and above _TINY_SIGMA (2e-6 and 8e-6 take the fixed
#: RK4 steps, 4e-3 and 3e-2 the simple-wave invariants)
_KERNEL_SIGMAS = (-3e-2, -4e-3, -8e-6, -2e-6, 2e-6, 8e-6, 4e-3, 3e-2)


@pytest.mark.parametrize("tau", (0.0, 0.1))
def test_wave_curves_match_numpy_formulation(tau):
    # rarefactions from _TINY_SIGMA up have no numpy twin: the invariant
    # test checks them, and here only that wave_front agrees with them
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    assert min(abs(s) for s in _KERNEL_SIGMAS) < curves._TINY_SIGMA < 4e-3
    for U in trust_box_states(gas, 4, seed=5):
        for j in GENUINE_FAMILIES:
            for sig in _KERNEL_SIGMAS:
                jump, slope = oracle.shock_solve(U, gas, j, sig)
                assert hugoniot_curve(U, j, sig, gas) == jump
                if sig < 0.0:
                    want = (jump, slope)
                else:
                    W = (oracle.rarefaction(U, gas, j, sig) if sig < curves._TINY_SIGMA
                         else wave_curve(U, j, sig, gas))
                    want = (W, oracle.eigenvalue(W if j == 1 else U, gas, j))
                assert wave_curve(U, j, sig, gas) == want[0]
                assert wave_front(U, j, sig, gas) == want


@pytest.mark.parametrize("sigma", (0.01, -0.01))
def test_wave_curve_rejects_a_nonfinite_input(gas, sigma):
    # the flat kernels do not test finiteness; a NaN v or an infinite u
    # used to surface from an iterate as "nonpositive density nan"
    pb = gas.p_background
    with pytest.raises(DomainError, match=r"^non-finite v nan \(wave_curve input\)$"):
        wave_curve(State(1.0, 0.0, math.nan, pb), 1, sigma, gas)
    with pytest.raises(DomainError, match=r"^non-finite u inf \(wave_front input\)$"):
        wave_front(State(1.0, math.inf, 0.0, pb), 4, sigma, gas)


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


# ---------------------------------------------------------------------------
# rarefactions against an independent integration
# ---------------------------------------------------------------------------

def _fixed_step_rarefaction(U, gas, j, sigma, n=512):
    """`n` classic RK4 steps along the normalised field."""
    w = [U.rho, U.u, U.v, U.p]
    h = sigma / n
    for _ in range(n):
        k1 = acoustic_field(*w, gas, j)
        k2 = acoustic_field(*[a + 0.5 * h * b for a, b in zip(w, k1)], gas, j)
        k3 = acoustic_field(*[a + 0.5 * h * b for a, b in zip(w, k2)], gas, j)
        k4 = acoustic_field(*[a + h * b for a, b in zip(w, k3)], gas, j)
        w = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(w, k1, k2, k3, k4)]
    return np.array(w)


@pytest.mark.parametrize("tau", (0.0, 0.1))
def test_rarefaction_matches_a_fine_fixed_step_integration(tau):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    for U in trust_box_states(gas, 3, seed=3):
        for j in GENUINE_FAMILIES:
            for sigma in (2e-5, 1e-3, 1e-2, 3e-2, DELTA_TRUST):
                got = wave_curve(U, j, sigma, gas).as_array()
                want = _fixed_step_rarefaction(U, gas, j, sigma)
                # relative to the state's size: u and v may be near zero
                assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), (U, j, sigma)


def _simple_wave_invariant(U, gas, family):
    """``phi - G`` (family 1) or ``phi + G`` (family 4) at `U`, the scaled
    flow angle and Prandtl-Meyer angle of :func:`curves._rarefaction`,
    from their definitions; at ``tau = 0`` ``v +/- 2c/(gamma-1)``."""
    g, tau, t = gas.gamma, gas.tau, gas.t2
    c2 = g * U.p / U.rho
    sgn = 1.0 if family == 1 else -1.0
    if tau == 0.0:
        return U.v + sgn * 2.0 * math.sqrt(c2) / (g - 1.0)
    k = (g + 1.0) / (g - 1.0)
    m = 1.0 + t * U.u
    a = math.sqrt(c2 / (m * m + t * U.v * U.v - t * c2))
    G = (math.atan(tau * a) - math.sqrt(k) * math.atan(tau * math.sqrt(k) * a)) / tau
    return math.atan2(tau * U.v, m) / tau - sgn * G


@pytest.mark.parametrize("tau", (0.0, 0.0125, 0.05, 0.1, 0.4))
def test_rarefaction_keeps_the_simple_wave_invariants(tau):
    # bounds at rounding level: an integration of the field at a 1e-12
    # tolerance keeps the invariants only to about 1e-14
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    g = gas.gamma
    for U in trust_box_states(gas, 40, seed=17):
        entropy = U.p / U.rho ** g
        B = bernoulli(U, gas)
        for j in GENUINE_FAMILIES:
            invariant = _simple_wave_invariant(U, gas, j)
            lam0 = eigenvalue(U, gas, j)
            for sigma in (curves._TINY_SIGMA, 1e-4, 1e-3, 1e-2, DELTA_TRUST):
                W = wave_curve(U, j, sigma, gas)
                where = (U, j, sigma)
                assert abs(W.p / W.rho ** g - entropy) <= 2e-15 * entropy, where
                assert abs(bernoulli(W, gas) - B) <= 2e-15 * abs(B), where
                drift = _simple_wave_invariant(W, gas, j) - invariant
                assert abs(drift) <= 2e-15 * abs(invariant), where
                assert abs(eigenvalue(W, gas, j) - lam0 - sigma) <= 4e-15, where


@pytest.mark.parametrize("tau", (0.0, 0.1))
def test_rarefaction_past_vacuum_raises_a_curve_error(tau):
    # a family-1 wave of 0.1 from sound speed 0.012 would end at c < 0
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    with pytest.raises(CurveError, match=r"^rarefaction reaches sound speed -"):
        wave_curve(State(1.0, 0.0, 0.0, 1e-4), 1, DELTA_TRUST, gas)


def test_rarefaction_secant_that_does_not_converge_raises(gas, bg, monkeypatch):
    monkeypatch.setattr(curves, "_SECANT_MAXIT", 1)
    with pytest.raises(CurveError, match=r"^rarefaction secant did not converge: residual"):
        wave_curve(bg, 4, 1e-2, gas)


# ---------------------------------------------------------------------------
# Newton on plain floats: bit for bit the array iteration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", (0.0, 0.1))
def test_shock_solve_matches_array_newton(tau, monkeypatch):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=tau)
    got, want = [], []
    monkeypatch.setattr(curves, "damped_newton", count_residuals(curves.damped_newton, got))
    monkeypatch.setattr(oracle, "damped_newton", count_residuals(oracle.damped_newton, want))
    for U in trust_box_states(gas, 4, seed=5):
        for j in GENUINE_FAMILIES:
            for sig in _KERNEL_SIGMAS:
                W, slope = curves._shock_solve(U, gas, j, sig)
                assert (W, slope) == oracle.shock_solve(U, gas, j, sig)
                assert all(type(a) is float for a in (W.rho, W.u, W.v, W.p, slope))
    assert got == want and len(got) == 4 * 2 * len(_KERNEL_SIGMAS)


def _nan_past_first(x):
    # NaN in the second entry only: a norm that skips NaN would see 1.0
    return [x[0] * x[0] - 2.0, math.nan]


@pytest.mark.parametrize("F, x0, kwargs, message", [
    pytest.param(lambda x: [math.nan], [1.0], {},
                 "Newton line search stalled at residual nan", id="nan residual"),
    pytest.param(_nan_past_first, [1.0, 1.0], {},
                 "Newton line search stalled at residual nan", id="nan past the first entry"),
    pytest.param(lambda x: [1.0, 1.0], [0.0, 0.0], {},
                 "singular Jacobian in Newton iteration: Singular matrix", id="singular"),
    pytest.param(lambda x: [x[0] * x[0]], [1.0], {"max_iter": 3},
                 "Newton failed to converge: residual 1.563e-02 after 3 iterations",
                 id="max_iter"),
])
def test_damped_newton_failures_match_array_newton(F, x0, kwargs, message, monkeypatch):
    # the oracle takes its iteration cap as a keyword, damped_newton reads it
    if "max_iter" in kwargs:
        monkeypatch.setattr(curves, "_NEWTON_MAXIT", kwargs["max_iter"])
    for newton, args in ((damped_newton, {}), (oracle.damped_newton, kwargs)):
        with pytest.raises(CurveError) as info:
            newton(F, x0, **args)
        assert str(info.value) == message


def test_damped_newton_domain_error_at_start_propagates():
    def F(x):
        raise DomainError("outside the domain")

    for newton in (damped_newton, oracle.damped_newton):
        with pytest.raises(DomainError, match="outside the domain"):
            newton(F, [0.5])
