"""State algebra, fluxes, and eigen-structure."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperwedge.euler import (
    CONTACT_FAMILIES,
    FAMILIES,
    GENUINE_FAMILIES,
    DomainError,
    GasParams,
    State,
    acoustic_field,
    acoustic_slope,
    bc_residual,
    bernoulli,
    char_residual,
    check_state,
    eigenvalue,
    eigenvalues,
    eigenvector,
    eigenvector_matrix,
    eigenvector_raw,
    entropy_pair,
    flow_slope,
    flux_values,
    fluxes,
    grad_eigenvalue,
    grad_eigenvalue_fd,
    mass_flux_factor,
    normalization_coefficient,
    sound_speed,
)

import numpy_oracles as oracle
from conftest import state_box, trust_box_states


def test_background_state(gas):
    U = gas.background()
    assert U.rho == 1.0 and U.u == 0.0 and U.v == 0.0
    assert U.p == pytest.approx(1.0 / (gas.gamma * gas.a_inf**2), abs=0.0)


def test_background_fluxes(gas, bg):
    fx, fy = fluxes(bg, gas)
    pb = gas.p_background
    # mass flux factor is 1 at background, Bernoulli reduces to enthalpy
    np.testing.assert_allclose(fx, [1.0, pb, 0.0, bernoulli(bg, gas)], atol=1e-15)
    np.testing.assert_allclose(fy, [0.0, 0.0, pb, 0.0], atol=1e-15)
    assert bernoulli(bg, gas) == pytest.approx(1.0 / ((gas.gamma - 1.0) * gas.a_inf**2))


def test_background_eigenvalues_closed_form(gas, bg):
    lam = eigenvalues(bg, gas)
    lam4 = 1.0 / math.sqrt(gas.a_inf**2 - gas.tau**2)
    np.testing.assert_allclose(lam, [-lam4, 0.0, 0.0, lam4], atol=1e-14)


def test_background_normalization_closed_form(gas, bg):
    a, t2 = gas.a_inf, gas.t2
    want = 2.0 * (a * a - t2) ** 2 / ((gas.gamma + 1.0) * a**4)
    for j in GENUINE_FAMILIES:
        assert normalization_coefficient(bg, gas, j) == pytest.approx(want, abs=1e-12)
    # zero-scaling limit: 2/(gamma+1)
    gz = gas.with_tau(0.0)
    assert normalization_coefficient(gz.background(), gz, 1) == pytest.approx(5.0 / 6.0)


def test_eigenvector_matrix_determinant(gas, bg):
    a, t2, g = gas.a_inf, gas.t2, gas.gamma
    want = -8.0 * (a * a - t2) ** 3.5 / ((g + 1.0) ** 2 * a**8)
    assert np.linalg.det(eigenvector_matrix(bg, gas)) == pytest.approx(want, rel=1e-12)


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)))
def test_eigenvalues_solve_characteristic_polynomial(U):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    lam = eigenvalues(U, gas)
    # acoustic pair solves the quadratic; middle pair rides the flow slope
    assert abs(char_residual(U, gas, float(lam[0]))) < 1e-10
    assert abs(char_residual(U, gas, float(lam[3]))) < 1e-10
    assert float(lam[1]) == float(lam[2]) == flow_slope(U, gas)


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       j=st.sampled_from(FAMILIES))
def test_grad_eigenvalue_matches_finite_differences(U, j):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    ana = grad_eigenvalue(U, gas, j)
    fd = grad_eigenvalue_fd(U, gas, j)
    np.testing.assert_allclose(ana, fd, rtol=2e-5, atol=2e-7)


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       j=st.sampled_from(CONTACT_FAMILIES))
def test_contact_families_linearly_degenerate(U, j):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    drift = float(np.dot(grad_eigenvalue(U, gas, j), eigenvector_raw(U, gas, j)))
    assert abs(drift) < 1e-10


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       j=st.sampled_from(GENUINE_FAMILIES))
def test_normalized_eigenvector_unit_slope_derivative(U, j):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    slope = float(np.dot(grad_eigenvalue(U, gas, j), eigenvector(U, gas, j)))
    assert slope == pytest.approx(1.0, abs=1e-10)


def test_eigenvalue_ordering_and_contact_speed(gas):
    U = State(1.01, 0.004, -0.003, gas.p_background * 1.02)
    lam = eigenvalues(U, gas)
    assert lam[0] < lam[1] == lam[2] < lam[3]
    assert lam[1] == pytest.approx(flow_slope(U, gas), abs=1e-15)
    assert flow_slope(U, gas) == pytest.approx(U.v / mass_flux_factor(U, gas))


def test_entropy_pair_values(gas, bg):
    ex, ey = entropy_pair(bg, gas)
    assert ex == pytest.approx(gas.p_background)
    assert ey == 0.0
    U = State(1.02, 0.01, -0.004, gas.p_background * 1.01)
    ex, ey = entropy_pair(U, gas)
    base = U.rho ** (1.0 - gas.gamma) * U.p
    assert ex == pytest.approx(base * (1.0 + gas.t2 * U.u))
    assert ey == pytest.approx(base * U.v)


def test_bc_residual(gas, bg):
    assert bc_residual(bg, 0.0, gas) == 0.0
    theta = -0.01
    # background stream does not match an inclined wall
    assert bc_residual(bg, theta, gas) == pytest.approx(math.sin(theta))
    # a state whose flow slope equals tan(theta) satisfies the condition
    U = State(1.0, 0.0, math.tan(theta), bg.p)  # m = 1 at u = 0
    assert abs(bc_residual(U, theta, gas)) < 1e-12


def test_check_state_rejects_bad_states(gas):
    with pytest.raises(DomainError):
        check_state(State(-1.0, 0.0, 0.0, gas.p_background), gas)
    with pytest.raises(DomainError):
        check_state(State(1.0, 0.0, 0.0, -0.1), gas)


def test_gas_params_validation():
    with pytest.raises(DomainError):
        GasParams(gamma=1.4, a_inf=2.0, tau=-0.1)
    with pytest.raises(DomainError):
        GasParams(gamma=0.9, a_inf=2.0, tau=0.0)
    with pytest.raises(DomainError):
        GasParams(gamma=1.4, a_inf=2.0, tau=2.0)  # loses x-hyperbolicity


def test_sound_speed_background(gas, bg):
    # scaled sound speed at background is 1/a
    assert sound_speed(bg, gas) == pytest.approx(1.0 / gas.a_inf)


def test_zero_tau_eigenvalues(gas0, bg0):
    lam = eigenvalues(bg0, gas0)
    np.testing.assert_allclose(lam, [-0.5, 0.0, 0.0, 0.5], atol=1e-15)
    assert eigenvalue(bg0, gas0, 4) == pytest.approx(0.5)


def test_state_array_roundtrip():
    U = State(1.01, 0.002, -0.003, 0.18)
    assert State.from_array(U.as_array()) == U
    np.testing.assert_allclose(U - State(1.01, 0.002, -0.003, 0.17),
                               [0.0, 0.0, 0.0, 0.01], atol=1e-16)


# ---------------------------------------------------------------------------
# float kernels: bit for bit the numpy formulations, same domain errors
# ---------------------------------------------------------------------------

_GASES = (GasParams(gamma=1.4, a_inf=2.0, tau=0.0),
          GasParams(gamma=1.4, a_inf=2.0, tau=0.1),
          GasParams(gamma=5.0 / 3.0, a_inf=3.0, tau=0.3))


@pytest.mark.parametrize("gas", _GASES)
def test_float_kernels_match_numpy_formulation(gas):
    for U in trust_box_states(gas, 40, seed=11):
        w = (U.rho, U.u, U.v, U.p)
        fx, fy = fluxes(U, gas)
        want_fx, want_fy = oracle.fluxes(U, gas)
        assert np.array_equal(fx, want_fx) and np.array_equal(fy, want_fy)
        assert flux_values(*w, gas) == (want_fx.tolist(), want_fy.tolist())
        assert np.array_equal(eigenvalues(U, gas), oracle.eigenvalues(U, gas))
        for j in FAMILIES:
            assert np.array_equal(eigenvector_raw(U, gas, j), oracle.eigenvector_raw(U, gas, j))
            assert np.array_equal(eigenvector(U, gas, j), oracle.eigenvector(U, gas, j))
            assert (normalization_coefficient(U, gas, j)
                    == oracle.normalization_coefficient(U, gas, j))
        for j in GENUINE_FAMILIES:
            lam = eigenvalue(U, gas, j)
            assert type(lam) is float and lam == oracle.eigenvalue(U, gas, j)
            assert acoustic_slope(*w, gas, j) == lam
            assert np.array_equal(grad_eigenvalue(U, gas, j), oracle.grad_eigenvalue(U, gas, j))
            assert acoustic_field(*w, gas, j) == oracle.eigenvector(U, gas, j).tolist()


_TAU = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
_PB = _TAU.p_background


@pytest.mark.parametrize("w", [
    pytest.param((0.0, 0.0, 0.0, _PB), id="zero density"),
    pytest.param((-1.0, 0.0, 0.0, _PB), id="negative density"),
    pytest.param((1.0, 0.0, 0.0, 0.0), id="zero pressure"),
    pytest.param((1.0, 0.0, 0.0, -0.1), id="negative pressure"),
    pytest.param((1.0, -1.0 / _TAU.t2, 0.0, _PB), id="mass-flux factor at rounding level"),
    pytest.param((1.0, -1.0e3, 0.0, _PB), id="negative mass-flux factor"),
])
def test_float_kernels_reject_states_check_state_rejects(w):
    with pytest.raises(DomainError):
        check_state(State(*w), _TAU)
    with pytest.raises(DomainError):
        flux_values(*w, _TAU)
    for j in GENUINE_FAMILIES:
        for kernel in (acoustic_slope, acoustic_field):
            with pytest.raises(DomainError):
                kernel(*w, _TAU, j)


@pytest.mark.parametrize("w, disc_nonpositive", [
    ((1.0, 0.0, 0.0, 200.0), True),  # t*c^2 = 2.8 > m^2 = 1, so den < 0 and disc < 0
    ((1.0, 0.0, 0.5, 71.5), False),  # just past the sonic limit: den < 0 < disc
])
def test_acoustic_kernels_reject_den_and_disc_nonpositive(w, disc_nonpositive):
    # in floating point disc >= den (disc adds t*v^2 >= 0 to den, and
    # rounding is monotone), so a state with disc <= 0 also has den <= 0
    t, (rho, u, v, p) = _TAU.t2, w
    m = 1.0 + t * u
    c2 = _TAU.gamma * p / rho
    assert m * m - t * c2 <= 0.0
    assert (m * m + t * (v * v - c2) <= 0.0) == disc_nonpositive
    for j in GENUINE_FAMILIES:
        for kernel in (acoustic_slope, acoustic_field):
            with pytest.raises(DomainError):
                kernel(*w, _TAU, j)
        with pytest.raises(DomainError):
            eigenvalue(State(*w), _TAU, j)
