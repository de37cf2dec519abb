"""State algebra, fluxes, and eigen-structure."""

import math
import struct
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperwedge import euler
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
    check_state,
    eigenvalue,
    eigenvalues,
    eigenvector,
    eigenvector_matrix,
    entropy_pair,
    flow_slope,
    flux_and_slope,
    flux_values,
    fluxes,
    grad_eigenvalue_fd,
    mass_flux_factor,
    normalization_coefficient,
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
    # acoustic pair solves the quadratic
    #   (m^2 - t*c^2)*lam^2 - 2*m*v*lam + (v^2 - c^2) = 0;
    # middle pair rides the flow slope
    t = gas.t2
    m = 1.0 + t * U.u
    c2 = gas.gamma * U.p / U.rho
    for j in (0, 3):
        r = float(lam[j])
        assert abs((m * m - t * c2) * r * r - 2.0 * m * U.v * r + (U.v * U.v - c2)) < 1e-10
    assert float(lam[1]) == float(lam[2]) == flow_slope(U, gas)


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       j=st.sampled_from(FAMILIES))
def test_grad_eigenvalue_matches_finite_differences(U, j):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    ana = _contact_gradient(U, gas) if j in CONTACT_FAMILIES else oracle.grad_eigenvalue(U, gas, j)
    fd = grad_eigenvalue_fd(U, gas, j)
    np.testing.assert_allclose(ana, fd, rtol=2e-5, atol=2e-7)


def _contact_gradient(U, gas):
    """Gradient of the contact slope ``v/m``: ``(0, -t*v/m^2, 1/m, 0)``."""
    m = 1.0 + gas.t2 * U.u
    return np.array([0.0, -gas.t2 * U.v / (m * m), 1.0 / m, 0.0])


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       j=st.sampled_from(CONTACT_FAMILIES))
def test_contact_families_linearly_degenerate(U, j):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    drift = float(np.dot(_contact_gradient(U, gas), eigenvector(U, gas, j)))
    assert abs(drift) < 1e-10


@given(U=state_box(GasParams(gamma=1.4, a_inf=2.0, tau=0.1)),
       j=st.sampled_from(GENUINE_FAMILIES))
def test_normalized_eigenvector_unit_slope_derivative(U, j):
    gas = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)
    slope = float(np.dot(oracle.grad_eigenvalue(U, gas, j), eigenvector(U, gas, j)))
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
    # a plain float: the wall Newton's residuals carry no numpy scalar
    assert type(bc_residual(U, theta, gas)) is float


def test_check_state_rejects_bad_states(gas):
    with pytest.raises(DomainError):
        check_state(State(-1.0, 0.0, 0.0, gas.p_background), gas)
    with pytest.raises(DomainError):
        check_state(State(1.0, 0.0, 0.0, -0.1), gas)


@pytest.mark.parametrize("name, value", [("rho", math.nan), ("u", math.inf),
                                         ("v", math.nan), ("p", -math.inf)])
def test_check_state_names_a_nonfinite_component(gas, name, value):
    U = replace(gas.background(), **{name: value})
    with pytest.raises(DomainError, match=f"^non-finite {name} {value} \\(here\\)$"):
        check_state(U, gas, "here")


def test_gas_params_validation():
    with pytest.raises(DomainError):
        GasParams(gamma=1.4, a_inf=2.0, tau=-0.1)
    with pytest.raises(DomainError):
        GasParams(gamma=0.9, a_inf=2.0, tau=0.0)
    with pytest.raises(DomainError):
        GasParams(gamma=1.4, a_inf=2.0, tau=2.0)  # loses x-hyperbolicity


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
            assert np.array_equal(eigenvector(U, gas, j), oracle.eigenvector(U, gas, j))
            assert (normalization_coefficient(U, gas, j)
                    == oracle.normalization_coefficient(U, gas, j))
        for j in GENUINE_FAMILIES:
            lam = eigenvalue(U, gas, j)
            assert type(lam) is float and lam == oracle.eigenvalue(U, gas, j)
            assert acoustic_slope(*w, gas, j) == lam
            assert acoustic_field(*w, gas, j) == oracle.eigenvector(U, gas, j).tolist()


@pytest.mark.parametrize("gas", _GASES)
def test_flux_and_slope_equals_separate_kernels(gas):
    for U in trust_box_states(gas, 40, seed=11):
        w = (U.rho, U.u, U.v, U.p)
        for j in GENUINE_FAMILIES:
            fx, fy, lam = flux_and_slope(*w, gas, j)
            assert (fx, fy) == flux_values(*w, gas) and lam == acoustic_slope(*w, gas, j)


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
        for kernel in (acoustic_slope, acoustic_field, flux_and_slope):
            with pytest.raises(DomainError):
                kernel(*w, _TAU, j)


def test_float_kernels_reject_subnormal_density():
    # check_state passes rho = 5e-324, but (gamma - 1) * rho rounds to 0;
    # at rho = 1e-310 it does not, but gamma * p / ((gamma - 1) * rho)
    # overflows: the enthalpy term must raise DomainError, not
    # ZeroDivisionError, return inf/nan (a float) or warn (a numpy
    # scalar), so that a Newton trial landing there is halved
    for rho in (5e-324, np.float64(5e-324), 1e-310, np.float64(1e-310)):
        w = (rho, 0.0, 0.0, _PB)
        check_state(State(*w), _TAU)
        with pytest.raises(DomainError):
            flux_values(*w, _TAU)
        with pytest.raises(DomainError):
            bernoulli(State(*w), _TAU)
        # the acoustic kernels divide by rho itself, where gamma * p / rho
        # overflows: that must raise too, without a numpy overflow warning
        for j in GENUINE_FAMILIES:
            for kernel in (acoustic_slope, acoustic_field, flux_and_slope):
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
        for kernel in (acoustic_slope, acoustic_field, flux_and_slope):
            with pytest.raises(DomainError):
                kernel(*w, _TAU, j)
        with pytest.raises(DomainError):
            eigenvalue(State(*w), _TAU, j)


# ---------------------------------------------------------------------------
# flat kernels: the oracle's chains of steps, float for float, type for
# type and text for text
# ---------------------------------------------------------------------------

_FLAT_KERNELS = ((flux_and_slope, oracle.flux_and_slope),
                 (acoustic_field, oracle.acoustic_field))


def _bits(values):
    return [(type(x), struct.pack("<d", x)) for x in values]


@pytest.mark.parametrize("gas", _GASES)
def test_flat_kernels_equal_their_helper_chains(gas):
    # plain floats, and the numpy scalars a state built from arrays holds
    for U in trust_box_states(gas, 40, seed=12):
        for w in ((U.rho, U.u, U.v, U.p), tuple(np.float64(a) for a in (U.rho, U.u, U.v, U.p))):
            for j in GENUINE_FAMILIES:
                fx, fy, lam = flux_and_slope(*w, gas, j)
                want_fx, want_fy, want_lam = oracle.flux_and_slope(*w, gas, j)
                assert _bits(fx + fy + [lam]) == _bits(want_fx + want_fy + [want_lam])
                assert (_bits(acoustic_field(*w, gas, j))
                        == _bits(oracle.acoustic_field(*w, gas, j)))


# a gas stub with t = tau^2 < 0: for a real gas disc >= den in floating
# point (see above), so the disc check is reached only this way
_NEGATIVE_T = types.SimpleNamespace(gamma=1.4, t2=-1.0)
_GAMMA3 = GasParams(gamma=3.0, a_inf=2.0, tau=0.1)
_TAU0 = GasParams(gamma=1.4, a_inf=2.0, tau=0.0)


@pytest.mark.parametrize("kernels, gas, w, text", [
    pytest.param(_FLAT_KERNELS, _TAU, (0.0, 0.0, 0.0, _PB), "nonpositive density",
                 id="density"),
    pytest.param(_FLAT_KERNELS, _TAU, (1.0, 0.0, 0.0, -0.1), "nonpositive pressure",
                 id="pressure"),
    pytest.param(_FLAT_KERNELS, _TAU, (1.0, -1.0e3, 0.0, _PB), "mass-flux factor",
                 id="mass-flux factor"),
    pytest.param(_FLAT_KERNELS[:1], _TAU, (5e-324, 0.0, 0.0, _PB), "enthalpy term undefined",
                 id="subnormal density, fluxes"),
    pytest.param(_FLAT_KERNELS[:1], _TAU, (1e-310, 0.0, 0.0, _PB), "enthalpy term overflows",
                 id="enthalpy overflow"),
    pytest.param(_FLAT_KERNELS[1:], _TAU, (5e-324, 0.0, 0.0, _PB), "sound speed overflows",
                 id="subnormal density, field"),
    # gamma - 1 > 1: gamma*p/rho overflows while gamma*p/((gamma-1)*rho) does not
    pytest.param(_FLAT_KERNELS, _GAMMA3, (1.2e-308, 0.0, 0.0, 1.0), "sound speed overflows",
                 id="sound-speed overflow"),
    pytest.param(_FLAT_KERNELS, _TAU, (1.0, 0.0, 0.5, 71.5), "acoustic denominator",
                 id="den"),
    pytest.param(_FLAT_KERNELS, _NEGATIVE_T, (1.0, 0.0, 10.0, _PB), "acoustic discriminant",
                 id="disc"),
    # tau = 0 and the root far below an ulp of v: lam rounds to v, so
    # D = Dp = 0; the differencing fallback runs, then D = 0 raises
    pytest.param(_FLAT_KERNELS[1:], _TAU0, (1.0, 0.0, 1.0e14, 1.0e-5), "(D=0)",
                 id="D"),
])
def test_flat_kernels_raise_their_helper_chains_texts(kernels, gas, w, text):
    for flat, chain in kernels:
        for j in GENUINE_FAMILIES:
            with pytest.raises(DomainError) as want:
                chain(*w, gas, j)
            with pytest.raises(DomainError) as got:
                flat(*w, gas, j)
            assert text in str(want.value)
            assert str(got.value) == str(want.value)


# Dp = den*lam - m*v rounds to 0 at this state while D = m*lam - v = 16:
# the gradient comes from differencing
_DP_ZERO = (1.0, 6.222931879889604e+16, -9.051006296082482e+16, 1.0e-5)


def test_acoustic_field_differencing_fallback(monkeypatch):
    calls = []
    fd = euler.grad_eigenvalue_fd

    def spy(U, gas, family):
        calls.append(U)
        return fd(U, gas, family)

    monkeypatch.setattr(euler, "grad_eigenvalue_fd", spy)
    got = acoustic_field(*_DP_ZERO, _TAU, 1)
    assert calls == [State(*_DP_ZERO)]
    assert _bits(got) == _bits(oracle.acoustic_field(*_DP_ZERO, _TAU, 1))
    assert calls == [State(*_DP_ZERO)] * 2  # the helper chain takes it too


def test_acoustic_field_loss_of_genuine_nonlinearity(monkeypatch):
    # a zero gradient from the fallback makes grad(lam) . r~ = 0
    monkeypatch.setattr(euler, "grad_eigenvalue_fd", lambda U, gas, family: np.zeros(4))
    with pytest.raises(DomainError) as want:
        oracle.acoustic_field(*_DP_ZERO, _TAU, 1)
    with pytest.raises(DomainError) as got:
        acoustic_field(*_DP_ZERO, _TAU, 1)
    assert "loses genuine nonlinearity" in str(want.value)
    assert str(got.value) == str(want.value)
