"""Front-tracking engine: geometry, events, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hyperwedge.euler import (
    NP_FAMILY,
    GasParams,
    State,
    bc_residual,
    eigenvalue,
    fluxes,
)
import hyperwedge.tracking as tracking
from hyperwedge.curves import wave_front
from hyperwedge.tracking import (
    EngineConfig,
    Event,
    Front,
    InitialData,
    SolutionSlice,
    approximate_boundary,
    approximate_initial_data,
    default_lambda_hat,
    export_trajectory,
    next_event,
    run,
)

_GAS = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)


def flat_wall(h=1.0 / 32.0, x_max=2.5):
    return approximate_boundary(lambda x: 0.0, h, x_max=x_max)


def wedge_wall(slope=-0.01, h=1.0 / 32.0, x_max=2.5):
    return approximate_boundary(lambda x: slope * x, h, x_max=x_max)


def stepped_data(gas, amp=2e-4, seed=0, n=3):
    rng = np.random.default_rng(seed)
    pb = gas.p_background
    states = [gas.background()]
    for _ in range(n):
        d = rng.uniform(-amp, amp, size=4)
        states.append(State(1.0 + d[0], d[1], d[2], pb * (1.0 + d[3])))
    breaks = np.sort(rng.uniform(-1.4, -0.2, size=n))
    return InitialData(np.asarray(breaks), tuple(states))


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def test_approximate_boundary_straight_wedge():
    b = wedge_wall(slope=-0.02, h=0.25, x_max=1.0)
    assert b.g_at(0.0) == 0.0
    assert b.g_at(0.8) == pytest.approx(-0.016, abs=1e-15)
    # only the leading-edge corner turns; sampling a line adds no angles
    assert b.omegas[0] == pytest.approx(math.atan(-0.02))
    assert np.all(b.omegas[1:] == 0.0)
    assert b.theta_at(2.0) == b.thetas[b.k_star]


def test_approximate_boundary_curved_has_corners():
    b = approximate_boundary(lambda x: -0.01 * x - 0.004 * x * x, 0.25, x_max=1.0)
    assert np.count_nonzero(b.omegas[1:]) > 0
    assert np.all(np.diff(b.gs) < 0.0)


def test_initial_data_validation():
    bgs = _GAS.background()
    with pytest.raises(ValueError):
        InitialData(np.array([-0.5]), (bgs,))
    with pytest.raises(ValueError):
        InitialData(np.array([-0.2, -0.5]), (bgs, bgs, bgs))
    with pytest.raises(ValueError):
        InitialData(np.array([0.5]), (bgs, bgs))


def test_approximate_initial_data_merges_and_samples():
    bgs = _GAS.background()
    other = State(1.001, 0.0, 0.0, bgs.p)
    d = InitialData(np.array([-1.0, -0.5]), (bgs, bgs, other))
    merged = approximate_initial_data(d, nu=8)
    assert len(merged.states) == 2 and merged.breaks[0] == -0.5

    def profile(y):
        return bgs if y < -0.75 else other

    sampled = approximate_initial_data(profile, nu=8)
    assert sampled.states[0] == bgs and sampled.states[-1] == other
    assert abs(sampled.breaks[0] - (-0.75)) < 0.01


def test_lambda_hat_clears_characteristic_speeds(gas):
    lam_hat = default_lambda_hat(gas)
    assert lam_hat > eigenvalue(gas.background(), gas, 4)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def test_constant_state_flat_wall_stays_constant(gas):
    data = InitialData(np.array([]), (gas.background(),))
    traj = run(data, flat_wall(), EngineConfig(nu=8, x_end=1.0), gas)
    assert len(traj.records) == 0
    final = traj.final
    assert len(final.fronts) == 0
    assert final.states[0] == gas.background()


def test_wedge_from_rest_single_shock(gas0):
    # straight compressive wedge: one attached front, two states, no events
    data = InitialData(np.array([]), (gas0.background(),))
    traj = run(data, wedge_wall(slope=-0.01), EngineConfig(nu=8, x_end=1.0), gas0)
    assert len(traj.records) == 0
    final = traj.final
    assert len(final.fronts) == 1
    f = final.fronts[0]
    assert f.family == 1 and f.sigma < 0.0
    # top state satisfies the slip condition on the wedge face
    theta = traj.boundary.theta_at(0.5)
    assert abs(bc_residual(final.top_state, theta, gas0)) < 1e-10
    # the shock sits between the wall and the foot of the data
    assert traj.boundary.g_at(1.0) > f.y_at(1.0) > -0.6


def test_shock_speed_on_attached_front(gas0):
    data = InitialData(np.array([]), (gas0.background(),))
    traj = run(data, wedge_wall(slope=-0.01), EngineConfig(nu=8, x_end=1.0), gas0)
    f = traj.final.fronts[0]
    dfx = fluxes(f.above, gas0).fx - fluxes(f.below, gas0).fx
    dfy = fluxes(f.above, gas0).fy - fluxes(f.below, gas0).fy
    assert np.max(np.abs(f.speed * dfx - dfy)) < 1e-10


def test_run_is_deterministic(gas):
    cfg = EngineConfig(nu=8, x_end=1.0, seed=3)
    a = run(stepped_data(gas, seed=3), wedge_wall(), cfg, gas)
    b = run(stepped_data(gas, seed=3), wedge_wall(), cfg, gas)
    assert export_trajectory(a) == export_trajectory(b)


def test_rarefaction_pieces_stay_below_sampling_width(gas):
    cfg = EngineConfig(nu=8, x_end=1.0)
    traj = run(stepped_data(gas, amp=5e-4, seed=1), wedge_wall(), cfg, gas)
    cap = 1.0 / cfg.nu + 1e-12
    for s in traj.slices:
        for f in s.fronts:
            if f.family in (1, 4) and f.sigma > 0.0:
                assert f.sigma <= cap


def test_np_fronts_travel_at_lambda_hat(gas):
    cfg = EngineConfig(nu=6, x_end=1.0)  # coarse: force SRS use
    traj = run(stepped_data(gas, amp=5e-4, seed=2), wedge_wall(), cfg, gas)
    nps = [f for s in traj.slices for f in s.fronts if f.family == NP_FAMILY]
    assert nps, "expected at least one error carrier at nu=6"
    for f in nps:
        assert f.speed == traj.lambda_hat
        assert f.sigma >= 0.0


def test_np_budget_regression_bound(gas):
    # total carrier strength <= C * 2^-nu; C measured once on this data
    # (2.4e-4 at nu=8) and frozen with slack
    cfg = EngineConfig(nu=8, x_end=1.0)
    traj = run(stepped_data(gas, amp=5e-4, seed=2), wedge_wall(), cfg, gas)
    worst = max(
        (sum(f.sigma for f in s.fronts if f.family == NP_FAMILY)
         for s in traj.slices), default=0.0)
    assert 0.0 < worst <= 4e-4 * 2.0 ** (-cfg.nu)


def test_slices_ordered_and_fronts_sorted(gas):
    cfg = EngineConfig(nu=8, x_end=1.0)
    traj = run(stepped_data(gas, seed=4), wedge_wall(), cfg, gas)
    xs = [s.x for s in traj.slices]
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    for s in traj.slices[:-1]:
        ys = s.ys()
        assert np.all(np.diff(ys) >= -1e-14)
        assert len(s.states) == len(s.fronts) + 1
        # everything stays strictly below the wall
        if len(ys):
            assert ys[-1] < traj.boundary.g_at(s.x) + 1e-14


def test_slice_at_replays_front_lines(gas):
    cfg = EngineConfig(nu=8, x_end=1.0)
    traj = run(stepped_data(gas, seed=4), wedge_wall(), cfg, gas)
    mid = traj.slice_at(0.62)
    assert mid.x == 0.62
    k = max(i for i, s in enumerate(traj.slices) if s.x <= 0.62)
    src = traj.slices[k]
    assert mid.states == src.states
    np.testing.assert_allclose(
        mid.ys(), [f.y_at(0.62) for f in src.fronts], atol=0.0)
    with pytest.raises(ValueError):
        traj.slice_at(1.5)


def test_slip_condition_after_boundary_events(gas):
    # with exact wall resolution the top state obeys the slip condition
    # after every event; the default absorb mode only guarantees it up to
    # the dropped carrier strength
    cfg = EngineConfig(nu=8, x_end=1.0, np_boundary="resolve")
    traj = run(stepped_data(gas, amp=2e-4, seed=5), wedge_wall(), cfg, gas)
    assert any(r.kind == "boundary" for r in traj.records)
    for s in traj.slices:
        theta = traj.boundary.theta_at(s.x)
        assert abs(bc_residual(s.top_state, theta, gas)) < 1e-9


def test_absorb_mode_slip_error_bounded(gas):
    cfg = EngineConfig(nu=8, x_end=1.0, np_boundary="absorb")
    traj = run(stepped_data(gas, amp=2e-4, seed=5), wedge_wall(), cfg, gas)
    worst = 0.0
    for s in traj.slices:
        theta = traj.boundary.theta_at(s.x)
        worst = max(worst, abs(bc_residual(s.top_state, theta, gas)))
    assert worst < 2.0 ** (-cfg.nu)


def test_event_records_annotated(gas):
    cfg = EngineConfig(nu=8, x_end=1.0)
    traj = run(stepped_data(gas, seed=0), wedge_wall(), cfg, gas)
    assert len(traj.records) >= 10
    kinds = {r.kind for r in traj.records}
    assert kinds <= {"interaction", "boundary", "corner", "np_boundary"}
    for r in traj.records:
        assert 0.0 <= r.x <= cfg.x_end
        assert r.solver in ("ARS", "SRS", "boundary")
        assert r.emech >= 0.0


def test_export_format(gas):
    data = InitialData(np.array([]), (gas.background(),))
    traj = run(data, wedge_wall(slope=-0.01), EngineConfig(nu=8, x_end=1.0), gas)
    text = export_trajectory(traj)
    lines = text.splitlines()
    assert lines[0] == "x_end,h,nu,tau,gamma,a_inf,seed"
    assert lines[2].startswith("SLICE x=")
    # states and fronts alternate in y-descending order inside a block
    assert lines[3].startswith("state,")
    kinds = {ln.split(",")[0] for ln in lines[2:] if "," in ln}
    assert kinds == {"state", "front"}


# ---------------------------------------------------------------------------
# event scheduling against a full-scan oracle
# ---------------------------------------------------------------------------

def _walking_wall_hit(f, x_now, boundary):
    """Wall-hit oracle: walk every remaining segment, no short-cut."""
    k = boundary.segment_index(x_now)
    while True:
        tanth = math.tan(float(boundary.thetas[k]))
        denom = f.speed - tanth
        x_lo = max(float(boundary.xs[k]), x_now)
        x_hi = float(boundary.xs[k + 1]) if k < boundary.k_star else np.inf
        if denom > 1.0e-15:
            gk = float(boundary.gs[k]) + tanth * (x_lo - float(boundary.xs[k]))
            gap = gk - f.y_at(x_lo)
            xh = x_lo + gap / denom
            if gap <= 0.0:
                xh = x_lo
            if x_lo - 1.0e-14 <= xh <= x_hi + 1.0e-14:
                return min(max(xh, x_now), x_hi)
        if k == boundary.k_star:
            return None
        k += 1


def _full_scan_next_event(slice_, boundary, cfg, gas, lambda_hat, rng):
    """Scheduling oracle: list every candidate, every turning corner
    included, sort them all, and perturb the youngest front of a clash."""
    tol = tracking._COINCIDENCE_TOL
    for _ in range(64):
        x0, fronts, ys = slice_.x, slice_.fronts, slice_.ys()
        cands = [(cfg.x_end, "end", -1)]
        for i in range(len(fronts) - 1):
            slo, sup = fronts[i].speed, fronts[i + 1].speed
            if slo <= sup:
                continue
            dy = max(ys[i + 1] - ys[i], 0.0)
            if dy == 0.0 and slo - sup <= tracking._PARALLEL_TOL:
                continue
            cands.append((x0 + dy / (slo - sup), "interaction", i))
        if fronts:
            xb = _walking_wall_hit(fronts[-1], x0, boundary)
            if xb is not None:
                cands.append((xb, "boundary", len(fronts) - 1))
        for k in range(1, boundary.k_star + 1):
            if boundary.xs[k] > x0 + tol and boundary.omegas[k] != 0.0:
                cands.append((float(boundary.xs[k]), "corner", k))
        cands.sort(key=lambda c: (c[0], c[1], c[2]))
        near = [c for c in cands if c[0] - cands[0][0] <= tol]
        clash = tracking._find_clash(near)
        if clash is None:
            x, kind, idx = cands[0]
            return Event(kind, x, idx), slice_
        j = tracking._youngest(slice_, clash)
        fronts = list(fronts)
        fronts[j] = tracking._perturb_speed(fronts[j], gas, lambda_hat, cfg.nu, rng)
        slice_ = SolutionSlice(x0, fronts, slice_.states)
    raise AssertionError("no clash-free event after 64 perturbations")


def _through(gas, U, waves, x_star, y_star):
    """Fronts stacked from U at their exact slopes, every line through
    (x_star, y_star); `waves` holds (family, sigma, x0) bottom to top."""
    fronts, states = [], [U]
    for family, sigma, x0 in waves:
        W, s = wave_front(states[-1], family, sigma, gas)
        fronts.append(Front(family, sigma, x0, y_star - s * (x_star - x0), s, 1,
                            states[-1], W))
        states.append(W)
    return fronts, states


def _stress_wall(h=1.0 / 64.0):
    return approximate_boundary(lambda x: -0.005 * x - 0.002 * x * x, h, x_max=2.0)


_SEED = 7
#: the first perturbation drawn at nu = 10 from the seed-_SEED stream
_DELTA = (1.0 - np.random.default_rng(_SEED).random()) * 2.0 ** -12


def _schedule_both(slice_, wall, gas):
    """(event, slice) from next_event and from the oracle, same seed."""
    cfg = EngineConfig(h=wall.h, nu=10, seed=_SEED)
    lam = default_lambda_hat(gas)
    got = next_event(slice_, wall, cfg, gas, lam, np.random.default_rng(_SEED))
    want = _full_scan_next_event(slice_, wall, cfg, gas, lam,
                                 np.random.default_rng(_SEED))
    return got, want


def test_triple_point_perturbs_youngest_front_like_full_scan(gas, bg):
    # a 4-rarefaction piece, a contact and a 1-shock meet at one point,
    # between two turning corners; the shock is anchored last, so its
    # speed is the one perturbed
    wall = _stress_wall()
    x_now, x_star, y_star = 0.25, 0.26, -0.3  # corners at 0.25 and 0.265625
    fronts, states = _through(gas, bg, [(4, 1e-2, 0.0), (2, 3e-3, 0.1), (1, -1e-2, 0.2)],
                              x_star, y_star)
    # the shock was perturbed once before, by more than this draw
    exact = fronts[2].speed
    lagged = exact - 2.0 ** -13
    assert _DELTA < 2.0 ** -13
    fronts[2] = replace(fronts[2], speed=lagged, y0=y_star - lagged * (x_star - 0.2))
    slice_ = SolutionSlice(x_now, fronts, states)
    (event, out), (want_event, want_out) = _schedule_both(slice_, wall, gas)
    assert event == want_event and out.fronts == want_out.fronts
    # the new slope is the exact one minus the draw, so the shock now
    # trails the contact and the lower pair meets first, at the old point
    assert out.fronts[2].speed == exact - _DELTA
    assert event.kind == "interaction" and event.index == 0
    assert abs(event.x - x_star) < 1e-12
    assert out.fronts[:2] == fronts[:2] and out.states is states


def test_wall_hit_at_corner_perturbs_top_front_like_full_scan(gas, bg):
    # the top front (a 4-rarefaction piece) reaches the wall exactly at a
    # turning corner; the two fronts below it move apart
    wall = _stress_wall()
    k = 20
    x_c, g_c = float(wall.xs[k]), float(wall.gs[k])
    assert wall.omegas[k] != 0.0
    x_now = 0.3
    low, states = _through(gas, bg, [(1, -1e-2, x_now), (2, 3e-3, x_now)], x_now, -0.4)
    top, above = _through(gas, states[-1], [(4, 1e-2, x_now)], x_c, g_c)
    fronts = low + top
    slice_ = SolutionSlice(x_now, fronts, states + above[1:])
    xb = tracking._wall_hit(fronts[-1], x_now, wall)
    assert abs(xb - x_c) <= tracking._COINCIDENCE_TOL
    (event, out), (want_event, want_out) = _schedule_both(slice_, wall, gas)
    assert event == want_event and out.fronts == want_out.fronts
    assert event == Event("corner", x_c, k)
    assert out.fronts[:2] == low
    assert out.fronts[2].speed == fronts[2].speed - _DELTA


def test_next_event_matches_full_scan_over_a_run(gas):
    # every slice of a curved-wall run schedules as under the full scan
    wall = _stress_wall(h=1.0 / 32.0)
    cfg = EngineConfig(h=wall.h, nu=8, seed=2)
    traj = run(stepped_data(gas, amp=5e-4, seed=2, n=4), wall, cfg, gas)
    assert any(r.kind == "corner" for r in traj.records)
    lam = traj.lambda_hat
    for sl in traj.slices[:-1]:
        got = next_event(sl, wall, cfg, gas, lam, np.random.default_rng(0))
        want = _full_scan_next_event(sl, wall, cfg, gas, lam, np.random.default_rng(0))
        assert got[0] == want[0] and got[1].fronts == want[1].fronts


@pytest.mark.parametrize("wall", [
    _stress_wall(),
    wedge_wall(slope=-0.01, h=1.0 / 64.0, x_max=2.0),
    approximate_boundary(lambda x: -0.01 * x, 1.0 / 64.0, tail_slope=0.0, x_max=2.0),
    approximate_boundary(lambda x: -0.01 * x + 0.004 * x * x, 1.0 / 64.0, x_max=2.0),
], ids=["curved", "straight", "flat-tail", "bending-up"])
def test_wall_hit_matches_walking_oracle(wall, bg):
    # seeded fronts at and below the wall, plus fronts slower than every
    # remaining segment and fronts within 1e-15 of the least tangent ahead
    rng = np.random.default_rng(3)
    tans = [math.tan(float(th)) for th in wall.thetas]
    hits = misses = 0
    for x_now in rng.uniform(0.0, 2.2, size=40):
        k = wall.segment_index(x_now)
        least = min(tans[k:])
        speeds = list(rng.uniform(min(tans) - 0.01, max(tans) + 0.01, size=6))
        speeds += [least - 1e-3, least, least + 1e-15]
        speeds += [float(np.nextafter(least + 1e-15, d)) for d in (-1.0, 1.0)]
        for speed in speeds:
            for gap in (0.0, 1e-3 * rng.random(), -1e-16):
                y = wall.g_at(x_now) - gap
                f = Front(1, -1e-3, x_now, y, speed, 1, bg, bg)
                got = tracking._wall_hit(f, x_now, wall)
                assert got == _walking_wall_hit(f, x_now, wall)
                hits += got is not None
                misses += got is None
    assert hits and misses
