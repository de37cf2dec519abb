"""Front-tracking engine: geometry, events, determinism."""

import ast
import functools
import hashlib
import math
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter
from dataclasses import astuple, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwedge.euler import (
    NP_FAMILY,
    GasParams,
    State,
    bc_residual,
    eigenvalue,
    fluxes,
)
import hyperwedge.curves as curves
import hyperwedge.tracking as tracking
from hyperwedge.curves import DELTA_TRUST, wave_front
from hyperwedge.experiments import ExperimentConfig, wedge_problem
from hyperwedge.riemann import SolverError, hugoniot_decompose, solve_riemann
from hyperwedge.tracking import (
    EngineConfig,
    Event,
    EventRecord,
    Front,
    InitialData,
    SolutionSlice,
    approximate_boundary,
    default_lambda_hat,
    export_trajectory,
    next_event,
    run,
    write_trajectory,
)

from conftest import assert_slice_invariants, count_residuals

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
    assert len(b.omegas) == b.k_star + 1 and all(o == 0.0 for o in b.omegas[1:])
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


def test_walls_data_and_strengths_hold_plain_floats():
    # tuples of floats from construction on: a numpy scalar would carry
    # into every station and strength built from it, and arrays do not
    # compare with ==
    def curved():
        return approximate_boundary(lambda x: -0.01 * x - 0.004 * x * x, 0.25, x_max=1.0)

    wall = curved()
    states = _numpy_scalar_states(3, amp=2e-3, seed=4)
    breaks = np.sort(np.random.default_rng(4).uniform(-1.4, -0.2, 3))
    data = InitialData(breaks, states)
    sol = solve_riemann(states[0], states[1], _GAS)
    q = hugoniot_decompose(states[0], states[1], _GAS)
    for values in (wall.xs, wall.gs, wall.thetas, wall.omegas, data.breaks, sol.strengths, q,
                   *map(astuple, data.states)):
        assert type(values) is tuple and all(type(v) is float for v in values), values
    assert data.breaks == tuple(breaks.tolist())
    assert data.states == states
    assert curved() == wall and hash(curved()) == hash(wall)
    assert InitialData(breaks.tolist(), states) == data


def _numpy_scalar_states(n, amp, seed):
    """Background and `n` random-walk steps from it, built from numpy
    arrays as the benchmark's stepped walk builds them: every component
    after the first state is a numpy scalar."""
    rng = np.random.default_rng(seed)
    states = [_GAS.background()]
    for d in rng.uniform(-amp, amp, size=(n, 4)):
        prev = states[-1]
        states.append(State(prev.rho * (1.0 + d[0]), prev.u + d[1], prev.v + d[2],
                            prev.p * (1.0 + d[3])))
    assert all(type(a) is np.float64 for s in states[1:] for a in astuple(s))
    return tuple(states)


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
    final = traj.slices[-1]
    assert len(final.fronts) == 0
    assert final.states[0] == gas.background()


def test_wedge_from_rest_single_shock(gas0):
    # straight compressive wedge: one attached front, two states, no events
    data = InitialData(np.array([]), (gas0.background(),))
    traj = run(data, wedge_wall(slope=-0.01), EngineConfig(nu=8, x_end=1.0), gas0)
    assert len(traj.records) == 0
    final = traj.slices[-1]
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
    f = traj.slices[-1].fronts[0]
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


def test_np_front_gap_is_the_state_difference_norm(bg):
    # the carrier's strength against the norm of the array difference of
    # its two states, squares summed left to right, from state gaps of
    # 1e-16 to 1e-2 and none at all; within 1e-15 of np.linalg.norm
    rng = np.random.default_rng(5)
    base = bg.as_array()
    sizes = []
    for _ in range(300):
        w_lo, w_up = base + rng.normal(size=(2, 4)) * 10.0 ** rng.uniform(-16.0, -2.0)
        lo = State.from_array(w_lo)
        for up in (State.from_array(w_up), lo):
            d = up - lo
            want = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3])
            assert want == pytest.approx(float(np.linalg.norm(d)), rel=1e-15, abs=0.0)
            npf = tracking._np_front(lo, up, 0.3, -0.2, 2.0)
            sizes.append(want)
            if want <= tracking._ZERO_STRENGTH:
                assert npf is None
            else:
                assert npf.sigma == want
    assert 0.0 < min(s for s in sizes if s) < tracking._ZERO_STRENGTH < max(sizes)


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
        ys = np.array([f.y_at(s.x) for f in s.fronts])
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
    assert mid.fronts == src.fronts
    with pytest.raises(ValueError):
        traj.slice_at(1.5)


def test_absorb_mode_slip_error_bounded(gas):
    cfg = EngineConfig(nu=8, x_end=1.0)
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
    # state,rho,u,v,p and front,family,sigma,y,speed
    assert all(len(ln.split(",")) == 5 for ln in lines[2:] if "," in ln)


def test_write_trajectory_streams_one_slice_per_write(gas):
    traj = run(stepped_data(gas, seed=0), wedge_wall(), EngineConfig(nu=8, x_end=1.0), gas)
    chunks = []
    write_trajectory(traj, SimpleNamespace(write=chunks.append))
    # the header, then one block per stored slice, each ending in a newline
    assert len(chunks) == 1 + len(traj.slices) > 10
    assert chunks[0].count("\n") == 2
    for chunk, sl in zip(chunks[1:], traj.slices):
        assert chunk.startswith("SLICE x=") and chunk.endswith("\n")
        assert chunk.count("\n") == 2 + 2 * len(sl.fronts)
    assert "".join(chunks) == export_trajectory(traj)


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


def _full_scan_candidates(slice_, boundary, x_end):
    """Every upcoming event of `slice_` as (x, kind, index), every pair
    and every turning corner included, sorted."""
    x0, fronts = slice_.x, slice_.fronts
    ys = [f.y_at(x0) for f in fronts]
    cands = [(x_end, "end", -1)]
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
        if boundary.xs[k] > x0 + tracking._COINCIDENCE_TOL and boundary.omegas[k] != 0.0:
            cands.append((float(boundary.xs[k]), "corner", k))
    cands.sort(key=lambda c: (c[0], c[1], c[2]))
    return cands


def _near(cands):
    """The candidates within the coincidence tolerance of the earliest, sorted."""
    first = min(c[0] for c in cands)
    return sorted(c for c in cands if c[0] - first <= tracking._COINCIDENCE_TOL)


def _full_scan_next_event(slice_, boundary, cfg, gas, lambda_hat, rng):
    """Scheduling oracle: list every candidate, every turning corner
    included, sort them all, and perturb the youngest front of a clash."""
    for _ in range(64):
        x0, fronts = slice_.x, slice_.fronts
        cands = _full_scan_candidates(slice_, boundary, cfg.x_end)
        near = _near(cands)
        clash = tracking._find_clash(near)
        if clash is None:
            x, kind, idx = cands[0]
            return Event(kind, x, idx), slice_
        j = tracking._youngest(slice_, clash)
        fronts = list(fronts)
        fronts[j] = tracking._perturb_speed(fronts[j], gas, lambda_hat, cfg.nu, rng)
        slice_ = SolutionSlice(x0, fronts, slice_.top_state)
    raise AssertionError("no clash-free event after 64 perturbations")


def _through(gas, U, waves, x_star, y_star):
    """Fronts stacked from U at their exact slopes, every line through
    (x_star, y_star); `waves` holds (family, sigma, x0) bottom to top."""
    fronts, states = [], [U]
    for family, sigma, x0 in waves:
        W, s = wave_front(states[-1], family, sigma, gas)
        fronts.append(Front(family, sigma, x0, y_star - s * (x_star - x0), s, states[-1], W))
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
    slice_ = SolutionSlice(x_now, fronts, states[-1])
    (event, out), (want_event, want_out) = _schedule_both(slice_, wall, gas)
    assert event == want_event and out.fronts == want_out.fronts
    # the new slope is the exact one minus the draw, so the shock now
    # trails the contact and the lower pair meets first, at the old point
    assert out.fronts[2].speed == exact - _DELTA
    assert event.kind == "interaction" and event.index == 0
    assert abs(event.x - x_star) < 1e-12
    assert out.fronts[:2] == fronts[:2] and out.states == states


def test_interactions_within_tolerance_clash_like_full_scan(gas, bg):
    # the lower pair meets at x_star and the upper pair 5e-13 later, far
    # past rounding but within the coincidence tolerance: the scan checks
    # the later pair too, finds the shared front and perturbs the youngest
    wall = _stress_wall()
    x_now, x_star, y_star = 0.25, 0.26, -0.3
    low, states = _through(gas, bg, [(4, 1e-2, 0.0), (2, 3e-3, 0.1)], x_star, y_star)
    x_up = x_star + 5e-13
    top, above = _through(gas, states[-1], [(1, -1e-2, 0.2)], x_up, low[1].y_at(x_up))
    slice_ = SolutionSlice(x_now, low + top, above[-1])
    (event, out), (want_event, want_out) = _schedule_both(slice_, wall, gas)
    assert event == want_event and out.fronts == want_out.fronts
    assert out.fronts[:2] == low and out.fronts[2].speed == top[0].speed - _DELTA


def test_find_clash_rule():
    # near events, sorted as next_event sorts them: (x, kind, index)
    clash = tracking._find_clash
    assert clash([]) is None
    assert clash([(0.5, "interaction", 2)]) is None
    # a corner conflicts with any front event at the same station
    assert clash([(0.5, "corner", 7), (0.5, "interaction", 2)]) == {2, 3}
    assert clash([(0.5, "corner", 7), (0.5, "end", -1)]) is None
    # the top front hits the wall as it meets the front below it
    assert clash([(0.5, "boundary", 4), (0.5, "interaction", 3)]) == {3, 4}
    # pairs with no front in common do not clash
    assert clash([(0.5, "interaction", 1), (0.5, "interaction", 3)]) is None
    # chained pairs: the first two listed share no front, the first
    # sharing pair in list order is (3, 4) with (2, 3)
    chain = [(0.5, "interaction", 3), (0.5 + 1e-13, "interaction", 1),
             (0.5 + 2e-13, "interaction", 2)]
    assert clash(chain) == {2, 3, 4}
    # the end of the domain involves no front
    assert clash([(1.0, "end", -1), (1.0, "boundary", 4)]) is None
    assert clash([(1.0, "end", -1), (1.0, "interaction", 0)]) is None


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
    slice_ = SolutionSlice(x_now, fronts, above[-1])
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


_WALLS = pytest.mark.parametrize("wall", [
    _stress_wall(),
    wedge_wall(slope=-0.01, h=1.0 / 64.0, x_max=2.0),
    approximate_boundary(lambda x: -0.01 * min(x, 1.5), 1.0 / 64.0, x_max=2.0),
    approximate_boundary(lambda x: -0.01 * x + 0.004 * x * x, 1.0 / 64.0, x_max=2.0),
], ids=["curved", "straight", "flat-tail", "bending-up"])


@_WALLS
def test_wall_lookups_match_numpy_lookups(wall):
    # the float-table lookups against the array ones they replaced, at
    # every corner, one ulp either side of it, before the leading edge
    # and past the last corner; the corner tail against a walk over all
    # corners
    xs = [float(x) for x in wall.xs]
    points = [-0.1, xs[-1] + 0.5, 10.0]
    for x in xs:
        points += [x, float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf))]
    for x in points:
        k = min(max(int(np.searchsorted(wall.xs, x, side="right")) - 1, 0), wall.k_star)
        assert wall.segment_index(x) == k
        g = wall.g_at(x)
        assert type(g) is float and g == float(wall.gs[k] + math.tan(wall.thetas[k])
                                               * (x - wall.xs[k]))
        theta = wall.theta_at(x)
        assert type(theta) is float and theta == float(wall.thetas[k])
        tail = wall.corner_tail(x)
        assert type(tail) is float and tail == float(sum(
            abs(float(wall.omegas[j])) for j in range(1, wall.k_star + 1) if wall.xs[j] > x))


@_WALLS
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
                f = Front(1, -1e-3, x_now, y, speed, bg, bg)
                got = tracking._wall_hit(f, x_now, wall)
                assert got == _walking_wall_hit(f, x_now, wall)
                hits += got is not None
                misses += got is None
    assert hits and misses


# ---------------------------------------------------------------------------
# whole runs against the full-scan event loop, and the slice invariants
# ---------------------------------------------------------------------------

def _wedge_case(rho_threshold, tau=0.1):
    """(data, wall, engine, gas) of the default wedge scenario."""
    cfg = ExperimentConfig(scenario="wedge", engine=EngineConfig(rho_threshold=rho_threshold))
    wall, data = wedge_problem(cfg)
    return data, wall, cfg.engine, cfg.gas(tau)


def _kinked_wedge_case():
    """The accurate-solver wedge run with its wall turned where the first
    interaction past x=0.3 happens, so that the corner coincides with an
    interaction and a front speed gets perturbed."""
    data, wall, engine, gas = _wedge_case(0.0)
    x_c = next(r.x for r in run(data, wall, engine, gas).records
               if r.kind == "interaction" and r.x > 0.3)
    slope = float(wall.gs[1] / wall.xs[1])
    h = x_c / round(32 * x_c)

    def g(x):
        return slope * x if x <= x_c else slope * x_c + 2.0 * slope * (x - x_c)

    return data, approximate_boundary(g, h, x_max=2.0), replace(engine, h=h), gas


def _curved_case():
    wall = _stress_wall(h=1.0 / 32.0)
    return (stepped_data(_GAS, amp=5e-4, seed=2, n=4), wall,
            EngineConfig(h=wall.h, nu=8, seed=2), _GAS)


def _long_wedge_case():
    """The accurate-solver wedge run carried on to x = 1.5, past the slice
    log's second checkpoint (to x = 1 it makes under 129 events)."""
    data, wall, cfg, gas = _wedge_case(0.0)
    return data, wall, replace(cfg, x_end=1.5), gas


_RUN_CASES = {"curved": _curved_case, "wedge-ars": _long_wedge_case,
              "kinked-wedge-ars": _kinked_wedge_case}


def _full_scan_run(data, wall, cfg, gas, rho_threshold, lambda_hat):
    """(slices, records, perturbations) of the event loop of ``run`` with
    the full-scan oracle scheduling every event.  It starts from a
    column-free copy of the initial slice, so that every edit makes a new
    front list and the stored slices stay independent."""
    first = tracking.initialize(data, wall, cfg, gas)
    cur = SolutionSlice(first.x, list(first.fronts), first.top_state)
    rng = np.random.default_rng(cfg.seed)
    slices, records, perturbations = [cur], [], 0
    while True:
        event, scheduled = _full_scan_next_event(cur, wall, cfg, gas, lambda_hat, rng)
        perturbations += scheduled is not cur
        cur = scheduled
        if event.kind == "end":
            return (slices + [SolutionSlice(cfg.x_end, cur.fronts, cur.top_state)],
                    records, perturbations)
        cur, rec = tracking.resolve_event(cur, event, wall, cfg, gas, rho_threshold,
                                          lambda_hat)
        slices.append(cur)
        records.append(rec)


@functools.cache
def _run_and_full_scan(case):
    """(traj, slices, records, perturbations): a run of `case` and its
    full-scan oracle, shared by the tests that compare them."""
    data, wall, cfg, gas = _RUN_CASES[case]()
    traj = run(data, wall, cfg, gas)
    return traj, *_full_scan_run(data, wall, cfg, gas, traj.rho_threshold, traj.lambda_hat)


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_run_matches_full_scan_event_loop(case):
    traj, slices, records, perturbations = _run_and_full_scan(case)
    assert records == traj.records
    assert slices == list(traj.slices)
    assert_slice_invariants(traj.slices)
    kinds = {(r.kind, r.solver) for r in records}
    if case == "curved":
        assert {("corner", "boundary"), ("boundary", "boundary")} <= kinds
        assert any(r.kind == "np_boundary" and not r.outgoing for r in records)
    else:
        assert ("interaction", "ARS") in kinds
        assert any(r.kind == "interaction" and not r.outgoing for r in records)
    assert (perturbations > 0) == (case == "kinked-wedge-ars")


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_slice_log_replays_the_full_scan_slices(case):
    # every way into the log gives the oracle's eagerly stored slices
    traj, slices, _, _ = _run_and_full_scan(case)
    n = tracking._CHECKPOINT_INTERVAL
    assert len(traj.slices) == len(slices) > 2 * n + 1
    assert list(traj.slices) == slices
    for k in (0, n - 1, n, n + 1, -1):
        assert traj.slices[k] == slices[k]
    for a, b in ((n - 3, n + 5), (n + 1, 2 * n + 2)):
        assert traj.slices[a:b] == slices[a:b]
    assert traj.slices[2 * n + 1:n - 2:-5] == slices[2 * n + 1:n - 2:-5]
    with pytest.raises(IndexError):
        traj.slices[len(slices)]

    xs = [sl.x for sl in slices]
    for x in xs + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]:
        want = slices[max(bisect_right(xs, x) - 1, 0)]
        assert traj.slice_at(x) == SolutionSlice(x, want.fronts, want.top_state)

    chunks = []
    write_trajectory(replace(traj, slices=slices), SimpleNamespace(write=chunks.append))
    for a, b in ((0, n + 1), (n - 1, 2 * n + 3)):
        block = export_trajectory(replace(traj, slices=traj.slices[a:b]))
        assert _sha256(block) == _sha256(chunks[0] + "".join(chunks[1 + a:1 + b]))


def test_carrier_crossings_warm_start_their_shocks(monkeypatch):
    # a crossing moves each transmitted wave's base state by the other
    # wave's jump and leaves its strength: a carrier's by its own tiny gap,
    # a physical front's by its strength.  Each transmitted shock's solve
    # starts from the front it was, a secant on the explicit relation with
    # no Newton: here 1,342 such solves behind carriers and 100 behind
    # physical fronts, with 2 or 3 pin residuals each (each slope
    # evaluation past lam_j of the two base states is one).  The inflow,
    # corner and wall solves are slip-line pressure roots, so the run makes
    # no Newton call at all (111 while they were Newtons).  A same-family
    # merge changes the strength and keeps the Newton; none transmits a
    # shock in this run
    newton, slopes, solves = [], [], []
    monkeypatch.setattr(curves, "damped_newton", count_residuals(curves.damped_newton, newton))
    slope = curves.acoustic_slope
    monkeypatch.setattr(curves, "acoustic_slope", lambda *args: slopes.append(1) or slope(*args))
    solve, transmit = curves._shock_solve, tracking._transmit
    crossing = []

    def shock_solve(U, gas, family, sigma, near=None):
        calls, evals = len(newton), len(slopes)
        out = solve(U, gas, family, sigma, near)
        if crossing:
            solves.append((crossing[-1], near is not None, len(newton) - calls,
                           len(slopes) - evals - 2))
        return out

    def transmit_marked(U0, waves, *args):
        # two waves crossed each other, one wave crossed a carrier, or two
        # fronts merged
        if len(waves) == 2:
            crossing.append("physical")
        else:
            crossing.append("carrier" if waves and waves[0][2] is not None else "merge")
        try:
            return transmit(U0, waves, *args)
        finally:
            crossing.pop()

    monkeypatch.setattr(curves, "_shock_solve", shock_solve)
    monkeypatch.setattr(tracking, "_transmit", transmit_marked)
    data, wall, cfg, gas = _curved_case()
    traj = run(data, wall, cfg, gas)
    assert len(traj.records) == 1646
    assert [kind for kind, *_ in solves].count("physical") == 100
    assert [kind for kind, *_ in solves].count("carrier") == 1342
    assert len(newton) == 0
    for kind, warm, calls, residuals in solves:
        assert warm and calls == 0 and 2 <= residuals <= 3, kind


def test_run_from_numpy_scalar_states_carries_plain_floats():
    # the inflow states hold plain floats, so no numpy scalar reaches a
    # station, a front or a state of the run
    wall = _stress_wall(h=1.0 / 32.0)
    data = InitialData(np.sort(np.random.default_rng(2).uniform(-1.4, -0.2, 4)),
                       _numpy_scalar_states(4, amp=5e-4, seed=2))
    traj = run(data, wall, EngineConfig(h=wall.h, nu=8, seed=2), _GAS)
    assert len(traj.records) == 628
    assert any(r.solver == "SRS" and NP_FAMILY not in (r.removed[0].family, r.removed[1].family)
               for r in traj.records)
    assert all(type(r.x) is float and type(r.y) is float for r in traj.records)
    fronts = [f for sl in traj.slices for f in sl.fronts]
    fronts += [f for r in traj.records for f in r.new_fronts]
    assert fronts
    for f in fronts:
        values = (f.sigma, f.x0, f.y0, f.speed, *astuple(f.below), *astuple(f.above))
        assert all(type(v) is float for v in values), f
    for sl in traj.slices:
        assert all(type(v) is float for v in (sl.x, *astuple(sl.top_state))), sl.x


def test_slice_log_retains_under_half_the_eager_slices():
    # the memory the log and the records hold beyond the fronts they refer
    # to, against a list of whole slices equal to the full-scan oracle's:
    # an eager copy keeps every front alive while both are dropped (the
    # records reference the log's fronts, so dropping the log alone frees
    # little)
    data, wall, cfg, gas = _curved_case()
    tracemalloc.start()
    try:
        traj = run(data, wall, cfg, gas)
        before = tracemalloc.get_traced_memory()[0]
        eager = [SolutionSlice(sl.x, list(sl.fronts), sl.top_state) for sl in traj.slices]
        eager_bytes = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        traj.slices = traj.records = None
        freed_bytes = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert eager == _run_and_full_scan("curved")[1]
    assert 0 < freed_bytes < 0.5 * eager_bytes


def test_records_reference_the_fronts_of_their_edits():
    # between them the cases make every kind of event; each record holds
    # the very fronts its slice edit took out (after any perturbation
    # edits before it) and the edit's own list of new fronts
    kinds = set()
    for case in sorted(_RUN_CASES):
        traj = _run_and_full_scan(case)[0]
        log, wall = traj.slices, traj.boundary
        assert len(log) == len(traj.records) + 2
        for k, (sl, rec) in enumerate(zip(log, traj.records), start=1):
            *perturbations, edit = log._edits[k]
            fronts, top_state = sl.fronts, sl.top_state
            for p in perturbations:
                fronts, top_state = tracking._edited(fronts, top_state, p)
            start, stop, new_fronts, _ = edit
            removed = fronts[start:stop]
            assert rec.new_fronts is new_fronts
            assert len(rec.removed) == len(removed)
            assert all(a is b for a, b in zip(rec.removed, removed))
            assert rec.outgoing == tuple((f.family, f.sigma) for f in new_fronts)
            if rec.kind == "corner":
                assert not removed
                assert rec.omega == float(wall.omegas[wall.segment_index(rec.x)]) != 0.0
                assert rec.incoming == ((0, rec.omega),)
            else:
                assert rec.omega is None
                assert rec.incoming == tuple((f.family, f.sigma) for f in removed)
            kinds.add((rec.kind, rec.solver))
    assert kinds == {("interaction", "SRS"), ("interaction", "ARS"), ("boundary", "boundary"),
                     ("np_boundary", "boundary"), ("corner", "boundary")}


def test_wall_and_corner_fronts_are_the_slip_solves_waves(monkeypatch):
    # the runs of test_records_reference_the_fronts_of_their_edits: a
    # corner or wall reflection emits the very front its slip solve
    # found, and no shock is solved twice in a row
    cases = [_RUN_CASES[case]() for case in sorted(_RUN_CASES)]
    waves, shocks = [], []

    def recorded(solver):
        def wrapped(*args):
            out = solver(*args)
            waves.append(out)
            return out
        return wrapped

    def shock_solve(U, gas, family, sigma, near=None):
        shocks.append((U, family, sigma))
        return solve(U, gas, family, sigma, near)

    solve = curves._shock_solve
    monkeypatch.setattr(curves, "_shock_solve", shock_solve)
    for name in ("solve_boundary_riemann", "reflect_at_boundary"):
        monkeypatch.setattr(tracking, name, recorded(getattr(tracking, name)))
    single = []
    for data, wall, cfg, gas in cases:
        waves.clear()
        shocks.clear()
        traj = run(data, wall, cfg, gas)
        # the leading edge is corner 0 of the initial slice, which has no record
        emitted = [("edge", [traj.slices[0].fronts[-1]])]
        emitted += [(r.kind, r.new_fronts) for r in traj.records
                    if r.kind in ("corner", "boundary")]
        assert len(waves) == len(emitted)
        for (kind, new_fronts), (sigma, (below, top, slope)) in zip(emitted, waves):
            if len(new_fronts) == 1:
                f = new_fronts[0]
                assert f.sigma == sigma
                assert f.below is below and f.above is top and f.speed is slope
                single.append(kind)
        assert all(a != b for a, b in zip(shocks, shocks[1:]))
    assert set(single) == {"edge", "corner", "boundary"}


def test_per_event_dataclasses_have_no_instance_dict():
    # one State, Front, EventRecord and Event per front, per event: a field
    # added without slots would bring a dict back to each of them
    rec = next(r for r in _run_and_full_scan("curved")[0].records if r.new_fronts)
    front = rec.new_fronts[0]
    state = front.below
    event = Event("interaction", rec.x, 0)
    for obj, name, value in ((state, "rho", 2.0), (front, "speed", 0.5), (rec, "x", 0.25),
                             (event, "index", 3)):
        assert not hasattr(obj, "__dict__")
        moved = replace(obj, **{name: value})
        assert getattr(moved, name) == value
        assert replace(moved, **{name: getattr(obj, name)}) == obj
    # values: built apart from equal fields they compare and hash equal,
    # as the memo keyed by states in experiments._newton_riemann needs
    twin_state = State(*astuple(state))
    twin_front = Front(front.family, front.sigma, front.x0, front.y0, front.speed,
                       State(*astuple(front.below)), State(*astuple(front.above)))
    for obj, twin in ((state, twin_state), (front, twin_front), (event, replace(event))):
        assert twin is not obj and twin == obj and hash(twin) == hash(obj)
        assert {obj: 1}[twin] == 1
    # a record's hash leaves out its list of new fronts, and equality does not
    assert hash(rec) == hash(replace(rec, new_fronts=list(rec.new_fronts)))
    assert hash(replace(rec, new_fronts=[])) == hash(rec) and replace(rec, new_fronts=[]) != rec


_VALUE_FIELDS = frozenset(f.name for cls in (State, Front, EventRecord, Event) for f in fields(cls))


def _value_mutations(source: str) -> list:
    """The lines of `source` that could change a State, Front, EventRecord
    or Event: an assignment, augmented assignment, annotated assignment,
    deletion or loop target that is an attribute named after one of their
    fields, and a ``setattr`` or ``__setattr__`` call outside
    ``InitialData.__post_init__``.  The four types are not frozen, so this
    is what keeps them values."""
    tree = ast.parse(source)
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "InitialData":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    allowed.update(id(node) for node in ast.walk(fn))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if id(node) not in allowed and (
                    (isinstance(func, ast.Name) and func.id == "setattr")
                    or (isinstance(func, ast.Attribute) and func.attr == "__setattr__")):
                bad.append(node.lineno)
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, ast.Starred):
                targets.append(t.value)
            elif isinstance(t, ast.Attribute) and t.attr in _VALUE_FIELDS:
                bad.append(node.lineno)
    return sorted(bad)


def test_value_types_are_never_assigned_to():
    package = Path(tracking.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert {"euler.py", "tracking.py", "curves.py", "riemann.py"} <= {p.name for p in sources}
    for path in sources:
        assert _value_mutations(path.read_text()) == [], path.name
    # the guard sees each kind of write it stands for
    assert _value_mutations(
        "f.speed = 0.0\n"
        "s.rho += 1.0\n"
        "rec.x: float = 0.0\n"
        "del ev.index\n"
        "a, (b.below, *c.sigma) = t\n"
        "for e.kind in ks: pass\n"
        "setattr(f, 'y0', 1.0)\n"
        "object.__setattr__(f, 'x0', 1.0)\n"
        "class InitialData:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'breaks', ())\n"
        "slice_.columns = None\n") == [1, 2, 3, 4, 5, 5, 6, 7, 8]


def test_nu_bound_keeps_the_threshold_normal_and_the_fans_small():
    # the bound's reasons; one past it is refused in test_cli.py
    nu = tracking._MAX_NU
    assert EngineConfig(nu=nu).nu == nu
    assert 2.0 ** -nu >= sys.float_info.min
    assert tracking._pieces(1, DELTA_TRUST, nu) == 100


def _scan_x(lo, up, x0):
    """The full scan's station for the pair (lo, up) at `x0`, or None
    where the full scan skips the pair: its arithmetic, for one pair."""
    slo, sup = lo.speed, up.speed
    if slo <= sup:
        return None
    dy = max(up.y_at(x0) - lo.y_at(x0), 0.0)
    if dy == 0.0 and slo - sup <= tracking._PARALLEL_TOL:
        return None
    return x0 + dy / (slo - sup)


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_live_columns_bound_the_scan(case, monkeypatch):
    # the scan's columns are spliced at every event, perturbations
    # included: the key is -inf exactly for the approaching near-parallel
    # pairs, +inf for the receding ones and the bound for the rest, a
    # bound is +inf exactly where a pair is not keyed by it, and every
    # finite bound, most of them made at an earlier station, is at most
    # the full scan's station for its pair now; no stored slice keeps the
    # columns
    bounds = []

    def assert_live(slice_):
        cols, fronts = slice_.columns, slice_.fronts
        assert cols is not None
        for i, (lo, up) in enumerate(zip(fronts, fronts[1:])):
            gap = lo.speed - up.speed
            if gap > tracking._PARALLEL_TOL:
                assert cols[1, i] == cols[0, i] <= _scan_x(lo, up, slice_.x)
                bounds.append(cols[0, i])
            else:
                assert cols[0, i] == math.inf
                assert cols[1, i] == (-math.inf if gap > 0.0 else math.inf)

    resolve = tracking.resolve_event

    def checked_resolve(slice_, *args):
        assert_live(slice_)
        out = resolve(slice_, *args)
        assert slice_.columns is None
        assert_live(out[0])
        return out

    monkeypatch.setattr(tracking, "resolve_event", checked_resolve)
    data, wall, cfg, gas = _RUN_CASES[case]()
    traj = run(data, wall, cfg, gas)
    assert len(traj.records) > 10 and len(bounds) > 10 * len(traj.records)
    assert all(sl.columns is None for sl in traj.slices)


def test_pair_bound_holds_at_later_stations(bg):
    # random approaching pairs, near-parallel to steep, anchored away from
    # the station: the bound made at one station is at most the full
    # scan's station for the pair at every later station, short of the
    # crossing, at it and past it; for pairs far from parallel it is
    # within 1e-9 of the scan's station
    rng = np.random.default_rng(11)
    checked = past = 0
    for _ in range(3000):
        x, s_up, y, x_lo, x_up = (float(v) for v in rng.uniform(
            (0.0, -0.6, -1.5, 0.0, 0.0), (1.0, 0.6, 0.0, 1.0, 1.0)))
        x_lo, x_up = x_lo * x, x_up * x
        gap = 10.0 ** float(rng.uniform(-11.9, 0.0))
        ahead = 0.0 if rng.random() < 0.1 else 10.0 ** float(rng.uniform(-17.0, 0.3))
        lo = Front(1, -1e-3, x_lo, y - (s_up + gap) * (x - x_lo), s_up + gap, bg, bg)
        up = Front(4, 1e-3, x_up, y + gap * ahead - s_up * (x - x_up), s_up, bg, bg)
        bound, key = tracking._pair_row(lo, up, x)
        assert key == bound
        v = _scan_x(lo, up, x)
        assert bound <= v
        if gap > 1e-3:
            assert v - bound < 1e-9
        later = [x + t * (v - x) for t in (1e-9, 0.25, 0.5, 0.9, 0.999999, 1.000001, 1.5, 4.0)]
        later += [float(np.nextafter(v, d)) for d in (-np.inf, np.inf)] + [v]
        for xl in later:
            if xl >= x:
                assert bound <= _scan_x(lo, up, xl)
                checked += 1
                past += xl > v
    assert checked > 25000 and past > 5000


def test_near_parallel_pair_schedules_like_full_scan(gas, bg):
    # two contacts 5e-14 apart in speed cross at x = 0.5; around it their
    # computed gap is rounding noise whose sign flips from station to
    # station, and the scan admits the pair only while the gap is open.
    # The top pair meets at x = 0.9.  Columns made at x = 0.4 and carried
    # forward schedule as columns made at each station, and as the full scan
    wall = flat_wall()
    x_star, y_star, s = 0.5, -0.3, -0.01
    lo = Front(2, 1e-3, 0.1, y_star - s * (x_star - 0.1), s, bg, bg)
    up = Front(3, 1e-3, 0.2, y_star - (s - 5e-14) * (x_star - 0.2), s - 5e-14, bg, bg)
    top = Front(4, 1e-3, 0.9, up.y_at(0.9), -0.05, bg, bg)
    fronts = [lo, up, top]
    carried = tracking._pair_columns(fronts, 0.4)
    assert carried[1, 0] == -math.inf and carried[0, 0] == math.inf
    assert carried[1, 1] == carried[0, 1] < 0.9
    cfg = EngineConfig(h=wall.h, nu=10)
    lam = default_lambda_hat(gas)
    signs, events = set(), set()
    for x in x_star + np.linspace(-2e-3, 2e-3, 81):
        x = float(x)
        signs.add(np.sign(up.y_at(x) - lo.y_at(x)))
        want = _full_scan_next_event(SolutionSlice(x, fronts, bg), wall, cfg, gas, lam,
                                     np.random.default_rng(0))
        events.add((want[0].kind, want[0].index))
        for cols in (carried.copy(), None):
            got = next_event(SolutionSlice(x, fronts, bg, cols), wall, cfg, gas, lam,
                             np.random.default_rng(0))
            assert got[0] == want[0] and got[1].fronts == fronts
    assert signs == {-1.0, 0.0, 1.0}
    assert events == {("interaction", 0), ("interaction", 1)}


#: how a drawn front sits against the one below it
_PAIR_KINDS = ("free", "parallel", "joint", "joint-parallel")


def _draw_fronts(data, x, m, below, bg):
    """`m` fronts drawn at station `x` above the front `below` (or None),
    bottom to top.  Each is a free front anchored at or before `x`, from
    0 to 0.02 above the one under it, a front within 1e-12 of its speed
    ("parallel"), which meets it within O(1) when 1e-15 or 1e-14 above it, or one
    through the same anchor point, a zero-width pair at `x` when the
    anchor is `x` ("joint", "joint-parallel")."""
    fronts, prev = [], below
    for _ in range(m):
        kind = data.draw(st.sampled_from(_PAIR_KINDS)) if prev else "free"
        speed = data.draw(st.floats(-0.3, 0.3))
        if kind.endswith("parallel"):
            speed = prev.speed + data.draw(st.integers(-100, 100)) * 1e-14
        if kind.startswith("joint"):
            x0, y0 = prev.x0, prev.y0
        else:
            x0 = data.draw(st.floats(0.0, x))
            gap = data.draw(st.sampled_from((0.0, 1e-15, 1e-14, 1e-9, 0.02)))
            y = (prev.y_at(x) if prev else -1.5) + gap
            y0 = y - speed * (x - x0)
        prev = Front(1, -1e-3, x0, y0, speed, bg, bg)
        fronts.append(prev)
    return fronts


def test_key_row_scan_matches_full_scan(bg):
    # random front lists with near-parallel and zero-width pairs, edited
    # at random through _apply_edit at the same or later stations, so
    # that the live columns are spliced: after each edit the list is the
    # one the slice came with, edited in place, and the key-row scan keeps
    # every candidate the full scan can take first or find within the
    # coincidence tolerance of it, each at the full scan's station.  On
    # the straight wedge no corner 1/64 ahead comes before a near-parallel
    # pair's crossing
    walls, x_end = (_stress_wall(), wedge_wall(h=1.0 / 64.0, x_max=2.0)), 1.0
    seen = Counter()

    @settings(derandomize=True, max_examples=200, database=None)
    @given(st.data())
    def check(data):
        wall = data.draw(st.sampled_from(walls))
        x = data.draw(st.floats(0.0, 0.8))
        fronts = _draw_fronts(data, x, data.draw(st.integers(0, 12)), None, bg)
        model = list(fronts)
        slice_ = SolutionSlice(x, fronts, bg, tracking._pair_columns(fronts, x), [])
        for _ in range(data.draw(st.integers(1, 6))):
            x += data.draw(st.sampled_from((0.0, 1e-13, 1e-3, 0.02)))
            n = len(model)
            start = data.draw(st.integers(0, n))
            stop = data.draw(st.integers(start, min(n, start + 2)))
            below = model[start - 1] if start else None
            new_fronts = _draw_fronts(data, x, data.draw(st.integers(0, 3)), below, bg)
            old = slice_
            slice_ = tracking._apply_edit(slice_, x, (start, stop, new_fronts, None))
            model[start:stop] = new_fronts
            assert old.columns is None and slice_.fronts is fronts and fronts == model
            got = tracking._candidates(slice_, wall, x_end)
            want = _full_scan_candidates(slice_, wall, x_end)
            assert set(got) <= set(want)
            assert _near(got) == _near(want)
            keys = slice_.columns[1, :max(len(model) - 1, 0)]
            seen["near-parallel"] += int((keys == -math.inf).sum())
            seen["receding"] += int((keys == math.inf).sum())
            near = [c for c in _near(want) if c[1] == "interaction"]
            seen["near"] += len(near)
            seen["zero-width near"] += sum(c[0] == x for c in near)
            seen["near-parallel near"] += sum(keys[c[2]] == -math.inf for c in near)

    check()
    assert min(seen.values()) >= 5 and len(seen) == 5, seen


@pytest.mark.parametrize("rho_threshold", [None, 1e-9, 0.0])
@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_wedge_slices_hold_one_state_between_fronts(tau, rho_threshold):
    data, wall, cfg, gas = _wedge_case(rho_threshold, tau)
    traj = run(data, wall, cfg, gas)
    assert_slice_invariants(traj.slices)
    # the accurate solver emits nothing at times; at tau = 0 no interaction
    # of this run does (test_interaction_emitting_nothing_keeps_the_upper_state
    # covers that path directly)
    if rho_threshold == 0.0 and tau > 0.0:
        assert any(r.kind == "interaction" and not r.outgoing for r in traj.records)


@pytest.mark.parametrize("solver", ["ARS", "SRS"])
def test_interaction_emitting_nothing_keeps_the_upper_state(gas, bg, solver):
    # two waves meet between a 1-front and a 4-front and leave nothing:
    # an accurate solve of waves below the emission cut-off, or an
    # entropy-wave pair that cancels exactly under the simplified solver
    if solver == "ARS":
        pair, rho_threshold = [(4, -5e-15, 0.0), (3, 5e-15, 0.0)], 0.0
    else:
        pair, rho_threshold = [(3, 1e-4, 0.0), (3, -1e-4, 0.0)], 1.0
    low, states = _through(gas, bg, [(1, -1e-3, 0.0)], 0.0, -0.8)
    mid, between = _through(gas, states[-1], pair, 0.5, -0.3)
    top, above = _through(gas, between[-1], [(4, 1e-3, 0.0)], 0.0, -0.1)
    slice_ = SolutionSlice(0.4, low + mid + top, above[-1])
    out, rec = tracking.resolve_event(slice_, Event("interaction", 0.5, 1), _stress_wall(),
                                      EngineConfig(nu=10), gas, rho_threshold,
                                      default_lambda_hat(gas))
    assert (rec.kind, rec.solver, rec.outgoing) == ("interaction", solver, ())
    assert out.fronts == low + top
    assert out.states == [states[0], between[-1], above[-1]]
    assert_slice_invariants([out])


@pytest.mark.parametrize("gap", [1e-4, 0.5 * tracking._ZERO_STRENGTH])
def test_carrier_pair_merges_into_one_carrier(gas, bg, gap):
    # a carrier catches a perturbed, slower carrier above it: one carrier
    # at lambda_hat spans the pair, or, when the spanned gap is
    # below the cut-off, nothing is emitted and the upper state is kept
    lam = default_lambda_hat(gas)
    low, states = _through(gas, bg, [(1, -1e-3, 0.0)], 0.0, -0.8)
    U0 = states[-1]
    U1 = State(U0.rho + 2e-4, U0.u, U0.v - 1e-4, U0.p)
    U2 = State(U0.rho, U0.u, U0.v + gap, U0.p)
    lo = Front(NP_FAMILY, float(np.linalg.norm(U1 - U0)), 0.5, -0.3, lam, U0, U1)
    up = Front(NP_FAMILY, float(np.linalg.norm(U2 - U1)), 0.5, -0.3, lam - 1e-3, U1, U2)
    top, above = _through(gas, U2, [(4, 1e-3, 0.0)], 0.0, -0.1)
    slice_ = SolutionSlice(0.4, low + [lo, up] + top, above[-1])
    out, rec = tracking.resolve_event(slice_, Event("interaction", 0.5, 1), _stress_wall(),
                                      EngineConfig(nu=10), gas, 1.0, lam)
    sigma = float(np.linalg.norm(U2 - U0))
    if gap > tracking._ZERO_STRENGTH:
        merged = [Front(NP_FAMILY, sigma, 0.5, -0.3, lam, U0, U2)]
    else:
        assert sigma <= tracking._ZERO_STRENGTH
        merged = []
    assert (rec.kind, rec.solver) == ("interaction", "SRS")
    assert rec.incoming == ((NP_FAMILY, lo.sigma), (NP_FAMILY, up.sigma))
    assert rec.outgoing == tuple((f.family, f.sigma) for f in merged)
    assert out.fronts == low + merged + top
    assert out.states == [states[0]] + [U0] * len(merged) + [U2, above[-1]]
    assert_slice_invariants([out])


def test_coincidence_failure_names_station_and_front_count():
    # with the accurate solver on for every interaction above 1e-11, the
    # default wedge leaves a zero-width cluster of debris fronts that no
    # speed perturbation separates
    data, wall, cfg, gas = _wedge_case(1e-11)
    with pytest.raises(SolverError) as info:
        run(data, wall, cfg, gas)
    assert str(info.value) == (
        "event scheduling at x=0.733620 failed: could not break event "
        "coincidence after 64 perturbations; slice has 43 fronts"
    )
    assert str(info.value.__cause__) == "could not break event coincidence after 64 perturbations"


def test_accurate_solver_stepped_run_reaches_x_end():
    # these data with the accurate solver always on stopped at x = 0.736287
    # on a zero-width cluster while the Riemann solve was a Newton whose
    # 1e-12 residual left strengths of about 1e-13 above the emission cut-off
    cfg = EngineConfig(nu=8, x_end=1.0, seed=3, rho_threshold=0.0)
    traj = run(stepped_data(_GAS, amp=2e-4, seed=3), wedge_wall(), cfg, _GAS)
    assert traj.slices[-1].x == cfg.x_end
    assert any(r.solver == "ARS" for r in traj.records)
    assert_slice_invariants(traj.slices)


# ---------------------------------------------------------------------------
# runs that take over a twin run's slices up to where the walls part
# ---------------------------------------------------------------------------

def _short_curved_case():
    """The curved case tracked to x = 0.6, past its 128th event."""
    data, wall, cfg, gas = _curved_case()
    return data, wall, replace(cfg, x_end=0.6), gas


def _turned(wall, x_c, dslope=-0.01):
    """`wall` with its slope turned by `dslope` from the corner at `x_c` on."""
    def g(x):
        return wall.g_at(x) + (dslope * (x - x_c) if x > x_c else 0.0)

    return approximate_boundary(g, wall.h, x_max=float(wall.xs[-1]))


def _assert_prefixed_like_fresh(data, wall, cfg, gas, prefix):
    """run(..., prefix=) gives the fresh run's export and records and
    leaves `prefix` as it was; returns the index of the last slice it
    took over, -1 for none."""
    before = _export_digest(prefix)
    got = run(data, wall, cfg, gas, prefix=prefix)
    fresh = run(data, wall, cfg, gas)
    assert _export_digest(got) == _export_digest(fresh)
    assert got.records == fresh.records
    assert (got.rho_threshold, got.lambda_hat) == (fresh.rho_threshold, fresh.lambda_hat)
    assert _export_digest(prefix) == before
    k = tracking._shared_slices(prefix, data, wall, cfg, gas)
    n = max(k, 0)
    assert all(a is b for a, b in zip(got.records[:n], prefix.records))
    assert all(a is not b for a, b in zip(got.records[n:], prefix.records[n:]))
    return k


@pytest.mark.parametrize("seed", range(8))
def test_prefixed_stability_runs_match_fresh_runs(seed):
    # the wall-only case resumes from the baseline run, the joint case
    # from the data-only run; both share everything before mid-domain
    from hyperwedge.experiments import _perturbed_data, _shifted_corner_wall

    cfg = ExperimentConfig(scenario="stability", engine=EngineConfig(nu=8, seed=seed))
    wall, data = wedge_problem(cfg)
    gas = cfg.gas(0.1)
    moved_wall = _shifted_corner_wall(cfg, cfg.boundary_perturbation)
    assert tracking._parting_station(wall, moved_wall) == 0.5
    for d in (data, _perturbed_data(data, cfg.data_perturbation)):
        k = _assert_prefixed_like_fresh(d, moved_wall, cfg.engine, gas,
                                        run(d, wall, cfg.engine, gas))
        assert k > 0


def test_prefixed_curved_wall_run_parting_mid_run():
    data, wall, cfg, gas = _short_curved_case()
    turned = _turned(wall, 0.5)
    assert tracking._parting_station(wall, turned) == 0.5
    prefix = run(data, wall, cfg, gas)
    k = _assert_prefixed_like_fresh(data, turned, cfg, gas, prefix)
    assert 2 * tracking._CHECKPOINT_INTERVAL < k < len(prefix.records)


def _sha256(text):
    """sha256 of a text: a failed comparison prints two short strings, where
    comparing exports of megabytes would make pytest diff them for minutes."""
    return hashlib.sha256(text.encode()).hexdigest()


def _export_digest(traj):
    """sha256 of the export (see :func:`_sha256`)."""
    return _sha256(export_trajectory(traj))


def _short_curved_run_and_oracle_export():
    """A run of the short curved case, and the export digest of its
    full-scan oracle's eagerly stored slices, which share no list with
    the run."""
    data, wall, cfg, gas = _short_curved_case()
    traj = run(data, wall, cfg, gas)
    slices, _, _ = _full_scan_run(data, wall, cfg, gas, traj.rho_threshold, traj.lambda_hat)
    return traj, _export_digest(replace(traj, slices=slices))


# The run's live slice edits its front list in place; the tests below
# check that nothing stored holds that list or hands it to a live slice.

def test_prefixed_run_leaves_its_checkpoint_prefix_as_it_was():
    # the walls part at corner 14, so the run resumes from slice 128,
    # which is a checkpoint of the prefix run
    traj, want = _short_curved_run_and_oracle_export()
    data, wall, cfg, gas = _short_curved_case()
    turned = _turned(wall, 14 * wall.h)
    k = tracking._shared_slices(traj, data, turned, cfg, gas)
    assert k == 2 * tracking._CHECKPOINT_INTERVAL
    before = _export_digest(traj)
    assert before == want
    run(data, turned, cfg, gas, prefix=traj)
    assert _export_digest(traj) == before


def test_stored_checkpoints_hold_their_own_front_lists():
    traj, want = _short_curved_run_and_oracle_export()
    lists = [sl.fronts for sl in traj.slices._checkpoints]
    assert len(lists) == -(-len(traj.slices) // tracking._CHECKPOINT_INTERVAL) == 4
    assert len({id(fronts) for fronts in lists}) == len(lists)
    assert _export_digest(traj) == want


def test_resolving_a_stored_slice_leaves_the_run_as_it_was():
    # at a checkpoint's station slice_at hands out the checkpoint's own
    # list; resolving the next event from it makes a new one
    traj, want = _short_curved_run_and_oracle_export()
    xs = traj.slices.xs
    n = tracking._CHECKPOINT_INTERVAL
    for x in (xs[n], 0.5 * (xs[n] + xs[n + 1]), xs[2 * n + 1]):
        stored = traj.slice_at(x)
        fronts = list(stored.fronts)
        event, sl = next_event(stored, traj.boundary, traj.cfg, traj.gas, traj.lambda_hat,
                               np.random.default_rng(0))
        out, _ = tracking.resolve_event(sl, event, traj.boundary, traj.cfg, traj.gas,
                                        traj.rho_threshold, traj.lambda_hat)
        assert out.fronts is not stored.fronts and stored.fronts == fronts
    assert _export_digest(traj) == want


@pytest.mark.parametrize("other", [wedge_wall(slope=-0.02), wedge_wall(h=1.0 / 64.0)],
                         ids=["angle", "spacing"])
def test_prefixed_run_parting_at_the_leading_edge_shares_nothing(other):
    data, cfg = stepped_data(_GAS), EngineConfig(nu=8)
    assert tracking._parting_station(wedge_wall(), other) == 0.0
    assert _assert_prefixed_like_fresh(data, other, cfg, _GAS,
                                       run(data, wedge_wall(), cfg, _GAS)) == -1


_SAME_WALL_CASES = {"curved": _short_curved_case, "kinked-wedge-ars": _kinked_wedge_case}


@pytest.mark.parametrize("case", sorted(_SAME_WALL_CASES))
def test_prefixed_run_over_the_same_wall(case):
    # without a perturbation every event slice is taken over; the kinked
    # wedge perturbs a speed on its way to slice 2, so only slice 1 is
    data, wall, cfg, gas = _SAME_WALL_CASES[case]()
    prefix = run(data, wall, cfg, gas)
    assert tracking._parting_station(wall, wall) == math.inf
    k = _assert_prefixed_like_fresh(data, wall, cfg, gas, prefix)
    assert k == (len(prefix.records) if case == "curved" else 1)


def test_prefix_of_another_setup_is_refused():
    data, wall, cfg, gas = _short_curved_case()
    prefix = run(data, wall, cfg, gas)
    for args in ((stepped_data(_GAS, amp=5e-4, seed=3, n=4), cfg, gas),
                 (data, replace(cfg, seed=3), gas),
                 (data, cfg, replace(gas, tau=0.05))):
        with pytest.raises(ValueError, match="prefix"):
            run(args[0], wall, args[1], args[2], prefix=prefix)


def test_prefix_is_cut_before_a_perturbation_edit():
    # a no-op speed perturbation added by hand to slice 100's edits: the
    # run takes over slices 0..99 and makes slice 100 itself
    data, wall, cfg, gas = _short_curved_case()
    prefix = run(data, wall, cfg, gas)
    log = prefix.slices.head(len(prefix.slices))
    j = 100
    fronts = log[j - 1].fronts
    log._edits[j] = ((0, 1, [fronts[0]], None),) + log._edits[j]
    hand = replace(prefix, slices=log)
    assert list(hand.slices) == list(prefix.slices)
    assert _assert_prefixed_like_fresh(data, wall, cfg, gas, hand) == j - 1
