"""Glimm and Lyapunov functionals, distances, diagnostics."""

import bisect
import csv
import io
import math

import numpy as np
import pytest

from hyperwedge.euler import GasParams, State, NP_FAMILY, flow_slope
from hyperwedge.curves import wave_curve
from hyperwedge.tracking import (
    EngineConfig,
    Front,
    InitialData,
    SolutionSlice,
    approximate_boundary,
    pair_potential,
    run,
)
from hyperwedge.functionals import (
    FunctionalTrace,
    GlimmWeights,
    LyapunovWeights,
    bv_total_variation,
    entropy_production_check,
    glimm_functional,
    glimm_parts,
    glimm_trace,
    interaction_potential,
    l1_distance,
    lyapunov_functional,
    strength_equivalence_constant,
)

import numpy_oracles as oracle
from test_tracking import flat_wall, stepped_data, wedge_wall

_GAS = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)


def mkfront(family, sigma, below, above, y0=-0.5, speed=0.0):
    return Front(family=family, sigma=sigma, x0=0.0, y0=y0, speed=speed,
                 below=below, above=above)


def const_slice(states, ys, x=0.0):
    """Hand-built slice: len(states) = len(ys) + 1, fronts carry no waves."""
    fronts = [mkfront(3, 0.0, a, b, y0=y)
              for a, b, y in zip(states, states[1:], ys)]
    return SolutionSlice(x, fronts, top_state=states[-1])


# ---------------------------------------------------------------------------
# approaching pairs and the interaction potential
# ---------------------------------------------------------------------------

def test_pair_potential_rules(gas, bg):
    up = wave_curve(bg, 4, 2e-3, gas)
    dn = wave_curve(bg, 1, -2e-3, gas)
    f1 = mkfront(1, -2e-3, bg, dn)
    f4 = mkfront(4, 2e-3, bg, up)
    # 1 below, 4 above: separating, no potential
    assert pair_potential(f1, f4) == 0.0
    # 4 below, 1 above: converging
    assert pair_potential(f4, f1) == pytest.approx(4e-6)
    # same-family pair approaches only through a shock
    assert pair_potential(mkfront(4, 2e-3, bg, up), f4) == 0.0
    assert pair_potential(mkfront(4, -2e-3, bg, up), f4) == pytest.approx(4e-6)
    # contacts: 2 below 3 never meet; 3 below 2 do
    c2 = mkfront(2, 1e-3, bg, bg)
    c3 = mkfront(3, 1e-3, bg, bg)
    assert pair_potential(c2, c3) == 0.0
    assert pair_potential(c3, c2) == pytest.approx(1e-6)
    # carriers approach everything physical above them, nothing below
    npf = mkfront(NP_FAMILY, 1e-5, bg, bg)
    assert pair_potential(npf, f4) == pytest.approx(2e-8)
    assert pair_potential(f4, npf) == 0.0


def test_interaction_potential_sums_ordered_pairs(gas, bg):
    up = wave_curve(bg, 4, 1e-3, gas)
    fronts = [mkfront(4, 1e-3, bg, up, y0=-0.8),
              mkfront(3, 2e-3, up, up, y0=-0.5),
              mkfront(1, -1e-3, up, bg, y0=-0.2)]
    want = (pair_potential(fronts[0], fronts[1])
            + pair_potential(fronts[0], fronts[2])
            + pair_potential(fronts[1], fronts[2]))
    assert interaction_potential(fronts) == pytest.approx(want)
    assert interaction_potential([]) == 0.0


def _close_to_pairwise(fronts):
    """The one-pass potential against the pairwise oracle: both add
    nonnegative terms, so they part by a few ulps per front at most."""
    want = oracle.interaction_potential(fronts)
    got = interaction_potential(fronts)
    assert type(got) is float
    assert abs(got - want) <= 4.0 * len(fronts) * 2.0 ** -52 * want
    return want


@pytest.mark.parametrize("seed", range(4))
def test_interaction_potential_matches_pairwise_oracle(bg, seed):
    # seeded fronts of every family, carriers among them, and same-family
    # neighbours of both signs
    rng = np.random.default_rng(seed)
    families = [1, 2, 3, 4, NP_FAMILY]
    fronts = [mkfront(families[int(rng.integers(5))], float(rng.uniform(-1e-2, 1e-2)), bg, bg)
              for _ in range(80)]
    assert any(f.family == NP_FAMILY for f in fronts)
    assert any(a.family == b.family != NP_FAMILY and a.sigma * b.sigma < 0.0
               for a, b in zip(fronts, fronts[1:]))
    assert _close_to_pairwise(fronts) > 0.0
    # carriers above everything physical, and same-sign rarefactions of
    # one family, add nothing
    physical = [f for f in fronts if f.family != NP_FAMILY]
    carriers = [f for f in fronts if f.family == NP_FAMILY]
    assert interaction_potential(physical + carriers) == pytest.approx(
        oracle.interaction_potential(physical), rel=1e-13)
    fans = [mkfront(4, abs(f.sigma), bg, bg) for f in fronts]
    assert interaction_potential(fans) == oracle.interaction_potential(fans) == 0.0


def test_interaction_potential_matches_pairwise_oracle_on_a_run(gas):
    traj = run(stepped_data(gas, amp=2e-4, seed=2), wedge_wall(), EngineConfig(nu=8), gas)
    assert max(_close_to_pairwise(sl.fronts) for sl in traj.slices) > 0.0


# ---------------------------------------------------------------------------
# Glimm functional
# ---------------------------------------------------------------------------

def test_glimm_weights_satisfy_inequalities(gas):
    w = GlimmWeights.from_background(gas)
    assert w.kc > max(abs(w.boundary_gain) + 0.5, 1.0)
    for fam, ki in ((2, w.k2), (3, w.k3), (4, w.k4)):
        assert ki > max(abs(w.reflection[fam - 2]) + 0.25, 1.0)
    assert w.k > 4.0 * w.c_equiv * max(w.k2, w.k3, w.k4) + 1.0


def test_glimm_empty_slice_is_zero(gas):
    w = GlimmWeights.from_background(gas)
    s = SolutionSlice(0.5, [], gas.background())
    assert glimm_functional(s, flat_wall(), w) == 0.0


def test_glimm_counts_corners_ahead(gas):
    w = GlimmWeights.from_background(gas)
    wall = approximate_boundary(lambda x: -0.01 * x - 0.004 * x * x, 0.25,
                                x_max=1.5)
    s = SolutionSlice(0.3, [], gas.background())
    parts = glimm_parts(s, wall, w)
    assert parts["v"] == 0.0 and parts["q"] == 0.0
    assert parts["v_corner"] == pytest.approx(
        sum(abs(o) for x, o in zip(wall.xs[1:], wall.omegas[1:]) if x > 0.3))
    # moving the station forward can only shed corner weight
    later = glimm_parts(SolutionSlice(1.2, [], gas.background()), wall, w)
    assert later["v_corner"] < parts["v_corner"]


def test_strength_equivalence_constant_reasonable(gas):
    c = strength_equivalence_constant(gas)
    assert 1.0 <= c < 20.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_glimm_decreases_at_every_event(gas, seed):
    w = GlimmWeights.from_background(gas)
    cfg = EngineConfig(nu=8, x_end=1.0, seed=seed)
    traj = run(stepped_data(gas, amp=2e-4, seed=seed), wedge_wall(), cfg, gas)
    assert len(traj.records) >= 10
    trace = glimm_trace(traj, w)
    vals = trace.values
    for k, rec in enumerate(traj.records):
        drop = vals[k + 1] - vals[k]
        assert drop <= 1e-12, f"event {k} ({rec.kind}) raised G by {drop}"
        if rec.kind == "interaction":
            assert drop <= -0.125 * rec.emech + 1e-10


def test_glimm_decreases_through_wall_corners(gas):
    # curved compressive wall: corner events must also dissipate
    w = GlimmWeights.from_background(gas)
    wall = approximate_boundary(lambda x: -0.005 * x - 0.004 * x * x, 0.125,
                                x_max=2.5)
    cfg = EngineConfig(nu=8, x_end=1.0, seed=0, h=0.125)
    traj = run(stepped_data(gas, amp=1e-4, seed=0), wall, cfg, gas)
    kinds = {r.kind for r in traj.records}
    assert "corner" in kinds
    vals = glimm_trace(traj, w).values
    for k, rec in enumerate(traj.records):
        drop = vals[k + 1] - vals[k]
        assert drop <= 1e-12, f"event {k} ({rec.kind}) raised G by {drop}"
        if rec.kind == "corner":
            assert drop <= -0.125 * rec.emech + 1e-10


# ---------------------------------------------------------------------------
# exact L1 distance and BV
# ---------------------------------------------------------------------------

def test_l1_identical_and_constant_offset(gas, bg):
    s = const_slice([bg], [])
    assert l1_distance(s, s, (-1.0, 0.0)) == 0.0
    shifted = const_slice([State(bg.rho + 2e-3, bg.u, bg.v, bg.p)], [])
    assert l1_distance(s, shifted, (-1.25, 0.0)) == pytest.approx(2.5e-3)


def test_l1_merges_breakpoints_exactly(gas, bg):
    hi = State(1.001, 0.0, 0.0, bg.p)
    a = const_slice([bg, hi], [-0.6])
    b = const_slice([bg, hi], [-0.4])
    # difference lives exactly on (-0.6, -0.4) in the density component
    assert l1_distance(a, b, (-1.0, 0.0)) == pytest.approx(0.2e-3)


def test_l1_matches_cellwise_quadrature(gas):
    cfg = EngineConfig(nu=8, x_end=1.0, seed=7)
    tA = run(stepped_data(gas, amp=3e-4, seed=7), wedge_wall(), cfg, gas)
    tB = run(stepped_data(gas, amp=3e-4, seed=8), wedge_wall(), cfg, gas)
    x = 0.8
    lo, hi = -1.0, tA.boundary.g_at(x) - 1e-9
    sA, sB = tA.slice_at(x), tB.slice_at(x)
    got = l1_distance(sA, sB, (lo, hi))

    cuts = sorted({lo, hi, *[y for s in (sA, sB) for y in (f.y_at(x) for f in s.fronts)
                             if lo < y < hi]})

    def state_at(s, y):
        idx = int(np.searchsorted([f.y_at(s.x) for f in s.fronts], y, side="right"))
        return s.states[idx]

    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        n = 32  # piecewise constant: any interior sampling is exact
        for k in range(n):
            y = a + (b - a) * (k + 0.5) / n
            total += np.sum(np.abs(state_at(sA, y) - state_at(sB, y))) * (b - a) / n
    assert got == pytest.approx(total, rel=1e-8)


def _numpy_l1_distance(sliceU, sliceV, lo, hi):
    """``l1_distance`` as it was, each interval's 1-norm a numpy sum."""
    ysU = [f.y_at(sliceU.x) for f in sliceU.fronts]
    ysV = [f.y_at(sliceV.x) for f in sliceV.fronts]
    edges = sorted({lo, hi, *(y for y in ysU + ysV if lo < y < hi)})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        ym = 0.5 * (a + b)
        su = sliceU.states[bisect.bisect_right(ysU, ym)]
        sv = sliceV.states[bisect.bisect_right(ysV, ym)]
        total += float(np.abs(su - sv).sum()) * (b - a)
    return total


@pytest.mark.parametrize("seed", (3, 11))
def test_l1_distance_and_bv_equal_their_numpy_sums(gas, seed):
    # numpy sums four elements left to right, as the plain-float 1-norm does
    cfg = EngineConfig(nu=8, x_end=1.0, seed=seed)
    tA = run(stepped_data(gas, amp=1e-3, seed=seed), wedge_wall(), cfg, gas)
    tB = run(stepped_data(gas, amp=1e-3, seed=seed + 1), wedge_wall(), cfg, gas)
    for x in (0.1, 0.35, 0.6, 0.85, 1.0):
        sA, sB = tA.slice_at(x), tB.slice_at(x)
        lo, hi = -1.5, tA.boundary.g_at(x) - 1e-9
        assert l1_distance(sA, sB, (lo, hi)) == _numpy_l1_distance(sA, sB, lo, hi) > 0.0
        for s in (sA, sB):
            want = sum(float(np.abs(f.above - f.below).sum()) for f in s.fronts)
            assert bv_total_variation(s) == want


def test_l1_metric_sanity(gas, bg):
    hi = State(1.002, 1e-3, 0.0, bg.p)
    md = State(1.001, -1e-3, 0.0, bg.p * (1 + 1e-3))
    a = const_slice([bg, hi], [-0.6])
    b = const_slice([md, bg], [-0.3])
    c = const_slice([hi, md], [-0.8])
    dom = (-1.0, 0.0)
    dab = l1_distance(a, b, dom)
    dbc = l1_distance(b, c, dom)
    dac = l1_distance(a, c, dom)
    assert dac <= dab + dbc + 1e-15
    assert l1_distance(a, a, dom) == 0.0
    assert dab == l1_distance(b, a, dom)


def test_bv_total_variation(bg):
    assert bv_total_variation(const_slice([bg], [])) == 0.0
    hi = State(1.001, 2e-3, -1e-3, bg.p * 1.001)
    s = const_slice([bg, hi], [-0.5])
    assert bv_total_variation(s) == pytest.approx(
        float(np.sum(np.abs(hi - bg))))


def test_bv_bounded_along_runs(gas):
    # sup-x BV stays within a fixed multiple of the data + wall variation
    cfg = EngineConfig(nu=8, x_end=1.0, seed=0)
    data = stepped_data(gas, amp=2e-4, seed=0)
    wall = wedge_wall()
    traj = run(data, wall, cfg, gas)
    data_bv = sum(float(np.sum(np.abs(b - a)))
                  for a, b in zip(data.states, data.states[1:]))
    budget = data_bv + abs(math.tan(-0.01))
    worst = max(bv_total_variation(s) for s in traj.slices)
    assert worst <= 10.0 * budget


# ---------------------------------------------------------------------------
# Lyapunov functional
# ---------------------------------------------------------------------------

def test_lyapunov_weights_positive(gas):
    w = LyapunovWeights.from_background(gas)
    assert [w.component_weight(j) for j in (1, 2, 3)] == [1.0, 1.0, 1.0]
    assert w.component_weight(4) == w.w4 > 0.0
    # the wall reflection gain is 1 and lam1 = -lam4: w4 = _SAFETY * 2
    for gamma, a_inf in ((1.4, 2.0), (5.0 / 3.0, 3.0), (1.2, 1.5), (3.0, 4.0)):
        for tau in (0.0, 0.1, 0.5):
            gas = GasParams(gamma=gamma, a_inf=a_inf, tau=tau)
            assert LyapunovWeights.from_background(gas).w4 == pytest.approx(3.0)


def test_lyapunov_identical_solutions_vanish(gas):
    w = LyapunovWeights.from_background(gas)
    cfg = EngineConfig(nu=8, x_end=1.0, seed=1)
    traj = run(stepped_data(gas, amp=2e-4, seed=1), wedge_wall(), cfg, gas)
    s = traj.slice_at(0.5)
    val = lyapunov_functional(s, s, traj.boundary, traj.boundary, w, gas,
                              x_horizon=2.0)
    assert val.interior == 0.0 and val.boundary_tail == 0.0 and val.total == 0.0


def test_lyapunov_equivalence_and_near_decrease(gas):
    w = LyapunovWeights.from_background(gas)
    cfg = EngineConfig(nu=8, x_end=1.0, seed=2)
    wall = wedge_wall()
    dataU = stepped_data(gas, amp=2e-4, seed=2)
    states_v = tuple(State(s.rho, s.u, s.v + 5e-4, s.p) for s in dataU.states)
    dataV = InitialData(dataU.breaks, states_v)
    tU = run(dataU, wall, cfg, gas)
    tV = run(dataV, wall, cfg, gas)
    lam = tU.lambda_hat
    prev = None
    for x in (0.25, 0.5, 0.75, 1.0):
        sU, sV = tU.slice_at(x), tV.slice_at(x)
        val = lyapunov_functional(sU, sV, wall, wall, w, gas, x_horizon=2.0)
        strip = (wall.g_at(x) - 2.0 * lam * x - 1.0, wall.g_at(x))
        dist = l1_distance(sU, sV, strip)
        ratio = val.interior / dist
        assert 0.1 < ratio < 10.0
        if prev is not None:
            # near-decrease: any growth is a front-splitting artifact O(1/nu)
            assert val.interior <= prev + 1.0 / cfg.nu * 0.5
        prev = val.interior


# ---------------------------------------------------------------------------
# traces and entropy
# ---------------------------------------------------------------------------

def test_entropy_shock_contact_and_carrier(gas, bg):
    shock_top = wave_curve(bg, 1, -2e-3, gas)
    from hyperwedge.curves import wave_front
    s = SolutionSlice(0.1, [
        mkfront(1, -2e-3, bg, shock_top, y0=-0.8,
                speed=wave_front(bg, 1, -2e-3, gas)[1]),
        mkfront(2, 1e-3, shock_top, wave_curve(shock_top, 2, 1e-3, gas),
                y0=-0.4, speed=flow_slope(shock_top, gas)),
        mkfront(NP_FAMILY, 1e-6, wave_curve(shock_top, 2, 1e-3, gas),
                wave_curve(shock_top, 2, 1e-3, gas), y0=-0.2, speed=0.7),
    ], wave_curve(shock_top, 2, 1e-3, gas))
    prod = entropy_production_check(s, gas)
    assert prod[0] < 0.0                     # genuine shock dissipates
    assert abs(prod[1]) <= 1e-12             # contacts are exactly neutral
    assert math.isnan(prod[2])               # carriers carry no admissibility


def test_entropy_rarefaction_pieces_nearly_neutral(gas, bg):
    top = wave_curve(bg, 4, 1e-3, gas)
    data = InitialData(np.array([-0.9]), (bg, top))
    traj = run(data, flat_wall(), EngineConfig(nu=8, x_end=1.0), gas)
    s = traj.slice_at(0.4)
    fams = [f.family for f in s.fronts]
    assert 4 in fams
    for f, prod in zip(s.fronts, entropy_production_check(s, gas)):
        if f.family == NP_FAMILY:
            continue
        assert prod <= 1e-12
        if f.family == 4 and f.sigma > 0.0:
            # trailing-edge piece speed makes the sampled fan mildly
            # dissipative, about -(grad eta_x . r)/2 * sigma^2
            assert prod >= -0.25 * f.sigma**2


def test_entropy_on_all_fronts_of_a_run(gas):
    cfg = EngineConfig(nu=8, x_end=1.0, seed=6)
    traj = run(stepped_data(gas, amp=2e-4, seed=6), wedge_wall(), cfg, gas)
    for s in (traj.slice_at(0.3), traj.slice_at(0.9)):
        for f, prod in zip(s.fronts, entropy_production_check(s, gas)):
            if f.family == NP_FAMILY:
                assert math.isnan(prod)
            else:
                assert prod <= 1e-12


def test_glimm_trace_csv_roundtrip(gas):
    w = GlimmWeights.from_background(gas)
    cfg = EngineConfig(nu=8, x_end=1.0, seed=0)
    traj = run(stepped_data(gas, amp=2e-4, seed=0), wedge_wall(), cfg, gas)
    trace = glimm_trace(traj, w)
    assert trace.kinds[0] == "initial"
    assert len(trace.xs) == len(traj.records) + 1
    rows = list(csv.DictReader(io.StringIO(trace.to_csv())))
    assert [r["event_kind"] for r in rows] == list(trace.kinds)
    # repr round-trips every float exactly
    assert [float(r["value"]) for r in rows] == [float(v) for v in trace.values]
    xs = [float(r["x"]) for r in rows]
    assert xs == sorted(xs)
