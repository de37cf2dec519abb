"""Decrease and stability functionals over front-tracking slices.

Two families of diagnostics:

* a weighted total-strength functional ``G = V + K*Q`` over one slice,
  with per-family weights on strengths, a weight on the untriggered wall
  corners ahead, and the usual quadratic interaction potential ``Q`` over
  approaching pairs; it decreases at every event, by a fixed fraction of
  the event's interaction measure;

* a weighted L1-type distance between two slices (possibly over walls
  that differ), measured through a jump decomposition of the pointwise
  state difference, with level-dependent weights that anticipate which
  fronts will cross each level, plus a wall-mismatch tail downstream.

Weight constants are derived from measured background coefficients
(boundary reflection gains, strength/state equivalence) with a fixed
safety factor, and frozen per gas-parameter set.
"""

from __future__ import annotations

import bisect
import io
import math
from dataclasses import dataclass

import numpy as np

from .curves import compose_wave_curves
from .euler import (
    NP_FAMILY,
    GasParams,
    eigenvalue,
    entropy_pair,
)
from .riemann import (
    boundary_hugoniot_q1,
    boundary_response,
    hugoniot_decompose,
)
from .tracking import (
    BoundaryPolyline,
    SolutionSlice,
    Trajectory,
    total_strength,
)

__all__ = [
    "GlimmWeights",
    "glimm_functional",
    "glimm_parts",
    "LyapunovWeights",
    "LyapunovValue",
    "lyapunov_functional",
    "wall_mismatch",
    "l1_distance",
    "bv_total_variation",
    "entropy_production_check",
    "FunctionalTrace",
    "glimm_trace",
]

_SAFETY = 1.5  # weights sit at this multiple of their lower bounds
_KAPPA = 10.0  # level-weight coefficient of lyapunov_functional (wall tail: _KAPPA * w4)


# ---------------------------------------------------------------------------
# slice interaction potential
# ---------------------------------------------------------------------------

def interaction_potential(fronts) -> float:
    """Quadratic potential: sum of |sigma sigma'| over approaching pairs.

    A lower front approaches an upper one when its family index is
    larger, when the families coincide and at least one strength is
    negative, or when the lower front is the non-physical carrier and the
    upper one physical.  List order is the y-order (ties resolved by
    construction).

    One pass bottom to top: each physical front meets the ``|sigma|``
    sums of the fronts below it that approach it (the carriers, the
    faster families, and its own family's negative strengths, or all of
    them if its own is negative), kept as running sums.  The pairwise
    sum rounds differently, by a few ulps of the total.
    """
    carriers = 0.0
    below = [0.0] * NP_FAMILY  # |sigma| sums per physical family 1..4
    negative = [0.0] * NP_FAMILY  # the same over negative strengths only
    total = 0.0
    for f in fronts:
        j, s = f.family, abs(f.sigma)
        if j == NP_FAMILY:
            carriers += s
            continue
        approaching = carriers
        for i in range(j + 1, NP_FAMILY):
            approaching += below[i]
        if f.sigma < 0.0:
            approaching += below[j]
            negative[j] += s
        else:
            approaching += negative[j]
        below[j] += s
        total += s * approaching
    return total


# ---------------------------------------------------------------------------
# weighted strength functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlimmWeights:
    """Weights for the slice functional ``V + K*Q``.

    ``k2..k4`` weight the family strengths (family 1 and the carrier
    strengths enter with weight one), ``kc`` weights the untriggered
    corner turning angles ahead of the slice, and ``k`` the interaction
    potential.  ``boundary_gain``, ``reflection`` and ``c_equiv`` record
    the measured background coefficients the bounds came from.
    """

    k2: float
    k3: float
    k4: float
    kc: float
    k: float
    boundary_gain: float
    reflection: tuple
    c_equiv: float

    @classmethod
    def from_background(cls, gas: GasParams) -> "GlimmWeights":
        """Derive weights from measured coefficients at ``_SAFETY`` x bounds.

        Lower bounds: the corner weight must dominate the corner-to-wave
        conversion gain plus 1/2; each reflecting family's weight must
        dominate its wall reflection gain plus 1/4; the potential weight
        must dominate four times the strength/state equivalence constant
        times the largest family weight, plus one.
        """
        br = boundary_response(gas)
        gain = abs(br["boundary_gain"])
        refl = tuple(abs(br["reflection"][fam]) for fam in (2, 3, 4))
        c21 = strength_equivalence_constant(gas)
        ks = [_SAFETY * max(r + 0.25, 1.0) for r in refl]
        kc = _SAFETY * max(gain + 0.5, 1.0)
        k = _SAFETY * (4.0 * c21 * max(ks) + 1.0)
        return cls(ks[0], ks[1], ks[2], kc, k, gain, refl, c21)


def strength_equivalence_constant(gas: GasParams) -> float:
    """Measured two-sided constant between strength vectors and state gaps.

    Samples 48 seeded strength vectors with components in +-0.02, well
    inside the trust region, composes them from the background, and
    returns the worst ratio (either direction) between the summed
    absolute strengths and the Euclidean state gap.
    """
    rng = np.random.default_rng(2024)
    Ub = gas.background()
    worst = 1.0
    for _ in range(48):
        sig = rng.uniform(-0.02, 0.02, 4)
        gap = float(np.linalg.norm(compose_wave_curves(Ub, sig, gas) - Ub))
        tot = float(np.abs(sig).sum())
        if gap > 0.0:
            worst = max(worst, tot / gap, gap / tot)
    return worst


def glimm_parts(slice_: SolutionSlice, boundary: BoundaryPolyline,
                w: GlimmWeights) -> dict:
    """Weighted strength, corner tail, and potential of one slice."""
    # indexed by family, 1 to NP_FAMILY
    weights = (None, 1.0, w.k2, w.k3, w.k4, 1.0)
    v = 0.0
    for f in slice_.fronts:
        v += weights[f.family] * abs(f.sigma)
    q = interaction_potential(slice_.fronts)
    return {"v": v, "v_corner": boundary.corner_tail(slice_.x), "q": q}


def glimm_functional(slice_: SolutionSlice, boundary: BoundaryPolyline,
                     w: GlimmWeights) -> float:
    """Value of ``V + kc*V_corner + k*Q`` on one slice.

    Constant between events; drops at every event by at least one eighth
    of the event's interaction measure (strength product, absorbed
    strength, or corner angle).
    """
    p = glimm_parts(slice_, boundary, w)
    return p["v"] + w.kc * p["v_corner"] + w.k * p["q"]


# ---------------------------------------------------------------------------
# pairwise stability functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovWeights:
    """Weights for the two-slice distance functional, sized from the background.

    ``w4`` scales jump-decomposition component 4; components 1-3 have
    weight one.  The level weights take ``_KAPPA`` per unit of crossing
    strength, slice potential, fast-family strength and corner tail; the
    wall-mismatch tail takes ``_KAPPA * w4``.
    """

    w4: float

    @classmethod
    def from_background(cls, gas: GasParams) -> "LyapunovWeights":
        """Size ``w4`` so wall dissipation wins in the worst weight case.

        At the wall the component-4 deficit converts into a component-1
        deficit at the jump-reflection gain; the transport coefficient
        ``|kb|*W1*(0-lam1) + w4*W4*(0-lam4)`` must be negative even when
        the level weights are least favourable (W1 at its cap 2, W4 at
        its floor 1).  The coefficient is linear in ``w4``: its root
        ``2*|kb|*(-lam1)/lam4``, inflated by the safety factor, sizes ``w4``.
        """
        Ub = gas.background()
        eps = 1.0e-6
        kb = abs(boundary_hugoniot_q1(0.0, 0.0, eps, 0.0, 0.0, Ub, gas)
                 - boundary_hugoniot_q1(0.0, 0.0, -eps, 0.0, 0.0, Ub, gas)) / (2.0 * eps)
        lam1 = eigenvalue(Ub, gas, 1)
        lam4 = eigenvalue(Ub, gas, 4)

        if not (lam4 > 0.0 and kb * lam1 < 0.0):  # no positive root
            raise RuntimeError("wall dissipation cannot be made negative")
        return cls(_SAFETY * (2.0 * kb * (0.0 - lam1) / lam4))

    def component_weight(self, j: int) -> float:
        return self.w4 if j == 4 else 1.0


@dataclass(frozen=True)
class LyapunovValue:
    """Interior integral, wall-mismatch tail, and their sum."""

    interior: float
    boundary_tail: float

    @property
    def total(self) -> float:
        return self.interior + self.boundary_tail


def _crossing_count_weights(fronts_below, fronts_above, q):
    """_KAPPA * A_j for all four components at one level.

    ``A_j`` counts the strengths of fronts that will cross the level:
    faster families below it, slower families above it, and same-family
    fronts on the side selected by the sign of the j-th deficit
    component (negative: own-family fronts of the first slice above and
    of the second below; positive: mirrored).
    """
    out = []
    for j in range(1, 5):
        a = 0.0
        for f, _which in fronts_below:
            if f.family != NP_FAMILY and f.family > j:
                a += abs(f.sigma)
        for f, _which in fronts_above:
            if f.family != NP_FAMILY and f.family < j:
                a += abs(f.sigma)
        if q[j - 1] < 0.0 or q[j - 1] > 0.0:
            first, second = ((fronts_above, fronts_below) if q[j - 1] < 0.0
                             else (fronts_below, fronts_above))
            a += total_strength(f.sigma for f, which in first if which == 0 and f.family == j)
            a += total_strength(f.sigma for f, which in second if which == 1 and f.family == j)
        out.append(_KAPPA * a)
    return out


def lyapunov_functional(sliceU: SolutionSlice, sliceV: SolutionSlice,
                        boundaryU: BoundaryPolyline, boundaryV: BoundaryPolyline,
                        w: LyapunovWeights, gas: GasParams,
                        x_horizon: float) -> LyapunovValue:
    """Weighted distance between two slices at the same station.

    The pointwise state difference below the lower of the two walls is
    decomposed into four jump strengths; each component is integrated in
    y with a weight ``W_j`` in (1, 2) built from the fronts that will
    cross the level, both slices' interaction potentials, the fast-family
    strengths, and the corner tails of both walls.  The wall-mismatch
    tail integrates the difference of the two wall slopes from the
    station to `x_horizon`.
    """
    x = sliceU.x
    if abs(sliceV.x - x) > 1.0e-12 * (1.0 + abs(x)):
        raise ValueError(f"slices at different stations: {sliceU.x} vs {sliceV.x}")
    g_low = min(boundaryU.g_at(x), boundaryV.g_at(x))

    tagged = ([(f, 0) for f in sliceU.fronts] + [(f, 1) for f in sliceV.fronts])
    tagged = [(f, which, f.y_at(x)) for f, which in tagged]
    tagged.sort(key=lambda t: t[2])

    cut = [t[2] for t in tagged if t[2] < g_low]
    y_min = (min(cut) if cut else g_low) - 1.0
    edges = [y_min] + cut + [g_low]

    qU = interaction_potential(sliceU.fronts)
    qV = interaction_potential(sliceV.fronts)
    s4 = (total_strength(f.sigma for f in sliceU.fronts if f.family == 4)
          + total_strength(f.sigma for f in sliceV.fronts if f.family == 4))
    base_weight = (1.0 + _KAPPA * (qU + qV) + _KAPPA * s4
                   + _KAPPA * boundaryU.corner_tail(x)
                   + _KAPPA * boundaryV.corner_tail(x))

    ysU = [f.y_at(x) for f in sliceU.fronts]
    ysV = [f.y_at(x) for f in sliceV.fronts]
    statesU, statesV = sliceU.states, sliceV.states

    interior = 0.0
    for a, b in zip(edges, edges[1:]):
        if b - a <= 0.0:
            continue
        ym = 0.5 * (a + b)
        su = statesU[bisect.bisect_right(ysU, ym)]
        sv = statesV[bisect.bisect_right(ysV, ym)]
        if su is sv or (su.rho == sv.rho and su.u == sv.u
                        and su.v == sv.v and su.p == sv.p):
            continue
        q = hugoniot_decompose(su, sv, gas)
        below = [(f, which) for f, which, y in tagged if y < ym]
        above = [(f, which) for f, which, y in tagged if y > ym]
        Wj = [base_weight + c for c in _crossing_count_weights(below, above, q)]
        for j in range(1, 5):
            interior += abs(q[j - 1]) * w.component_weight(j) * Wj[j - 1] * (b - a)

    tail = wall_mismatch(boundaryU, boundaryV, x, x_horizon)
    return LyapunovValue(interior, (_KAPPA * w.w4) * tail)


def wall_mismatch(bU: BoundaryPolyline, bV: BoundaryPolyline,
                  x0: float, x1: float) -> float:
    """Integral of |tan(thetaU) - tan(thetaV)| over [x0, x1], exact."""
    if x1 <= x0:
        return 0.0
    pts = {x0, x1}
    for b in (bU, bV):
        pts.update(x for x in b.xs if x0 < x < x1)
    grid = sorted(pts)
    total = 0.0
    for a, b in zip(grid, grid[1:]):
        xm = 0.5 * (a + b)
        total += abs(math.tan(bU.theta_at(xm)) - math.tan(bV.theta_at(xm))) * (b - a)
    return total


# ---------------------------------------------------------------------------
# plain metrics
# ---------------------------------------------------------------------------

def l1_distance(sliceU: SolutionSlice, sliceV: SolutionSlice, domain) -> float:
    """Exact L1 distance of two piecewise-constant slices over (lo, hi).

    The integrand is the sum of componentwise absolute differences; the
    integral is a finite sum over the merged breakpoints.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        return 0.0
    x = sliceU.x
    ysU = [f.y_at(x) for f in sliceU.fronts]
    ysV = [f.y_at(sliceV.x) for f in sliceV.fronts]
    edges = sorted({lo, hi, *(y for y in ysU + ysV if lo < y < hi)})
    statesU, statesV = sliceU.states, sliceV.states
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        ym = 0.5 * (a + b)
        su = statesU[bisect.bisect_right(ysU, ym)]
        sv = statesV[bisect.bisect_right(ysV, ym)]
        total += su.l1_gap(sv) * (b - a)
    return total


def bv_total_variation(slice_: SolutionSlice) -> float:
    """Total variation in y of the state: the 1-norms of the front jumps, summed."""
    total = 0.0
    for f in slice_.fronts:
        total += f.above.l1_gap(f.below)
    return total


def entropy_production_check(slice_: SolutionSlice, gas: GasParams) -> list:
    """Per-front entropy production ``s*[eta_x] - [eta_y]`` (above - below).

    Admissible physical fronts produce nonpositive values (strictly
    negative for shocks, zero for contacts, negative and second order in
    strength for rarefaction pieces with their trailing-edge slope).
    Non-physical carriers are not jumps of the model and get ``nan``.
    """
    out = []
    for f in slice_.fronts:
        if f.family == NP_FAMILY:
            out.append(float("nan"))
            continue
        exb, eyb = entropy_pair(f.below, gas)
        exa, eya = entropy_pair(f.above, gas)
        out.append(f.speed * (exa - exb) - (eya - eyb))
    return out


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalTrace:
    """Sampled functional values along a run, one row per event."""

    xs: tuple
    values: tuple
    kinds: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,value,event_kind\n")
        for x, v, k in zip(self.xs, self.values, self.kinds):
            buf.write(f"{float(x)!r},{float(v)!r},{k}\n")
        return buf.getvalue()


def glimm_trace(traj: Trajectory, w: GlimmWeights) -> FunctionalTrace:
    """Functional value after initialisation and after every event."""
    slices = iter(traj.slices)
    first = next(slices)
    xs = [first.x]
    vals = [glimm_functional(first, traj.boundary, w)]
    kinds = ["initial"]
    for sl, rec in zip(slices, traj.records):
        xs.append(rec.x)
        vals.append(glimm_functional(sl, traj.boundary, w))
        kinds.append(rec.kind)
    return FunctionalTrace(tuple(xs), tuple(vals), tuple(kinds))
