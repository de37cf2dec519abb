"""Front-tracking engine for the wedge problem.

The solution at each streamwise station x is piecewise constant in y:
a list of constant states separated by straight-line fronts (shocks,
contact discontinuities, sampled rarefaction pieces, and non-physical
error carriers).  The engine advances in x from event to event; an event
is a collision of two adjacent fronts, the top front meeting the wall,
or the wall turning at a polyline corner.

Interaction resolution follows the usual accurate/simplified split:

  * accurate (full Riemann re-solve, rarefactions sampled into pieces of
    strength at most 1/nu) when the product of incoming strengths
    exceeds a threshold, and always at the wall;
  * simplified otherwise: incoming waves are transmitted with unchanged
    strengths and the residual jump is lumped into a non-physical front
    travelling at a fixed slope above every characteristic speed.

Front speeds are exact (jump-condition slope for shocks, flow slope for
contacts, trailing-edge characteristic for rarefaction pieces), except
when a tiny seeded perturbation is applied to break ties: no triple
collision points, at most one front per non-corner wall point, and no
front through a corner.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .curves import CurveError, wave_front
from .euler import (
    GENUINE_FAMILIES,
    NP_FAMILY,
    GasParams,
    State,
    eigenvalue,
)
from .riemann import (
    SolverError,
    solve_boundary_riemann,
    solve_riemann,
    reflect_at_boundary,
)

__all__ = [
    "Front",
    "BoundaryPolyline",
    "InitialData",
    "SolutionSlice",
    "EngineConfig",
    "Event",
    "EventRecord",
    "Trajectory",
    "approximate_boundary",
    "approximate_initial_data",
    "initialize",
    "next_event",
    "resolve_event",
    "pair_potential",
    "run",
    "export_trajectory",
]

#: strengths below this are treated as no wave at all
_ZERO_STRENGTH = 1.0e-14
#: coincidence tolerance for event ordering (triggers speed perturbation)
_COINCIDENCE_TOL = 1.0e-12
#: speed gaps below this between coincident fronts are rounding noise,
#: not a crossing (genuine zero-width crossings have O(1) speed gaps)
_PARALLEL_TOL = 1.0e-12


@dataclass(frozen=True)
class Front:
    """One straight-line discontinuity.

    ``below``/``above`` are the constant states on either side (in y).
    ``speed`` is dy/dx; for rarefaction pieces it is the trailing-edge
    characteristic slope (the above-state slope for family 1, the
    below-state slope for family 4), which keeps split fans internally
    divergent and the jump entropy-consistent.  ``family`` is 1..4 for
    physical fronts or ``NP_FAMILY`` for non-physical carriers, whose
    ``sigma`` is the Euclidean size of the state gap.
    """

    family: int
    sigma: float
    x0: float
    y0: float
    speed: float
    generation: int
    below: State
    above: State

    def y_at(self, x: float) -> float:
        return self.y0 + self.speed * (x - self.x0)


@dataclass(frozen=True)
class BoundaryPolyline:
    """Sampled wall: corners at x = k*h, linear tail beyond the last one.

    ``thetas[k]`` is the inclination of segment [x_k, x_{k+1}); the entry
    at index ``k_star`` is the tail inclination.  ``omegas[k]`` is the
    turning angle at corner k, with ``omegas[0]`` the leading-edge angle
    itself (the turn from the incoming flat stream).
    """

    h: float
    xs: np.ndarray
    gs: np.ndarray
    thetas: np.ndarray
    omegas: np.ndarray
    k_star: int

    def segment_index(self, x: float) -> int:
        k = int(np.searchsorted(self.xs, x, side="right")) - 1
        return min(max(k, 0), self.k_star)

    def g_at(self, x: float) -> float:
        k = self.segment_index(x)
        return float(self.gs[k] + math.tan(self.thetas[k]) * (x - self.xs[k]))

    def theta_at(self, x: float) -> float:
        return float(self.thetas[self.segment_index(x)])

    @cached_property
    def _turning_corners(self) -> tuple:
        """(xs, ks): the corners after the leading edge that turn the wall."""
        ks = [k for k in range(1, self.k_star + 1) if self.omegas[k] != 0.0]
        return [float(self.xs[k]) for k in ks], ks

    @cached_property
    def _min_tan_from(self) -> list:
        """Entry k: the least ``tan(thetas[j])`` over segments j >= k."""
        out = [math.tan(float(th)) for th in self.thetas[:self.k_star + 1]]
        for k in range(self.k_star - 1, -1, -1):
            out[k] = min(out[k], out[k + 1])
        return out


def approximate_boundary(g, h: float, tail_slope: float | None = None,
                         x_max: float = 2.0) -> BoundaryPolyline:
    """Sample a wall function onto a corner polyline with spacing `h`.

    Corners sit at x = k*h up to ``k_star = ceil(x_max/h)``; beyond the
    last corner the wall continues straight with `tail_slope` (default:
    the slope of the last sampled segment).  Turning angles smaller than
    rounding noise are snapped to exactly zero so a straight wedge has no
    interior corner events.
    """
    if h <= 0.0:
        raise ValueError(f"corner spacing must be positive, got {h}")
    g0 = float(g(0.0))
    if abs(g0) > 1.0e-14:
        raise ValueError(f"wall must start at the origin, got g(0)={g0}")
    k_star = int(math.ceil(x_max / h - 1.0e-12))
    xs = np.arange(k_star + 1) * h
    gs = np.array([float(g(x)) for x in xs])
    gs[0] = 0.0
    seg = np.arctan(np.diff(gs) / h)
    if tail_slope is None:
        tail_slope = float(np.tan(seg[-1])) if len(seg) else 0.0
    thetas = np.append(seg, math.atan(tail_slope))
    omegas = np.empty(k_star + 1)
    omegas[0] = thetas[0]
    omegas[1:] = np.diff(thetas)
    omegas[1:][np.abs(omegas[1:]) <= 1.0e-13] = 0.0  # snap arctan rounding noise
    return BoundaryPolyline(h, xs, gs, thetas, omegas, k_star)


@dataclass(frozen=True)
class InitialData:
    """Piecewise-constant inflow data below the wall.

    `breaks` are the jump heights (ascending, all <= 0) and `states` the
    constant values bottom to top, one more than there are breaks.  The
    topmost state occupies (breaks[-1], 0).
    """

    breaks: np.ndarray
    states: tuple

    def __post_init__(self):
        if len(self.states) != len(self.breaks) + 1:
            raise ValueError("need exactly one more state than breaks")
        if len(self.breaks) and (np.any(np.diff(self.breaks) <= 0) or self.breaks[-1] > 0):
            raise ValueError("breaks must be strictly increasing and nonpositive")


def approximate_initial_data(U0, nu: int, support=(-1.5, 0.0)) -> InitialData:
    """Piecewise-constant sampling of inflow data with L1 error < 2^-nu.

    `U0` may already be an :class:`InitialData` (returned unchanged up to
    merging of equal neighbours) or a callable y -> State.  A callable is
    sampled at spacing fine enough that the cell-midpoint interpolant is
    within 2^-nu of the data in L1; since the values are pointwise values
    of the data, total variation cannot increase.
    """
    if isinstance(U0, InitialData):
        breaks, states = list(U0.breaks), list(U0.states)
    else:
        lo, hi = support
        probe = np.linspace(lo, hi, 2049)
        vals = [U0(y).as_array() for y in probe]
        tv = float(sum(np.abs(b - a).sum() for a, b in zip(vals, vals[1:])))
        delta = 2.0 ** (-nu) / (tv + 1.0)
        n = min(int(math.ceil((hi - lo) / delta)), 4096)
        edges = np.linspace(lo, hi, n + 1)
        states = [U0(0.5 * (a + b)) for a, b in zip(edges, edges[1:])]
        breaks = list(edges[1:-1])
    # merge equal neighbours
    mb, ms = [], [states[0]]
    for y, s in zip(breaks, states[1:]):
        if s == ms[-1]:
            continue
        mb.append(float(y))
        ms.append(s)
    return InitialData(np.array(mb), tuple(ms))


@dataclass
class SolutionSlice:
    """The piecewise-constant solution at one station x.

    ``states[k]`` sits below ``fronts[k]``; ``states[-1]`` is adjacent to
    the wall and satisfies the slip condition there up to any absorbed
    non-physical strength (see ``EngineConfig.np_boundary``).  Front
    positions are functions of x, so advancing the slice between events
    is just a change of the ``x`` field.
    """

    x: float
    fronts: list
    states: list

    def ys(self) -> np.ndarray:
        return np.array([f.y_at(self.x) for f in self.fronts])

    @property
    def top_state(self) -> State:
        return self.states[-1]

    def at(self, x: float) -> "SolutionSlice":
        return SolutionSlice(x, self.fronts, self.states)


@dataclass(frozen=True)
class EngineConfig:
    """Engine parameters.

    ``nu`` controls both the rarefaction sampling (pieces of strength at
    most 1/nu) and, unless overridden, the simplified-solver threshold
    ``rho_threshold = 2^-nu * (initial total strength)``.  ``lambda_hat``
    (the non-physical front slope) defaults to 1.2x the largest family-4
    slope over the corners of the componentwise trust box.

    ``np_boundary`` picks what happens when a non-physical carrier meets
    the wall.  ``absorb`` (default) drops it: the slice functional then
    decreases by exactly the carried strength, at the price of an
    O(2^-nu) slip-condition error that the next physical wall event
    removes.  ``resolve`` re-solves the wall condition immediately,
    emitting a reflected 1-front; the slip condition stays exact but the
    emitted strength can exceed the absorbed one, so the functional may
    tick up by a comparable amount.
    """

    h: float = 1.0 / 32.0
    nu: int = 10
    rho_threshold: float | None = None
    lambda_hat: float | None = None
    x_end: float = 1.0
    seed: int = 0
    max_events: int = 200000
    np_boundary: str = "absorb"  # or "resolve"


@dataclass(frozen=True)
class Event:
    kind: str  # 'interaction' | 'boundary' | 'corner' | 'end'
    x: float
    index: int = -1  # lower front index (interaction) or corner number


@dataclass(frozen=True)
class EventRecord:
    """Bookkeeping for one resolved event (consumed by the functional tests)."""

    kind: str
    solver: str
    x: float
    y: float
    incoming: tuple
    outgoing: tuple
    emech: float


@dataclass
class Trajectory:
    gas: GasParams
    cfg: EngineConfig
    boundary: BoundaryPolyline
    slices: list
    records: list
    rho_threshold: float
    lambda_hat: float

    @property
    def final(self) -> SolutionSlice:
        return self.slices[-1]

    def slice_at(self, x: float) -> SolutionSlice:
        if not 0.0 <= x <= self.cfg.x_end + 1.0e-12:
            raise ValueError(f"station {x} outside [0, {self.cfg.x_end}]")
        xs = [s.x for s in self.slices]
        k = int(np.searchsorted(xs, x, side="right")) - 1
        return self.slices[max(k, 0)].at(x)


# ---------------------------------------------------------------------------
# front construction helpers
# ---------------------------------------------------------------------------

def _emit_wave(U_below: State, family: int, sigma: float, x: float, y: float,
               generation: int, gas: GasParams, nu: int):
    """Fronts realising one wave, splitting rarefactions into fan pieces.

    Returns (fronts, top_state).  Rarefactions of the acoustic families
    are sampled into ceil(sigma*nu) equal pieces so no piece exceeds
    1/nu; shocks and contacts are single fronts.
    """
    if abs(sigma) <= _ZERO_STRENGTH:
        return [], U_below
    pieces = 1
    if family in GENUINE_FAMILIES and sigma > 0.0:
        pieces = max(1, int(math.ceil(sigma * nu - 1.0e-12)))
    ds = sigma / pieces
    fronts = []
    cur = U_below
    for _ in range(pieces):
        nxt, speed = wave_front(cur, family, ds, gas)
        fronts.append(Front(family, ds, x, y, speed, generation, cur, nxt))
        cur = nxt
    return fronts, cur


def _np_front(U_below: State, U_above: State, x: float, y: float,
              generation: int, lambda_hat: float):
    """Non-physical carrier for the gap between two states (or None if tiny)."""
    gap = float(np.linalg.norm(U_above - U_below))
    if gap <= _ZERO_STRENGTH:
        return None
    return Front(NP_FAMILY, gap, x, y, lambda_hat, generation, U_below, U_above)


def _emit_riemann(sol, U_b: State, x: float, y: float, gens, gas: GasParams, nu: int):
    """Fronts for a full four-wave solution; `gens` maps family -> generation."""
    fronts = []
    cur = U_b
    for j, sig in zip((1, 2, 3, 4), sol.strengths):
        fr, cur = _emit_wave(cur, j, float(sig), x, y, gens[j], gas, nu)
        fronts.extend(fr)
    return fronts, cur


def default_lambda_hat(gas: GasParams, trust: float = 0.05) -> float:
    """1.2x the largest family-4 slope over the trust-box corner states."""
    Ub = gas.background()
    worst = -np.inf
    for k in range(16):
        dev = [(trust if k >> i & 1 else -trust) for i in range(4)]
        W = State(Ub.rho + dev[0], Ub.u + dev[1], Ub.v + dev[2], Ub.p + dev[3])
        worst = max(worst, eigenvalue(W, gas, 4))
    return 1.2 * float(worst)


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------

def initialize(data: InitialData, boundary: BoundaryPolyline, cfg: EngineConfig,
               gas: GasParams) -> SolutionSlice:
    """Slice at x = 0: resolved inflow jumps plus the leading-edge wave.

    Each inflow jump is resolved into its four-wave solution anchored at
    (0, y_jump); the leading-edge corner emits the family-1 wave that
    turns the top state onto the first wall segment.
    """
    fronts: list = []
    states = [data.states[0]]
    for y, target in zip(data.breaks, data.states[1:]):
        sol = solve_riemann(states[-1], target, gas)
        gens = {j: 1 for j in (1, 2, 3, 4)}
        fr, top = _emit_riemann(sol, states[-1], 0.0, float(y), gens, gas, cfg.nu)
        mids = [f.above for f in fr[:-1]] if fr else []
        fronts.extend(fr)
        states.extend(mids)
        states.append(target)
    theta0 = float(boundary.thetas[0])
    sigma1, U_gamma = solve_boundary_riemann(states[-1], theta0, gas)
    fr, top = _emit_wave(states[-1], 1, sigma1, 0.0, 0.0, 1, gas, cfg.nu)
    if fr:
        states.extend(f.above for f in fr[:-1])
        states.append(top)
        fronts.extend(fr)
    return SolutionSlice(0.0, fronts, states)


# ---------------------------------------------------------------------------
# event scheduling
# ---------------------------------------------------------------------------

def _exact_speed(f: Front, gas: GasParams, lambda_hat: float) -> float:
    if f.family == NP_FAMILY:
        return lambda_hat
    return wave_front(f.below, f.family, f.sigma, gas)[1]


def _candidates(slice_: SolutionSlice, boundary: BoundaryPolyline, x_end: float):
    """The upcoming events that can come first, as (x, kind, index), unsorted.

    Holds the end of the run, the top front's wall hit, the first turning
    corner past ``x + _COINCIDENCE_TOL``, and the interactions within
    ``_COINCIDENCE_TOL`` of the earliest one: every event that can be the
    earliest or lie within ``_COINCIDENCE_TOL`` of it.  Later interactions
    cannot, since the earliest event is no later than the earliest
    interaction, and later corners cannot, since corners are ``h`` apart.
    """
    out = [(x_end, "end", -1)]
    x0 = slice_.x
    fronts = slice_.fronts
    n = len(fronts)
    if n > 1:
        speed = np.fromiter((f.speed for f in fronts), float, n)
        anchor_y = np.fromiter((f.y0 for f in fronts), float, n)
        anchor_x = np.fromiter((f.x0 for f in fronts), float, n)
        ys = anchor_y + speed * (x0 - anchor_x)  # Front.y_at, elementwise
        gap = speed[:-1] - speed[1:]
        dy = np.maximum(ys[1:] - ys[:-1], 0.0)
        # a zero-width pair with a ulp-level speed inversion is two
        # analytically parallel fronts (contact pairs sharing a middle
        # state); scheduling it would replay the same zero-width event forever
        idx = np.flatnonzero((gap > 0.0) & ((dy > 0.0) | (gap > _PARALLEL_TOL)))
        if idx.size:
            xs = x0 + dy[idx] / gap[idx]
            near = np.flatnonzero(xs - xs.min() <= _COINCIDENCE_TOL)
            out.extend((xs[j], "interaction", int(idx[j])) for j in near)
    if fronts:
        xb = _wall_hit(fronts[-1], x0, boundary)
        if xb is not None:
            out.append((xb, "boundary", n - 1))
    corner_xs, corner_ks = boundary._turning_corners
    j = bisect_right(corner_xs, x0 + _COINCIDENCE_TOL)
    if j < len(corner_xs):
        out.append((corner_xs[j], "corner", corner_ks[j]))
    return out


def _wall_hit(f: Front, x_now: float, boundary: BoundaryPolyline) -> float | None:
    """Earliest x > x_now where a front line meets the wall polyline."""
    k = boundary.segment_index(x_now)
    # fl(speed - tan) only falls as tan grows, so no later segment passes
    # the denominator test below if the least tangent ahead fails it
    if f.speed - boundary._min_tan_from[k] <= 1.0e-15:
        return None
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
                xh = x_lo  # already touching (roundoff); fire immediately
            if x_lo - 1.0e-14 <= xh <= x_hi + 1.0e-14:
                return min(max(xh, x_now), x_hi)
        if k == boundary.k_star:
            return None
        k += 1


def _perturb_speed(f: Front, gas: GasParams, lambda_hat: float, nu: int, rng) -> Front:
    """Replace a front's speed by exact - delta, delta in (0, 2^-(nu+2)]."""
    delta = (1.0 - rng.random()) * 2.0 ** (-(nu + 2))
    return replace(f, speed=_exact_speed(f, gas, lambda_hat) - delta)


def _youngest(slice_: SolutionSlice, indices) -> int:
    """Among front indices, the one with the latest anchor (ties: highest index)."""
    return max(indices, key=lambda i: (slice_.fronts[i].x0, i))


def next_event(slice_: SolutionSlice, boundary: BoundaryPolyline, cfg: EngineConfig,
               gas: GasParams, lambda_hat: float | None = None, rng=None):
    """Earliest upcoming event, after breaking any coincidences.

    If two candidate events share both a participating front and (within
    tolerance) a station x -- a triple point, a wall hit at a corner, or
    a simultaneous wall hit -- the youngest participating front's speed
    is perturbed by a seeded delta in (0, 2^-(nu+2)] and the schedule is
    rebuilt.  Returns ``(event, slice)`` where the slice carries any
    perturbed fronts.
    """
    if lambda_hat is None:
        lambda_hat = default_lambda_hat(gas)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    for _attempt in range(64):
        cands = _candidates(slice_, boundary, cfg.x_end)
        first = min(cands)
        near = sorted(c for c in cands if c[0] - first[0] <= _COINCIDENCE_TOL)
        clash = _find_clash(near)
        if clash is None:
            x, kind, idx = first
            return Event(kind, x, idx), slice_
        fronts = list(slice_.fronts)
        j = _youngest(slice_, clash)
        fronts[j] = _perturb_speed(fronts[j], gas, lambda_hat, cfg.nu, rng)
        slice_ = SolutionSlice(slice_.x, fronts, slice_.states)
    raise SolverError("could not break event coincidence after 64 perturbations")


def _find_clash(near) -> set | None:
    """Front indices to perturb if the near-simultaneous events conflict."""
    if len(near) < 2:
        return None
    frontsets = []
    for x, kind, idx in near:
        if kind == "interaction":
            frontsets.append({idx, idx + 1})
        elif kind == "boundary":
            frontsets.append({idx})
        elif kind == "corner":
            frontsets.append(set())  # conflicts with any front event at same x
    involved = [s for s in frontsets if s]
    has_corner = any(k == "corner" for _, k, _ in near)
    has_front_event = any(k in ("interaction", "boundary") for _, k, _ in near)
    if has_corner and has_front_event:
        return set().union(*involved)
    for a in range(len(involved)):
        for b in range(a + 1, len(involved)):
            common = involved[a] & involved[b]
            if common:
                return set().union(involved[a], involved[b])
    return None


# ---------------------------------------------------------------------------
# event resolution
# ---------------------------------------------------------------------------

def pair_potential(f_lo: Front, f_up: Front) -> float:
    """|sigma sigma'| if the ordered pair is approaching, else 0."""
    i, j = f_lo.family, f_up.family
    if i == NP_FAMILY and j != NP_FAMILY:
        return abs(f_lo.sigma * f_up.sigma)
    if j == NP_FAMILY:
        return 0.0
    if i > j or (i == j and min(f_lo.sigma, f_up.sigma) < 0.0):
        return abs(f_lo.sigma * f_up.sigma)
    return 0.0


def resolve_event(slice_: SolutionSlice, event: Event, boundary: BoundaryPolyline,
                  cfg: EngineConfig, gas: GasParams, rho_threshold: float,
                  lambda_hat: float):
    """Resolve one event into a new slice at the event station.

    Returns ``(new_slice, record)``.  Interactions use the accurate
    solver when the strength product exceeds `rho_threshold` (and always
    when a non-physical front is *not* involved but strengths are large);
    wall events always re-solve exactly; corners emit the family-1 wave
    of the new wall angle.
    """
    if event.kind == "interaction":
        return _resolve_interaction(slice_, event, cfg, gas, rho_threshold, lambda_hat)
    if event.kind == "boundary":
        return _resolve_boundary(slice_, event, boundary, cfg, gas)
    if event.kind == "corner":
        return _resolve_corner(slice_, event, boundary, cfg, gas)
    raise ValueError(f"cannot resolve event kind {event.kind!r}")


def _resolve_interaction(slice_, event, cfg, gas, rho_threshold, lambda_hat):
    i = event.index
    f_lo, f_up = slice_.fronts[i], slice_.fronts[i + 1]
    xh = event.x
    yh = f_lo.y_at(xh)
    U0, U2 = f_lo.below, f_up.above
    incoming = ((f_lo.family, f_lo.sigma), (f_up.family, f_up.sigma))
    emech = pair_potential(f_lo, f_up)
    np_involved = NP_FAMILY in (f_lo.family, f_up.family)

    if np_involved:
        if f_lo.family != NP_FAMILY:
            raise SolverError(
                f"unexpected non-physical collision geometry at x={xh}: "
                f"families {f_lo.family}, {f_up.family}"
            )
        if f_up.family == NP_FAMILY:
            # two carriers (equal design speed; a perturbed one was caught):
            # merge into one spanning gap, which cannot exceed the sum
            npf = _np_front(U0, U2, xh, yh,
                            min(f_lo.generation, f_up.generation), lambda_hat)
            new_fronts = [npf] if npf is not None else []
        else:
            new_fronts, _ = _transmit(U0, [(f_up.family, f_up.sigma, f_up.generation)],
                                      U2, xh, yh, f_lo.generation, gas, cfg.nu,
                                      lambda_hat)
        solver = "SRS"
    elif abs(f_lo.sigma * f_up.sigma) > rho_threshold:
        sol = solve_riemann(U0, U2, gas)
        new_fronts, _ = _emit_riemann(sol, U0, xh, yh,
                                      _ars_generations(f_lo, f_up), gas, cfg.nu)
        solver = "ARS"
    else:
        new_fronts = _srs_fronts(f_lo, f_up, U0, U2, xh, yh, gas, cfg.nu, lambda_hat)
        solver = "SRS"

    fronts = slice_.fronts[:i] + new_fronts + slice_.fronts[i + 2:]
    mids = [f.above for f in new_fronts[:-1]] if new_fronts else []
    states = slice_.states[:i + 1] + mids + slice_.states[i + 2:]
    rec = EventRecord("interaction", solver, xh, yh, incoming,
                      tuple((f.family, f.sigma) for f in new_fronts), emech)
    return SolutionSlice(xh, fronts, states), rec


def _ars_generations(f_lo: Front, f_up: Front) -> dict:
    gmax = max(f_lo.generation, f_up.generation)
    gens = {j: gmax + 1 for j in (1, 2, 3, 4)}
    if f_lo.family == f_up.family:
        gens[f_lo.family] = min(f_lo.generation, f_up.generation)
    else:
        gens[f_lo.family] = f_lo.generation
        gens[f_up.family] = f_up.generation
    return gens


def _srs_fronts(f_lo, f_up, U0, U2, xh, yh, gas, nu, lambda_hat):
    """Simplified resolution: transmit strengths, lump the rest into a carrier."""
    if f_lo.family == f_up.family:
        merged = [(f_lo.family, f_lo.sigma + f_up.sigma,
                   min(f_lo.generation, f_up.generation))]
    else:
        # canonical family order from below: the faster (higher) family ends
        # up above the slower one after crossing.  This also keeps the two
        # contact families in their composition order when a perturbed
        # 2-front grazes a 3-front, where the maps commute exactly and the
        # touch must transmit both strengths without creating new potential.
        merged = sorted(
            [(f_up.family, f_up.sigma, f_up.generation),
             (f_lo.family, f_lo.sigma, f_lo.generation)])
    np_gen = max(f_lo.generation, f_up.generation) + 1
    fronts, _ = _transmit(U0, merged, U2, xh, yh, np_gen, gas, nu, lambda_hat)
    return fronts


def _transmit(U0, waves, U2, xh, yh, np_gen, gas, nu, lambda_hat):
    """Physical fronts for `waves` stacked from U0, then a carrier up to U2."""
    fronts = []
    cur = U0
    for family, sigma, gen in waves:
        fr, cur = _emit_wave(cur, family, sigma, xh, yh, gen, gas, nu)
        fronts.extend(fr)
    npf = _np_front(cur, U2, xh, yh, np_gen, lambda_hat)
    if npf is not None:
        fronts.append(npf)
    else:
        # close the (tiny) gap exactly by reattaching the upper state
        if fronts:
            fronts[-1] = replace(fronts[-1], above=U2)
        cur = U2
    return fronts, cur


def _resolve_boundary(slice_, event, boundary, cfg, gas):
    i = event.index
    f = slice_.fronts[i]
    if i != len(slice_.fronts) - 1:
        raise SolverError("only the top front can reach the wall")
    xh = event.x
    yh = boundary.g_at(xh)
    theta = boundary.theta_at(xh)
    U_below = f.below
    incoming = ((f.family, f.sigma),)

    if f.family == NP_FAMILY:
        if cfg.np_boundary == "absorb":
            new_fronts, top = [], U_below
        else:
            sigma1, top = solve_boundary_riemann(U_below, theta, gas)
            new_fronts, top = _emit_wave(U_below, 1, sigma1, xh, yh,
                                         f.generation, gas, cfg.nu)
        kind, emech = "np_boundary", 0.0
    elif f.family in (2, 3, 4):
        sigma_out = reflect_at_boundary(U_below, f.family, f.sigma, theta, gas)
        new_fronts, top = _emit_wave(U_below, 1, sigma_out, xh, yh,
                                     f.generation, gas, cfg.nu)
        kind, emech = "boundary", abs(f.sigma)
    else:
        raise SolverError(f"family-1 front reached the wall at x={xh}")

    fronts = slice_.fronts[:i] + new_fronts
    states = slice_.states[:i + 1] + [fr.above for fr in new_fronts]
    rec = EventRecord(kind, "boundary", xh, yh, incoming,
                      tuple((fr.family, fr.sigma) for fr in new_fronts), emech)
    return SolutionSlice(xh, fronts, states), rec


def _resolve_corner(slice_, event, boundary, cfg, gas):
    k = event.index
    xh = float(boundary.xs[k])
    yh = float(boundary.gs[k])
    theta_new = float(boundary.thetas[k])
    U_top = slice_.states[-1]
    sigma1, U_gamma = solve_boundary_riemann(U_top, theta_new, gas)
    new_fronts, top = _emit_wave(U_top, 1, sigma1, xh, yh, 1, gas, cfg.nu)
    fronts = slice_.fronts + new_fronts
    states = slice_.states + [fr.above for fr in new_fronts]
    rec = EventRecord("corner", "boundary", xh, yh, ((0, float(boundary.omegas[k])),),
                      tuple((fr.family, fr.sigma) for fr in new_fronts),
                      abs(float(boundary.omegas[k])))
    return SolutionSlice(xh, fronts, states), rec


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def run(data: InitialData, boundary: BoundaryPolyline, cfg: EngineConfig,
        gas: GasParams) -> Trajectory:
    """Track all fronts from x = 0 to x = x_end.

    Stores the slice after every event plus the final slice at x_end.
    Deterministic for fixed inputs: the only randomness is the seeded
    tie-breaking perturbation stream.
    """
    slice0 = initialize(data, boundary, cfg, gas)
    v0 = float(sum(abs(f.sigma) for f in slice0.fronts))
    rho_threshold = cfg.rho_threshold
    if rho_threshold is None:
        rho_threshold = 2.0 ** (-cfg.nu) * v0
    lambda_hat = cfg.lambda_hat
    if lambda_hat is None:
        lambda_hat = default_lambda_hat(gas)
    rng = np.random.default_rng(cfg.seed)

    slices = [slice0]
    records: list = []
    cur = slice0
    for _ in range(cfg.max_events):
        event, cur = next_event(cur, boundary, cfg, gas, lambda_hat, rng)
        if event.kind == "end":
            slices.append(cur.at(cfg.x_end))
            return Trajectory(gas, cfg, boundary, slices, records,
                              rho_threshold, lambda_hat)
        try:
            cur, rec = resolve_event(cur, event, boundary, cfg, gas,
                                     rho_threshold, lambda_hat)
        except (SolverError, CurveError) as exc:
            raise SolverError(
                f"event {event.kind} at x={event.x:.6f} failed: {exc}; "
                f"slice has {len(cur.fronts)} fronts"
            ) from exc
        slices.append(cur)
        records.append(rec)
    raise SolverError(f"event budget {cfg.max_events} exhausted at x={cur.x}")


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def export_trajectory(traj: Trajectory) -> str:
    """Text dump of every stored slice, top down, 17 significant digits."""
    cfg, gas = traj.cfg, traj.gas
    lines = [
        "x_end,h,nu,tau,gamma,a_inf,seed",
        ",".join([_fmt(cfg.x_end), _fmt(cfg.h), str(cfg.nu), _fmt(gas.tau),
                  _fmt(gas.gamma), _fmt(gas.a_inf), str(cfg.seed)]),
    ]
    for sl in traj.slices:
        lines.append(f"SLICE x={_fmt(sl.x)}")
        ys = sl.ys()
        for k in range(len(sl.fronts), -1, -1):
            s = sl.states[k]
            lines.append(f"state,{_fmt(s.rho)},{_fmt(s.u)},{_fmt(s.v)},{_fmt(s.p)}")
            if k > 0:
                f = sl.fronts[k - 1]
                lines.append(
                    f"front,{f.family},{_fmt(f.sigma)},{_fmt(ys[k - 1])},"
                    f"{_fmt(f.speed)},{f.generation}"
                )
    return "\n".join(lines) + "\n"
