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

import copy
import io
import math
import operator
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations, islice
from numbers import Integral, Real

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
    TRUST_RADIUS,
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
    "SliceLog",
    "Trajectory",
    "approximate_boundary",
    "initialize",
    "next_event",
    "resolve_event",
    "pair_potential",
    "total_strength",
    "run",
    "write_trajectory",
    "export_trajectory",
]

#: strengths below this are treated as no wave at all
_ZERO_STRENGTH = 1.0e-14
#: coincidence tolerance for event ordering (triggers speed perturbation)
_COINCIDENCE_TOL = 1.0e-12
#: speed gaps below this between coincident fronts are rounding noise,
#: not a crossing (genuine zero-width crossings have O(1) speed gaps)
_PARALLEL_TOL = 1.0e-12
#: stored slices from one whole front list of a :class:`SliceLog` to the next
_CHECKPOINT_INTERVAL = 64
#: a pair's collision bound lies this far, per unit of its rounding-error
#: terms, below the station the scan computes (see :func:`_pair_row`)
_BOUND_EPS = 64.0 * 2.0 ** -52
#: events one run may resolve before it gives up
_MAX_EVENTS = 200_000
#: largest ``EngineConfig.nu``: ``2.0**-nu`` stays a normal float, and a
#: rarefaction within the curves' trust radius (strength at most
#: ``DELTA_TRUST`` = 0.1) is sampled into at most 100 fronts
_MAX_NU = 1000


@dataclass(slots=True, unsafe_hash=True)
class Front:
    """One straight-line discontinuity.

    ``below``/``above`` are the constant states on either side (in y).
    ``speed`` is dy/dx; for rarefaction pieces it is the trailing-edge
    characteristic slope (the above-state slope for family 1, the
    below-state slope for family 4), which keeps split fans internally
    divergent and the jump entropy-consistent.  ``family`` is 1..4 for
    physical fronts or ``NP_FAMILY`` for non-physical carriers, whose
    ``sigma`` is the Euclidean size of the state gap.

    A value, like :class:`State`: slice lists, records and the slice
    log share fronts, so nothing assigns to one, and a moved front comes
    from ``dataclasses.replace``.  Not ``frozen``, since two are built
    per event and a frozen construction costs several times as much; a
    test parses the package for assignments instead.
    """

    family: int
    sigma: float
    x0: float
    y0: float
    speed: float
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
    itself (the turn from the incoming flat stream).  The four are
    tuples of floats, so walls built alike compare and hash equal.
    """

    h: float
    xs: tuple
    gs: tuple
    thetas: tuple
    omegas: tuple
    k_star: int

    def segment_index(self, x: float) -> int:
        k = bisect_right(self.xs, x) - 1
        return min(max(k, 0), self.k_star)

    def g_at(self, x: float) -> float:
        k = self.segment_index(x)
        return self.gs[k] + self._tans[k] * (x - self.xs[k])

    def theta_at(self, x: float) -> float:
        return self.thetas[self.segment_index(x)]

    @cached_property
    def _tans(self) -> list:
        """``tan(thetas[k])`` for every segment k."""
        return [math.tan(th) for th in self.thetas]

    @cached_property
    def _turning_corners(self) -> tuple:
        """(xs, ks): the corners after the leading edge that turn the wall."""
        ks = [k for k in range(1, self.k_star + 1) if self.omegas[k] != 0.0]
        return [self.xs[k] for k in ks], ks

    def corner_tail(self, x: float) -> float:
        """Sum of ``|omegas[k]|`` over the corners k >= 1 beyond `x`."""
        xs, ks = self._turning_corners
        return total_strength(self.omegas[k] for k in ks[bisect_right(xs, x):])

    @cached_property
    def _min_tan_from(self) -> list:
        """Entry k: the least ``tan(thetas[j])`` over segments j >= k."""
        out = list(self._tans)
        for k in range(self.k_star - 1, -1, -1):
            out[k] = min(out[k], out[k + 1])
        return out


def approximate_boundary(g, h: float, x_max: float = 2.0) -> BoundaryPolyline:
    """Sample a wall function onto a corner polyline with spacing `h`.

    Corners sit at x = k*h up to ``k_star = ceil(x_max/h)``; beyond the
    last corner the wall continues straight with the slope of the last
    sampled segment (flat if there is none).  Turning angles smaller than
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
    thetas = np.append(seg, math.atan(float(np.tan(seg[-1]))) if len(seg) else 0.0)
    omegas = np.empty(k_star + 1)
    omegas[0] = thetas[0]
    omegas[1:] = np.diff(thetas)
    omegas[1:][np.abs(omegas[1:]) <= 1.0e-13] = 0.0  # snap arctan rounding noise
    return BoundaryPolyline(h, tuple(xs.tolist()), tuple(gs.tolist()),
                            tuple(thetas.tolist()), tuple(omegas.tolist()), k_star)


@dataclass(frozen=True)
class InitialData:
    """Piecewise-constant inflow data below the wall.

    `breaks` are the jump heights (ascending, all <= 0), any sequence of
    numbers, kept as a tuple of floats; `states` are the constant values
    bottom to top, one more than there are breaks, kept as a tuple of
    states of floats.  The topmost state occupies (breaks[-1], 0).
    Plain floats on both: a numpy scalar would carry into every front,
    slope and station built from them, and its arithmetic is slower.
    """

    breaks: tuple
    states: tuple

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "states", tuple(
            State(float(s.rho), float(s.u), float(s.v), float(s.p)) for s in self.states))
        if len(self.states) != len(breaks) + 1:
            raise ValueError("need exactly one more state than breaks")
        if breaks and (any(b <= a for a, b in zip(breaks, breaks[1:])) or breaks[-1] > 0):
            raise ValueError("breaks must be strictly increasing and nonpositive")


@dataclass
class SolutionSlice:
    """The piecewise-constant solution at one station x.

    A slice is its fronts and its wall state: the state below front k is
    ``fronts[k].below``, and ``top_state`` is adjacent to the wall and
    satisfies the slip condition there up to the non-physical strength
    the wall has absorbed since its last physical event.  Front
    positions are functions of x, so advancing the slice between events
    is just a change of the ``x`` field.

    ``columns`` is a (2, m) array, m >= n, that guides the event scan.
    Column i < n - 1 is the pair (fronts[i], fronts[i + 1]).  Row 0 is
    a lower bound on the station the scan computes for the pair at this
    or any later station, +inf when the pair is not approaching or no
    more than ``_PARALLEL_TOL`` apart in speed (see :func:`_pair_row`).
    Row 1 is the pair's scan key: the bound again for an ordinary pair,
    -inf for an approaching near-parallel pair, which the scan admits
    only while its gap is open and so checks every time, and +inf for a
    pair that is not approaching.  ``edits`` lists the slice edits made
    since the run last stored a slice.

    Only the live slice of a run holds columns and edits, and it owns
    its front list: each edit replaces the edited fronts of that very
    list in place, splices the pairs into the columns in place, appends
    itself to the edits, and hands all three on to the next slice.  The
    slice it came from is spent.  Whatever keeps a live slice's fronts
    keeps a copy (the :class:`SliceLog` checkpoints, a run resumed from
    a prefix).  Elsewhere both are None, the scan builds the columns
    from ``fronts``, and an edit makes a new list.
    """

    x: float
    fronts: list
    top_state: State
    columns: np.ndarray | None = field(default=None, compare=False, repr=False)
    edits: list | None = field(default=None, compare=False, repr=False)

    @property
    def states(self) -> list:
        """The states bottom to top: each front's ``below``, then the wall state."""
        return [f.below for f in self.fronts] + [self.top_state]


@dataclass(frozen=True)
class EngineConfig:
    """Engine parameters.

    ``nu`` controls both the rarefaction sampling (pieces of strength at
    most 1/nu) and, unless overridden, the simplified-solver threshold
    ``rho_threshold = 2^-nu * (initial total strength)``; an infinite
    ``rho_threshold`` simplifies every interaction.  ``nu`` is at most
    ``_MAX_NU``; ``h`` and ``x_end`` are positive and finite, and
    ``x_end / h``, the corners a run passes, is at most ``_MAX_EVENTS``.
    Two values are fixed, not set: the non-physical front slope, 1.2x the
    largest family-4 slope over the trust-box corners
    (:func:`default_lambda_hat`), and the budget of ``_MAX_EVENTS`` events.

    A non-physical carrier that meets the wall is absorbed: it emits no
    front, so the slice functional decreases by exactly the carried
    strength, at the price of an O(2^-nu) slip-condition error that the
    next physical wall event removes.
    """

    h: float = 1.0 / 32.0
    nu: int = 10
    rho_threshold: float | None = None
    x_end: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for key in ("h", "x_end"):
            val = getattr(self, key)
            # <= float max, not < inf: an int too large for a float compares
            # exactly here, where the run would overflow converting it
            if isinstance(val, bool) or not (isinstance(val, Real)
                                             and 0.0 < val <= sys.float_info.max):
                raise ValueError(f"engine key {key}={val!r} must be a positive finite number")
        if self.x_end / self.h > _MAX_EVENTS:
            raise ValueError(f"engine keys x_end={self.x_end!r} and h={self.h!r} make more "
                             f"corners x_end/h than the {_MAX_EVENTS} events of a run")
        nu = self.nu
        if isinstance(nu, bool) or not isinstance(nu, Integral) or not 1 <= nu <= _MAX_NU:
            raise ValueError(f"engine key nu={nu!r} must be an integer in [1, {_MAX_NU}]")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"engine key seed={self.seed!r} must be an integer >= 0")
        rho = self.rho_threshold
        if rho is not None and (isinstance(rho, bool) or not isinstance(rho, Real)
                                or not rho >= 0.0):
            raise ValueError(f"engine key rho_threshold={rho!r} must be null or a number >= 0")


@dataclass(slots=True, unsafe_hash=True)
class Event:
    """The event a scan picked: its kind, station and index.

    A value built once per event and never assigned to (not ``frozen``,
    for the cost of the construction; see :class:`Front`).
    """

    kind: str  # 'interaction' | 'boundary' | 'corner' | 'end'
    x: float
    index: int = -1  # lower front index (interaction) or corner number


@dataclass(slots=True, unsafe_hash=True)
class EventRecord:
    """Bookkeeping for one resolved event (consumed by the functional tests).

    A record references the fronts the run's :class:`SliceLog` already
    holds rather than copying them: ``removed`` is the fronts the event
    took out, ``(f_lo, f_up)`` for an interaction, ``(f,)`` at the wall
    and none at a corner, and ``new_fronts`` is the very list in the
    event's slice edit.  A corner's signed turning angle is ``omega``
    (None for every other event).  ``incoming`` and ``outgoing`` are the
    ``(family, sigma)`` pairs derived from these; a corner comes in as
    ``((0, omega),)``.

    A value built once per event and never assigned to, hashed by every
    field but ``new_fronts`` (not ``frozen``, for the cost of the
    construction; see :class:`Front`).
    """

    kind: str
    solver: str
    x: float
    y: float
    removed: tuple
    # a list, left out of the hash so that records stay hashable
    new_fronts: list = field(hash=False)
    emech: float
    omega: float | None = None

    @property
    def incoming(self) -> tuple:
        if self.omega is not None:
            return ((0, self.omega),)
        return tuple((f.family, f.sigma) for f in self.removed)

    @property
    def outgoing(self) -> tuple:
        return tuple((f.family, f.sigma) for f in self.new_fronts)


class SliceLog(Sequence):
    """The stored slices of a run, kept as an event log.

    Slice 0 is kept whole.  Slice k > 0 is its station ``xs[k]`` and the
    slice edits (see :func:`_apply_edit`) that lead to it from slice
    k - 1: any coincidence perturbations, then the event's own edit.
    Every ``_CHECKPOINT_INTERVAL``-th slice is kept whole too, so an
    index replays at most one interval of edits.  Indexing with a slice
    returns a list and replays forward once; iteration replays in turn
    and holds one slice at a time.
    """

    def __init__(self, first: SolutionSlice):
        self.xs = [first.x]
        self._edits = [()]
        self._checkpoints = [SolutionSlice(first.x, list(first.fronts), first.top_state)]

    def append(self, slice_: SolutionSlice, edits: list) -> None:
        """Store `slice_`, which `edits` make from the last stored slice.

        A checkpoint copies the front list, which the live slice goes on
        editing in place.
        """
        if len(self.xs) % _CHECKPOINT_INTERVAL == 0:
            self._checkpoints.append(
                SolutionSlice(slice_.x, list(slice_.fronts), slice_.top_state))
        self.xs.append(slice_.x)
        self._edits.append(tuple(edits))

    def head(self, n: int) -> SliceLog:
        """A new log of the first `n` >= 1 slices; it shares this log's
        edit tuples and checkpoints, and appending to it leaves this one
        as it is."""
        out = copy.copy(self)
        out.xs = self.xs[:n]
        out._edits = self._edits[:n]
        out._checkpoints = self._checkpoints[:-(-n // _CHECKPOINT_INTERVAL)]
        return out

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            ks = range(*key.indices(len(self)))
            if not ks:
                return []
            lo, hi = min(ks[0], ks[-1]), max(ks[0], ks[-1])
            got = list(islice(self._replay(lo), hi - lo + 1))
            return [got[k - lo] for k in ks]
        k = operator.index(key)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("slice log index out of range")
        return next(self._replay(k))

    def __iter__(self):
        return self._replay(0)

    def _replay(self, start: int):
        """Slices `start`, `start` + 1, ... to the end, replayed from the
        checkpoint at or before `start`."""
        k = start - start % _CHECKPOINT_INTERVAL
        sl = self._checkpoints[k // _CHECKPOINT_INTERVAL]
        while True:
            if k >= start:
                yield sl
            k += 1
            if k == len(self.xs):
                return
            if k % _CHECKPOINT_INTERVAL == 0:
                sl = self._checkpoints[k // _CHECKPOINT_INTERVAL]
                continue
            fronts, top_state = sl.fronts, sl.top_state
            for edit in self._edits[k]:
                fronts, top_state = _edited(fronts, top_state, edit)
            sl = SolutionSlice(self.xs[k], fronts, top_state)


@dataclass
class Trajectory:
    """A run: its set-up, its stored slices and one record per event.

    ``data`` is the inflow data the run started from.  ``slices`` is the
    :class:`SliceLog` of the slices after initialisation, after every
    event and at ``x_end``.  :func:`write_trajectory` also takes a list
    of some of them.
    """

    gas: GasParams
    cfg: EngineConfig
    boundary: BoundaryPolyline
    data: InitialData
    slices: SliceLog
    records: list
    rho_threshold: float
    lambda_hat: float

    def slice_at(self, x: float) -> SolutionSlice:
        if not 0.0 <= x <= self.cfg.x_end + 1.0e-12:
            raise ValueError(f"station {x} outside [0, {self.cfg.x_end}]")
        k = bisect_right(self.slices.xs, x) - 1
        sl = self.slices[max(k, 0)]
        return SolutionSlice(x, sl.fronts, sl.top_state)


# ---------------------------------------------------------------------------
# front construction helpers
# ---------------------------------------------------------------------------

def _emit_wave(U_below: State, family: int, sigma: float, x: float, y: float,
               gas: GasParams, nu: int, near=None, solved=None):
    """Fronts realising one wave, splitting rarefactions into fan pieces.

    Returns (fronts, top_state).  Rarefactions of the acoustic families
    are sampled into ceil(sigma*nu) equal pieces so no piece exceeds
    1/nu; shocks and contacts are single fronts.  `near`, the front this
    wave was before it crossed another front, warm-starts a shock's solve
    (:func:`wave_front`).  `solved`, the front ``(below, top, slope)`` a
    Riemann solver found for this wave, is taken as it is when the wave
    makes a single front from exactly that `below` (a wave below it in
    the solution may have been too weak to emit).
    """
    if abs(sigma) <= _ZERO_STRENGTH:
        return [], U_below
    pieces = _pieces(family, sigma, nu)
    if pieces == 1 and solved is not None and solved[0] == U_below:
        _, top, slope = solved
        return [Front(family, sigma, x, y, slope, U_below, top)], top
    ds = sigma / pieces
    fronts = []
    cur = U_below
    for _ in range(pieces):
        nxt, speed = wave_front(cur, family, ds, gas, near)
        fronts.append(Front(family, ds, x, y, speed, cur, nxt))
        cur = nxt
    return fronts, cur


def _np_front(U_below: State, U_above: State, x: float, y: float, lambda_hat: float):
    """Non-physical carrier for the gap between two states (or None if tiny).

    Its strength is the Euclidean norm of the state difference, its
    squares summed left to right in Python: ``np.dot`` would cost more
    than the rest of the carrier, and rounds as the BLAS core does.
    """
    d0, d1 = U_above.rho - U_below.rho, U_above.u - U_below.u
    d2, d3 = U_above.v - U_below.v, U_above.p - U_below.p
    gap = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3)
    if gap <= _ZERO_STRENGTH:
        return None
    return Front(NP_FAMILY, gap, x, y, lambda_hat, U_below, U_above)


def _pieces(family: int, sigma: float, nu: int) -> int:
    """Number of fronts realising one wave: ceil(sigma*nu) for a rarefaction."""
    if family in GENUINE_FAMILIES and sigma > 0.0:
        return max(1, int(math.ceil(sigma * nu - 1.0e-12)))
    return 1


def _emit_riemann(sol, U_b: State, x: float, y: float, gas: GasParams, nu: int):
    """Fronts for a full four-wave solution.

    :func:`_emit_wave` wave by wave, each acoustic wave with its solved
    front from ``sol.acoustic``.
    """
    solved = (sol.acoustic[0], None, None, sol.acoustic[1])
    fronts = []
    cur = U_b
    for j, sig, wave in zip((1, 2, 3, 4), sol.strengths, solved):
        fr, cur = _emit_wave(cur, j, sig, x, y, gas, nu, solved=wave)
        fronts.extend(fr)
    return fronts, cur


def default_lambda_hat(gas: GasParams) -> float:
    """1.2x the largest family-4 slope over the trust-box corner states."""
    Ub = gas.background()
    worst = -math.inf
    for k in range(16):
        dev = [(TRUST_RADIUS if k >> i & 1 else -TRUST_RADIUS) for i in range(4)]
        W = State(Ub.rho + dev[0], Ub.u + dev[1], Ub.v + dev[2], Ub.p + dev[3])
        worst = max(worst, eigenvalue(W, gas, 4))
    return 1.2 * worst


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------

def initialize(data: InitialData, boundary: BoundaryPolyline, cfg: EngineConfig,
               gas: GasParams) -> SolutionSlice:
    """Slice at x = 0: resolved inflow jumps plus the leading-edge wave.

    Each inflow jump is resolved into its four-wave solution anchored at
    (0, y_jump); the leading edge is corner 0, which emits the family-1
    wave that turns the top state onto the first wall segment.
    """
    slice_ = SolutionSlice(0.0, [], data.states[0], _pair_columns([], 0.0))
    for y, target in zip(data.breaks, data.states[1:]):
        sol = solve_riemann(slice_.top_state, target, gas)
        fronts, _ = _emit_riemann(sol, slice_.top_state, 0.0, y, gas, cfg.nu)
        n = len(slice_.fronts)
        slice_ = _apply_edit(slice_, 0.0, (n, n, fronts, target))
    edit, _ = _resolve_corner(slice_, Event("corner", 0.0, 0), boundary, cfg, gas)
    return _apply_edit(slice_, 0.0, edit)


# ---------------------------------------------------------------------------
# event scheduling
# ---------------------------------------------------------------------------

def _collision_x(lo: Front, up: Front, x: float) -> float | None:
    """The station where the scan at `x` schedules the pair (lo, up), or None.

    None when the pair is not approaching.  A zero-width pair with a
    ulp-level speed inversion is two analytically parallel fronts
    (contact pairs sharing a middle state): scheduling it would replay
    the same zero-width event forever, so a pair no more than
    ``_PARALLEL_TOL`` apart in speed is admitted only while its gap is
    open.
    """
    gap = lo.speed - up.speed
    if not gap > 0.0:
        return None
    dy = up.y_at(x) - lo.y_at(x)
    if dy < 0.0:
        dy = 0.0
    if dy > 0.0 or gap > _PARALLEL_TOL:
        return x + dy / gap
    return None


def _pair_row(lo: Front, up: Front, x: float) -> tuple:
    """(bound, key) of the pair (lo, up) made at station `x`; see
    ``SolutionSlice.columns``.  The key is the bound for a pair more than
    ``_PARALLEL_TOL`` apart in speed, -inf for a closer approaching pair
    and +inf for a pair that is not approaching, so that one comparison
    of the keys with a station picks the pairs the scan checks.

    In exact arithmetic the scan's ``x + dy/gap`` is the same crossing
    station at every x up to it, and x itself beyond it.  In floats,
    with v the value at `x`, it is off by the rounding of each ``y_at``
    (under ``eps*(|y0| + |speed|*(|x| + |x0|))``, over ``gap``) and of
    the difference, the quotient, the sum and ``gap`` itself (under
    ``eps*(|x| + |v|)`` each, as ``dy/gap <= |v| + |x|``).  The bound is
    v less 64x the sum of these terms with |x| widened to |v|: it covers
    the error at `x` and at every later station short of v, and past v
    the scan never reads below x.
    """
    gap = lo.speed - up.speed
    if not gap > _PARALLEL_TOL:
        return math.inf, -math.inf if gap > 0.0 else math.inf
    v = _collision_x(lo, up, x)
    reach = 1.0 + abs(x) + abs(v)
    err = 2.0 * reach + (abs(lo.y0) + abs(up.y0) + (abs(lo.speed) + abs(up.speed))
                         * (reach + abs(lo.x0) + abs(up.x0))) / gap
    bound = v - _BOUND_EPS * err
    return bound, bound


def _pair_columns(fronts: list, x: float) -> np.ndarray:
    """``SolutionSlice.columns`` of a front list at station `x`."""
    cols = np.full((2, len(fronts)), math.inf)
    for i in range(len(fronts) - 1):
        cols[:, i] = _pair_row(fronts[i], fronts[i + 1], x)
    return cols


def _splice(cols: np.ndarray, fronts: list, x: float, start: int, removed: int,
            added: int) -> np.ndarray:
    """`cols` after ``fronts[start:start + added]`` took the place of
    `removed` fronts at station `x`; `fronts` is the new list.

    The rows of untouched pairs shift with their fronts, and only the
    pairs that have a new front, or fronts newly adjacent, are made
    again.  The array is reused in place and grows by doubling: one
    long-lived buffer, rather than a new array per event between the
    slices' front lists, keeps the heap from fragmenting over a long run.
    """
    size = len(fronts)
    n = size - added + removed
    if size > cols.shape[1]:
        cols = np.concatenate((cols[:, :n], np.empty((2, size))), axis=1)
    if added != removed:
        cols[:, start + added:size] = cols[:, start + removed:n]
    for i in range(max(start - 1, 0), min(start + added, size - 1)):
        cols[0, i], cols[1, i] = _pair_row(fronts[i], fronts[i + 1], x)
    return cols


def _edited(fronts: list, top_state: State, edit) -> tuple:
    """(fronts, top_state) after the edit ``(start, stop, new_fronts, top)``.

    `new_fronts` take the place of ``fronts[start:stop]``; `top` is the
    new wall state, or None off the wall, where the wall state stays.
    """
    start, stop, new_fronts, top = edit
    return fronts[:start] + new_fronts + fronts[stop:], top_state if top is None else top


def _apply_edit(slice_: SolutionSlice, x: float, edit) -> SolutionSlice:
    """The slice at `x` after `edit` (see :func:`_edited`).

    A live slice (one that holds columns) is spent: its front list is
    edited in place and moves over, its columns move over through
    :func:`_splice`, and its pending edits, if any, move over with `edit`
    appended.  A slice without columns is left as it is, and the new one
    gets a new front list.
    """
    start, stop, new_fronts, top = edit
    cols, slice_.columns = slice_.columns, None
    if cols is None:
        fronts, top_state = _edited(slice_.fronts, slice_.top_state, edit)
    else:
        fronts, top_state = slice_.fronts, slice_.top_state if top is None else top
        fronts[start:stop] = new_fronts
        cols = _splice(cols, fronts, x, start, stop - start, len(new_fronts))
    edits, slice_.edits = slice_.edits, None
    if edits is not None:
        edits.append(edit)
    return SolutionSlice(x, fronts, top_state, cols, edits)


def _candidates(slice_: SolutionSlice, boundary: BoundaryPolyline, x_end: float):
    """The upcoming events that can come first, as (x, kind, index), unsorted.

    Holds the end of the run, the top front's wall hit, the first turning
    corner past ``x + _COINCIDENCE_TOL``, and the interactions within
    ``_COINCIDENCE_TOL`` of the earliest one checked: every event that
    can be the earliest or lie within ``_COINCIDENCE_TOL`` of it.  Later
    corners cannot, since corners are ``h`` apart.  A pair is checked
    when its key (row 1 of ``SolutionSlice.columns``) is at most
    ``2*_COINCIDENCE_TOL`` past the earliest of the other events and of
    the station of the pair with the least bound (row 0): near-parallel
    pairs, keyed -inf, always are, and receding ones, keyed +inf, never.
    The first event is no later than either station, so no other pair
    can come within ``_COINCIDENCE_TOL`` of it.
    """
    out = [(x_end, "end", -1)]
    x0 = slice_.x
    fronts = slice_.fronts
    n = len(fronts)
    if fronts:
        xb = _wall_hit(fronts[-1], x0, boundary)
        if xb is not None:
            out.append((xb, "boundary", n - 1))
    corner_xs, corner_ks = boundary._turning_corners
    j = bisect_right(corner_xs, x0 + _COINCIDENCE_TOL)
    if j < len(corner_xs):
        out.append((corner_xs[j], "corner", corner_ks[j]))
    if n > 1:
        cols = slice_.columns
        if cols is None:
            cols = _pair_columns(fronts, x0)
        bound = cols[0, :n - 1]
        i0 = int(bound.argmin())
        first = _collision_x(fronts[i0], fronts[i0 + 1], x0)
        thr = min(math.inf if first is None else first, min(out)[0]) + 2.0 * _COINCIDENCE_TOL
        hits = []
        for i in (cols[1, :n - 1] <= thr).nonzero()[0].tolist():
            xi = first if i == i0 else _collision_x(fronts[i], fronts[i + 1], x0)
            if xi is not None:
                hits.append((xi, "interaction", i))
        if hits:
            least = min(hits)[0]
            out.extend(h for h in hits if h[0] - least <= _COINCIDENCE_TOL)
    return out


def _wall_hit(f: Front, x_now: float, boundary: BoundaryPolyline) -> float | None:
    """Earliest x > x_now where a front line meets the wall polyline."""
    k = boundary.segment_index(x_now)
    # fl(speed - tan) only falls as tan grows, so no later segment passes
    # the denominator test below if the least tangent ahead fails it
    if f.speed - boundary._min_tan_from[k] <= 1.0e-15:
        return None
    xs, gs, tans = boundary.xs, boundary.gs, boundary._tans
    while True:
        tanth = tans[k]
        denom = f.speed - tanth
        x_lo = max(xs[k], x_now)
        x_hi = xs[k + 1] if k < boundary.k_star else math.inf
        if denom > 1.0e-15:
            gk = gs[k] + tanth * (x_lo - xs[k])
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
    """Replace a front's speed by exact - delta, delta in (0, 2^-(nu+2)].

    The exact speed is solved cold: started from the front itself, a
    tiny shock's residual would pass its own perturbed speed.
    """
    delta = (1.0 - rng.random()) * 2.0 ** (-(nu + 2))
    exact = lambda_hat if f.family == NP_FAMILY else wave_front(f.below, f.family, f.sigma, gas)[1]
    return replace(f, speed=exact - delta)


def _youngest(slice_: SolutionSlice, indices) -> int:
    """Among front indices, the one with the latest anchor (ties: highest index)."""
    return max(indices, key=lambda i: (slice_.fronts[i].x0, i))


def next_event(slice_: SolutionSlice, boundary: BoundaryPolyline, cfg: EngineConfig,
               gas: GasParams, lambda_hat: float, rng):
    """Earliest upcoming event, after breaking any coincidences.

    If two candidate events share both a participating front and (within
    tolerance) a station x -- a triple point, a wall hit at a corner, or
    a simultaneous wall hit -- the youngest participating front's speed
    is perturbed by a delta in (0, 2^-(nu+2)] drawn from `rng` and the
    schedule is rebuilt.  Returns ``(event, slice)`` where the slice
    carries any perturbed fronts; a perturbed slice takes over the front
    list, edited in place, the columns and the pending edits of a live
    `slice_` (see :func:`_apply_edit`).
    """
    for _attempt in range(64):
        cands = _candidates(slice_, boundary, cfg.x_end)
        first = min(cands)
        near = [c for c in cands if c[0] - first[0] <= _COINCIDENCE_TOL]
        # a lone candidate needs no order and clashes with nothing
        clash = _find_clash(sorted(near)) if len(near) > 1 else None
        if clash is None:
            x, kind, idx = first
            return Event(kind, x, idx), slice_
        j = _youngest(slice_, clash)
        perturbed = _perturb_speed(slice_.fronts[j], gas, lambda_hat, cfg.nu, rng)
        slice_ = _apply_edit(slice_, slice_.x, (j, j + 1, [perturbed], None))
    raise SolverError("could not break event coincidence after 64 perturbations")


def _find_clash(near) -> set | None:
    """Front indices to perturb if the near-simultaneous events conflict."""
    if len(near) < 2:
        return None
    involved = [{idx, idx + 1} if kind == "interaction" else {idx}
                for _, kind, idx in near if kind in ("interaction", "boundary")]
    # a corner conflicts with any front event at the same station
    if involved and any(kind == "corner" for _, kind, _ in near):
        return set().union(*involved)
    return next((a | b for a, b in combinations(involved, 2) if a & b), None)


# ---------------------------------------------------------------------------
# event resolution
# ---------------------------------------------------------------------------

def total_strength(strengths) -> float:
    """Sum of ``|s|`` over `strengths`, added left to right: from Python
    3.12 builtin ``sum`` compensates float sums and rounds otherwise."""
    total = 0.0
    for s in strengths:
        total += abs(s)
    return total


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
    of the new wall angle.  Every resolver returns one slice edit
    ``(start, stop, new_fronts, top)`` (see :func:`_apply_edit`) and the
    event's record.  A live `slice_` is spent: the new slice takes over
    its front list, edited in place, its columns and its pending edits.
    """
    if event.kind == "interaction":
        edit, rec = _resolve_interaction(slice_, event, cfg, gas, rho_threshold, lambda_hat)
    elif event.kind == "boundary":
        edit, rec = _resolve_boundary(slice_, event, boundary, cfg, gas)
    elif event.kind == "corner":
        edit, rec = _resolve_corner(slice_, event, boundary, cfg, gas)
    else:
        raise ValueError(f"cannot resolve event kind {event.kind!r}")
    return _apply_edit(slice_, rec.x, edit), rec


def _resolve_interaction(slice_, event, cfg, gas, rho_threshold, lambda_hat):
    i = event.index
    f_lo, f_up = slice_.fronts[i], slice_.fronts[i + 1]
    xh = event.x
    yh = f_lo.y_at(xh)
    U0, U2 = f_lo.below, f_up.above
    emech = pair_potential(f_lo, f_up)
    np_involved = NP_FAMILY in (f_lo.family, f_up.family)

    if np_involved and f_lo.family != NP_FAMILY:
        raise SolverError(
            f"unexpected non-physical collision geometry at x={xh}: "
            f"families {f_lo.family}, {f_up.family}"
        )
    if not np_involved and abs(f_lo.sigma * f_up.sigma) > rho_threshold:
        sol = solve_riemann(U0, U2, gas)
        new_fronts, _ = _emit_riemann(sol, U0, xh, yh, gas, cfg.nu)
        solver = "ARS"
    else:
        # simplified resolution: transmit strengths, lump the rest into a carrier
        if f_up.family == NP_FAMILY:
            # two carriers (equal design speed; a perturbed one was caught):
            # merge into one spanning gap, which cannot exceed the sum
            waves = []
        elif np_involved:
            # the carrier moves the wave's base state by its own tiny jump and
            # leaves its strength: f_up's solution starts the transmitted solve
            waves = [(f_up.family, f_up.sigma, f_up)]
        elif f_lo.family == f_up.family:
            waves = [(f_lo.family, f_lo.sigma + f_up.sigma, None)]
        else:
            # canonical family order from below: the faster (higher) family ends
            # up above the slower one after crossing.  This also keeps the two
            # contact families in their composition order when a perturbed
            # 2-front grazes a 3-front, where the maps commute exactly and the
            # touch must transmit both strengths without creating new potential.
            # Each wave keeps its strength, and its base state moves by the
            # other wave: its own old front starts its shock solve.
            waves = sorted([(f_up.family, f_up.sigma, f_up), (f_lo.family, f_lo.sigma, f_lo)],
                           key=operator.itemgetter(0))
        new_fronts = _transmit(U0, waves, U2, xh, yh, gas, cfg.nu, lambda_hat)
        solver = "SRS"

    rec = EventRecord("interaction", solver, xh, yh, (f_lo, f_up), new_fronts, emech)
    return (i, i + 2, new_fronts, None), rec


def _transmit(U0, waves, U2, xh, yh, gas, nu, lambda_hat):
    """Physical fronts for `waves` stacked from U0, then a carrier up to U2.

    `waves` are ``(family, sigma, near)`` triples: `near` is the front
    the wave was before it crossed another front and kept its strength
    (see :func:`_emit_wave`), else None.
    """
    fronts = []
    cur = U0
    for family, sigma, near in waves:
        fr, cur = _emit_wave(cur, family, sigma, xh, yh, gas, nu, near)
        fronts.extend(fr)
    npf = _np_front(cur, U2, xh, yh, lambda_hat)
    if npf is not None:
        fronts.append(npf)
    elif fronts:
        # close the (tiny) gap exactly by reattaching the upper state
        fronts[-1] = replace(fronts[-1], above=U2)
    return fronts


def _resolve_boundary(slice_, event, boundary, cfg, gas):
    i = event.index
    f = slice_.fronts[i]
    if i != len(slice_.fronts) - 1:
        raise SolverError("only the top front can reach the wall")
    xh = event.x
    yh = boundary.g_at(xh)
    U_below = f.below

    if f.family == NP_FAMILY:
        # the wall absorbs a carrier: strength 0 is no wave at all
        sigma, wave, kind, emech = 0.0, None, "np_boundary", 0.0
    elif f.family in (2, 3, 4):
        sigma, wave = reflect_at_boundary(U_below, f.family, boundary.theta_at(xh), gas)
        kind, emech = "boundary", abs(f.sigma)
    else:
        raise SolverError(f"family-1 front reached the wall at x={xh}")
    new_fronts, top = _emit_wave(U_below, 1, sigma, xh, yh, gas, cfg.nu, solved=wave)

    rec = EventRecord(kind, "boundary", xh, yh, (f,), new_fronts, emech)
    return (i, i + 1, new_fronts, top), rec


def _resolve_corner(slice_, event, boundary, cfg, gas):
    k = event.index
    xh, yh, omega = boundary.xs[k], boundary.gs[k], boundary.omegas[k]
    U_top = slice_.top_state
    sigma1, wave = solve_boundary_riemann(U_top, boundary.thetas[k], gas)
    new_fronts, top = _emit_wave(U_top, 1, sigma1, xh, yh, gas, cfg.nu, solved=wave)
    rec = EventRecord("corner", "boundary", xh, yh, (), new_fronts, abs(omega), omega)
    n = len(slice_.fronts)
    return (n, n, new_fronts, top), rec


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def run(data: InitialData, boundary: BoundaryPolyline, cfg: EngineConfig,
        gas: GasParams, prefix: Trajectory | None = None) -> Trajectory:
    """Track all fronts from x = 0 to x = x_end.

    Stores the slice after every event plus the final slice at x_end in
    a :class:`SliceLog`: after each event the live slice's pending edits
    move into the log.  Deterministic for fixed inputs: the only
    randomness is the seeded tie-breaking perturbation stream.

    `prefix` is an earlier run of the same data, `cfg` and `gas` over
    another wall.  The run takes over its stored slices and records up
    to where the two walls part (see :func:`_shared_slices`) and tracks
    on from there; the result is the same as without it.
    """
    k = -1 if prefix is None else _shared_slices(prefix, data, boundary, cfg, gas)
    if k < 0:
        cur = initialize(data, boundary, cfg, gas)
        rho_threshold = cfg.rho_threshold
        if rho_threshold is None:
            rho_threshold = 2.0 ** (-cfg.nu) * total_strength(f.sigma for f in cur.fronts)
        lambda_hat = default_lambda_hat(gas)
        log, records = SliceLog(cur), []
        cur.edits = []
    else:
        log, records = prefix.slices.head(k + 1), prefix.records[:k]
        sl = log[k]
        # bounds made at a slice's station hold at every later one, and the
        # scan finds the same events with any valid bounds; the live slice
        # edits its own copy of the fronts, which `prefix` may hold
        cur = SolutionSlice(sl.x, list(sl.fronts), sl.top_state,
                            _pair_columns(sl.fronts, sl.x), [])
        rho_threshold, lambda_hat = prefix.rho_threshold, prefix.lambda_hat
    _track(cur, log, records, boundary, cfg, gas, rho_threshold, lambda_hat,
           np.random.default_rng(cfg.seed))
    return Trajectory(gas, cfg, boundary, data, log, records, rho_threshold, lambda_hat)


def _track(cur: SolutionSlice, log: SliceLog, records: list, boundary: BoundaryPolyline,
           cfg: EngineConfig, gas: GasParams, rho_threshold: float, lambda_hat: float,
           rng) -> None:
    """Track from the live slice `cur`, the last of `log`, to x_end.

    Appends each later stored slice to `log` and each event's record to
    `records`; the budget of ``_MAX_EVENTS`` events counts the records
    already there.
    """
    for _ in range(_MAX_EVENTS - len(records)):
        try:
            event, cur = next_event(cur, boundary, cfg, gas, lambda_hat, rng)
        except (SolverError, CurveError) as exc:
            raise SolverError(
                f"event scheduling at x={cur.x:.6f} failed: {exc}; "
                f"slice has {len(cur.fronts)} fronts"
            ) from exc
        if event.kind == "end":
            log.append(SolutionSlice(cfg.x_end, cur.fronts, cur.top_state), cur.edits)
            return
        try:
            cur, rec = resolve_event(cur, event, boundary, cfg, gas,
                                     rho_threshold, lambda_hat)
        except (SolverError, CurveError) as exc:
            raise SolverError(
                f"event {event.kind} at x={event.x:.6f} failed: {exc}; "
                f"slice has {len(cur.fronts)} fronts"
            ) from exc
        edits, cur.edits = cur.edits, []
        log.append(cur, edits)
        records.append(rec)
    raise SolverError(f"event budget {_MAX_EVENTS} exhausted at x={cur.x}")


def _parting_station(a: BoundaryPolyline, b: BoundaryPolyline) -> float:
    """The station of the first corner where walls `a` and `b` differ.

    +inf for equal walls and 0 for walls of different corner spacing.
    Below it the walls have the same segments, corners and turning
    angles, so every wall hit or corner that one wall adds to an event
    scan and the other does not lies at or after it, less the 1e-14
    slack of :func:`_wall_hit`.
    """
    if a.h != b.h:
        return 0.0
    rows_a = zip(a.xs, a.gs, a.thetas, a.omegas)
    for ra, rb in zip(rows_a, zip(b.xs, b.gs, b.thetas, b.omegas)):
        if ra != rb:
            return ra[0]
    return math.inf if a.k_star == b.k_star else a.xs[min(a.k_star, b.k_star)]


def _shared_slices(prefix: Trajectory, data: InitialData, boundary: BoundaryPolyline,
                   cfg: EngineConfig, gas: GasParams) -> int:
    """Index of the last stored slice of `prefix` that a run over
    `boundary` makes as well, or -1 if it shares none.

    The flow is hyperbolic in x.  While the earliest event lies below
    the parting station (:func:`_parting_station`) less
    ``2*_COINCIDENCE_TOL``, it and every event within
    ``_COINCIDENCE_TOL`` of it are the same over both walls, so both
    runs resolve the same events.  The shared slices stop before the
    first one a coincidence perturbation leads to: up to there neither
    run has drawn from its seeded stream, so the run goes on with a
    fresh one.
    """
    if prefix.cfg != cfg or prefix.gas != gas or prefix.data != data:
        raise ValueError("prefix run has other inflow data, engine settings or gas")
    cut = _parting_station(prefix.boundary, boundary) - 2.0 * _COINCIDENCE_TOL
    log = prefix.slices
    k = -1
    for i in range(len(prefix.records) + 1):
        if not (log.xs[i] < cut and len(log._edits[i]) <= 1):
            break
        k = i
    return k


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trajectory(traj: Trajectory, fh) -> None:
    """Write the :func:`export_trajectory` text to the text stream `fh`.

    One ``fh.write`` per stored slice, so the text of a long run never
    sits in memory whole.
    """
    cfg, gas = traj.cfg, traj.gas
    values = ",".join([_fmt(cfg.x_end), _fmt(cfg.h), str(cfg.nu), _fmt(gas.tau),
                       _fmt(gas.gamma), _fmt(gas.a_inf), str(cfg.seed)])
    fh.write(f"x_end,h,nu,tau,gamma,a_inf,seed\n{values}\n")
    for sl in traj.slices:
        lines = [f"SLICE x={_fmt(sl.x)}"]
        states = sl.states
        for k in range(len(sl.fronts), -1, -1):
            s = states[k]
            lines.append(f"state,{_fmt(s.rho)},{_fmt(s.u)},{_fmt(s.v)},{_fmt(s.p)}")
            if k > 0:
                f = sl.fronts[k - 1]
                lines.append(f"front,{f.family},{_fmt(f.sigma)},{_fmt(f.y_at(sl.x))},"
                             f"{_fmt(f.speed)}")
        fh.write("\n".join(lines) + "\n")


def export_trajectory(traj: Trajectory) -> str:
    """Text dump of every stored slice, top down, 17 significant digits."""
    buf = io.StringIO()
    write_trajectory(traj, buf)
    return buf.getvalue()
