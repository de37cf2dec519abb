"""The benchmark's workloads: input generators, operations, output summaries.

Three workloads, chosen to load different layers (see ``bench/README.md``
for the measured reasons):

* ``stress``: one tracked run per operation, hundreds of fronts, the
  simplified solver only.  Loads ``tracking`` scheduling, the trajectory
  store and the ``curves`` shock path.
* ``pairs``: one operation is one paired run in the style of acceptance
  criterion 7, with the Lyapunov-type functional and the L1 distance at
  four stations.  At most ~31 fronts; loads ``hugoniot_decompose`` and
  rarefaction work.
* ``sweep``: one operation is one public experiment driver call at its
  defaults.  Many short runs, so per-run fixed cost dominates; the only
  workload that goes through the drivers' thread pools and quadrature.

Every input comes from a finite pool, so each operation has a reference
output recorded in ``reference.json``; the workload seed picks the
batch from the pool.

Inputs are built only through public constructors (``State``,
``InitialData``, ``approximate_boundary``, ``EngineConfig``,
``ExperimentConfig``).  Every operation calls the program through module
attributes, so the tracer's wrappers see it.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

import hyperwedge.experiments as experiments
import hyperwedge.functionals as functionals
import hyperwedge.tracking as tracking
from hyperwedge.euler import GasParams, State
from hyperwedge.riemann import TRUST_RADIUS

GAS = GasParams(gamma=1.4, a_inf=2.0, tau=0.1)

# ---------------------------------------------------------------------------
# inflow data
# ---------------------------------------------------------------------------


def _in_domain(s: State, bg: State, gas: GasParams, wall_slopes) -> bool:
    """True if `s` and its wall-turned image stay inside the trust box.

    Turning a state of transverse slope ``v`` onto a wall of slope ``w``
    takes one family-1 wave that changes the density by about
    ``a_inf * (v - w)`` (the jump ``special_pair`` pins).  The state next
    to the wall can be any inflow state once the waves above it have
    reached the wall, so every state must pass this for every wall slope.
    """
    dev = (abs(s.rho - bg.rho), abs(s.u - bg.u), abs(s.v - bg.v), abs(s.p - bg.p))
    if max(dev) >= TRUST_RADIUS:
        return False
    return all(abs(s.rho - bg.rho + gas.a_inf * (s.v - w)) < TRUST_RADIUS
               for w in wall_slopes)


def stepped_walk(gas: GasParams, seed: int, amplitude: float, n_steps: int,
                 wall_slopes, jitter_seed: int | None = None,
                 jitter: float = 0.0) -> tracking.InitialData:
    """Random-walk inflow data that stays inside the trust domain by construction.

    The draws are those of the program's own stepped data: ``n_steps``
    uniform steps in ``[-amplitude, amplitude]^4`` (relative in density
    and pressure), then the sorted jump heights in ``[-1.4, -0.2]``.  A
    step that would leave the domain of :func:`_in_domain` is replaced by
    its negation, then by halvings of both, until the new state passes;
    the zero step always does, so no seed is ever dropped and the draw
    count never changes.  Seeds whose walk never leaves the domain (seeds
    0 to 3 among them) give exactly the program's data.

    With `jitter_seed`, every step is scaled by ``1 + jitter*U(-1, 1)``
    per component and every jump height moved by ``jitter*U(-1, 1)``,
    drawn from a second generator: same wave pattern, different numbers.
    """
    rng = np.random.default_rng(seed)
    steps = [rng.uniform(-amplitude, amplitude, 4) for _ in range(n_steps)]
    breaks = np.sort(rng.uniform(-1.4, -0.2, n_steps))
    if jitter_seed is not None:
        jrng = np.random.default_rng(jitter_seed)
        steps = [d * (1.0 + jitter * jrng.uniform(-1.0, 1.0, 4)) for d in steps]
        breaks = np.sort(breaks + jitter * jrng.uniform(-1.0, 1.0, n_steps))
    bg = gas.background()
    states = [bg]
    for d in steps:
        prev = states[-1]
        for trial in (d, -d, 0.5 * d, -0.5 * d, 0.25 * d, -0.25 * d, 0.0 * d):
            nxt = State(prev.rho * (1.0 + trial[0]), prev.u + trial[1],
                        prev.v + trial[2], prev.p * (1.0 + trial[3]))
            if _in_domain(nxt, bg, gas, wall_slopes):
                break
        states.append(nxt)
    return tracking.InitialData(breaks, tuple(states))


def _independent_steps(gas: GasParams, seed: int, amplitude: float,
                       n_steps: int) -> tracking.InitialData:
    """Criterion-7 data: `n_steps` states drawn independently around background."""
    rng = np.random.default_rng(seed)
    pb = gas.p_background
    states = [gas.background()]
    for _ in range(n_steps):
        d = rng.uniform(-amplitude, amplitude, size=4)
        states.append(State(1.0 + d[0], d[1], d[2], pb * (1.0 + d[3])))
    breaks = np.sort(rng.uniform(-1.4, -0.2, size=n_steps))
    return tracking.InitialData(np.asarray(breaks), tuple(states))


def _stratified(pool: list, cost, n: int, rng) -> list:
    """One member of each of `n` equal strata of `pool` ordered by `cost`.

    Every batch then holds cheap and dear inputs in the same proportion,
    so batches of different seeds do comparable work.
    """
    ordered = sorted(pool, key=lambda item: (cost(item), str(item)))
    return [part[int(rng.integers(len(part)))]
            for part in (ordered[i * len(ordered) // n:(i + 1) * len(ordered) // n]
                         for i in range(n))]


# ---------------------------------------------------------------------------
# stress
# ---------------------------------------------------------------------------

STRESS_POOL = 16
STRESS_JITTER = 1.0e-2
STRESS_STATIONS = (0.25, 0.5, 0.75, 1.0)


def _stress_g(x: float) -> float:
    return -0.005 * x - 0.002 * x * x


#: the stress wall's slope g'(x) at x = 0 and at x_end = 1
STRESS_WALL_SLOPES = (-0.005, -0.009)


def stress_keys(seed: int, ref: dict) -> list:
    return [f"stress/{seed % STRESS_POOL}"]


def stress_input(k: int):
    """(data, wall, engine) of one stress run; pool index 0 is the ROADMAP run."""
    cfg = tracking.EngineConfig(h=1.0 / 64.0, nu=10)
    wall = tracking.approximate_boundary(_stress_g, cfg.h, x_max=2.0 * cfg.x_end)
    data = stepped_walk(GAS, 0, 5.0e-3, 8, STRESS_WALL_SLOPES,
                        jitter_seed=k if k else None, jitter=STRESS_JITTER)
    return data, wall, cfg


def stress_op(inputs):
    data, wall, cfg = inputs
    return tracking.run(data, wall, cfg, GAS)


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

PAIRS_POOL = 128  # data seeds; even ones shift the data, odd ones the wall
PAIRS_PER_BATCH = 16
PAIR_STATIONS = (0.25, 0.5, 0.75, 1.0)


def _wedge(slope: float):
    return tracking.approximate_boundary(lambda x: slope * x, 1.0 / 32.0, x_max=2.5)


def pairs_keys(seed: int, ref: dict) -> list:
    """Half even, half odd pool seeds, each half stratified by events."""
    events = ref["events"]
    rng = np.random.default_rng(seed)
    half = PAIRS_PER_BATCH // 2
    keys = []
    for parity in (0, 1):
        pool = [f"pairs/{k}" for k in range(parity, PAIRS_POOL, 2)]
        keys += _stratified(pool, lambda key: events[key], half, rng)
    return sorted(keys, key=lambda key: int(key.split("/")[1]))


@functools.lru_cache(maxsize=1)
def _lyapunov_weights():
    return functionals.LyapunovWeights.from_background(GAS)


def pair_input(k: int):
    cfg = tracking.EngineConfig(nu=8, x_end=1.0, seed=k)
    data_u = _independent_steps(GAS, k, 2.0e-4, 3)
    wall_u = _wedge(-0.01)
    if k % 2 == 0:
        data_v = tracking.InitialData(
            data_u.breaks, tuple(replace(s, v=s.v + 5.0e-4) for s in data_u.states))
        wall_v = wall_u
    else:
        data_v, wall_v = data_u, _wedge(-0.01 + 5.0e-4)
    return data_u, wall_u, data_v, wall_v, cfg, _lyapunov_weights()


@dataclass
class PairResult:
    traj_u: object
    traj_v: object
    values: list  # per station: (lyapunov interior, lyapunov tail, l1 distance)


def pairs_op(inputs):
    data_u, wall_u, data_v, wall_v, cfg, weights = inputs
    t_u = tracking.run(data_u, wall_u, cfg, GAS)
    t_v = tracking.run(data_v, wall_v, cfg, GAS)
    lam = t_u.lambda_hat
    values = []
    for x in PAIR_STATIONS:
        s_u, s_v = t_u.slice_at(x), t_v.slice_at(x)
        val = functionals.lyapunov_functional(s_u, s_v, wall_u, wall_v, weights, GAS,
                                              x_horizon=2.0)
        g_low = min(wall_u.g_at(x), wall_v.g_at(x))
        dist = functionals.l1_distance(s_u, s_v, (g_low - 2.0 * lam * x - 1.0, g_low))
        values.append((val.interior, val.boundary_tail, dist))
    return PairResult(t_u, t_v, values)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_POOL = 32  # engine seeds
SWEEP_SEEDS_PER_BATCH = 8
SWEEP_EPS = (1.0e-3, 1.0e-4)
SWEEP_CANDIDATES = 16


def sweep_keys(seed: int, ref: dict) -> list:
    """Both special-solution calls, then convergence and stability for
    engine seeds balanced on their recorded cost and events.

    Events predict a sweep call's time poorly (a fixed cost per tracked
    run dominates), so batches stratified by events alone still differ
    in time and in events per second.  Of SWEEP_CANDIDATES batches
    stratified by recorded cost, the one whose total cost and events are
    nearest the pool's means is used.
    """
    rng = np.random.default_rng(seed)
    pool = range(SWEEP_POOL)
    cost = {k: ref["cost_s"][f"converge/{k}"] + ref["cost_s"][f"stability/{k}"] for k in pool}
    events = {k: ref["events"][f"converge/{k}"] + ref["events"][f"stability/{k}"] for k in pool}
    n = SWEEP_SEEDS_PER_BATCH
    mean_cost = n * sum(cost.values()) / len(pool)
    mean_events = n * sum(events.values()) / len(pool)

    def miss(batch):
        return (abs(math.log(sum(cost[k] for k in batch) / mean_cost))
                + abs(math.log(sum(events[k] for k in batch) / mean_events)))

    candidates = [_stratified(list(pool), cost.get, n, rng) for _ in range(SWEEP_CANDIDATES)]
    keys = [f"special/{i}" for i in range(len(SWEEP_EPS))]
    for k in sorted(min(candidates, key=miss)):
        keys += [f"converge/{k}", f"stability/{k}"]
    return keys


def sweep_input(kind: str, k: int):
    if kind == "special":
        return kind, experiments.ExperimentConfig(scenario="special", eps=SWEEP_EPS[k])
    engine = tracking.EngineConfig(seed=k)
    scenario = "wedge" if kind == "converge" else "stability"
    return kind, experiments.ExperimentConfig(scenario=scenario, engine=engine)


def sweep_op(inputs):
    kind, cfg = inputs
    if kind == "special":
        return experiments.run_special_solution(cfg)
    if kind == "converge":
        return experiments.run_convergence(cfg)
    return experiments.run_stability(cfg)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: workload -> (keys of the batch for a seed and the reference record, operation)
WORKLOADS = {
    "stress": (stress_keys, stress_op),
    "pairs": (pairs_keys, pairs_op),
    "sweep": (sweep_keys, sweep_op),
}


def make_input(key: str):
    """The operation input behind one reference key, built from scratch."""
    kind, k = key.split("/")
    if kind == "stress":
        return stress_input(int(k))
    if kind == "pairs":
        return pair_input(int(k))
    return sweep_input(kind, int(k))


def build(workload: str, seed: int, ref: dict) -> list:
    """The batch of one run: (reference key, operation input) in execution order.

    `ref` is ``reference.json``: its ``events`` map every pool key to the
    recorded event count, its ``cost_s`` every sweep key to the recorded
    time in reference seconds.
    """
    return [(key, make_input(key)) for key in WORKLOADS[workload][0](seed, ref)]


def pool_keys(workload: str) -> list:
    """Every key a seed of `workload` can select."""
    if workload == "stress":
        return [f"stress/{k}" for k in range(STRESS_POOL)]
    if workload == "pairs":
        return [f"pairs/{k}" for k in range(PAIRS_POOL)]
    return ([f"special/{i}" for i in range(len(SWEEP_EPS))]
            + [f"{kind}/{k}" for kind in ("converge", "stability") for k in range(SWEEP_POOL)])


# ---------------------------------------------------------------------------
# output summaries (compared against reference.json)
# ---------------------------------------------------------------------------

def _slice_summary(sl, boundary, lam_hat) -> dict:
    """Front count, top state, per-family strength sums and strip integrals."""
    x = sl.x
    g = boundary.g_at(x)
    lo, hi = g - 2.0 * lam_hat * x - 1.0, g
    bg = GAS.background().as_array()
    ys = [f.y_at(x) for f in sl.fronts]
    edges = [lo] + [min(max(y, lo), hi) for y in ys] + [hi]
    signed = np.zeros(4)
    absolute = np.zeros(4)
    for st, a, b in zip(sl.states, edges, edges[1:]):
        dev = st.as_array() - bg
        signed += dev * (b - a)
        absolute += np.abs(dev) * (b - a)
    strengths = np.zeros(5)
    for f in sl.fronts:
        strengths[min(f.family, 5) - 1] += abs(f.sigma)
    return {"n": len(sl.fronts), "top": sl.states[-1].as_array().tolist(),
            "signed": signed.tolist(), "abs": absolute.tolist(),
            "strengths": strengths.tolist()}


def trajectory_digest(traj, chunk: int = 256) -> str:
    """sha256 of ``export_trajectory(traj)``, exported a few slices at a time.

    The text of the stress run is about 480 MB; exporting chunks of the
    slice list and skipping each chunk's two header lines yields the same
    bytes with bounded memory.
    """
    h = hashlib.sha256()
    slices = traj.slices
    for start in range(0, max(len(slices), 1), chunk):
        text = tracking.export_trajectory(replace(traj, slices=slices[start:start + chunk]))
        if start:
            text = text.split("\n", 2)[2]
        h.update(text.encode())
    return h.hexdigest()


def summarize(workload: str, key: str, result, digest: bool) -> dict:
    """Comparable summary of one operation's output.

    Events and front counts compare exactly; every float compares within
    ``REL_TOL``.  Digests are information only.
    """
    if workload == "stress":
        traj = result
        out = {"events": len(traj.records),
               "stations": [_slice_summary(traj.slice_at(x), traj.boundary, traj.lambda_hat)
                            for x in STRESS_STATIONS]}
        if digest:
            out["digest"] = [trajectory_digest(traj)]
        return out
    if workload == "pairs":
        out = {"events": [len(result.traj_u.records), len(result.traj_v.records)],
               "values": [list(v) for v in result.values]}
        if digest:
            out["digest"] = [trajectory_digest(result.traj_u),
                             trajectory_digest(result.traj_v)]
        return out
    kind = key.split("/")[0]
    if kind == "special":
        return {"slope": result.fit.slope, "errors": list(result.fit.errors),
                "coefficients": [row.measured for row in result.coefficients]}
    if kind == "converge":
        return {"slope": result.slope, "errors": list(result.errors)}
    return {"rows": [[r.input_delta, r.output_delta] for r in result.rows],
            "max_ratio": result.max_ratio}


#: relative tolerance of every float in a summary (absolute below FLOOR)
REL_TOL = 1.0e-6
FLOOR = 1.0e-12


def compare(got, ref) -> tuple[bool, float]:
    """(matches, largest relative difference) of two summaries; digests skipped."""
    worst = 0.0
    ok = True

    def walk(a, b):
        nonlocal worst, ok
        if isinstance(b, dict):
            if not isinstance(a, dict):
                ok = False
                return
            for k, v in b.items():
                if k == "digest":
                    continue
                if k not in a:
                    ok = False
                    continue
                walk(a[k], v)
        elif isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                ok = False
                return
            for x, y in zip(a, b):
                walk(x, y)
        elif isinstance(b, int) and not isinstance(b, bool):
            ok = ok and a == b
        else:
            a, b = float(a), float(b)
            if not (math.isfinite(a) and math.isfinite(b)):
                ok = False
                return
            rel = abs(a - b) / max(abs(b), FLOOR)
            worst = max(worst, rel)
            ok = ok and rel <= REL_TOL

    walk(got, ref)
    return ok, worst
