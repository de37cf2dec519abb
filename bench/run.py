"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload stress|pairs|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is built or installed.

``--trace 0`` times the workload's batch of operations again and again
until ``--seconds`` have passed, each operation next to the same
operation on the frozen seed copy of the program (``seedref.py``), and
prints the end-to-end metrics with times in reference seconds: the
program's time over the seed copy's, times the seed copy's recorded
time (see ``bench/README.md``).
``--trace 1`` runs the batch once untraced and once traced and prints
the per-layer metrics; one pass each keeps the counts deterministic.
Either way every operation's output is compared with ``reference.json``
and a mismatch counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON record of the environment and of details behind the
metrics (tail percentile, sample counts, output differences).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SEED_SRC = os.path.join(BENCH, "seed")
SETUP_REPS = 5

# name -> (unit, better); the order is the print order
END_TO_END = {
    "wall_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def _per_layer_names() -> dict:
    out = {}

    def calls_self(prefix):
        out[f"{prefix}.calls"] = ("count", "lower")
        out[f"{prefix}.self_s"] = ("s", "lower")

    for fn in ("next_event", "resolve_event", "run", "slice_at"):
        calls_self(f"tracking.{fn}")
    out["tracking.events"] = ("count", "lower")
    for kind in ("interaction_srs", "interaction_ars", "boundary", "np_boundary", "corner"):
        out[f"tracking.events.{kind}"] = ("count", "lower")
    out["tracking.fronts_max"] = ("count", "lower")
    out["tracking.fronts_mean"] = ("count", "lower")
    out["tracking.coincidence_perturbations"] = ("count", "lower")
    out["tracking.front_refs_stored"] = ("count", "lower")
    for kind in ("shock", "rarefaction", "contact", "zero"):
        calls_self(f"curves.wave_curve.{kind}")
    for fn in ("shock_speed", "hugoniot_curve", "damped_newton"):
        calls_self(f"curves.{fn}")
    out["curves.damped_newton.residual_evals"] = ("count", "lower")
    out["curves.damped_newton.failures"] = ("count", "lower")
    out["curves.shock_solves"] = ("count", "lower")
    out["curves.shock_fronts"] = ("count", "lower")
    out["curves.shock_solves_per_front"] = ("ratio", "lower")
    out["curves.newton_residuals_per_solve"] = ("ratio", "lower")
    for fn in ("solve_riemann", "solve_boundary_riemann", "reflect_at_boundary",
               "hugoniot_decompose", "sample_riemann_fan"):
        calls_self(f"riemann.{fn}")
    out["riemann.failures"] = ("count", "lower")
    for fn in ("lyapunov_functional", "l1_distance"):
        calls_self(f"functionals.{fn}")
    out["experiments.driver.self_s"] = ("s", "lower")
    calls_self("experiments.fan_l1_distance")
    out["experiments.pool_overlap"] = ("ratio", "lower")
    for fn in ("fluxes", "eigenvalue", "eigenvector"):
        out[f"euler.{fn}.calls"] = ("count", "lower")
    for layer in ("tracking", "curves", "riemann", "functionals", "experiments"):
        out[f"{layer}.self_s"] = ("s", "lower")
    out["trace.untraced_wall_s"] = ("s", "lower")
    out["trace.wall_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["check.output_max_rel_diff"] = ("ratio", "lower")
    out["check.trajectories_compared"] = ("count", "higher")
    out["check.trajectories_differing"] = ("count", "lower")
    return out


PER_LAYER = _per_layer_names()

# a fresh interpreter that imports the program from argv[1] and builds one batch
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import json, workloads
with open(sys.argv[2] + "/reference.json") as fh:
    reference = json.load(fh)
workloads.build(sys.argv[3], int(sys.argv[4]), reference)
print(repr(time.perf_counter() - t0))
"""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import hyperwedge from this checkout's src/ and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "hyperwedge", "__init__.py")):
        _fail(f"no program sources at {SRC}/hyperwedge; run from a source checkout")
    sys.path.insert(0, SRC)
    import hyperwedge

    if os.path.dirname(os.path.abspath(hyperwedge.__file__)) != os.path.join(SRC, "hyperwedge"):
        _fail(f"hyperwedge imported from {hyperwedge.__file__}, not from {SRC}")
    import workloads

    return workloads


def _reference() -> dict:
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


def _setup_seconds(workload: str, seed: int) -> tuple[list, list]:
    """Set-up times (import + input build) of SETUP_REPS fresh interpreters
    each for the program and for the seed copy, taken in turn."""
    times = {SRC: [], SEED_SRC: []}
    for rep in range(SETUP_REPS):
        for src in (SRC, SEED_SRC) if rep % 2 == 0 else (SEED_SRC, SRC):
            out = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, src, BENCH, workload, str(seed)],
                capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
            times[src].append(float(out.stdout.strip().splitlines()[-1]))
    return times[SRC], times[SEED_SRC]


class SeedCopy:
    """The seed copy of the program in a child process (``seedref.py``),
    running one operation at a time on request."""

    def __init__(self, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "seedref.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the seed copy did not start")

    def time_op(self, key: str) -> float:
        """Wall seconds of one run of the operation on `key`'s input."""
        self.proc.stdin.write(f"{key}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _tail(latencies: list):
    """(value, percentile, samples beyond) of the tail latency, or None.

    The highest whole percentile with at least ten samples beyond it;
    None when that is not above the median (fewer than 20 samples).
    """
    n = len(latencies)
    ordered = sorted(latencies)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if pct <= 50:
        return None
    k = (n - 1) * pct / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)
    return value, pct, sum(1 for x in ordered if x > value)


class Checker:
    """Compares operation outputs with the recorded references."""

    def __init__(self, workloads, workload: str, reference: dict, digests: bool):
        self.w = workloads
        self.workload = workload
        self.ref = reference["outputs"]
        self.digests = digests
        self.max_rel_diff = 0.0
        self.compared = 0
        self.differing = 0
        self.mismatched: list = []

    def check(self, key: str, result) -> bool:
        ref = self.ref.get(key)
        if ref is None:
            self.mismatched.append(f"{key}: no reference")
            return False
        got = self.w.summarize(self.workload, key, result, self.digests)
        ok, rel = self.w.compare(got, ref)
        self.max_rel_diff = max(self.max_rel_diff, rel)
        if "digest" in got:
            self.compared += len(got["digest"])
            self.differing += sum(1 for a, b in zip(got["digest"], ref["digest"]) if a != b)
        if not ok:
            self.mismatched.append(key)
        return ok


def _run_pass(batch, op, checker, stats, tracer=None, seed_copy=None, copy_first=False):
    """Run every operation once; returns the summed operation latency.

    With `seed_copy`, each operation also runs once on the seed copy,
    right before the program's run if `copy_first`, else right after.
    """
    from hyperwedge.curves import CurveError
    from hyperwedge.euler import DomainError
    from hyperwedge.riemann import SolverError

    total = 0.0
    for i, (key, inp) in enumerate(batch):
        if seed_copy is not None and copy_first:
            stats["seed_latencies"].setdefault(key, []).append(seed_copy.time_op(key))
        stats["attempted"] += 1
        if tracer is not None:
            tracer.op_id = i + 1
        t0 = time.perf_counter()
        try:
            result = op(inp)
        except (SolverError, CurveError, DomainError) as exc:
            dt = time.perf_counter() - t0
            stats["failed"] += 1
            stats["errors"].append(f"{key}: {type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            if not checker.check(key, result):
                stats["failed"] += 1
            del result  # one output alive at a time, as a user would hold it
        stats["latencies"].setdefault(key, []).append(dt)
        total += dt
        if seed_copy is not None and not copy_first:
            stats["seed_latencies"].setdefault(key, []).append(seed_copy.time_op(key))
    return total


def _environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "hyperwedge")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, cwd=ROOT)
        except OSError:
            out = None
        if out is not None and out.returncode == 0:
            commit = out.stdout.strip()
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _layer_metrics(tracer, untraced_wall: float, traced_wall: float, checker,
                   spans_path: str) -> dict:
    from spans import DRIVERS, SPAN_LAYERS

    stats, counts, spans = tracer.totals()
    tracer.write_spans(spans_path, spans)

    def calls(span):
        return stats[span][0] if span in stats else 0

    def self_s(span):
        return stats[span][1] if span in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls" and not name.startswith("euler."):
            m[name] = calls(base)
        elif field == "self_s":
            m[name] = self_s(base)
        else:
            m[name] = counts.get(name, 0)
    m["experiments.driver.self_s"] = sum(self_s(f"experiments.{d}") for d in DRIVERS)
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = sum((v[1] for k, v in stats.items()
                                    if k.startswith(layer + ".")), 0.0)
    m["tracking.events"] = sum(m[f"tracking.events.{k}"] for k in
                               ("interaction_srs", "interaction_ars", "boundary",
                                "np_boundary", "corner"))
    m["tracking.fronts_mean"] = ratio(counts.get("tracking.fronts_sum", 0),
                                      counts.get("tracking.fronts_samples", 0))
    m["curves.shock_solves_per_front"] = ratio(m["curves.shock_solves"],
                                               m["curves.shock_fronts"])
    m["curves.newton_residuals_per_solve"] = ratio(m["curves.damped_newton.residual_evals"],
                                                   m["curves.damped_newton.calls"])
    m["experiments.pool_overlap"] = ratio(counts.get("experiments.pool.run_s", 0.0),
                                          counts.get("experiments.pool.driver_s", 0.0))
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["check.output_max_rel_diff"] = checker.max_rel_diff
    m["check.trajectories_compared"] = checker.compared
    m["check.trajectories_differing"] = checker.differing
    return m


def _emit(info: dict, stats: dict, checker, metrics: dict, units: dict) -> None:
    info["ops_failed_frac"] = stats["failed"] / stats["attempted"]
    info["output_max_rel_diff"] = checker.max_rel_diff
    info["trajectory_identical"] = (checker.differing == 0) if checker.compared else None
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        _fail("--seed must be >= 0 and --seconds > 0")

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    from spans import EventProbe, Tracer

    op = workloads.WORKLOADS[args.workload][1]
    reference = _reference()
    info = _environment(args.workload, args.seed)
    info["reference_commit"] = reference["commit"]
    info["rel_tol"] = workloads.REL_TOL
    stats = {"attempted": 0, "failed": 0, "latencies": {}, "seed_latencies": {}, "errors": []}

    setup, seed_setup = ([], []) if args.trace else _setup_seconds(args.workload, args.seed)
    batch = workloads.build(args.workload, args.seed, reference)
    checker = Checker(workloads, args.workload, reference,
                      digests=args.workload == "pairs" or bool(args.trace))

    seed_copy = None
    probe = EventProbe()
    probe.install()
    passes = []
    try:
        if not args.trace:
            seed_copy = SeedCopy(args.workload)
        t_start = time.perf_counter()
        while True:
            passes.append(_run_pass(batch, op, checker, stats, seed_copy=seed_copy,
                                    copy_first=len(passes) % 2 == 1))
            if args.trace or time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        probe.uninstall()
        if seed_copy is not None:
            seed_copy.close()
    info.update(passes=len(passes), ops_per_pass=len(batch), events=probe.events,
                mismatched=checker.mismatched, errors=stats["errors"])

    if args.trace:
        checker.digests = False  # the untraced pass already compared them
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall = _run_pass(batch, op, checker, stats, tracer)
        finally:
            tracer.uninstall()
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.csv")
        metrics = _layer_metrics(tracer, passes[0], traced_wall, checker, spans_path)
        info["spans_csv"] = os.path.relpath(spans_path, ROOT)
        info["trace_overhead_s"] = metrics["trace.overhead_s"]
        _emit(info, stats, checker, metrics, PER_LAYER)
        return 0

    # reference seconds: an operation's latency is its best time over the
    # passes times the host factor, the seed copy's recorded mean batch time
    # over the sum of its best times here
    cost = reference["cost_s"]
    seed_best = {key: min(v) for key, v in stats["seed_latencies"].items()}
    host = cost[f"batch/{args.workload}"] / sum(seed_best.values())
    latency = [min(v) * host for v in stats["latencies"].values()]
    wall = sum(latency)
    metrics = {
        "wall_s": wall,
        "op_p50_s": statistics.median(latency),
        "events_per_s": probe.events / len(passes) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # each program set-up over the seed copy's taken next to it
        "setup_s": (statistics.median(a / b for a, b in zip(setup, seed_setup))
                    * cost[f"setup/{args.workload}"]),
    }
    samples = [x * host for v in stats["latencies"].values() for x in v]
    tail = _tail(samples)
    if tail is not None:
        info["op_tail_s"] = dict(zip(("value", "percentile", "samples_beyond"), tail),
                                 unit="s", samples=len(samples))
    seed_pass = [sum(v[p] for v in stats["seed_latencies"].values()) for p in range(len(passes))]
    info.update(host_factor=host,
                measured_wall_s=sum(min(v) for v in stats["latencies"].values()),
                seed_copy_wall_s=sum(seed_best.values()),
                measured_setup_s=statistics.median(setup),
                seed_copy_setup_s=statistics.median(seed_setup),
                setup_samples=setup, seed_copy_setup_samples=seed_setup, pass_wall_s=passes,
                seed_copy_pass_wall_s=seed_pass)
    _emit(info, stats, checker, metrics, END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
