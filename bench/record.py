"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record.py [--workload stress|pairs|sweep ...]
    python3 bench/record.py --walks 16
    python3 bench/record.py --costs 3 [--workload stress|pairs|sweep ...]

The first form runs every input a seed can select (the pools of
``workloads.py``) on the program in ``src/`` and writes their summaries,
trajectory digests included, into ``bench/reference.json``, keeping the
entries of workloads not named.  Record on the commit whose outputs are
the reference, and only then: the point of the file is that later
commits are compared with it.

The third form times every input of the pools, and the set-up of each
workload, on the frozen seed copy of the program (``seedref.py``) as
many times as given, and writes into the ``cost_s`` map of
``bench/reference.json`` the best time of each input, the mean batch
time over workload seeds 0-99 (``batch/<workload>``) and the median
set-up time (``setup/<workload>``).  ``run.py`` scales its times by the
last two, and the sweep workload balances its batches on the first.  Record them on a quiet host; they belong to the
seed copy, so they need no new recording when the program changes.

The second form prints, for raw walk seeds 0..N-1 of the stress
configuration (no jitter), how many states the trust-domain rule moved
and how many events, fronts and seconds the run took.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from run import BENCH, SeedCopy, _environment, _import_program, _setup_seconds
from spans import EventProbe

REFERENCE = os.path.join(BENCH, "reference.json")


def _load() -> dict:
    ref = {"outputs": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    return ref


def _save(ref: dict) -> None:
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


def _record(workloads, names) -> None:
    ref = _load()
    env = _environment("record", 0)
    ref["commit"] = env["commit"] or env["src_sha256"]
    ref["rel_tol"] = workloads.REL_TOL
    ref.setdefault("events", {})
    for name in names:
        op = workloads.WORKLOADS[name][1]
        for key in workloads.pool_keys(name):
            t0 = time.perf_counter()
            probe = EventProbe()
            probe.install()
            try:
                result = op(workloads.make_input(key))
            finally:
                probe.uninstall()
            ref["outputs"][key] = workloads.summarize(name, key, result, digest=True)
            ref["events"][key] = probe.events
            print(f"{key}: {probe.events} events, {time.perf_counter() - t0:.2f} s", flush=True)
            del result
    for part in ("outputs", "events"):
        ref[part] = dict(sorted(ref[part].items()))
    _save(ref)


def _mean_batch_cost(workloads, name: str, ref: dict, seeds: int = 100) -> float:
    """Mean over workload seeds 0..seeds-1 of the batch's recorded time."""
    keys_for = workloads.WORKLOADS[name][0]
    return round(statistics.fmean(sum(ref["cost_s"][key] for key in keys_for(seed, ref))
                                  for seed in range(seeds)), 4)


def _costs(workloads, reps: int, names) -> None:
    ref = _load()
    costs = ref.setdefault("cost_s", {})
    for name in names:
        keys = workloads.pool_keys(name)
        times = {key: [] for key in keys}
        copy = SeedCopy(name)
        try:
            for _ in range(reps):  # round after round, so a slow spell hits every input alike
                for key in keys:
                    times[key].append(copy.time_op(key))
        finally:
            copy.close()
        for key in keys:
            costs[key] = round(min(times[key]), 4)
            print(f"{key}: {costs[key]} s", flush=True)
        costs[f"batch/{name}"] = _mean_batch_cost(workloads, name, ref)
        _save(ref)  # the set-up children build batches from these
        _, seed_setup = _setup_seconds(name, 0)
        costs[f"setup/{name}"] = round(statistics.median(seed_setup), 4)
        print(f"setup/{name}: {costs[f'setup/{name}']} s", flush=True)
        _save(ref)


def _walks(workloads, n: int) -> None:
    _, wall, cfg = workloads.stress_input(0)
    print("seed,states_moved_by_rule,events,max_fronts,seconds")
    for seed in range(n):
        data = workloads.stepped_walk(workloads.GAS, seed, 5.0e-3, 8,
                                      workloads.STRESS_WALL_SLOPES)
        rng = np.random.default_rng(seed)  # the same walk without the domain rule
        raw = [workloads.GAS.background()]
        for d in [rng.uniform(-5.0e-3, 5.0e-3, 4) for _ in range(8)]:
            p = raw[-1]
            raw.append(workloads.State(p.rho * (1.0 + d[0]), p.u + d[1], p.v + d[2],
                                       p.p * (1.0 + d[3])))
        moved = sum(1 for a, b in zip(data.states, raw) if a != b)
        t0 = time.perf_counter()
        traj = workloads.tracking.run(data, wall, cfg, workloads.GAS)
        print(f"{seed},{moved},{len(traj.records)},"
              f"{max(len(s.fronts) for s in traj.slices)},{time.perf_counter() - t0:.2f}",
              flush=True)
        del traj


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--walks", type=int)
    ap.add_argument("--costs", type=int)
    args = ap.parse_args()
    workloads = _import_program()
    if args.walks:
        _walks(workloads, args.walks)
    elif args.costs:
        _costs(workloads, args.costs, args.workload or list(workloads.WORKLOADS))
    else:
        _record(workloads, args.workload or list(workloads.WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
