"""Time operations on the frozen seed copy of the program, on request.

    python3 bench/seedref.py WORKLOAD

``bench/seed/hyperwedge`` is the program's source at the commit
``reference.json`` was recorded on.  This process imports that copy in
place of ``src/`` and prints ``ready``; then for each reference key
(``converge/3``) read from standard input it runs the workload's
operation once on that key's input and prints its wall time in seconds.
It exits when standard input closes.

``run.py`` alternates its own operations with these, so both copies of
the program meet the same host speed; see ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SEED_SRC = os.path.join(BENCH, "seed")


def main() -> int:
    workload = sys.argv[1]
    sys.path.insert(0, SEED_SRC)
    import hyperwedge

    if os.path.dirname(os.path.abspath(hyperwedge.__file__)) != os.path.join(SEED_SRC, "hyperwedge"):
        print(f"error: hyperwedge imported from {hyperwedge.__file__}", file=sys.stderr)
        return 2
    import workloads

    op = workloads.WORKLOADS[workload][1]
    inputs = {}
    print("ready", flush=True)
    for line in sys.stdin:
        key = line.strip()
        if key not in inputs:
            inputs[key] = workloads.make_input(key)
        inp = inputs[key]
        t0 = time.perf_counter()
        result = op(inp)
        dt = time.perf_counter() - t0
        del result
        print(repr(dt), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
