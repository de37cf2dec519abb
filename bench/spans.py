"""Layer tracing installed from outside the program.

The layers are the modules of ``hyperwedge``.  ``Tracer.install`` wraps
the public functions of ``curves``, ``riemann``, ``tracking``,
``functionals`` and ``experiments`` in spans, plus
``Trajectory.slice_at``, and wraps three leaf functions of ``euler`` in
plain call counters (about 1 us each, too short to time from outside).
Every module of the package that holds one of those names gets the
wrapper, so calls made through a ``from ... import`` binding are seen as
well.  Nothing under ``src/`` changes.

The experiment drivers map tracked runs over their own thread pools, and
Python does not copy context into pool threads.  So every thread keeps
its own span stack and its own counters, each span records its thread
and operation, and a span opened on an empty stack in a pool thread is
attached to the innermost open span of the benchmark's thread, which is
the driver waiting on the pool.  Those pool threads belong to the
program; the benchmark itself starts none.

A span's self time is its thread's CPU time (``time.thread_time``) minus
that of its children on the same thread.  Wall-clock self time would
charge a pool thread for the time it waits on the interpreter lock while
its siblings run: in a sweep pass of 3.7 s the wall-clock self times
summed to 8.6 s.  Span start and end are still recorded in wall time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

#: span layers, in the order the metrics are printed
SPAN_LAYERS = ("tracking", "curves", "riemann", "functionals", "experiments")
#: euler leaf functions that are counted, not timed
EULER_COUNTED = ("fluxes", "eigenvalue", "eigenvector")
#: the experiment drivers; one sweep operation is one call of one of them
DRIVERS = ("run_special_solution", "run_convergence", "run_stability")
_DRIVER_SPANS = frozenset(f"experiments.{d}" for d in DRIVERS)

_GENUINE = (1, 4)
_CONTACT = (2, 3)

# frame slots (a frame is a list, for speed): span id, name, wall start,
# thread CPU start, CPU of same-thread children, parent frame, wall time
# of tracked runs inside (drivers only)
_ID, _NAME, _T0, _C0, _CHILD, _PARENT, _RUNS = range(7)


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list = []
        self.stats = defaultdict(lambda: [0, 0.0])  # span name -> [calls, self CPU s]
        self.counts = defaultdict(int)
        self.spans: list = []


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []
        self._ids = itertools.count(1)
        self._main = self._state()
        self._patches: list = []
        self.op_id = 0

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.st = st
            return st

    # -- spans --------------------------------------------------------------

    def _open(self, st: _ThreadState, name: str) -> list:
        stack = st.stack
        if stack:
            parent = stack[-1]
        elif st is not self._main and self._main.stack:
            parent = self._main.stack[-1]  # pool thread: attach to the driver
        else:
            parent = None
        frame = [next(self._ids), name, 0.0, 0.0, 0.0, parent, 0.0]
        stack.append(frame)
        frame[_C0] = time.thread_time()
        frame[_T0] = time.perf_counter()
        return frame

    def _close(self, st: _ThreadState, frame: list) -> float:
        """Pop `frame`; returns its wall duration."""
        t1 = time.perf_counter()
        cpu = time.thread_time() - frame[_C0]
        st.stack.pop()
        stat = st.stats[frame[_NAME]]
        stat[0] += 1
        stat[1] += max(cpu - frame[_CHILD], 0.0)
        parent = frame[_PARENT]
        if parent is not None and st.stack and st.stack[-1] is parent:
            parent[_CHILD] += cpu  # a pool thread's CPU is not its driver's
        st.spans.append((frame[_ID], parent[_ID] if parent else 0, self.op_id,
                         st.ident, frame[_NAME], frame[_T0], t1))
        return t1 - frame[_T0]

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, namer=None, on_call=None, on_return=None,
                      on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if on_call is not None:
                on_call(st, args, kwargs)
            frame = tracer._open(st, namer(args) if namer else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(st, frame)
                if on_error is not None:
                    on_error(st, exc)
                raise
            dur = tracer._close(st, frame)
            if on_return is not None:
                on_return(st, args, result, frame, dur)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer function in every hyperwedge module."""
        import hyperwedge.curves as curves
        import hyperwedge.euler as euler
        import hyperwedge.riemann as riemann
        import hyperwedge.tracking as tracking

        for fname in EULER_COUNTED:
            _patch(self._patches, euler, fname,
                   self._count_wrapper(f"euler.{fname}.calls", getattr(euler, fname)))
        hooks = _hooks(self, curves, riemann)
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"hyperwedge.{layer}"]
            for fname, fn in sorted(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                opts = dict(hooks.get(f"{layer}.{fname}", {}))
                prewrap = opts.pop("prewrap", None)
                wrapper = self._span_wrapper(f"{layer}.{fname}",
                                             prewrap(fn) if prewrap else fn, **opts)
                _patch(self._patches, mod, fname, wrapper)
        original = tracking.Trajectory.slice_at
        self._patches.append((tracking.Trajectory, "slice_at", original))
        tracking.Trajectory.slice_at = self._span_wrapper("tracking.slice_at", original)

    def uninstall(self) -> None:
        _unpatch(self._patches)

    # -- results ------------------------------------------------------------

    def totals(self):
        """(stats, counts, spans) merged over every thread."""
        stats = defaultdict(lambda: [0, 0.0])
        counts = defaultdict(int)
        spans = []
        for st in self._threads:
            for name, (calls, self_s) in st.stats.items():
                stats[name][0] += calls
                stats[name][1] += self_s
            for name, val in st.counts.items():
                merged = max if name.endswith("_max") else sum
                counts[name] = merged((counts[name], val))
            spans.extend(st.spans)
        spans.sort()
        return stats, counts, spans

    def write_spans(self, path: str, spans) -> None:
        """One CSV row per span, times in seconds from the first span."""
        t_ref = min((s[5] for s in spans), default=0.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span,parent,op,thread,name,start_s,end_s\n")
            for sid, parent, op, thread, name, t0, t1 in spans:
                fh.write(f"{sid},{parent},{op},{thread},{name},{t0 - t_ref:.9f},{t1 - t_ref:.9f}\n")


def _patch(patches: list, owner, fname: str, wrapper) -> None:
    """Bind `wrapper` wherever a hyperwedge module holds ``owner.fname``."""
    original = getattr(owner, fname)
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "hyperwedge" or name.startswith("hyperwedge.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                patches.append((mod, attr, val))
                setattr(mod, attr, wrapper)


def _unpatch(patches: list) -> None:
    for owner, attr, val in reversed(patches):
        setattr(owner, attr, val)
    patches.clear()


class EventProbe:
    """Counts tracked-run events for untraced passes.

    Wraps ``tracking.run`` alone, one extra call per run, so
    ``events_per_s`` needs no tracing even when the runs happen inside a
    driver.
    """

    def __init__(self):
        self.events = 0
        self._lock = threading.Lock()
        self._patches: list = []

    def install(self) -> None:
        import hyperwedge.tracking as tracking

        probe = self

        @functools.wraps(tracking.run)
        def run(*args, **kwargs):
            traj = original(*args, **kwargs)
            with probe._lock:  # drivers finish runs on several threads
                probe.events += len(traj.records)
            return traj

        original = tracking.run
        _patch(self._patches, tracking, "run", run)

    def uninstall(self) -> None:
        _unpatch(self._patches)


def _hooks(tracer: Tracer, curves, riemann) -> dict:
    """Per-function extras: span naming, argument counters, outcome counters."""
    def wave_curve_name(args):
        family, sigma = args[1], args[2]
        if sigma == 0.0:
            return "curves.wave_curve.zero"
        if family in _CONTACT:
            return "curves.wave_curve.contact"
        return "curves.wave_curve.rarefaction" if sigma > 0.0 else "curves.wave_curve.shock"

    def shock_solve_call(shock_only):
        # the calls that reach the private jump-condition Newton solve
        def on_call(st, args, kwargs):
            family, strength = args[1], args[2]
            if (family in _GENUINE and strength != 0.0 and abs(strength) <= curves.DELTA_TRUST
                    and (strength < 0.0 or not shock_only)):
                st.counts["curves.shock_solves"] += 1
        return on_call

    def newton_wrapper(fn):
        @functools.wraps(fn)
        def damped_newton(F, *args, **kwargs):
            st = tracer._state()

            def counted(x):
                st.counts["curves.damped_newton.residual_evals"] += 1
                return F(x)

            return fn(counted, *args, **kwargs)

        return damped_newton

    def newton_error(st, exc):
        if isinstance(exc, curves.CurveError):
            st.counts["curves.damped_newton.failures"] += 1

    def riemann_error(st, exc):
        if isinstance(exc, riemann.SolverError):
            st.counts["riemann.failures"] += 1

    def shock_fronts(st, fronts):
        st.counts["curves.shock_fronts"] += sum(
            1 for fam, sigma in fronts if fam in _GENUINE and sigma < 0.0)

    def initialize_return(st, args, result, frame, dur):
        shock_fronts(st, [(f.family, f.sigma) for f in result.fronts])

    def next_event_call(st, args, kwargs):
        n = len(args[0].fronts)
        c = st.counts
        c["tracking.fronts_sum"] += n
        c["tracking.fronts_samples"] += 1
        c["tracking.fronts_max"] = max(c["tracking.fronts_max"], n)

    def next_event_return(st, args, result, frame, dur):
        if result[1] is not args[0]:
            st.counts["tracking.coincidence_perturbations"] += 1

    def resolve_return(st, args, result, frame, dur):
        rec = result[1]
        kind = rec.kind
        if kind == "interaction":
            kind = f"interaction_{rec.solver.lower()}"
        st.counts[f"tracking.events.{kind}"] += 1
        shock_fronts(st, rec.outgoing)

    def run_return(st, args, result, frame, dur):
        st.counts["tracking.front_refs_stored"] += sum(len(s.fronts) for s in result.slices)
        driver = frame[_PARENT]
        while driver is not None and driver[_NAME] not in _DRIVER_SPANS:
            driver = driver[_PARENT]
        if driver is not None:
            with tracer._lock:  # pool threads finish runs concurrently
                driver[_RUNS] += dur

    def driver_return(st, args, result, frame, dur):
        if frame[_RUNS] > 0.0:
            st.counts["experiments.pool.run_s"] += frame[_RUNS]
            st.counts["experiments.pool.driver_s"] += dur

    hooks = {
        "curves.wave_curve": {"namer": wave_curve_name, "on_call": shock_solve_call(True)},
        "curves.shock_speed": {"on_call": shock_solve_call(False)},
        "curves.hugoniot_curve": {"on_call": shock_solve_call(False)},
        "curves.damped_newton": {"prewrap": newton_wrapper, "on_error": newton_error},
        "tracking.initialize": {"on_return": initialize_return},
        "tracking.next_event": {"on_call": next_event_call, "on_return": next_event_return},
        "tracking.resolve_event": {"on_return": resolve_return},
        "tracking.run": {"on_return": run_return},
    }
    for fname in ("solve_riemann", "solve_boundary_riemann", "reflect_at_boundary",
                  "hugoniot_decompose", "boundary_hugoniot_q1", "sample_riemann_fan",
                  "boundary_response"):
        hooks[f"riemann.{fname}"] = {"on_error": riemann_error}
    for fname in DRIVERS:
        hooks[f"experiments.{fname}"] = {"on_return": driver_return}
    return hooks
