"""Outside-in tracing of nearex: wrap each layer's public functions in place.

A :class:`Tracer` replaces the public functions and methods listed in
:data:`TARGETS` with wrappers that record one span per call: the metric name,
the span that was open when the call began (its parent), the request it
belongs to, and its start and end times.  Functions that another module
imported with ``from .x import y`` are rebound there too (for example
``nearex.engine.stabilize`` and ``nearex.recover.track_path``), so every call
site sees the wrapper.  No file of the program changes, and
:meth:`Tracer.uninstall` puts every original back.

Spans stay in memory in flat arrays and are written out by :meth:`Tracer.save`.
Self time is a span's duration minus the time covered by its child spans;
calls are strictly nested in one thread, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute path, metric name).  Several functions may share one name.
TARGETS = [
    ("nearex.tracker", "track_path", "tracker.track_path"),
    ("nearex.tracker", "solve_total_degree", "tracker.solve_total_degree"),
    ("nearex.tracker", "parameter_homotopy", "tracker.parameter_homotopy"),
    ("nearex.numlin", "solve_square", "numlin.solve_square"),
    ("nearex.numlin", "singular_values", "numlin.svd"),
    ("nearex.numlin", "null_space", "numlin.svd"),
    ("nearex.numlin", "lstsq", "numlin.lstsq"),
    ("nearex.algebra", "CompiledSystem.evaluate", "algebra.CompiledSystem.evaluate"),
    ("nearex.algebra", "CompiledSystem.jacobian", "algebra.CompiledSystem.jacobian"),
    ("nearex.algebra", "CompiledSystem.__init__", "algebra.CompiledSystem.compile"),
    ("nearex.fiberprod", "stabilize", "fiberprod.stabilize"),
    ("nearex.fiberprod", "image_dimension", "fiberprod.image_dimension"),
    ("nearex.fiberprod", "build_infinity_condition", "fiberprod.build_condition"),
    ("nearex.fiberprod", "build_witness_condition", "fiberprod.build_condition"),
    ("nearex.fiberprod", "build_trace_condition", "fiberprod.build_condition"),
    ("nearex.fiberprod", "build_hilbert_condition", "fiberprod.build_condition"),
    ("nearex.recover", "build_lagrange", "recover.build_lagrange"),
    ("nearex.recover", "descend", "recover.descend"),
    ("nearex.structure", "witness_superset", "structure.witness_superset"),
    ("nearex.structure", "trace_data", "structure.trace_data"),
    ("nearex.structure", "local_hilbert", "structure.local_hilbert"),
    ("nearex.engine", "recover_infinity", "engine.recover"),
    ("nearex.engine", "recover_positive_dim", "engine.recover"),
    ("nearex.engine", "recover_factor", "engine.recover"),
    ("nearex.engine", "recover_multiplicity", "engine.recover"),
    ("nearex.problem", "ProblemFile.build_system", "problem.build_system"),
]

# Constructed so often that a span each would dominate the trace: counted only.
COUNTED = [("nearex.algebra", "Polynomial.__init__", "algebra.Polynomial.new")]

# Detection-layer calls: split into detection and validation time when the
# engine (or the benchmark itself) calls them directly.
DETECTION = {
    "tracker.solve_total_degree",
    "tracker.parameter_homotopy",
    "structure.witness_superset",
    "structure.trace_data",
    "structure.local_hilbert",
}

STATUSES = ("success", "singular-endpoint", "diverged", "step-failure")


def _resolve(module_name, path):
    """(owner, attribute, current value) for ``module.Class.attr`` or ``module.attr``."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _is_wrapper(obj):
    return getattr(obj, "_bench_wrapper", False)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._request = [-1]
        self.n_requests = 0
        self.counts = Counter()
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @property
    def n_spans(self):
        return len(self.span_start)

    def request(self):
        """Start a new request: later spans carry its id until the next one."""
        self._request[0] = self.n_requests
        self.n_requests += 1

    def _span_wrapper(self, name, fn, after=None, on_error=None):
        nid = self._name_id(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack, req = self.span_start, self.span_end, self._stack, self._request
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(req[0])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc, args)
                raise
            ends[sid] = clock()
            stack.pop()
            if after is not None:
                after(out, args)
            return out

        wrapper._bench_wrapper = True
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper._bench_wrapper = True
        return wrapper

    # -- hooks that read counts off return values ----------------------------

    def _after_track_path(self, res, args):
        self.counts["tracker.steps"] += res.steps
        self.counts["tracker.paths." + res.status] += 1

    def _solve_flops(self, args):
        n = args[0].shape[0]
        rhs = 1 if np.ndim(args[1]) == 1 else np.shape(args[1])[1]
        # complex LU with partial pivoting plus two triangular solves, in real flops
        self.counts["numlin.solve_square.flops"] += 8 * n ** 3 // 3 + 8 * n * n * rhs

    def _after_solve(self, out, args):
        self._solve_flops(args)

    def _solve_error(self, exc, args):
        from nearex.numlin import SingularMatrixError

        if isinstance(exc, SingularMatrixError):
            self.counts["numlin.solve_square.singular"] += 1
            self._solve_flops(args)

    def _after_stabilize(self, res, args):
        self.counts["fiberprod.stabilize.accepted"] += sum(bool(a) for a in res.accepted)
        self.counts["fiberprod.stabilize.tried"] += len(res.accepted)

    def _after_descend(self, res, args):
        self.counts["recover.descend.steps"] += res.track.steps
        self.counts["recover.descend.recovered"] += bool(res.success)

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every target and rebind each name imported from its module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "tracker.track_path": (self._after_track_path, None),
            "numlin.solve_square": (self._after_solve, self._solve_error),
            "fiberprod.stabilize": (self._after_stabilize, None),
            "recover.descend": (self._after_descend, None),
        }
        replaced = {}
        for target in TARGETS + COUNTED:
            module_name, path, name = target
            owner, attr, orig = _resolve(module_name, path)
            if _is_wrapper(orig):
                raise RuntimeError(f"{module_name}.{path} is already wrapped")
            if target in COUNTED:
                wrapper = self._count_wrapper(name, orig)
            else:
                wrapper = self._span_wrapper(name, orig, *hooks.get(name, (None, None)))
            self._patch(owner, attr, orig, wrapper)
            replaced[id(orig)] = (orig, wrapper)
        # rebind `from .x import y` copies held by other nearex modules
        for mod in _nearex_modules():
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        """Put every original function back."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def save(self, path):
        """Write the spans (name table plus one row per span) to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self, n_passes=1):
        """Per-layer metrics, per pass, from the recorded spans and counts."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        n = len(start)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child[:n]

        def span_ids(metric):
            nid = self._name_ids.get(metric)
            return np.flatnonzero(name == nid) if nid is not None else np.zeros(0, int)

        def calls(metric):
            return len(span_ids(metric))

        def busy(metric):
            return float(dur[span_ids(metric)].sum())

        def self_s(metric):
            return float(self_time[span_ids(metric)].sum())

        c = self.counts
        m = {}  # totals over all traced passes
        for metric in ("tracker.track_path", "numlin.solve_square", "numlin.svd",
                       "numlin.lstsq", "algebra.CompiledSystem.evaluate",
                       "algebra.CompiledSystem.jacobian", "algebra.CompiledSystem.compile",
                       "fiberprod.stabilize", "fiberprod.image_dimension",
                       "fiberprod.build_condition", "recover.build_lagrange",
                       "recover.descend", "structure.witness_superset",
                       "structure.local_hilbert", "problem.build_system"):
            m[metric + ".calls"] = calls(metric)
            m[metric + ".s"] = busy(metric)
        for metric in ("tracker.track_path", "tracker.solve_total_degree",
                       "tracker.parameter_homotopy", "recover.descend",
                       "structure.witness_superset"):
            m[metric + ".self_s"] = self_s(metric)
        m["structure.trace_data.s"] = busy("structure.trace_data")

        m["tracker.steps"] = c["tracker.steps"]
        for status in STATUSES:
            m["tracker.paths." + status] = c["tracker.paths." + status]
        m["numlin.solve_square.singular"] = c["numlin.solve_square.singular"]
        m["numlin.solve_square.flops"] = c["numlin.solve_square.flops"]
        m["algebra.Polynomial.new.calls"] = c["algebra.Polynomial.new"]
        m["recover.descend.steps"] = c["recover.descend.steps"]
        m["engine.detect.s"], m["engine.validate.s"] = self._detect_validate(
            name, parent, start, end, dur)

        # every traced pass does the same work, so counts divide exactly
        out = {k: v // n_passes if isinstance(v, int) and v % n_passes == 0 else v / n_passes
               for k, v in m.items()}
        out["tracker.success_ratio"] = _ratio(c["tracker.paths.success"],
                                              m["tracker.track_path.calls"])
        out["numlin.solve_square.gflops"] = _ratio(c["numlin.solve_square.flops"] / 1e9,
                                                   m["numlin.solve_square.s"])
        out["fiberprod.stabilize.accepted_ratio"] = _ratio(c["fiberprod.stabilize.accepted"],
                                                           c["fiberprod.stabilize.tried"])
        out["recover.descend.recovered_ratio"] = _ratio(c["recover.descend.recovered"],
                                                        m["recover.descend.calls"])
        out["engine.attempts"] = _ratio(m["recover.descend.calls"], calls("engine.recover"))
        return out

    def _detect_validate(self, name, parent, start, end, dur):
        """Detection-layer time before and after the first descent of each recovery.

        Only calls made directly by the engine (or at the top of a request)
        count: a detection call nested inside another layer's span belongs to
        that layer.
        """
        engine_id = self._name_ids.get("engine.recover", -2)
        descend_id = self._name_ids.get("recover.descend", -2)
        first_descent_end = {}
        for sid in np.flatnonzero(name == descend_id):
            p = int(parent[sid])
            if p >= 0 and name[p] == engine_id:
                first_descent_end[p] = min(first_descent_end.get(p, np.inf), end[sid])
        detect = validate = 0.0
        det_ids = [self._name_ids[d] for d in DETECTION if d in self._name_ids]
        for sid in np.flatnonzero(np.isin(name, det_ids)):
            p = int(parent[sid])
            if p >= 0 and name[p] != engine_id:
                continue
            if start[sid] >= first_descent_end.get(p, np.inf):
                validate += dur[sid]
            else:
                detect += dur[sid]
        return float(detect), float(validate)


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if metric.endswith("_ratio"):
        return "share"
    if metric.endswith(".gflops"):
        return "Gflop/s"
    if metric.endswith(".flops"):
        return "flop_computed"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def _nearex_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "nearex" or name.startswith("nearex."))]

