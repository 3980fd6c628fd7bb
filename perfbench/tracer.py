"""Span tracing of torusforge from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) and, for a few functions, a count taken from its
arguments or result.  `torusforge.cli` and the other modules bind their
imports by name (`from .averaging import branch_continuation`), so a
module-level function is replaced in every torusforge module that holds it;
methods are replaced on their class.  Nothing under `src/` is edited.

Spans stay in memory and are written out once, when the run ends.  The self
time of a span is its duration minus the durations of its direct children
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _returns(args, kwargs, result, counts):
    n = np.atleast_2d(np.asarray(args[1] if len(args) > 1 else kwargs["X0"])).shape[0]
    counts["flow.returns"] += n
    if n == 1:
        counts["flow.returns_single"] += 1


def _nfev(args, kwargs, result, counts):
    counts["flow.rhs_evals"] += int(getattr(result, "nfev", 0))


# (module, attribute, optional counter hook).  The span is named
# "<layer>.<function>", where the layer is the module's last name part.
TARGETS = (
    ("torusforge.fieldexpr", "parse_field", None),
    ("torusforge.criteria", "validate_hopf_zero", None),
    ("torusforge.criteria", "criteria_report", None),
    ("torusforge.averaging", "to_standard_form", None),
    ("torusforge.averaging", "melnikov_pair", None),
    ("torusforge.averaging", "first_lyapunov_quantity", None),
    ("torusforge.averaging", "averaged_equilibrium", None),
    ("torusforge.averaging", "MelnikovPair.f2_quadrature", None),
    ("torusforge.averaging", "branch_continuation", None),
    ("torusforge.averaging", "lyapunov_slices", None),
    ("torusforge.averaging", "jordan_expansion", None),
    ("torusforge.flow", "solve_ivp", _nfev),
    ("torusforge.flow", "integrate", None),
    ("torusforge.flow", "ThetaReturnMap.points", _returns),
    ("torusforge.flow", "ThetaReturnMap.jet3", None),
    ("torusforge.torus", "certify_torus", None),
    ("torusforge.torus", "fit_fourier_curve", None),
    ("torusforge.lift", "find_separating_plane", None),
    ("torusforge.lift", "tune_lift_parameters", None),
    ("torusforge.lift", "build_lift_family", None),
    ("torusforge.cli", "write_report", None),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # calls per span name, plus the hook counts
        self._stack = []
        self.wrapped_calls = 0

    def span(self, name, fn, hook=None, root=False):
        """Wrap fn.  Only a root span opens a trace; calls outside one (the
        benchmark's own correctness gates) run untraced."""
        def wrapper(*args, **kwargs):
            if not root and not self._stack:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            self.wrapped_calls += 1
            self.counts[name] += 1
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target that exists; a missing one is skipped, so the
        tracer keeps working when a later version moves a function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("torusforge") and m is not None]
        for module_name, attr, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            layer = module_name.rsplit(".", 1)[1]
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{layer}.{fn_name}"
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, fn_name, None) if owner else None
                if original is None:
                    continue
                setattr(owner, fn_name, self.span(name, original, hook))
                continue
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            wrapper = self.span(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def summary(self):
        """Per span name: [calls, total seconds, self seconds]."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def wrapper_cost_s(repeats: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    def noop():
        return None
    probe = Tracer()
    wrapped = probe.span("probe", noop, root=True)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / repeats
