"""Per-layer tracing from outside the package.

The tracer replaces each traced package function with a wrapper that
records a span (name, start, end, parent span, op id, raised?).  Package
modules import names with `from .x import y`, so a function is replaced at
every module binding in `cmspaces.*` that refers to it, not only where it
is defined.  Calls into `numpy.linalg` are counted as LAPACK events
attributed to the innermost open span; they are not spans, so LAPACK time
stays inside the self time of the package function that asked for it.

Spans and events are kept in memory and written out once, after the run.
Self time of a span is its duration minus the durations of its direct
child spans (the run is single-threaded, so children nest strictly).
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
from time import perf_counter

import numpy as np

# Package functions traced per layer (module name -> function names).
LAYERS = {
    "linalg": ("eig", "min_gap", "match_to_reference", "numeric_rank"),
    "canonical": ("normalize", "regularity_report", "orbit_dimension"),
    "chart": ("to_chart", "to_chart_tracked", "from_chart", "decompose",
              "chart_jacobian", "project_to_slice"),
    "variety": ("pair_fingerprint", "fingerprint", "random_point",
                "gauge_act_pair", "on_level"),
    "sl2": ("act_pair", "numeric_field", "independence_rank",
            "find_independence_point", "slice_tangency"),
    "flowcalc": ("trotter_flow", "bracket_flow", "lnd_degree", "compatible_witness"),
}

LAPACK = ("eig", "eigvals", "svd", "inv", "lstsq", "solve")

# fixed here rather than read from the package, so the metric names stay put
VERIFY_SUITES = ("linalg", "variety", "canonical", "chart", "sl2", "flowcalc", "quiver")


def _batch(shape) -> int:
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _complex_factor(*arrays) -> int:
    # a complex multiply-add costs four real ones
    return 4 if any(np.iscomplexobj(a) for a in arrays) else 1


def lapack_flops(name: str, args, kwargs) -> float:
    """Real-flop estimate of one numpy.linalg call, computed from shapes.

    Formulas (n x n square input, m x n general input with p = min(m, n)
    and q = max(m, n), k right-hand sides), after Golub & Van Loan,
    Matrix Computations, 4th ed., tables in sections 5.5, 7.5 and 8.6:
      eig      25 n^3        (Schur form with vectors, then back-substitution)
      eigvals  10 n^3        (Schur form, values only)
      svd      4 q p^2 - 4 p^3 / 3            values only
               4 q^2 p + 8 q p^2 + 9 p^3      with singular vectors
      inv      2 n^3         (LU, then inversion of the factors)
      solve    2 n^3 / 3 + 2 n^2 k
      lstsq    4 q p^2 - 4 p^3 / 3 + 2 m n k  (SVD-based LAPACK routine, gelsd)
    Complex operands count 4x; stacked operands multiply by the batch size.
    """
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    p, q = min(m, n), max(m, n)
    if name == "eig":
        flops = 25.0 * n**3
    elif name == "eigvals":
        flops = 10.0 * n**3
    elif name == "svd":
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if compute_uv:
            flops = 4.0 * q * q * p + 8.0 * q * p * p + 9.0 * p**3
        else:
            flops = 4.0 * q * p * p - 4.0 * p**3 / 3.0
    elif name == "inv":
        flops = 2.0 * n**3
    else:  # solve, lstsq
        b = args[1] if len(args) > 1 else kwargs.get("b")
        bshape = np.shape(b)
        k = bshape[-1] if len(bshape) == len(shape) else 1
        if name == "solve":
            flops = 2.0 * n**3 / 3.0 + 2.0 * n * n * k
        else:
            flops = 4.0 * q * p * p - 4.0 * p**3 / 3.0 + 2.0 * m * n * k
        return flops * _batch(shape) * _complex_factor(a, b)
    return flops * _batch(shape) * _complex_factor(a)


class Tracer:
    """Span recorder for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []    # (id, name, start, end, parent id, op, raised), in end order
        self.events = []   # (lapack name, parent span id, op, flops)
        self.op = -1
        self._stack = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op, raised))

        return traced

    def _counter(self, name, fn):
        events, stack = self.events, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            events.append((name, stack[-1] if stack else -1, self.op,
                           lapack_flops(name, args, kwargs)))
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every traced function at every `cmspaces.*` binding, and numpy.linalg."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "cmspaces" or key.startswith("cmspaces."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"cmspaces.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for name in LAPACK:
            original = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, original))
            setattr(np.linalg, name, self._counter(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reduction ------------------------------------------------------

    def per_op_metrics(self, ops) -> dict:
        """Per-layer metrics averaged over the traced op ids in `ops`."""
        ops = set(ops)
        count = max(1, len(ops))
        spans = [s for s in self.spans if s[5] in ops]
        by_id = {s[0]: s for s in spans}
        child_time = {}
        for sid, _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)

        calls, self_s, errors = {}, {}, {}
        for sid, name, start, end, _, _, raised in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
            if raised:
                layer = name.split(".")[0]
                errors[layer] = errors.get(layer, 0) + 1

        out = {}
        for layer, names in LAYERS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = (calls.get(key, 0) / count, "count")
                out[f"{key}.self_ms"] = (self_s.get(key, 0.0) * 1e3 / count, "ms")
            out[f"{layer}.errors"] = (errors.get(layer, 0) / count, "count")

        events = [e for e in self.events if e[2] in ops]
        for name in LAPACK:
            n_calls = sum(1 for e in events if e[0] == name)
            out[f"lapack.{name}.calls"] = (n_calls / count, "count")
        out["lapack.flops_computed"] = (sum(e[3] for e in events) / count, "flop")

        # eig + eigvals events with a to_chart span among their ancestors
        under = 0
        for name, parent, _, _ in events:
            if name not in ("eig", "eigvals"):
                continue
            while parent >= 0:
                span = by_id[parent]
                if span[1] == "chart.to_chart":
                    under += 1
                    break
                parent = span[4]
        n_to_chart = calls.get("chart.to_chart", 0)
        out["chart.to_chart.lapack_eig_calls"] = (
            under / n_to_chart if n_to_chart else 0.0, "count")
        return out

    def inclusive_ms(self, ops) -> dict:
        """Total (inclusive) ms per op for each traced name, for the text report."""
        ops = set(ops)
        count = max(1, len(ops))
        total = {}
        # a recursive call would count twice; no traced function recurses
        for _, name, start, end, _, op, _ in self.spans:
            if op in ops:
                total[name] = total.get(name, 0.0) + (end - start)
        return {k: v * 1e3 / count for k, v in total.items()}

    def dump(self, path, header: dict):
        """Write spans and LAPACK events as gzip-compressed JSON."""
        payload = dict(header)
        payload["span_fields"] = ["id", "name", "start", "end", "parent", "op", "raised"]
        payload["spans"] = self.spans
        payload["event_fields"] = ["lapack", "parent", "op", "flops"]
        payload["events"] = self.events
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
