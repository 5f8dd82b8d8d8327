"""Span tracing for the traced benchmark run, installed from outside the package.

`install` replaces the listed functions of each nonholo module with wrappers
that record one span per call: name, start, end, parent span and command id.
Spans are kept in flat in-memory arrays and written out once, when the run
ends. A function that no longer exists is skipped and reported as missing, so
the trace keeps working while the code under it changes.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

KINDS = ("canonical", "eden", "nh", "dstar")

# layer (module) -> traced functions; "Class.method" wraps a method and a bare
# class name wraps its constructor
LAYERS = {
    "dsl": ("parse_system", "closure"),
    "numdiff": ("lift", "gradient", "jacobian", "solve_linear"),
    "geometry": (
        "metric_at", "constraints_at", "eden_project", "tangent_splitting",
        "frame_at", "gamma_apply", "frame_apply", "residual_apply",
    ),
    "dynamics": (
        "integrate", "FieldEvaluator.evaluate", "FieldEvaluator.project",
        "nonholonomic_field_multiplier", "nonholonomic_field_projection",
    ),
    "brackets": ("PointContext", "bracket_route_tables", "lie_bracket_raw")
    + tuple(f"jacobiator.{k}" for k in KINDS),
    "catalog": ("sample_m_points",),
    "verification": ("run_verify",),
    "cli": ("main",),
}
SPANS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# spans whose per-call time is compared, per system, with the ROADMAP table
RECONCILED = (
    "dynamics.FieldEvaluator.evaluate", "geometry.tangent_splitting",
    "brackets.PointContext", "brackets.bracket_route_tables",
) + tuple(f"brackets.jacobiator.{k}" for k in KINDS)


class Tracer:
    """Spans in flat arrays; `stack` holds the indices of the open spans."""

    def __init__(self):
        self.names = SPANS
        self.ids = {name: i for i, name in enumerate(SPANS)}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_command = -1
        self.missing: list[str] = []
        # counters behind the ratios
        self.sampled_points = 0
        self.verify_depth = 0
        self.verify_points: set = set()

    def wrap(self, fn, span: str):
        nid = self.ids[span]
        name, parent, command = self.name, self.parent, self.command
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            command.append(tracer.current_command)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    # -- results --

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        command = np.frombuffer(self.command, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return name, parent, command, start, end

    def per_span(self):
        """Calls and self seconds per span name; self = duration - direct children."""
        name, parent, _, start, end = self.arrays()
        dur = (end - start).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(name))
        self_ns = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_ns, minlength=len(self.names)) * 1e-9
        return {
            span: (int(calls[i]), float(self_s[i])) for i, span in enumerate(self.names)
        }

    def sample_attempts(self) -> int:
        """eden_project calls made directly by sample_m_points."""
        name, parent, *_ = self.arrays()
        nested = parent >= 0
        under = np.zeros(len(name), dtype=bool)
        under[nested] = name[parent[nested]] == self.ids["catalog.sample_m_points"]
        return int(np.sum(under & (name == self.ids["geometry.eden_project"])))

    def net_us_per_call(self, spans, command_keys, span_cost_ns, command_scale):
        """Mean inclusive microseconds per call, per span and command key.

        Each call is charged its duration minus the cost of the spans
        recorded inside it, so the figures estimate untraced time, and is
        then scaled by its command's entry in `command_scale`.
        """
        name, _, command, start, end = self.arrays()
        inner = np.searchsorted(start, end, side="left") - np.arange(len(name)) - 1
        scale = np.asarray(command_scale)[command] if len(command) else 1.0
        net_us = ((end - start) - inner * span_cost_ns) * 1e-3 * scale
        keys = np.array(command_keys)[command] if len(command) else np.array([])
        out = {}
        for span in spans:
            sel = name == self.ids[span]
            out[span] = {
                key: round(float(np.mean(net_us[sel & (keys == key)])), 1)
                for key in sorted(set(command_keys))
                if np.any(sel & (keys == key))
            }
        return out

    def write(self, path: str, commands):
        name, parent, command, start, end = self.arrays()
        np.savez(
            path, name=name, parent=parent, command=command, start_ns=start, end_ns=end,
            names=np.array(self.names), commands=np.array([json.dumps(c) for c in commands]),
        )


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the nonholo package in place."""
    for module, fns in LAYERS.items():
        mod = importlib.import_module(f"nonholo.{module}")
        for fn in fns:
            span = f"{module}.{fn}"
            if fn == "closure":
                target, attr = mod, "compile_expression"
            elif fn.startswith("jacobiator."):
                target, attr = mod, "jacobiator"
            elif isinstance(getattr(mod, fn, None), type):
                target, attr = getattr(mod, fn), "__init__"
            else:
                owner, _, attr = fn.rpartition(".")
                target = getattr(mod, owner, None) if owner else mod
            if not callable(getattr(target, attr, None)):
                tracer.missing.append(span)
            elif fn != "jacobiator.canonical" and fn.startswith("jacobiator."):
                continue  # one wrapper serves the four kinds
            else:
                setattr(target, attr, _traced(tracer, span, getattr(target, attr)))


def _traced(tracer: Tracer, span: str, fn):
    """The span wrapper for `fn`, with the counters some ratios need."""
    if span == "dsl.closure":

        def compile_traced(*args, **kwargs):
            return tracer.wrap(fn(*args, **kwargs), span)

        return compile_traced
    if span.startswith("brackets.jacobiator."):
        by_kind = {k: tracer.wrap(fn, f"brackets.jacobiator.{k}") for k in KINDS}

        def jacobiator_traced(sys, kind, f, g, h, x, *args, **kwargs):
            if tracer.verify_depth:
                tracer.verify_points.add(
                    (tracer.current_command, x.q.tobytes(), x.p.tobytes())
                )
            return by_kind.get(kind, fn)(sys, kind, f, g, h, x, *args, **kwargs)

        return jacobiator_traced
    traced = tracer.wrap(fn, span)
    if span == "catalog.sample_m_points":

        def sample_traced(*args, **kwargs):
            points = traced(*args, **kwargs)
            tracer.sampled_points += len(points)
            return points

        return sample_traced
    if span == "verification.run_verify":

        def verify_traced(*args, **kwargs):
            tracer.verify_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.verify_depth -= 1

        return verify_traced
    return traced


def span_cost_ns(calls=20000, batches=5) -> float:
    """Cost of one traced call over a plain call, timed on a throwaway tracer."""
    traced = Tracer().wrap(_noop, SPANS[0])
    best = float("inf")
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            _noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def _noop():
    return None
