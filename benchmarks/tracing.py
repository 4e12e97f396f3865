"""Span recording around the public functions of ``edpflow``, and per-layer metrics.

The tracer records spans from outside the program: :func:`install` replaces
each traced function at the name its callers look up (for example
``edpflow.cli.solve_eps_system`` and ``edpflow.dissipation.slope``) with a
wrapper that records one span per call.  Nothing under ``src/`` changes.

A span is ``[id, parent, name, start, end, info]``: times come from
``time.perf_counter``, ``parent`` is the id of the enclosing span on the same
thread (or ``-1``), and ``info`` holds exact counts read from the call's
arguments or return value (steps, intervals, Newton iterations, bytes).
Spans opened inside a sweep member on a pool worker thread are parented to
that member, and the member to the ``cli._parallel_map`` call that started it.
Spans stay in memory until :meth:`Tracer.spans` is read at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time

LAYERS = ("solver", "dissipation", "functionals", "coarsegrain", "multispecies", "core", "cli")

# public functions traced, by the module that defines them.  Some feed no
# metric of their own (energy, coarse_params, ...): they are wrapped so that
# their time counts toward their own layer's self time, not their caller's.
TRACED = {
    "solver": ("solve_eps_system", "solve_effective"),
    "dissipation": (
        "dissipation_functional", "hat_dissipation", "primal_R_eps", "primal_objective",
        "damped_newton_max",
    ),
    "functionals": ("slope", "energy", "stationary_measure", "perspective_eval"),
    "coarsegrain": (
        "optimal_coarse_flux", "coarse_grain_trajectory", "coarse_params", "hat_energy",
        "manifold_split",
    ),
    "multispecies": ("solve_multispecies", "multispecies_dissipation"),
    "core": ("trajectory_to_csv",),
    "cli": ("run_experiment", "fit_decay_rate"),
}

# the Newton kernel runs the caller's objective callbacks, so its spans are
# attributed to the layer whose namespace it was called from
CALLER_ATTRIBUTED = {"damped_newton_max"}


def _info(name, args, result):
    if name in ("solve_eps_system", "solve_effective", "solve_multispecies"):
        return (result.times.size - 1, result.states.shape[-1])
    if name in ("dissipation_functional", "hat_dissipation", "multispecies_dissipation"):
        return (args[0].times.size - 1, args[0].states.shape[-1])
    if name == "damped_newton_max":
        return (int(result[3]), float(result[2]), result[0].size)
    if name == "trajectory_to_csv":
        return (os.path.getsize(result),)
    return None


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self._spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self._spans.append([sid, parent, name, start, end,
                            _info(name.split(".", 1)[1], args, result)])
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def wrap_pool(self, fn):
        """Trace ``cli._parallel_map`` and parent each sweep member to it."""
        @functools.wraps(fn)
        def traced(member, items):
            def body(member_fn, member_items):
                parent = self._stack()[-1]

                def one(item):
                    return self.call("cli.sweep_member", member_fn, (item,), {}, parent)
                return fn(one, member_items)
            return self.call("cli._parallel_map", body, (member, items), {})
        return traced

    def spans(self):
        return list(self._spans)


def install(tracer: Tracer):
    """Replace every traced function in every ``edpflow`` module namespace.

    Names that a later version of the package no longer has are skipped; the
    metrics that depend on them then read zero.
    """
    import importlib

    modules = {layer: importlib.import_module(f"edpflow.{layer}") for layer in LAYERS}
    originals = {}
    for layer, names in TRACED.items():
        for name in names:
            fn = getattr(modules[layer], name, None)
            if fn is not None:
                originals[name] = (layer, fn)
    for where, module in modules.items():
        for name, (layer, fn) in originals.items():
            if getattr(module, name, None) is fn:
                owner = where if name in CALLER_ATTRIBUTED else layer
                setattr(module, name, tracer.wrap(f"{owner}.{name}", fn))
    pool = getattr(modules["cli"], "_parallel_map", None)
    if pool is not None:
        modules["cli"]._parallel_map = tracer.wrap_pool(pool)


def _union_length(intervals, lo, hi):
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that its child spans cover."""
    children = {}
    for sid, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()), start, end)
        for sid, _, _, start, end, _ in spans
    }


def _median_us(durations):
    return 1e6 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed as in ``BENCHMARK.json``."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def dur(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    def per_unit_us(names):
        time_s = sum(sum(dur(n)) for n in names)
        units = sum(s[5][0] for n in names for s in by_name.get(n, ()))
        return 1e6 * time_s / units if units else 0.0

    def newton(layer):
        calls = by_name.get(f"{layer}.damped_newton_max", ())
        iters = sum(s[5][0] for s in calls)
        gnorm = max((s[5][1] for s in calls), default=0.0)
        return len(calls), (iters / len(calls) if calls else 0.0), gnorm

    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sid, _, name, _, _, _ in spans:
        layer_self[name.split(".", 1)[0]] += own[sid]

    overlap = 0.0
    for span in by_name.get("cli._parallel_map", ()):
        members = [s[4] - s[3] for s in by_name.get("cli.sweep_member", ()) if s[1] == span[0]]
        overlap += sum(members) - (span[4] - span[3])

    d_calls, d_iters, d_gnorm = newton("dissipation")
    m_calls, m_iters, _ = newton("multispecies")
    csv_s = sum(dur("core.trajectory_to_csv"))
    csv_mb = sum(s[5][0] for s in by_name.get("core.trajectory_to_csv", ())) / 1e6
    steps = sum(s[5][0] for n in ("solver.solve_eps_system", "solver.solve_effective")
                for s in by_name.get(n, ()))
    return {
        "solver.eps_step_us": per_unit_us(["solver.solve_eps_system"]),
        "solver.effective_step_us": per_unit_us(["solver.solve_effective"]),
        "solver.steps": steps,
        "solver.self_s": layer_self["solver"],
        "dissipation.interval_us": per_unit_us(["dissipation.dissipation_functional"]),
        "dissipation.primal_us": _median_us(dur("dissipation.primal_R_eps")),
        "dissipation.primal_objective_us": _median_us(dur("dissipation.primal_objective")),
        "dissipation.primal_objective_calls": len(by_name.get("dissipation.primal_objective", ())),
        "dissipation.hat_interval_us": per_unit_us(["dissipation.hat_dissipation"]),
        "dissipation.newton_calls": d_calls,
        "dissipation.newton_iters_per_call": d_iters,
        "dissipation.max_gradient_norm": d_gnorm,
        "dissipation.self_s": layer_self["dissipation"],
        "functionals.slope_us": _median_us(dur("functionals.slope")),
        "functionals.slope_calls": len(by_name.get("functionals.slope", ())),
        "functionals.self_s": layer_self["functionals"],
        "coarsegrain.optimal_flux_us": _median_us(dur("coarsegrain.optimal_coarse_flux")),
        "coarsegrain.optimal_flux_calls": len(by_name.get("coarsegrain.optimal_coarse_flux", ())),
        "coarsegrain.self_s": layer_self["coarsegrain"],
        "multispecies.step_us": per_unit_us(["multispecies.solve_multispecies"]),
        "multispecies.interval_us": per_unit_us(["multispecies.multispecies_dissipation"]),
        "multispecies.newton_iters_per_call": m_iters,
        "multispecies.newton_calls": m_calls,
        "multispecies.self_s": layer_self["multispecies"],
        "core.csv_write_s": csv_s,
        "core.csv_mb": csv_mb,
        "core.csv_mb_per_s": csv_mb / csv_s if csv_s else 0.0,
        "core.self_s": layer_self["core"],
        "cli.self_s": layer_self["cli"],
        "cli.pool_overlap_s": overlap,
    }


METRIC_UNITS = {
    "solver.eps_step_us": "us", "solver.effective_step_us": "us", "solver.steps": "count",
    "solver.self_s": "s",
    "dissipation.interval_us": "us", "dissipation.primal_us": "us",
    "dissipation.primal_objective_us": "us", "dissipation.primal_objective_calls": "count",
    "dissipation.hat_interval_us": "us",
    "dissipation.newton_calls": "count", "dissipation.newton_iters_per_call": "iter/call",
    "dissipation.max_gradient_norm": "1", "dissipation.self_s": "s",
    "functionals.slope_us": "us", "functionals.slope_calls": "count", "functionals.self_s": "s",
    "coarsegrain.optimal_flux_us": "us", "coarsegrain.optimal_flux_calls": "count",
    "coarsegrain.self_s": "s",
    "multispecies.step_us": "us", "multispecies.interval_us": "us",
    "multispecies.newton_iters_per_call": "iter/call", "multispecies.newton_calls": "count",
    "multispecies.self_s": "s",
    "core.csv_write_s": "s", "core.csv_mb": "MB", "core.csv_mb_per_s": "MB/s", "core.self_s": "s",
    "cli.self_s": "s", "cli.pool_overlap_s": "s",
}

# exact counts: two traced runs of the same inputs must agree on these
EXACT_COUNTS = (
    "solver.steps", "dissipation.newton_calls", "dissipation.newton_iters_per_call",
    "dissipation.primal_objective_calls", "functionals.slope_calls",
    "coarsegrain.optimal_flux_calls", "multispecies.newton_calls",
    "multispecies.newton_iters_per_call", "core.csv_mb",
)
