"""Per-layer tracing of cusplab from outside the package.

``Tracer.installed()`` replaces the layer-boundary callables of ``charts``,
``tensorcalc``, ``expansion``, ``solver``, ``weights`` and ``cli`` with
timing wrappers and restores them on exit. Modules that bound a function by
name (``from .tensorcalc import Q_at``) are rebound too, so every call path
is seen. Spans are aggregated in memory as they close: per span name the
call count, the time of outermost spans (so recursion is not counted
twice), the self time (span minus its child spans) and the metric
evaluations made inside outermost spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from typing import Callable, Optional

METRIC_SPAN = "charts.metric_at"


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "metric_evals", "units", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.metric_evals = 0
        self.units = 0
        self.depth = 0


class _TracedNamespace:
    """Stands in for a module: the given attributes are traced, all others
    are looked up on the module itself."""

    def __init__(self, module, **traced):
        self._module = module
        self.__dict__.update(traced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # open spans: [start, child time]
        self._metric = self.stat(METRIC_SPAN)

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn: Callable,
             units: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` recorded as a span called ``name``; ``units(*args)`` adds a
        work count (such as unknowns solved) per call."""
        stat, metric, stack = self.stat(name), self._metric, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stat.depth == 0
            evals = metric.calls
            stat.depth += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - frame[0]
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += span - frame[1]
                if stack:
                    stack[-1][1] += span
                if outer:
                    stat.total_s += span
                    stat.metric_evals += metric.calls - evals
                if units is not None:
                    stat.units += units(*args, **kwargs)

        return traced

    def counts(self) -> dict[str, tuple[int, int, int]]:
        """Everything that must repeat exactly for a fixed seed."""
        return {name: (s.calls, s.metric_evals, s.units)
                for name, s in sorted(self.stats.items())}

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for name, s in self.stats.items()
                   if name.split(".")[0] == layer)

    @contextlib.contextmanager
    def installed(self):
        """Trace the imported ``cusplab`` package inside the block."""
        import cusplab
        from cusplab import charts, cli, expansion, solver, tensorcalc, weights

        modules = (charts, tensorcalc, expansion, solver, weights, cli)
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        try:
            replaced: dict[Callable, Callable] = {}
            for module in modules:
                layer = module.__name__.rsplit(".", 1)[1]
                for attr, fn in _public_functions(module):
                    replaced[fn] = self.wrap(f"{layer}.{attr}", fn, _UNITS.get(attr))
            for module in (cusplab, *modules):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replaced:
                        patch(module, attr, replaced[value])

            patch(charts.Chart, "metric_at",
                  self.wrap(METRIC_SPAN, charts.Chart.metric_at))
            for cls in (tensorcalc.MetricField, tensorcalc.SymTensorField,
                        tensorcalc.Tensor3Field):
                patch(cls, "__call__",
                      self.wrap("tensorcalc.field_eval", cls.__call__))
            patch(solver.SparseOperator, "smallest_eigenvalue",
                  self.wrap("solver.probe",
                            solver.SparseOperator.smallest_eigenvalue))
            spla = solver.spla
            patch(solver, "spla", _TracedNamespace(
                spla,
                spsolve=self.wrap("solver.direct", spla.spsolve),
                cg=self.wrap("solver.cg", spla.cg),
            ))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


_UNITS = {"solve_dirichlet": lambda op, *args, **kwargs: op.n_unknowns}


def _public_functions(module):
    return [(attr, fn) for attr, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not attr.startswith("_")]


# -- per-layer metrics ----------------------------------------------------------

# name -> (unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER: dict[str, tuple[str, str]] = {
    "charts.metric_at.calls": ("count", "lower"),
    "charts.metric_at.self_s": ("s", "lower"),
    "tensorcalc.field_eval.calls": ("count", "lower"),
    "tensorcalc.field_eval.s": ("s", "lower"),
    "tensorcalc.christoffels_at.calls": ("count", "lower"),
    "tensorcalc.ricci_at.calls": ("count", "lower"),
    "tensorcalc.Q_at.calls": ("count", "lower"),
    "tensorcalc.L_at.calls": ("count", "lower"),
    "tensorcalc.Q_at.s": ("s", "lower"),
    "tensorcalc.self_s": ("s", "lower"),
    "tensorcalc.metric_evals_per_Q": ("evals/call", "lower"),
    "expansion.indicial_blocks.s": ("s", "lower"),
    "expansion.correction_step.s": ("s", "lower"),
    "expansion.extract_residual_coefficient.calls": ("count", "lower"),
    "expansion.vanishing_order.s": ("s", "lower"),
    "expansion.gauge_term_norm.s": ("s", "lower"),
    "expansion.self_s": ("s", "lower"),
    "expansion.slope_headroom.stage1": ("order", "higher"),
    "expansion.slope_headroom.stage2": ("order", "higher"),
    "expansion.slope_headroom.stage3": ("order", "higher"),
    "solver.probe.calls": ("count", "lower"),
    "solver.probe.s": ("s", "lower"),
    "solver.assemble.calls": ("count", "lower"),
    "solver.assemble.s": ("s", "lower"),
    "solver.direct.s": ("s", "lower"),
    "solver.cg.s": ("s", "lower"),
    "solver.solve_dirichlet.calls": ("count", "lower"),
    "solver.unknowns": ("count", "lower"),
    "solver.sample_field.s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.probe_fraction": ("ratio", "lower"),
    "weights.admissible_weights.calls": ("count", "lower"),
    "weights.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def slope_headroom(summaries: list[dict]) -> dict[int, float]:
    """Stage slope minus its threshold, from ``expand`` summaries."""
    out = {}
    for summary in summaries:
        for check in summary.get("checks", []):
            name = check["name"]
            if name.startswith("stage") and name.endswith("_slope"):
                out[int(name[5:-6])] = check["value"] - check["tolerance"]
    return out


def per_layer_metrics(tracer: Tracer, summaries: list[dict],
                      traced_wall_s: float, untraced_wall_s: float) -> dict:
    st = tracer.stats.get
    empty = Stat()

    def get(name: str) -> Stat:
        return st(name) or empty

    q, solve, probe = get("tensorcalc.Q_at"), get("solver.solve_dirichlet"), get("solver.probe")
    headroom = slope_headroom(summaries)
    values = {
        "charts.metric_at.calls": get(METRIC_SPAN).calls,
        "charts.metric_at.self_s": get(METRIC_SPAN).self_s,
        "tensorcalc.field_eval.calls": get("tensorcalc.field_eval").calls,
        "tensorcalc.field_eval.s": get("tensorcalc.field_eval").total_s,
        "tensorcalc.christoffels_at.calls": get("tensorcalc.christoffels_at").calls,
        "tensorcalc.ricci_at.calls": get("tensorcalc.ricci_at").calls,
        "tensorcalc.Q_at.calls": q.calls,
        "tensorcalc.L_at.calls": get("tensorcalc.L_at").calls,
        "tensorcalc.Q_at.s": q.total_s,
        "tensorcalc.self_s": tracer.layer_self_s("tensorcalc"),
        "tensorcalc.metric_evals_per_Q": q.metric_evals / q.calls if q.calls else 0.0,
        "expansion.indicial_blocks.s": get("expansion.indicial_blocks").total_s,
        "expansion.correction_step.s": get("expansion.correction_step").total_s,
        "expansion.extract_residual_coefficient.calls":
            get("expansion.extract_residual_coefficient").calls,
        "expansion.vanishing_order.s": get("expansion.vanishing_order").total_s,
        "expansion.gauge_term_norm.s": get("expansion.gauge_term_norm").total_s,
        "expansion.self_s": tracer.layer_self_s("expansion"),
        "solver.probe.calls": probe.calls,
        "solver.probe.s": probe.total_s,
        "solver.assemble.calls": get("solver.assemble").calls,
        "solver.assemble.s": get("solver.assemble").total_s,
        "solver.direct.s": get("solver.direct").total_s,
        "solver.cg.s": get("solver.cg").total_s,
        "solver.solve_dirichlet.calls": solve.calls,
        "solver.unknowns": solve.units,
        "solver.sample_field.s": get("solver.sample_field").total_s,
        "solver.self_s": tracer.layer_self_s("solver"),
        "solver.probe_fraction": probe.total_s / solve.total_s if solve.total_s else 0.0,
        "weights.admissible_weights.calls": get("weights.admissible_weights").calls,
        "weights.self_s": tracer.layer_self_s("weights"),
        "cli.self_s": tracer.layer_self_s("cli"),
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s - 1.0,
    }
    for stage in (1, 2, 3):
        values[f"expansion.slope_headroom.stage{stage}"] = headroom.get(stage, 0.0)
    return values
