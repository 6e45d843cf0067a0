"""Command-line entry point orchestrating the verification runs.

Every subcommand prints a human-readable table, writes a JSON summary (one
object per run) plus CSV tables into the output directory, and exits with:
0 on pass, 1 on usage or configuration errors, 2 on a mathematical
obstruction (an expected negative result such as an inadmissible end
structure), and 3 on numerical failure.

``OPTIONS`` declares every option once: its name (the config-file key, the
attribute and the summary key), flag, parser, default and the subcommands
that read it. A subcommand accepts only the flags it reads. Flags override
the key = value config file; a file key that names no option is an error,
and a key of other subcommands only is skipped. The output directory
resolves as --out-dir, then $CUSPLAB_OUT, then ./cusplab_out; it is made
with the configuration, and one that cannot be made is a configuration
error. A flag's value may be negative in any float notation (``--K -1e3``):
argparse takes a word that starts with "-" for a flag unless it is a plain
decimal, so a value of "-" then a digit or "." is joined to the flag that
takes it (``--K=-1e3``) before parsing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import charts, expansion, tensorcalc, weights
from .charts import Chart

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_OBSTRUCTION = 2
EXIT_NUMERICAL = 3

# exceptions that end a run with EXIT_NUMERICAL (StencilError is a
# ChartDomainError; numpy raises RuntimeWarning where warnings are errors,
# as under python -W error). The solver is imported only by the subcommands
# that solve: solve, sweep, koiso and schauder.
NUMERICAL_FAILURES = (
    charts.NonConvergence,
    charts.ChartDomainError,
    expansion.CharacteristicExponentHit,
    expansion.IndicialExtractionFailure,
    RuntimeWarning,
)


# -- options -------------------------------------------------------------------


def _checked(parse: Callable, ok: Callable, message: str) -> Callable:
    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(message)
        return value
    return checked


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _boolean(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("must be true or false")
    return word in ("1", "true", "yes")


_finite = _checked(float, math.isfinite, "must be finite")
_step = _checked(_finite, lambda v: v > 0, "must be positive")
_positives = _checked(lambda text: tuple(float(x) for x in text.split(",")),
                      lambda v: all(math.isfinite(x) and x > 0 for x in v),
                      "must be finite and positive")
_decreasing = _checked(_positives, lambda v: all(b < a for a, b in zip(v, v[1:])),
                       "must be strictly decreasing")
# a uniform bound compares levels: over one, plateau_factor and cond_spread
# hold by construction
_levels = _checked(_decreasing, lambda v: len(v) >= 2,
                   "a uniform bound needs at least two levels")


def _weights_mode(text: str) -> str:
    """'auto' or comma-separated finite numbers, kept as the text given."""
    try:
        if text == "auto" or all(math.isfinite(float(x)) for x in text.split(",")):
            return text
    except ValueError:
        pass
    raise ValueError("must be 'auto' or comma-separated finite numbers")


@dataclass(frozen=True)
class Option:
    """One option: ``name`` is its config-file key, attribute and summary
    key; ``parse`` turns flag and file text alike into the value or raises
    ValueError; ``commands`` are the subcommands that read it. A name has
    one entry per meaning and rule (``eps`` is solve's exhaustion levels, of
    which it reads the first, sweep's, at least two, and schauder's
    rescaling scales, at least two; ``step`` is curvature's Ricci stencil
    step and expand's gauge-check step)."""

    name: str
    flag: str
    parse: Callable[[str], object]
    default: object
    commands: tuple[str, ...]
    help: Optional[str] = None


OPTIONS = (
    Option("n", "--n", _checked(int, lambda v: v >= 2, "must be >= 2"), 4,
           ("weights", "curvature", "solve", "sweep", "koiso", "schauder",
            "expand")),
    Option("f", "--f", int, 1, ("curvature", "solve", "sweep", "schauder")),
    Option("ranks", "--ranks", _ints, (1,), ("weights",),
           "comma-separated cusp ranks"),
    Option("K", "--K", _finite, -2.0, ("weights", "solve", "sweep", "koiso")),
    Option("mu0", "--mu0", _finite, None, ("weights", "solve", "sweep")),
    Option("weights_mode", "--weights", _weights_mode, "auto", ("solve", "sweep"),
           "'auto' or mu0,mu1,... explicit values"),
    Option("eps", "--eps", _decreasing, (0.2, 0.1, 0.05, 0.025), ("solve",),
           "comma-separated decreasing exhaustion levels; solve reads the first"),
    Option("eps", "--eps", _levels, (0.2, 0.1, 0.05, 0.025), ("sweep",),
           "comma-separated decreasing exhaustion levels, at least two"),
    Option("eps", "--eps", _levels, (1e-1, 1e-2, 1e-3, 1e-4), ("schauder",),
           "comma-separated decreasing rescaling scales, at least two"),
    Option("nodes", "--nodes", _checked(int, lambda v: v > 0, "must be positive"),
           48, ("solve", "sweep")),
    Option("refine", "--refine",
           _checked(_ints,
                    lambda v: len(v) >= 2 and all(a < b for a, b in zip(v, v[1:])),
                    "an identity order needs at least two strictly increasing "
                    "node counts"),
           (17, 33, 65), ("koiso",), "comma-separated node counts"),
    Option("step", "--step", _step, 1e-3, ("curvature",),
           "Ricci stencil step; the Richardson order halves it"),
    Option("step", "--step", _step, 1e-3, ("expand",),
           "step of the gauge-term check, whose bound is 10 step^2; "
           "extraction and slope fits use expansion.EXTRACTION_STEP"),
    Option("seed", "--seed", _checked(int, lambda v: v >= 0, "must be non-negative"),
           0, ("curvature", "koiso", "expand")),
    Option("stages", "--stages", _checked(int, lambda v: v >= 1, "must be >= 1"),
           3, ("expand",)),
    # (1 + perturb sin) g_ii must stay positive
    Option("perturb", "--perturb",
           _checked(_finite, lambda v: abs(v) < 1, "must lie in (-1, 1)"), 0.0,
           ("curvature",), "deliberately break the metric by this amplitude"),
    Option("expect_indefinite", "--expect-indefinite", _boolean, False,
           ("solve",), "flag an intentionally indefinite configuration"),
)


def options_of(subcommand: str) -> list[Option]:
    return [opt for opt in OPTIONS if subcommand in opt.commands]


class Report:
    """Accumulates checks and streams artifacts so that partial results
    survive an abnormal exit."""

    def __init__(self, cfg: argparse.Namespace):
        self.cfg = cfg
        self.started = time.time()
        self.checks: list[dict] = []
        self.tables: dict[str, str] = {}
        self.error: Optional[dict] = None
        self.extra: dict = {}

    def check(self, name: str, value: float, tolerance: float, passed: bool,
              claim: str) -> bool:
        self.checks.append({
            "name": name,
            "value": value,
            "tolerance": tolerance,
            "passed": bool(passed),
            "claim": claim,
        })
        return passed

    def table(self, name: str, header: list[str], rows: list[list]):
        """Print the table and write it as ``<sub>_<name>.csv``."""
        widths = [max(len(h), *(len(_fmt(r[i])) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
        path = self.cfg.out_dir / f"{self.cfg.subcommand}_{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.tables[name] = str(path)

    def finish(self, status: str) -> None:
        payload = {
            "subcommand": self.cfg.subcommand,
            "status": status,
            "elapsed_seconds": round(time.time() - self.started, 3),
            "config": vars(self.cfg),
            "checks": self.checks,
            "tables": self.tables,
            "error": self.error,
            **self.extra,
        }
        path = self.cfg.out_dir / f"{self.cfg.subcommand}_summary.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_finite_or_null(payload), fh, indent=2, allow_nan=False)
        print(f"summary: {path}")

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _finite_or_null(obj):
    """obj as plain JSON data: tuples and arrays as lists, numpy scalars as
    Python numbers, paths as text, and every NaN or infinite float as None
    (JSON null): JSON has no NaN or Infinity."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _finite_or_null(obj.tolist())
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# -- subcommands ---------------------------------------------------------------


def cmd_weights(cfg: argparse.Namespace, rep: Report) -> None:
    """Admissible weight search and windows."""
    _, wrep = weights.admissible_weights(cfg.n, cfg.ranks, K=cfg.K, mu0=cfg.mu0)
    d = wrep.to_dict()
    rows = []
    for e in d["ends"]:
        rows.append([
            e["index"], e["rank"],
            e["window"][1] if e["window"] else float("nan"),
            e["candidate"], e["candidate_inside"],
            e["candidate_margin"]["delta"],
            e["chosen"], e["chosen_margin"]["delta"],
        ])
    print(f"face window: {d['mu0_window']}, chosen mu0 = {d['mu0']}, "
          f"face margin = {d['h0_margin']['delta']:.6g}")
    rep.table("ends", ["end", "rank", "mu_max", "candidate", "inside",
                       "cand_margin", "chosen", "margin"], rows)
    rep.check("l2_cutoff", float(d["l2_ok"]), 1.0, bool(d["l2_ok"]),
              weights.L2_ANCHOR)
    rep.check("min_margin", d["min_margin"], 0.0, d["min_margin"] > 0,
              weights.CUSP_ANCHOR)
    rep.extra["report"] = d


def _sample_chart_points(chart: Chart, count: int, rng) -> np.ndarray:
    """count points of the chart as one (count, n) draw: each coordinate
    uniform on the middle half of its range, or on (-0.8, 0.8) when the
    range is infinite."""
    bounds = [(-0.8, 0.8) if math.isinf(lo) or math.isinf(hi)
              else (lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))
              for lo, hi in chart.coordinate_ranges()]
    low, high = np.array(bounds).T
    return rng.uniform(low, high, (count, chart.n))


def _curvature_charts(n: int, f: int) -> dict[str, Chart]:
    """The charts `curvature` checks, by the row label of its table."""
    return {
        "intermediate_cusp": Chart.intermediate_cusp(n, f),
        "maximal_cusp": Chart.maximal_cusp(n),
        "collar": Chart.collar(n),
        "upper_half_space": Chart.upper_half_space(n, f),
    }


def cmd_curvature(cfg: argparse.Namespace, rep: Report) -> None:
    """Constant-curvature identity checks on 51 sample points per chart."""
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for label, chart in _curvature_charts(cfg.n, cfg.f).items():
        h = tensorcalc.chart_metric(chart)
        if cfg.perturb:
            bump = cfg.perturb

            @charts.batched
            def ev(p, chart=chart, bump=bump):
                g = chart.metric_at(p)
                wave = bump * np.sin(3.0 * p[..., 0])
                return g + wave[..., None, None] * (g * np.eye(chart.n))

            # the wave is in p[..., 0], a coordinate of every chart metric
            h = tensorcalc.MetricField(chart, ev, "perturbed",
                                       chart.metric_stepped)
        pts = _sample_chart_points(chart, 51, rng)
        hp = h(pts)
        # np.max keeps a NaN defect, which then fails both checks
        defect1, defect2 = (
            np.max(tensorcalc.tensor_norm(
                hp, tensorcalc.ricci_at(h, pts, step) + (chart.n - 1) * hp))
            for step in (cfg.step, cfg.step / 2))
        order = (math.log2(defect1 / defect2) if defect2 > 0
                 else math.inf if defect2 == 0 else math.nan)
        rows.append([label, defect1, defect2, order])
    rep.table("defects", ["chart", "defect_step", "defect_half", "order"], rows)
    worst = np.max([r[1] for r in rows])
    worst_order = np.min([r[3] for r in rows])
    rep.check("max_defect", worst, 1e-4, worst <= 1e-4,
              "constant-curvature-identity")
    rep.check("richardson_order", worst_order, 1.9, worst_order >= 1.9,
              "second-order-differencing")


def _resolve_weights(cfg: argparse.Namespace) -> weights.WeightVector:
    if cfg.weights_mode == "auto":
        vector, _ = weights.admissible_weights(cfg.n, (cfg.f,), K=cfg.K,
                                               mu0=cfg.mu0)
        return vector
    mus = tuple(float(x) for x in cfg.weights_mode.split(","))
    return weights.WeightVector(mu0=mus[0], mus=mus[1:], ranks=(cfg.f,), n=cfg.n)


def cmd_solve(cfg: argparse.Namespace, rep: Report) -> None:
    """Single Dirichlet solve."""
    from . import solver

    chart = Chart.intermediate_cusp(cfg.n, cfg.f)
    w = _resolve_weights(cfg)
    grid = solver.cusp_grid(chart, cfg.eps[0], nodes=cfg.nodes)
    f_field = solver.sample_field(grid, solver.default_bump_recipe(w))
    solver.check_source(f_field)
    if cfg.expect_indefinite:
        cfg.K = -50.0  # the K this run uses, and so the K its summary records
    op = solver.assemble(grid, cfg.K)
    try:
        u = solver.solve_dirichlet(op, f_field)
    finally:  # the coercivity probe's estimate and steps; null when K >= 0
        rep.extra["min_eigenvalue"] = op.min_eigenvalue
        rep.extra["probe_steps"] = op.probe_steps
        rep.extra["blas_threads"] = solver.solve_blas_threads()
    ratio = solver.weighted_sup_norm(u, w) / solver.weighted_sup_norm(f_field, w)
    mp = solver.maximum_principle_check(op, w)
    print(f"ratio |u|_mu / |f|_mu = {ratio:.6g}; min barrier ratio "
          f"{mp.min_ratio:.6g} vs closed form {mp.closed_form_delta:.6g}")
    rep.check("barrier_ratio", mp.min_ratio, mp.tolerance, mp.passed,
              weights.CUSP_ANCHOR)
    rep.table("solve", ["eps", "ratio", "min_barrier_ratio"],
              [[cfg.eps[0], ratio, mp.min_ratio]])


def cmd_sweep(cfg: argparse.Namespace, rep: Report) -> None:
    """Exhaustion sweep of Dirichlet solves."""
    from . import solver

    chart = Chart.intermediate_cusp(cfg.n, cfg.f)
    w = _resolve_weights(cfg)
    margin = weights.cusp_margin(cfg.K, w.mus[0], w.mu0, cfg.f, cfg.n)
    assert_plateau = margin.delta > 0
    if not assert_plateau:
        print(f"warning: inadmissible weights (margin {margin.delta:.4g} <= 0); "
              "ratios recorded but boundedness not asserted")
    rows = solver.exhaustion_sweep(
        chart, cfg.K, w, solver.default_bump_recipe(w), cfg.eps,
        nodes=cfg.nodes)
    table = [[r.eps, r.norm_u, r.norm_f, r.ratio, r.mms_error, r.error or ""]
             for r in rows]
    rep.table("ratios", ["eps", "norm_u", "norm_f", "ratio", "mms_error",
                         "error"], table)
    rep.extra["min_eigenvalues"] = [r.min_eigenvalue for r in rows]
    rep.extra["probe_steps"] = [r.probe_steps for r in rows]
    rep.extra["blas_threads"] = solver.solve_blas_threads()
    failures = [r for r in rows if r.error is not None]
    if failures:
        raise solver.NonConvergence(
            f"at eps = {failures[0].eps}: {failures[0].error}")
    factor = solver.plateau_factor(rows)
    mms_worst = max(r.mms_error for r in rows)
    rep.check("mms_error", mms_worst, 1e-6, mms_worst <= 1e-6,
              "manufactured-solution-recovery")
    if assert_plateau:
        rep.check("plateau_factor", factor, 2.0, factor <= 2.0,
                  "uniform-inverse-bound")
    rep.extra["plateau_factor"] = factor


def cmd_koiso(cfg: argparse.Namespace, rep: Report) -> None:
    """Tensor quadrature identity."""
    from . import solver

    chart = Chart.collar(cfg.n, edge=2.5)
    gaps, rows = [], []
    for nodes in cfg.refine:
        grid = solver.compact_patch_grid(chart, nodes, (1.0, 2.0), (-0.5, 0.5))
        u = solver.random_bump_tensor(grid, np.random.default_rng(cfg.seed))
        res = solver.koiso_quadrature(grid, u, K=cfg.K)
        gaps.append(res.gap)
        level_order = (math.log2(gaps[-2] / gaps[-1]) if len(gaps) > 1
                       else math.nan)
        rows.append([nodes, res.lhs, res.rhs, res.gap, res.slack, level_order])
    rep.table("identity", ["nodes", "lhs", "rhs", "gap", "slack", "order"],
              rows)
    spacings = [1.0 / (k - 1) for k in cfg.refine]
    order = float(np.polyfit(np.log(spacings), np.log(gaps), 1)[0])
    rep.check("identity_order", order, 1.8, order >= 1.8,
              "tensor-integration-by-parts")
    grid = solver.compact_patch_grid(chart, cfg.refine[-1], (1.0, 2.0),
                                     (-0.5, 0.5))
    slacks = []
    for seed in range(20):
        u = solver.random_bump_tensor(grid, np.random.default_rng(seed))
        slacks.append(solver.koiso_quadrature(grid, u, K=cfg.K).slack)
    # np.min keeps a NaN slack, and an infinite one (an overflowed pairing)
    # fails the check as a NaN does
    worst = float(np.min(slacks))
    bound = -10.0 * gaps[-1]
    passed = math.isfinite(worst) and worst >= bound
    rep.check("lower_bound_slack", worst, bound, passed,
              "improved-tensor-lower-bound")
    relation = ">=" if passed else "fails the bound"
    print(f"identity order {order:.3f}; worst slack {worst:.3e} {relation} "
          f"{bound:.3e}")


def cmd_schauder(cfg: argparse.Namespace, rep: Report) -> None:
    """Rescaled-metric uniformity scan."""
    from . import solver

    fams = solver.default_scan_families(cfg.n, cfg.f)
    rows = solver.schauder_coefficient_scan(fams, cfg.eps)
    table = [[r.family, r.eps, r.min_eig, r.max_eig, r.cond, r.max_coeff_diff]
             for r in rows]
    rep.table("scan", ["family", "eps", "min_eig", "max_eig", "cond",
                       "coeff_diff"], table)
    spread = solver.condition_number_spread(rows)
    worst = max(spread.values())
    rep.check("cond_spread", worst, 0.05, worst < 0.05,
              "uniform-rescaled-coefficients")
    rep.extra["spread"] = spread


def cmd_expand(cfg: argparse.Namespace, rep: Report) -> None:
    """Boundary expansion ladder."""
    chart = Chart.collar(cfg.n, h_u="round_sphere")
    bd = expansion.seeded_boundary_data(chart, seed=cfg.seed, amplitude=0.05)
    stages = expansion.S_map(bd, stages=cfg.stages)
    rhos = [2.0 ** (-k) for k in range(3, 9)]
    center = 0.5 * (bd.y_support[0] + bd.y_support[1])
    ys = bd.line(center + np.array([-0.15, 0.0, 0.12]))
    # each correction stage: its exponent, the closed-form block scalars it
    # divided by, and its largest |coefficient| on the tangential grid
    rep.extra["stages"] = []
    for g in stages[1:]:
        blocks = expansion.indicial_blocks(g.order - 1.0, cfg.n)
        rep.extra["stages"].append({
            "order": g.order, "s": blocks.s, "m2": blocks.m2, "mv": blocks.mv,
            "mt": blocks.mt,
            "max_coefficient": float(np.abs(g.coefficients[-1].values).max()),
        })
    # the coordinates the ladder's stencil steps along, and its size
    stepped, points = tensorcalc.stencil_of(stages[-1])
    rep.extra["stencil"] = {
        "coordinates": list(chart.coordinate_names[:stepped]),
        "points": points}
    rows = []
    for g in stages:
        fit = expansion.vanishing_order(g, stages[0], rhos, ys)
        gauge = expansion.gauge_term_norm(
            g, [np.concatenate(([r], ys[1])) for r in (0.15, 0.35)],
            step=cfg.step)
        thr = expansion.stage_slope(g.order)
        rep.check(f"stage{g.order}_slope", fit.slope, thr,
                        fit.slope >= thr, "residual-vanishing-order")
        gauge_bound = 10.0 * cfg.step ** 2
        rep.check(f"stage{g.order}_gauge", gauge, gauge_bound,
                  gauge <= gauge_bound, "gauge-term-vanishing")
        for d in fit.per_y:
            rows.append([g.order, d["y"][0], d["slope"], d["residual"]])
    rep.table("slopes", ["stage", "y", "slope", "residual"], rows)


COMMANDS = {
    "weights": cmd_weights,
    "curvature": cmd_curvature,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "koiso": cmd_koiso,
    "schauder": cmd_schauder,
    "expand": cmd_expand,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: main runs every call on it."""
    ap = argparse.ArgumentParser(
        prog="cusplab",
        description="verification runs for hyperbolic metrics with cusp ends",
    )
    ap.add_argument("--config", type=Path, help="key = value configuration file")
    ap.add_argument("--out-dir", type=Path, help="artifact directory")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        for opt in options_of(name):
            # every value stays text until _load_config parses it, flag or
            # file alike; an absent flag leaves None
            if opt.parse is _boolean:
                p.add_argument(opt.flag, dest=opt.name, action="store_const",
                               const="true", help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.name, help=opt.help)
        # accepted after the subcommand as well; absent leaves the top-level
        # value untouched
        p.add_argument("--out-dir", type=Path, default=argparse.SUPPRESS)
        p.add_argument("--config", type=Path, default=argparse.SUPPRESS)
    return ap


# the flags that take a value: every option's but the store_const booleans
_VALUE_FLAGS = frozenset({"--config", "--out-dir"} | {
    opt.flag for opt in OPTIONS if opt.parse is not _boolean})


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each word of "-" then a digit or "." that follows a flag
    taking a value joined to it as flag=value; any other word starting
    with "-", such as "--n" or "-h", stays a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value configuration lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_config(args: argparse.Namespace) -> argparse.Namespace:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = parse_config_text(Path(args.config).read_text())
    unknown = sorted(set(file_values) - {opt.name for opt in OPTIONS})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    cfg = argparse.Namespace(subcommand=args.subcommand)
    for opt in options_of(args.subcommand):
        text = getattr(args, opt.name)
        if text is None:
            text = file_values.get(opt.name)
        try:
            value = opt.default if text is None else opt.parse(text)
        except ValueError as exc:
            raise ValueError(f"{opt.name}: {exc}") from None
        setattr(cfg, opt.name, value)
    if getattr(cfg, "weights_mode", "auto") != "auto" and cfg.mu0 is not None:
        raise ValueError("mu0: explicit --weights give mu0 as their first "
                         "value; set one or the other")
    cfg.out_dir = Path(args.out_dir or os.environ.get("CUSPLAB_OUT")
                       or "cusplab_out")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg


# glibc's mallopt parameters and the values set for them: the most that
# glibc's own dynamic rule raises the mmap threshold to on 64-bit (32 MiB),
# and twice that for the trim threshold, as that rule pairs them.  Left
# dynamic, the trim threshold sits near twice the largest freed mmapped
# block.  A pass of Q(g_3, g_1) peaks at about 2.2 MB of live numpy
# temporaries (tracemalloc), so the heap top went back to the OS after every
# pass and was faulted in again for the next.  In process, with getrusage
# over 40 ops after 5 warm-up ops, on 2 vCPUs: an expand --n 4 --stages 3
# --seed 3 op takes about 1,900 minor faults and a mean 3.3-3.6 ms of system
# time without the thresholds, 1 fault and 0.1-0.3 ms with them; a
# sweep --nodes 96 op 228 faults without them, 0 with.  In fresh processes,
# the peak RSS of sweep --K 6 --nodes 1024 (238 MB) and koiso (116 MB) did
# not move; that of solve --nodes 512 --eps 0.05 rose by 0.3 MB, to 123.4 MB.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD, MMAP_THRESHOLD = 64 << 20, 32 << 20


@functools.cache
def _keep_heap_resident() -> None:
    """Raise glibc's mmap and trim thresholds to their dynamic maxima, once
    per process, so freed numpy temporaries stay on the heap for the next
    pass; a silent no-op where libc is not glibc."""
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv: Optional[list[str]] = None) -> int:
    _keep_heap_resident()
    ap = build_parser()
    try:
        args = ap.parse_args(_join_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep = Report(cfg)
    try:
        COMMANDS[cfg.subcommand](cfg, rep)
        status, code = (("pass", EXIT_PASS) if rep.all_passed
                        else ("fail", EXIT_NUMERICAL))
    except weights.AdmissibilityObstruction as exc:
        status, code = "obstruction", EXIT_OBSTRUCTION
        rep.error = {"type": type(exc).__name__, "reason": exc.reason}
        if exc.report:
            rep.extra["report"] = exc.report.to_dict()
        print(f"obstruction: {exc.reason}", file=sys.stderr)
    except NUMERICAL_FAILURES as exc:
        status, code = "numerical-failure", EXIT_NUMERICAL
        rep.error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, charts.NonConvergence):
            rep.error["residual"] = exc.residual
        print(f"numerical failure: {exc}", file=sys.stderr)
    except ValueError as exc:
        status, code = "configuration-error", EXIT_USAGE
        rep.error = {"type": type(exc).__name__, "message": str(exc)}
        print(f"configuration error: {exc}", file=sys.stderr)
    except MemoryError as exc:  # numpy raises a subclass naming the allocation
        status, code = "configuration-error", EXIT_USAGE
        message = f"out of memory: {str(exc) or 'an allocation failed'}"
        rep.error = {"type": "MemoryError", "message": message}
        print(f"configuration error: {message}", file=sys.stderr)
    rep.finish(status)
    return code


if __name__ == "__main__":
    sys.exit(main())
