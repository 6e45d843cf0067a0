"""Command-line entry point orchestrating the verification runs.

Every subcommand prints a human-readable table, writes a JSON summary (one
object per run) plus CSV tables into the output directory, and exits with:
0 on pass, 1 on usage or configuration errors, 2 on a mathematical
obstruction (an expected negative result such as an inadmissible end
structure), and 3 on numerical failure.

Flags override the key = value config file; the output directory resolves
as --out-dir, then $CUSPLAB_OUT, then ./cusplab_out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import charts, expansion, solver, tensorcalc, weights
from .charts import Chart, parse_config_text

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_OBSTRUCTION = 2
EXIT_NUMERICAL = 3

# exceptions that end a run with EXIT_NUMERICAL (StencilError is a
# ChartDomainError)
NUMERICAL_FAILURES = (
    solver.NonConvergence,
    charts.ChartDomainError,
    expansion.CharacteristicExponentHit,
    expansion.IndicialExtractionFailure,
)


@dataclass
class RunConfig:
    """Resolved configuration of one subcommand run."""

    subcommand: str
    n: int = 4
    f: int = 1
    ranks: tuple[int, ...] = (1,)
    K: float = -2.0
    mu0: Optional[float] = None
    weights_mode: str = "auto"
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    nodes: int = 48
    refinements: tuple[int, ...] = (17, 33, 65)
    step: float = 1e-3
    tolerance: float = 1e-4
    seed: int = 0
    stages: int = 3
    perturb: float = 0.0
    expect_indefinite: bool = False
    out_dir: Path = field(default_factory=lambda: Path("cusplab_out"))

    def validate(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps list must be strictly decreasing")
        if len(self.refinements) < 2:
            raise ValueError("an identity order needs at least two refinements")
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        for value, name in ((self.K, "K"), (self.step, "step"),
                            (self.tolerance, "tolerance"), (self.mu0, "mu0"),
                            (self.perturb, "perturb")):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        for value, name in ((self.nodes, "nodes"), (self.step, "step"),
                            (self.tolerance, "tolerance")):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if abs(self.perturb) >= 1:
            # (1 + perturb sin) g_ii must stay positive
            raise ValueError("perturb must lie in (-1, 1)")


class Report:
    """Accumulates checks and streams artifacts so that partial results
    survive an abnormal exit."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.started = time.time()
        self.checks: list[dict] = []
        self.tables: dict[str, str] = {}
        self.error: Optional[dict] = None
        self.extra: dict = {}
        cfg.out_dir.mkdir(parents=True, exist_ok=True)

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

    def write_csv(self, name: str, header: list[str], rows: list[list]):
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
            "config": {
                k: (list(v) if isinstance(v, tuple) else str(v) if isinstance(v, Path) else v)
                for k, v in vars(self.cfg).items()
            },
            "checks": self.checks,
            "tables": self.tables,
            "error": self.error,
            **self.extra,
        }
        path = self.cfg.out_dir / f"{self.cfg.subcommand}_summary.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=_jsonify)
        print(f"summary: {path}")

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _print_table(header: list[str], rows: list[list]):
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# -- subcommands ---------------------------------------------------------------


def cmd_weights(cfg: RunConfig, rep: Report) -> None:
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
    _print_table(
        ["end", "rank", "mu_max", "candidate", "inside", "cand_margin",
         "chosen", "margin"], rows)
    rep.write_csv("ends", ["end", "rank", "mu_max", "candidate", "inside",
                           "cand_margin", "chosen", "margin"], rows)
    rep.check("l2_cutoff", float(d["l2_ok"]), 1.0, bool(d["l2_ok"]),
              weights.L2_ANCHOR)
    rep.check("min_margin", d["min_margin"], 0.0, d["min_margin"] > 0,
              weights.CUSP_ANCHOR)
    rep.extra["report"] = d


def _sample_chart_points(chart: Chart, count: int, rng) -> list[np.ndarray]:
    pts = []
    ranges = chart.coordinate_ranges()
    while len(pts) < count:
        p = []
        for lo, hi in ranges:
            if math.isinf(lo) or math.isinf(hi):
                p.append(rng.uniform(-0.8, 0.8))
            else:
                span = hi - lo
                p.append(rng.uniform(lo + 0.25 * span, hi - 0.25 * span))
        p = np.array(p)
        if chart.contains(p):
            pts.append(p)
    return pts


def _all_chart_kinds(n: int, f: int) -> list[Chart]:
    return [
        Chart.intermediate_cusp(n, f),
        Chart.maximal_cusp(n),
        Chart.collar(n),
        Chart.upper_half_space(n, f),
    ]


def cmd_curvature(cfg: RunConfig, rep: Report) -> None:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst, worst_order = 0.0, math.inf
    per_kind = max(1, 200 // 4 + 1)
    for chart in _all_chart_kinds(cfg.n, cfg.f):
        h = tensorcalc.chart_metric(chart)
        if cfg.perturb:
            bump = cfg.perturb

            def ev(p, chart=chart, bump=bump):
                g = chart.metric_at(p)
                return g + bump * math.sin(3.0 * p[0]) * np.diag(np.diag(g))

            h = tensorcalc.MetricField(chart, ev, "perturbed")
        defect1 = defect2 = 0.0
        for p in _sample_chart_points(chart, per_kind, rng):
            hp = h(p)
            n = chart.n
            d1 = tensorcalc.tensor_norm(
                hp, tensorcalc.ricci_at(h, p, cfg.step) + (n - 1) * hp)
            d2 = tensorcalc.tensor_norm(
                hp, tensorcalc.ricci_at(h, p, cfg.step / 2) + (n - 1) * hp)
            defect1, defect2 = max(defect1, d1), max(defect2, d2)
        order = math.log2(defect1 / defect2) if defect2 > 0 else math.inf
        rows.append([chart.kind, defect1, defect2, order])
        worst = max(worst, defect1)
        worst_order = min(worst_order, order)
    _print_table(["chart", "defect(step)", "defect(step/2)", "order"], rows)
    rep.write_csv("defects", ["chart", "defect_step", "defect_half", "order"], rows)
    rep.check("max_defect", worst, cfg.tolerance, worst <= cfg.tolerance,
              "constant-curvature-identity")
    rep.check("richardson_order", worst_order, 1.9, worst_order >= 1.9,
              "second-order-differencing")


def _resolve_weights(cfg: RunConfig) -> weights.WeightVector:
    if cfg.weights_mode == "auto":
        vector, _ = weights.admissible_weights(cfg.n, (cfg.f,), K=cfg.K,
                                               mu0=cfg.mu0)
        return vector
    mus = tuple(float(x) for x in cfg.weights_mode.split(","))
    return weights.WeightVector(mu0=mus[0], mus=mus[1:], ranks=(cfg.f,), n=cfg.n)


def cmd_solve(cfg: RunConfig, rep: Report) -> None:
    chart = Chart.intermediate_cusp(cfg.n, cfg.f)
    w = _resolve_weights(cfg)
    grid = solver.cusp_grid(chart, cfg.eps_list[0], nodes=cfg.nodes)
    K = -50.0 if cfg.expect_indefinite else cfg.K
    op = solver.assemble(grid, K)
    f_field = solver.sample_field(grid, solver.default_bump_recipe(w))
    u = solver.solve_dirichlet(op, f_field)
    ratio = solver.weighted_sup_norm(u, w) / solver.weighted_sup_norm(f_field, w)
    mp = solver.maximum_principle_check(grid, K, w)
    print(f"ratio |u|_mu / |f|_mu = {ratio:.6g}; min barrier ratio "
          f"{mp.min_ratio:.6g} vs closed form {mp.closed_form_delta:.6g}")
    rep.check("barrier_ratio", mp.min_ratio, mp.tolerance, mp.passed,
              weights.CUSP_ANCHOR)
    rep.write_csv("solve", ["eps", "ratio", "min_barrier_ratio"],
                  [[cfg.eps_list[0], ratio, mp.min_ratio]])


def cmd_sweep(cfg: RunConfig, rep: Report) -> None:
    chart = Chart.intermediate_cusp(cfg.n, cfg.f)
    w = _resolve_weights(cfg)
    margin = weights.cusp_margin(cfg.K, w.mus[0], w.mu0, cfg.f, cfg.n)
    assert_plateau = margin.delta > 0
    if not assert_plateau:
        print(f"warning: inadmissible weights (margin {margin.delta:.4g} <= 0); "
              "ratios recorded but boundedness not asserted")
    rows = solver.exhaustion_sweep(
        chart, cfg.K, w, solver.default_bump_recipe(w), cfg.eps_list,
        nodes=cfg.nodes, on_error="record")
    table = [[r.eps, r.norm_u, r.norm_f, r.ratio, r.mms_error, r.error or ""]
             for r in rows]
    _print_table(["eps", "|u|_mu", "|f|_mu", "ratio", "mms_error", "error"],
                 table)
    rep.write_csv("ratios", ["eps", "norm_u", "norm_f", "ratio", "mms_error",
                             "error"], table)
    rep.extra["min_eigenvalues"] = [r.min_eigenvalue for r in rows]
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


def cmd_koiso(cfg: RunConfig, rep: Report) -> None:
    chart = Chart.collar(cfg.n, edge=2.5)
    gaps, rows = [], []
    for nodes in cfg.refinements:
        grid = solver.compact_patch_grid(chart, nodes, (1.0, 2.0), (-0.5, 0.5))
        u = solver.random_bump_tensor(grid, np.random.default_rng(cfg.seed))
        res = solver.koiso_quadrature(grid, u, K=cfg.K)
        gaps.append(res.gap)
        level_order = (math.log2(gaps[-2] / gaps[-1]) if len(gaps) > 1
                       else math.nan)
        rows.append([nodes, res.lhs, res.rhs, res.gap, res.slack, level_order])
    _print_table(["nodes", "lhs", "rhs", "gap", "slack", "order"], rows)
    rep.write_csv("identity", ["nodes", "lhs", "rhs", "gap", "slack", "order"],
                  rows)
    spacings = [1.0 / (k - 1) for k in cfg.refinements]
    order = float(np.polyfit(np.log(spacings), np.log(gaps), 1)[0])
    rep.check("identity_order", order, 1.8, order >= 1.8,
              "tensor-integration-by-parts")
    grid = solver.compact_patch_grid(chart, cfg.refinements[-1], (1.0, 2.0),
                                     (-0.5, 0.5))
    worst = math.inf
    for seed in range(20):
        u = solver.random_bump_tensor(grid, np.random.default_rng(seed))
        worst = min(worst, solver.koiso_quadrature(grid, u, K=cfg.K).slack)
    bound = -10.0 * gaps[-1]
    rep.check("lower_bound_slack", worst, bound, worst >= bound,
              "improved-tensor-lower-bound")
    print(f"identity order {order:.3f}; worst slack {worst:.3e} >= {bound:.3e}")


def cmd_schauder(cfg: RunConfig, rep: Report) -> None:
    fams = solver.default_scan_families(cfg.n, cfg.f)
    rows = solver.schauder_coefficient_scan(fams, cfg.eps_list)
    table = [[r.family, r.eps, r.min_eig, r.max_eig, r.cond, r.max_coeff_diff]
             for r in rows]
    _print_table(["family", "eps", "min_eig", "max_eig", "cond", "coeff_diff"],
                 table)
    rep.write_csv("scan", ["family", "eps", "min_eig", "max_eig", "cond",
                           "coeff_diff"], table)
    spread = solver.condition_number_spread(rows)
    worst = max(spread.values())
    rep.check("cond_spread", worst, 0.05, worst < 0.05,
              "uniform-rescaled-coefficients")
    rep.extra["spread"] = spread


def cmd_expand(cfg: RunConfig, rep: Report) -> None:
    chart = Chart.collar(cfg.n, h_u="round_sphere")
    bd = expansion.seeded_boundary_data(chart, seed=cfg.seed, amplitude=0.05)
    stages = expansion.S_map(bd, stages=cfg.stages)
    rhos = [2.0 ** (-k) for k in range(3, 9)]
    center = 0.5 * (bd.y_support[0] + bd.y_support[1])
    y0 = bd._reference_y()
    ys = []
    for dy in (-0.15, 0.0, 0.12):
        y = y0.copy()
        y[0] = center + dy
        ys.append(y)
    thresholds = {1: 0.9, 2: 1.85, 3: 2.7}
    rows = []
    for g in stages:
        fit = expansion.vanishing_order(g, stages[0], rhos, ys)
        gauge = expansion.gauge_term_norm(
            g, [np.concatenate(([r], ys[1])) for r in (0.15, 0.35)],
            step=cfg.step)
        thr = thresholds.get(g.order, 0.0)
        rep.check(f"stage{g.order}_slope", fit.slope, thr,
                        fit.slope >= thr, "residual-vanishing-order")
        gauge_bound = 10.0 * cfg.step ** 2
        rep.check(f"stage{g.order}_gauge", gauge, gauge_bound,
                  gauge <= gauge_bound, "gauge-term-vanishing")
        for d in fit.per_y:
            rows.append([g.order, d["y"][0], d["slope"], d["residual"]])
    _print_table(["stage", "y", "slope", "residual"], rows)
    rep.write_csv("slopes", ["stage", "y", "slope", "residual"], rows)


COMMANDS = {
    "weights": cmd_weights,
    "curvature": cmd_curvature,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "koiso": cmd_koiso,
    "schauder": cmd_schauder,
    "expand": cmd_expand,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cusplab",
        description="verification runs for hyperbolic metrics with cusp ends",
    )
    ap.add_argument("--config", type=Path, help="key = value configuration file")
    ap.add_argument("--out-dir", type=Path, help="artifact directory")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--n", type=int)
        p.add_argument("--f", type=int)
        p.add_argument("--K", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--step", type=float)
        p.add_argument("--tolerance", type=float)
        p.add_argument("--nodes", type=int)
        p.add_argument("--eps", type=str, help="comma-separated decreasing list")
        # accepted after the subcommand as well; absent leaves the top-level
        # value untouched
        p.add_argument("--out-dir", type=Path, default=argparse.SUPPRESS)
        p.add_argument("--config", type=Path, default=argparse.SUPPRESS)

    p = sub.add_parser("weights", help="admissible weight search and windows")
    p.add_argument("--ranks", type=str, help="comma-separated cusp ranks")
    p.add_argument("--mu0", type=float)
    common(p)

    p = sub.add_parser("curvature", help="constant-curvature identity checks")
    p.add_argument("--perturb", type=float, default=None,
                   help="deliberately break the metric by this amplitude")
    common(p)

    p = sub.add_parser("solve", help="single Dirichlet solve")
    p.add_argument("--weights", dest="weights_mode", type=str,
                   help="'auto' or mu0,mu1,... explicit values")
    p.add_argument("--expect-indefinite", dest="expect_indefinite",
                   action="store_const", const=True, default=None,
                   help="flag an intentionally indefinite configuration")
    common(p)

    p = sub.add_parser("sweep", help="exhaustion sweep of Dirichlet solves")
    p.add_argument("--weights", dest="weights_mode", type=str)
    common(p)

    p = sub.add_parser("koiso", help="tensor quadrature identity")
    p.add_argument("--refine", type=str, help="comma-separated node counts")
    common(p)

    p = sub.add_parser("schauder", help="rescaled-metric uniformity scan")
    common(p)

    p = sub.add_parser("expand", help="boundary expansion ladder")
    p.add_argument("--stages", type=int)
    common(p)
    return ap


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    file_values: dict[str, str] = {}
    if args.config:
        file_values = parse_config_text(Path(args.config).read_text())

    def pick(name: str, cast, current):
        flag = getattr(args, name, None)
        if flag is not None:
            return cast(flag) if not isinstance(flag, bool) else flag
        if name in file_values:
            return cast(file_values[name])
        return current

    as_is = lambda v: v
    cfg.n = pick("n", int, cfg.n)
    cfg.f = pick("f", int, cfg.f)
    cfg.K = pick("K", float, cfg.K)
    cfg.seed = pick("seed", int, cfg.seed)
    cfg.step = pick("step", float, cfg.step)
    cfg.tolerance = pick("tolerance", float, cfg.tolerance)
    cfg.nodes = pick("nodes", int, cfg.nodes)
    cfg.mu0 = pick("mu0", float, cfg.mu0)
    cfg.stages = pick("stages", int, cfg.stages)
    cfg.perturb = pick("perturb", float, cfg.perturb)
    cfg.weights_mode = pick("weights_mode", as_is, cfg.weights_mode)
    cfg.expect_indefinite = bool(
        pick("expect_indefinite",
             lambda v: str(v).lower() in ("1", "true", "yes"),
             cfg.expect_indefinite)
    )

    ranks = pick("ranks", as_is, None)
    if ranks is not None:
        cfg.ranks = tuple(int(x) for x in str(ranks).split(","))
    eps = pick("eps", as_is, None)
    if eps is not None:
        cfg.eps_list = tuple(float(x) for x in str(eps).split(","))
    elif cfg.subcommand == "schauder":
        cfg.eps_list = (1e-1, 1e-2, 1e-3, 1e-4)
    refine = pick("refine", as_is, None)
    if refine is not None:
        cfg.refinements = tuple(int(x) for x in str(refine).split(","))

    out = args.out_dir or os.environ.get("CUSPLAB_OUT")
    if out:
        cfg.out_dir = Path(out)
    cfg.validate()
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
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
        if isinstance(exc, solver.NonConvergence):
            rep.error["residual"] = exc.residual
        print(f"numerical failure: {exc}", file=sys.stderr)
    except ValueError as exc:
        status, code = "configuration-error", EXIT_USAGE
        rep.error = {"type": type(exc).__name__, "message": str(exc)}
        print(f"configuration error: {exc}", file=sys.stderr)
    rep.finish(status)
    return code


if __name__ == "__main__":
    sys.exit(main())
