"""Dirichlet solves on a shrinking family of truncated cusp domains: the
weighted-norm ratio |u|_mu / |f|_mu stays bounded for admissible weights,
the discrete barrier ratio tracks its closed form, and a manufactured
solution is recovered to solver precision.

Run with: python demos/dirichlet_sweep.py
"""

from cusplab import Chart, admissible_weights
from cusplab.solver import (
    assemble,
    cusp_grid,
    default_bump_recipe,
    exhaustion_sweep,
    maximum_principle_check,
    plateau_factor,
)

chart = Chart.intermediate_cusp(4, 1)
w, rep = admissible_weights(4, (1,))
print(f"admissible weights: mu0 = {w.mu0}, mu_1 = {w.mus[0]}, "
      f"margin = {rep.min_margin}")
print()

print("exhaustion sweep, K = -2, eps halving from 0.2:")
rows = exhaustion_sweep(chart, -2.0, w, default_bump_recipe(w),
                        [0.2, 0.1, 0.05, 0.025], nodes=48)
print(f"{'eps':>6} {'|u|_mu':>10} {'|f|_mu':>10} {'ratio':>8} {'mms err':>10}")
for r in rows:
    print(f"{r.eps:6.3f} {r.norm_u:10.4g} {r.norm_f:10.4g} "
          f"{r.ratio:8.4f} {r.mms_error:10.2e}")
print(f"ratio max/min over the family: {plateau_factor(rows):.3f} (<= 2)")
print()

print("discrete barrier ratio vs closed-form margin:")
grid = cusp_grid(chart, 0.05, nodes=48)
mp = maximum_principle_check(assemble(grid, -2.0), w)
print(f"  min nodal (Delta + K) sigma^mu / sigma^mu = {mp.min_ratio:.4f}")
print(f"  closed-form margin delta                  = {mp.closed_form_delta:.4f}")
print(f"  within tolerance {mp.tolerance:.1e}: {mp.passed}")
