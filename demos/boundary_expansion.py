"""Order-by-order asymptotic solutions near the conformal boundary: perturb
the boundary metric, extend and rescale, then cancel residual coefficients
with indicial solves until the characteristic exponent stops the ladder.

Run with: python demos/boundary_expansion.py   (under a second)
"""

import numpy as np

from cusplab import Chart
from cusplab.expansion import (
    CharacteristicExponentHit,
    S_map,
    correction_step,
    gauge_term_norm,
    indicial_blocks,
    seeded_boundary_data,
    vanishing_order,
)

chart = Chart.collar(4, h_u="round_sphere")
bd = seeded_boundary_data(chart, seed=3, amplitude=0.05)
print(f"boundary data: sup |qhat| = 0.05, cutoff support "
      f"({bd.y_support[0]:.3f}, {bd.y_support[1]:.3f})")
print()

print("indicial block scalars (K - s(s - (n-1)))/2 in closed form; the")
print("trace-free tangential block (K = 0) hits zero at the characteristic")
print("exponent s = n - 1 = 3:")
for s in (1.0, 2.0, 3.0):
    b = indicial_blocks(s, chart.n)
    print(f"  s={s}: normal-normal/trace {b.m2:+.4f}, normal-tangential "
          f"{b.mv:+.4f}, trace-free {b.mt:+.4f}, singular: {b.singular()}")
print()

print("building the expansion ladder (two indicial solves)...")
stages = S_map(bd, stages=3)
rhos = [2.0 ** (-k) for k in range(3, 9)]
center = 0.5 * (bd.y_support[0] + bd.y_support[1])
ys = bd.line(center + np.array([-0.15, 0.0, 0.12]))

print("residual decay |Q(g_j, g_1)|_h ~ rho^slope:")
for g in stages:
    fit = vanishing_order(g, stages[0], rhos, ys)
    print(f"  stage {g.order}: fitted slope {fit.slope:.3f}")

pts = [np.concatenate(([r], ys[1])) for r in (0.15, 0.35)]
print()
print("gauge term of Q(g_j, g_j) (vanishes in exact arithmetic):")
for g in stages:
    print(f"  stage {g.order}: {gauge_term_norm(g, pts, step=1e-3):.2e}")

print()
try:
    correction_step(stages[-1], stages[0])
except CharacteristicExponentHit as exc:
    print("next solve refused:", exc)
