"""Tour of the model charts: closed-form metrics, volume densities, the
total boundary defining function, and exhaustion membership.

Run with: python demos/charts_tour.py
"""

import numpy as np

from cusplab import Chart

np.set_printoptions(precision=4, suppress=True)

print("=== intermediate-rank cusp, n = 4, rank f = 1 ===")
cusp = Chart.intermediate_cusp(4, 1)
p = [0.5, np.pi / 4, 0.3, 0.2]
print("coordinates:", cusp.coordinate_names)
print("metric at (r=0.5, theta0=pi/4):")
print(cusp.metric_at(p))
print("volume density:", cusp.volume_density_at(p), " (= 2 sqrt 2)")
print("sigma:", cusp.sigma_at(p), " (= r cos theta0 inside the tube)")
print()

print("=== maximal-rank cusp, n = 3: the cusp collar family of rank 2 ===")
mx = Chart.maximal_cusp(3)
print("coordinates:", mx.coordinate_names, " (r = u)")
print("metric at r = 1 is the identity:")
print(mx.metric_at([1.0, 0.1, 0.2]))
print()

print("=== conformally compact collar, n = 3 ===")
collar = Chart.collar(3)
print("metric at rho = 0.1 (all entries 1/rho^2 = 100):")
print(collar.metric_at([0.1, 0.2, -0.3]))
print()

print("=== exhaustion domains {sigma >= eps} ===")
p_small = [0.2, np.pi / 3, 0.1, 0.0]
print("sigma at (r=0.2, theta0=pi/3):", cusp.sigma_at(p_small))
for eps in (0.05, 0.1, 0.2):
    print(f"  in M_eps for eps={eps}?", cusp.in_exhaustion(p_small, eps))
print()

print("=== every chart is positive definite on samples ===")
rng = np.random.default_rng(1)
charts = {"intermediate_cusp": cusp, "maximal_cusp": mx, "collar": collar,
          "upper_half_space": Chart.upper_half_space(4, 1)}
for label, chart in charts.items():
    lows = []
    for _ in range(200):
        p = [rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
             if np.isfinite(lo) and np.isfinite(hi) else rng.uniform(-0.8, 0.8)
             for lo, hi in chart.coordinate_ranges()]
        lows.append(np.linalg.eigvalsh(chart.metric_at(p))[0])
    print(f"  {label:20s} min eigenvalue over 200 points: {min(lows):.4f}")
