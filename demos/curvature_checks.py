"""Finite-difference curvature on the model charts: the constant-curvature
identity Ric = -(n-1) h, the gauge-adjusted operator at and off the fixed
point, and the gauge-breaking covector.

Run with: python demos/curvature_checks.py
"""

import numpy as np

from cusplab import Chart, MetricField, Q_at, chart_metric, ricci_at
from cusplab.tensorcalc import deturck_field_at, covector_norm, tensor_norm

print("Einstein identity defect |Ric(h) + (n-1) h|_h by chart")
print("(second-order differencing: quartering under step halving)")
cases = [
    ("intermediate_cusp", Chart.intermediate_cusp(4, 1), [0.5, 0.7, 1.2, 0.3]),
    ("maximal_cusp", Chart.maximal_cusp(4), [0.7, 0.1, 0.2, 0.3]),
    ("collar", Chart.collar(4), [0.3, 0.1, -0.2, 0.5]),
    ("upper_half_space", Chart.upper_half_space(4, 1), [0.5, 0.3, -0.2, 0.4]),
]
for label, chart, p in cases:
    h = chart_metric(chart)
    hp = h(p)
    d1 = tensor_norm(hp, ricci_at(h, p, 1e-3) + 3 * hp)
    d2 = tensor_norm(hp, ricci_at(h, p, 5e-4) + 3 * hp)
    print(f"  {label:20s} step 1e-3: {d1:.2e}   step 5e-4: {d2:.2e}"
          f"   order {np.log2(d1 / d2):.2f}")

print()
print("gauge-adjusted operator: zero at the hyperbolic fixed point,")
print("(n-1)(c^2-1) h on a constant rescaling")
chart = Chart.collar(4)
h = chart_metric(chart)
p = np.array([0.4, 0.2, -0.1, 0.3])
print("  |Q(h,h)|_h =", f"{tensor_norm(h(p), Q_at(h, h, p)):.2e}")
c2 = 1.21
g = MetricField(chart, lambda q: c2 * chart.metric_at(q), "scaled")
defect = Q_at(g, g, p) - 3 * (c2 - 1) * h(p)
print("  |Q(c^2 h, c^2 h) - 3(c^2-1) h|_h =", f"{tensor_norm(h(p), defect):.2e}")

print()
print("gauge-breaking covector: vanishes when the reference equals the")
print("metric, nonzero for a generic reference")
tau = MetricField(
    chart,
    lambda q: chart.metric_at(q) * (1 + 0.05 * np.sin(q[0]) * np.cos(q[1])),
    "tau",
)
print("  |omega(h, h)|_h      =",
      f"{covector_norm(h(p), deturck_field_at(h, h, p)):.2e}")
print("  |omega(h, tau)|_h    =",
      f"{covector_norm(h(p), deturck_field_at(h, tau, p)):.2e}")
