"""cusplab: numerics for hyperbolic metrics with cusp ends.

Model charts and their closed-form metrics, finite-difference curvature and
gauge-adjusted Einstein operators, weight-admissibility algebra, Dirichlet
solves on exhaustion domains, and asymptotic boundary expansions.
"""

from .charts import (
    Chart,
    ChartDomainError,
    RescalingCase,
    rescaled_metric_at,
)
from .tensorcalc import (
    MetricField,
    SymTensorField,
    Tensor3Field,
    chart_metric,
    christoffels_at,
    ricci_at,
    laplacian_scalar_at,
    Q_at,
    L_at,
)
from .weights import (
    WeightVector,
    AdmissibilityObstruction,
    DimensionTooSmall,
    admissible_weights,
    mu0_window,
    cusp_weight_window,
    indicial_roots,
)

__all__ = [
    "Chart",
    "ChartDomainError",
    "RescalingCase",
    "rescaled_metric_at",
    "MetricField",
    "SymTensorField",
    "Tensor3Field",
    "chart_metric",
    "christoffels_at",
    "ricci_at",
    "laplacian_scalar_at",
    "Q_at",
    "L_at",
    "WeightVector",
    "AdmissibilityObstruction",
    "DimensionTooSmall",
    "admissible_weights",
    "mu0_window",
    "cusp_weight_window",
    "indicial_roots",
]

__version__ = "0.1.0"
