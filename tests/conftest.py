import numpy as np
import pytest

from cusplab.charts import Chart, batched, smooth_bump
from cusplab.tensorcalc import MetricField


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def metric_points(monkeypatch):
    """Counts the points `Chart.metric_at` evaluates: one per call on a
    point, one per row of an array. The wrapper stays array-native, so the
    count follows the path the code really takes."""
    count = [0]
    original = Chart.metric_at

    @batched
    def counted(self, p):
        count[0] += len(np.atleast_2d(p))
        return original(self, p)

    monkeypatch.setattr(Chart, "metric_at", counted)
    return count


@pytest.fixture(scope="session")
def one_rho_bump():
    """The round n = 4 collar's metric times 1 + 1e-10 bump(rho), the bump
    supported within 0.02 of rho = 1/8. Among the vanishing-order samples
    rho = 2^-3 ... 2^-8, only rho = 1/8 sees it: elsewhere the metric is
    the chart's, bit for bit, so Q(g, g) - Q(h, h) is exactly zero."""
    chart = Chart.collar(4, h_u="round_sphere")

    @batched
    def ev(q):
        bump = smooth_bump((np.asarray(q)[..., 0] - 0.125) / 0.02)
        return chart.metric_at(q) * (1.0 + 1e-10 * np.asarray(bump))[..., None, None]

    return MetricField(chart, ev, "bump")
