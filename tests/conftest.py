import numpy as np
import pytest

from cusplab.charts import Chart, batched


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
