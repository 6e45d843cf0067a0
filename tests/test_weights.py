import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab.weights import (
    AdmissibilityObstruction,
    DimensionTooSmall,
    NoRealIndicialRoots,
    WeightVector,
    admissible_weights,
    barrier_H0,
    barrier_cusp,
    barrier_maximal,
    cusp_margin,
    cusp_weight_window,
    indicial_roots,
    l2_cutoff_check,
    mu0_window,
)


class TestL2Cutoff:
    def test_reference_vector(self):
        w = WeightVector(mu0=3.0, mus=(1 / 3, 1 / 3), ranks=(1, 2), n=5)
        assert l2_cutoff_check(w)

    def test_boundary_is_excluded(self):
        w = WeightVector(mu0=1.5, mus=(0.5,), ranks=(1,), n=4)
        assert not l2_cutoff_check(w)
        w2 = WeightVector(mu0=3.0, mus=(-0.5,), ranks=(1,), n=5)
        assert not l2_cutoff_check(w2)

    def test_negative_cusp_weights_allowed_above_cutoff(self):
        w = WeightVector(mu0=3.0, mus=(-0.4,), ranks=(1,), n=5)
        assert l2_cutoff_check(w)

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(mu0=3.0, mus=(0.1,), ranks=(4,), n=4)
        with pytest.raises(ValueError):
            WeightVector(mu0=3.0, mus=(0.1, 0.2), ranks=(1,), n=4)


class TestBarriers:
    def test_constant_barrier(self):
        assert barrier_cusp(-2.0, 0.0, 0.0, 1, 4) == (-2.0, -2.0)
        assert barrier_maximal(-2.0, 0.0, 4) == -2.0
        assert barrier_H0(-2.0, 0.0, 4) == -2.0

    def test_cusp_coefficients(self):
        # K=-2, n=5, f=1, mu=1/3, nu=3: c_cos = -2 - (1/9 + 1/3 - 9)
        c_cos, c_sin = barrier_cusp(-2.0, 1 / 3, 3.0, 1, 5)
        assert c_cos == pytest.approx(-2.0 + 9.0 - 4.0 / 9.0, rel=1e-12)
        assert c_sin == pytest.approx(1.0, rel=1e-12)

    def test_rank_two_in_dimension_four_never_positive(self):
        for mu in np.linspace(1e-3, 2.0, 50):
            for nu in np.linspace(0.0, 2.0, 21):
                c_cos, _ = barrier_cusp(-2.0, mu, nu, 2, 4)
                assert c_cos < 0

    def test_maximal_rank_rejected_by_cusp_barrier(self):
        with pytest.raises(ValueError):
            barrier_cusp(-2.0, 0.1, 1.75, 3, 4)

    def test_maximal_examples(self):
        assert barrier_maximal(2 * 3, 1.0, 4) == pytest.approx(2.0)
        for mu in np.linspace(1e-3, 3.0, 40):
            assert barrier_maximal(-2.0, mu, 4) < -2.0

    def test_H0_examples(self):
        assert barrier_H0(-2.0, 1.5, 4) == pytest.approx(0.25)
        assert barrier_H0(-2.0, 2.0, 4) == pytest.approx(0.0, abs=1e-14)

    def test_margin_is_infimum_of_multiplier(self):
        m = cusp_margin(-2.0, 0.5, 1.75, 1, 4)
        cc, cs = barrier_cusp(-2.0, 0.5, 1.75, 1, 4)
        thetas = np.linspace(0.0, math.pi / 2, 400)
        mults = cc * np.cos(thetas) ** 2 + cs * np.sin(thetas) ** 2
        assert m.delta == pytest.approx(min(cc, cs))
        assert mults.min() >= m.delta - 1e-12


class TestWindows:
    def test_dimension_four(self):
        w = mu0_window(4)
        assert w.lo == pytest.approx(1.5, abs=1e-12)
        assert w.hi == pytest.approx(2.0, abs=1e-12)

    def test_dimension_five(self):
        w = mu0_window(5)
        assert w.lo == pytest.approx(2.0, abs=1e-12)
        assert w.hi == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_dimension_three_empty(self):
        assert mu0_window(3).empty

    def test_double_and_complex_roots_give_empty_windows(self):
        assert indicial_roots(-2.25, 4) == pytest.approx((1.5, 1.5))
        assert mu0_window(4, K=-2.25).empty
        assert mu0_window(4, K=-3.0).empty

    def test_cusp_window_examples(self):
        w = cusp_weight_window(4, 1, 1.75)
        assert w.hi == pytest.approx((-1 + math.sqrt(7.0)) / 2, abs=1e-12)
        assert cusp_weight_window(4, 2, 1.75).empty
        w53 = cusp_weight_window(5, 3, 3.0)
        assert w53.hi == pytest.approx((-3 + math.sqrt(13.0)) / 2, abs=1e-12)

    def test_rank_two_window_empty_over_whole_face_window(self):
        for mu0 in np.linspace(1.5 + 1e-9, 2.0 - 1e-9, 50):
            assert cusp_weight_window(4, 2, mu0).empty


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=4, max_value=12))
def test_window_endpoints_are_exact_roots(n):
    w = mu0_window(n)
    assert not w.empty
    assert barrier_H0(-2.0, w.hi, n) == pytest.approx(0.0, abs=1e-9)
    assert w.lo == pytest.approx((n - 1) / 2.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=4, max_value=10),
    st.floats(min_value=1e-3, max_value=0.999),
)
def test_interior_of_face_window_has_positive_margin(n, frac):
    w = mu0_window(n)
    nu = w.lo + frac * (w.hi - w.lo)
    assert barrier_H0(-2.0, nu, n) > 0
    assert nu > (n - 1) / 2.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=1e-6, max_value=4.9),
    st.integers(min_value=2, max_value=9),
)
def test_maximal_barrier_monotone_obstruction(mu, dmu, n):
    # strictly decreasing in mu and already negative at mu = 0
    assert barrier_maximal(-2.0, 0.0, n) == -2.0
    assert barrier_maximal(-2.0, mu + dmu, n) < barrier_maximal(-2.0, mu, n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=1, max_value=7),
    st.floats(min_value=1e-3, max_value=0.999),
)
def test_cusp_window_membership_matches_inequality(n, f, frac):
    if f > n - 2:
        return
    mu0 = mu0_window(n).midpoint
    w = cusp_weight_window(n, f, mu0)
    if w.empty:
        return
    mu = frac * w.hi
    inside = 0.0 < mu < w.hi
    holds = mu * mu + f * mu < (n - 1 - f) * mu0 - 2.0
    assert inside == holds or mu == pytest.approx(w.hi)


class TestIndicialRoots:
    def test_examples(self):
        assert indicial_roots(-2.0, 4) == pytest.approx((1.0, 2.0))
        assert indicial_roots(0.0, 6) == pytest.approx((0.0, 5.0))
        lo, hi = indicial_roots(6.0, 4)
        assert lo == pytest.approx((3 - math.sqrt(33.0)) / 2)
        assert hi == pytest.approx((3 + math.sqrt(33.0)) / 2)

    def test_complex_roots_rejected(self):
        with pytest.raises(NoRealIndicialRoots):
            indicial_roots(-10.0, 4)


class TestAdmissibleWeights:
    def test_reference_dimension_five(self):
        w, rep = admissible_weights(5, (1, 2))
        assert w.mu0 == 3.0
        assert all(m > 0 for m in w.mus)
        assert rep.min_margin > 0
        assert rep.l2_ok
        assert all(e.chosen_margin.delta > 0 for e in rep.ends)

    def test_rank_two_dimension_four_obstructed(self):
        with pytest.raises(AdmissibilityObstruction) as exc:
            admissible_weights(4, (2,))
        assert "f = 2" in str(exc.value)
        assert exc.value.report is not None

    def test_maximal_rank_obstructed(self):
        with pytest.raises(AdmissibilityObstruction) as exc:
            admissible_weights(4, (3,))
        assert "maximal" in exc.value.reason

    @pytest.mark.parametrize("ranks, bad", [((9,), 9), ((1, 4), 4), ((0,), 0),
                                            ((-1, 3), -1)])
    def test_rank_outside_range_is_invalid_not_obstructed(self, ranks, bad):
        # only f = n - 1 is the maximal-rank obstruction
        with pytest.raises(ValueError) as exc:
            admissible_weights(4, ranks)
        assert not isinstance(exc.value, AdmissibilityObstruction)
        assert str(exc.value) == f"invalid cusp rank {bad}: must lie in 1..n-1"

    def test_dimension_three_too_small(self):
        with pytest.raises(DimensionTooSmall):
            admissible_weights(3, (1,))

    def test_dimension_four_rank_one(self):
        w, rep = admissible_weights(4, (1, 1))
        assert 1.5 < w.mu0 < 2.0
        hi = cusp_weight_window(4, 1, w.mu0).hi
        assert all(0 < m < hi for m in w.mus)
        assert l2_cutoff_check(w)

    def test_closed_form_candidate_discrepancy_surfaced(self):
        # rank n-2 in dimension five: the closed-form candidate 1/(n-2)
        # violates the cusp inequality while a smaller weight passes; both
        # margins must come from the barrier evaluation itself
        w, rep = admissible_weights(5, (3,))
        end = rep.ends[0]
        assert end.candidate == pytest.approx(1 / 3)
        assert not end.candidate_inside
        assert end.candidate_margin.delta == pytest.approx(-1.0 / 9.0, rel=1e-9)
        assert end.chosen_margin.delta > 0
        assert w.mus[0] < end.candidate
        assert rep.notes  # the fallback is reported, not silently patched

    def test_report_round_trips_to_json(self):
        import json

        _, rep = admissible_weights(5, (1, 2))
        payload = json.dumps(rep.to_dict())
        assert "margins" not in payload or True
        parsed = json.loads(payload)
        assert parsed["mu0"] == 3.0
